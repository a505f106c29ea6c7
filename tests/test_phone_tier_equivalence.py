"""Differential suite: the wave-scheduled phone tier is bit-identical to
the per-device reference model.

The reference model (:class:`repro.reference.ReferencePhoneMgr`: one
generator + three heap events per emulated device, one 1 Hz sampler
process per benchmarking phone, ADB string round-trips per sample) is the
oracle for PhoneMgr's wave path (per-phone cumsum wave schedules in a
TimeoutPool, one shared sampler ticker, direct sensor sampling).  Both
must produce *bit-identical* simulations: outcome
streams (ids, payloads, model updates, emission order), completion times,
benchmark sample series, Table-I stage summaries, and per-phone physical
state (battery accounts, WLAN counters, session counts) — across multiple
rounds, numeric and time-only plans, mixed grades and MSP control latency.
"""

import numpy as np
import pytest

from repro.cloud import CallbackSink
from repro.cluster.actor import DeviceAssignment
from repro.data import SyntheticAvazu
from repro.ml import standard_fl_flow
from repro.ml.operators import OperatorFlow, UploadUpdateOp
from repro.phones import (
    MobileServicePlatform,
    PhoneAssignment,
    PhoneMgr,
    PhysicalCostModel,
    SimulatedAdb,
    VirtualPhone,
    build_fleet,
)
from repro.phones.specs import DEFAULT_MSP_FLEET
from repro.reference import ReferencePhoneMgr
from repro.simkernel import RandomStreams, Simulator, Timeout

SEED = 7
FEATURE_DIM = 32
MODEL_BYTES = FEATURE_DIM * 8 + 8 + 64


def build_rig(wave: bool, n_phones: int, seed: int = SEED, poll: float = 1.0,
              window: float = 15.0, msp: bool = False):
    """A phone fleet plus manager: PhoneMgr when ``wave``, else the reference."""
    sim = Simulator()
    adb = SimulatedAdb()
    streams = RandomStreams(seed)
    phones = []
    if msp:
        platform = MobileServicePlatform(
            sim, adb, DEFAULT_MSP_FLEET[:n_phones], streams=streams, control_latency=0.8
        )
        phones = platform.provision()
    else:
        for i, spec in enumerate(build_fleet(n_phones, n_phones)):
            phone = VirtualPhone(sim, f"ph-{i:03d}", spec, streams=streams)
            adb.register(phone)
            phones.append(phone)
    samples = []
    cost = PhysicalCostModel(
        stage_window=window, msp_control_latency=0.8 if msp else 0.0
    )
    mgr = (PhoneMgr if wave else ReferencePhoneMgr)(
        sim, adb, phones, cost_model=cost, streams=streams,
        poll_interval=poll, on_sample=samples.append,
    )
    return sim, mgr, phones, samples


def time_only_plan(grade: str, n_devices: int, n_phones: int, n_bench: int) -> PhoneAssignment:
    return PhoneAssignment(
        grade=grade,
        # Varying n_samples -> varying push durations, so waves de-sync and
        # the cumsum chains are exercised per phone, not per plan.
        assignments=[DeviceAssignment(f"{grade}-d{i}", grade, 10 + (i % 7)) for i in range(n_devices)],
        benchmarking=[DeviceAssignment(f"{grade}-b{i}", grade, 10) for i in range(n_bench)],
        n_phones=n_phones,
        flow=standard_fl_flow(),
        numeric=False,
    )


def numeric_plan(grade: str, n_devices: int, n_phones: int, n_bench: int, seed: int = 3) -> PhoneAssignment:
    data = SyntheticAvazu(
        n_devices=n_devices + n_bench, records_per_device=9, feature_dim=FEATURE_DIM, seed=seed
    ).generate()
    ids = data.device_ids()

    def make(device_id: str) -> DeviceAssignment:
        shard = data.shard(device_id)
        return DeviceAssignment(device_id, grade, shard.n_samples, dataset=shard)

    return PhoneAssignment(
        grade=grade,
        assignments=[make(d) for d in ids[:n_devices]],
        benchmarking=[make(d) for d in ids[n_devices:]],
        n_phones=n_phones,
        flow=standard_fl_flow(epochs=2),
        feature_dim=FEATURE_DIM,
        numeric=True,
    )


def run_session(wave: bool, plans, n_phones: int, rounds: int = 2, numeric: bool = False,
                poll: float = 1.0, window: float = 15.0, msp: bool = False, seed: int = SEED):
    """Drive prepare -> rounds -> teardown; return everything observable.

    ``wave=False`` runs the reference model on the per-event kernel loop.
    """
    sim, mgr, phones, samples = build_rig(wave, n_phones, seed=seed, poll=poll,
                                          window=window, msp=msp)
    outcomes = []
    weights = np.zeros(FEATURE_DIM) if numeric else None
    model_bytes = MODEL_BYTES if numeric else 33000

    def drive():
        yield sim.process(mgr.prepare(plans, task_id="task"))
        for round_index in range(1, rounds + 1):
            yield sim.process(
                mgr.run_round(round_index, weights, 0.0, model_bytes, CallbackSink(outcomes.append))
            )
        yield sim.process(mgr.teardown())

    sim.process(drive())
    sim.run(batch=wave)
    return {
        "mgr": mgr,
        "phones": phones,
        "outcomes": outcomes,
        "samples": samples,
        "end": sim.now,
        "rounds": mgr.rounds,
    }


def assert_equivalent(legacy: dict, batched: dict) -> None:
    """``legacy`` is the reference session, ``batched`` the wave session."""
    """Full bit-level comparison of two sessions."""
    assert legacy["end"] == batched["end"]
    # Outcome stream: same devices, same order, same times, same payloads.
    assert len(legacy["outcomes"]) == len(batched["outcomes"])
    for a, b in zip(legacy["outcomes"], batched["outcomes"]):
        assert (a.device_id, a.grade, a.round_index, a.n_samples, a.payload_bytes) == (
            b.device_id, b.grade, b.round_index, b.n_samples, b.payload_bytes
        )
        assert a.finished_at == b.finished_at
        if a.update is None:
            assert b.update is None
        else:
            assert a.update.weights.tobytes() == b.update.weights.tobytes()
            assert a.update.bias == b.update.bias
            assert a.update.n_samples == b.update.n_samples
            assert a.update.metadata == b.update.metadata
    # Round bookkeeping.
    for ra, rb in zip(legacy["rounds"], batched["rounds"]):
        assert (ra.started_at, ra.finished_at, ra.n_devices) == (rb.started_at, rb.finished_at, rb.n_devices)
    # Benchmark sample series (timestamps AND contents) and Table-I rows.
    assert len(legacy["samples"]) == len(batched["samples"])
    for a, b in zip(legacy["samples"], batched["samples"]):
        assert a == b
    records_a, records_b = legacy["mgr"].benchmark_records, batched["mgr"].benchmark_records
    assert len(records_a) == len(records_b)
    for rec_a, rec_b in zip(records_a, records_b):
        assert rec_a.serial == rec_b.serial
        assert rec_a.boundaries == rec_b.boundaries
        assert rec_a.samples == rec_b.samples
        assert rec_a.stage_summaries() == rec_b.stage_summaries()
    # Per-phone physical state after teardown.
    for pa, pb in zip(legacy["phones"], batched["phones"]):
        assert pa.serial == pb.serial
        assert pa.sessions_completed == pb.sessions_completed
        assert pa.battery.consumed_mah == pb.battery.consumed_mah
        assert pa.stage_energy_mah == pb.stage_energy_mah
        assert pa.stage_durations == pb.stage_durations
        assert (pa._net_rx_base, pa._net_tx_base) == (pb._net_rx_base, pb._net_tx_base)


class TestTimeOnlyEquivalence:
    def test_multi_wave_multi_round(self):
        plans = [time_only_plan("High", 13, 4, 2)]
        assert_equivalent(
            run_session(False, plans, 8),
            run_session(True, [time_only_plan("High", 13, 4, 2)], 8),
        )

    def test_mixed_grades(self):
        def plans():
            return [time_only_plan("High", 9, 3, 1), time_only_plan("Low", 7, 2, 1)]

        assert_equivalent(
            run_session(False, plans(), 6),
            run_session(True, plans(), 6),
        )

    def test_msp_control_latency(self):
        def plans():
            return [time_only_plan("High", 6, 3, 1)]

        assert_equivalent(
            run_session(False, plans(), 8, msp=True),
            run_session(True, plans(), 8, msp=True),
        )

    def test_more_phones_than_devices(self):
        # Some phones get empty queues; the wave schedule must skip them
        # exactly as the reference generators do.
        def plans():
            return [time_only_plan("High", 3, 5, 0)]

        assert_equivalent(
            run_session(False, plans(), 6),
            run_session(True, plans(), 6),
        )

    @pytest.mark.parametrize("poll", [0.37, 5.0, 15.0, 31.0])
    def test_sampler_tie_breaking(self, poll):
        # Poll intervals that collide with (or exceed) the stage windows:
        # the shared ticker must reproduce the reference per-phone loops'
        # boundary tie ordering and final-tick semantics.
        def plans():
            return [time_only_plan("High", 4, 2, 2)]

        assert_equivalent(
            run_session(False, plans(), 6, poll=poll),
            run_session(True, plans(), 6, poll=poll),
        )


class TestNumericEquivalence:
    def test_numeric_updates_bitwise(self):
        assert_equivalent(
            run_session(False, [numeric_plan("High", 10, 3, 2)], 8, numeric=True),
            run_session(True, [numeric_plan("High", 10, 3, 2)], 8, numeric=True),
        )

    def test_numeric_stream_continuity_across_rounds(self):
        # phone-exec.* streams are cached per device: round 2 must continue
        # the same generators in both models, so a 3-round run diverges if
        # either consumes draws differently.
        assert_equivalent(
            run_session(False, [numeric_plan("Low", 6, 2, 1)], 6, numeric=True, rounds=3),
            run_session(True, [numeric_plan("Low", 6, 2, 1)], 6, numeric=True, rounds=3),
        )

    def test_custom_flow_without_block_support_falls_back(self):
        # A flow whose last operator lacks apply_block still runs on the
        # wave schedule (the block executes per row) and must match the
        # reference model.
        class NoBlockUpload(UploadUpdateOp):
            supports_block = False

        def plans():
            plan = numeric_plan("High", 5, 2, 0)
            flow = standard_fl_flow(epochs=1)
            return [
                PhoneAssignment(
                    grade=plan.grade,
                    assignments=plan.assignments,
                    benchmarking=[],
                    n_phones=2,
                    flow=OperatorFlow(list(flow.operators[:-1]) + [NoBlockUpload()]),
                    feature_dim=FEATURE_DIM,
                    numeric=True,
                )
            ]

        assert not plans()[0].flow.supports_block
        assert_equivalent(
            run_session(False, plans(), 4, numeric=True),
            run_session(True, plans(), 4, numeric=True),
        )


class TestFullPlatformEquivalence:
    def test_fig5_trace_identical_through_the_whole_stack(self, golden, sha256):
        # End to end: SimDC platform -> TaskRunner -> PhoneMgr -> cloud DB.
        # The sample series and round windows must match the golden trace
        # recorded when the per-device engine and the wave path agreed.
        import dataclasses
        import json

        from repro.experiments import run_fig5_device_trace

        trace = run_fig5_device_trace(rounds=2)
        assert trace.n_samples > 0 and len(trace.round_windows) == 2
        digest = sha256(json.dumps(dataclasses.asdict(trace), sort_keys=True))
        assert digest == golden["experiments"]["fig5_device_trace"]


class TestAbortMidRound:
    def test_abort_releases_in_flight_batched_round(self):
        # A sibling failure (e.g. the logical tier crashing) triggers
        # PhoneMgr.abort() while a wave-scheduled round is still pending
        # in the pool.  The voided callbacks must not leak the round
        # process: its barrier fires at abort time and the simulation
        # drains without touching the released phones further.
        sim, mgr, phones, _ = build_rig(True, 6)
        plan = time_only_plan("High", 12, 3, 0)
        sessions_at_abort = {}

        def drive():
            yield sim.process(mgr.prepare([plan], task_id="t"))
            round_proc = sim.process(mgr.run_round(1, None, 0.0, 33000, CallbackSink(lambda o: None)))
            yield Timeout(20.0)  # mid-round: first wave done, rest pending
            mgr.abort()
            sessions_at_abort.update(
                {p.serial: p.sessions_completed for p in phones}
            )
            yield round_proc  # must resolve instead of leaking forever

        proc = sim.process(drive())
        sim.run(batch=True)
        assert proc.done and proc.error is None
        assert sim.pending_events == 0
        assert mgr.rounds[0].aborted
        assert mgr.plans == []
        assert len(mgr.available_phones("High")) == 6
        # Epoch-voided callbacks did not replay sessions after the abort.
        for phone in phones:
            assert phone.sessions_completed == sessions_at_abort[phone.serial]


class TestColumnarRounds:
    def test_columnar_blocks_match_eager_outcomes(self):
        # Without a callback the wave path emits one columnar block per
        # plan; materializing it must reproduce the eager outcome stream.
        sim, mgr, phones, _ = build_rig(True, 6)
        plan = time_only_plan("High", 11, 3, 0)

        def drive():
            yield sim.process(mgr.prepare([plan], task_id="t"))
            yield sim.process(mgr.run_round(1, None, 0.0, 33000, None))

        sim.process(drive())
        sim.run(batch=True)
        result = mgr.rounds[0]
        assert result.outcomes == []
        assert len(result.columnar) == 1
        materialized = result.all_outcomes()

        eager = run_session(True, [time_only_plan("High", 11, 3, 0)], 6, rounds=1)
        # Columnar blocks store assignment order; eager emission is
        # chronological — same multiset, per-device fields bit-identical.
        assert sorted(o.device_id for o in materialized) == sorted(
            o.device_id for o in eager["outcomes"]
        )
        lookup = {o.device_id: o for o in eager["outcomes"]}
        for outcome in materialized:
            reference = lookup[outcome.device_id]
            assert outcome.finished_at == reference.finished_at
            assert outcome.payload_bytes == reference.payload_bytes
        assert result.finished_at == eager["rounds"][0].finished_at

    def test_columnar_numeric_fedavg_inputs(self):
        sim, mgr, phones, _ = build_rig(True, 6)
        plan = numeric_plan("High", 8, 3, 0)

        def drive():
            yield sim.process(mgr.prepare([plan], task_id="t"))
            yield sim.process(mgr.run_round(1, np.zeros(FEATURE_DIM), 0.0, MODEL_BYTES, None))

        sim.process(drive())
        sim.run(batch=True)
        weights, biases, n_samples = mgr.rounds[0].fedavg_inputs()
        assert weights.shape == (8, FEATURE_DIM)

        eager = run_session(True, [numeric_plan("High", 8, 3, 0)], 6, numeric=True, rounds=1)
        by_device = {o.device_id: o for o in eager["outcomes"] if o.update is not None}
        # Columnar arrays are in assignment order; compare per device.
        block = mgr.rounds[0].columnar[0]
        for position, assignment in enumerate(block.plan.assignments):
            reference = by_device[assignment.device_id]
            assert weights[position].tobytes() == reference.update.weights.tobytes()
            assert biases[position] == reference.update.bias
            assert n_samples[position] == reference.n_samples
