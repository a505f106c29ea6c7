"""Property suites for the shared benchmark-sampler ticker and the
round-robin partition.

The shared ticker samples every benchmarking phone from one recurring
pooled tick; the reference model (:class:`repro.reference.ReferencePhoneMgr`)
runs one polling process per phone.  Hypothesis drives full benchmark
sessions over arbitrary poll intervals and stage windows (including
intervals that collide with or exceed the windows, where tie-breaking
against stage boundaries is subtle) and asserts the sampled series —
timestamps, contents, and session end times — is identical in both.
The round-robin queue partition that both the reference generators and
the wave schedule rely on is checked for exactly-once coverage.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import CallbackSink
from repro.cluster.actor import DeviceAssignment
from repro.ml import standard_fl_flow
from repro.phones import (
    PhoneAssignment,
    PhoneMgr,
    PhysicalCostModel,
    SimulatedAdb,
    VirtualPhone,
    build_fleet,
)
from repro.reference import ReferencePhoneMgr, partition_round_robin
from repro.simkernel import RandomStreams, Simulator


def run_benchmark_session(wave: bool, poll: float, window: float, n_bench: int,
                          rounds: int, seed: int):
    sim = Simulator()
    adb = SimulatedAdb()
    streams = RandomStreams(seed)
    phones = []
    for i, spec in enumerate(build_fleet(n_bench, 0)):
        phone = VirtualPhone(sim, f"ph-{i:02d}", spec, streams=streams)
        adb.register(phone)
        phones.append(phone)
    samples = []
    mgr = (PhoneMgr if wave else ReferencePhoneMgr)(
        sim, adb, phones,
        cost_model=PhysicalCostModel(stage_window=window),
        streams=streams, poll_interval=poll,
        on_sample=samples.append,
    )
    plan = PhoneAssignment(
        grade="High",
        assignments=[],
        benchmarking=[DeviceAssignment(f"b{i}", "High", 10) for i in range(n_bench)],
        n_phones=0,
        flow=standard_fl_flow(),
        numeric=False,
    )

    def drive():
        yield sim.process(mgr.prepare([plan], task_id="t"))
        for round_index in range(1, rounds + 1):
            yield sim.process(mgr.run_round(round_index, None, 0.0, 33000, CallbackSink(lambda o: None)))

    sim.process(drive())
    sim.run(batch=wave)
    return samples, mgr.benchmark_records, sim.now


@given(
    poll=st.floats(min_value=0.05, max_value=40.0, allow_nan=False, allow_infinity=False),
    window=st.floats(min_value=0.5, max_value=20.0, allow_nan=False, allow_infinity=False),
    n_bench=st.integers(min_value=1, max_value=3),
    rounds=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_shared_ticker_matches_per_phone_loops(poll, window, n_bench, rounds, seed):
    legacy_samples, legacy_records, legacy_end = run_benchmark_session(
        False, poll, window, n_bench, rounds, seed
    )
    ticker_samples, ticker_records, ticker_end = run_benchmark_session(
        True, poll, window, n_bench, rounds, seed
    )
    assert ticker_end == legacy_end
    assert len(ticker_samples) == len(legacy_samples)
    for a, b in zip(legacy_samples, ticker_samples):
        # Dataclass equality covers timestamp, serial and every metric.
        assert a == b
    for rec_a, rec_b in zip(legacy_records, ticker_records):
        assert rec_a.serial == rec_b.serial
        assert rec_a.boundaries == rec_b.boundaries
        assert rec_a.samples == rec_b.samples


@given(
    n_assignments=st.integers(min_value=0, max_value=200),
    n_phones=st.integers(min_value=1, max_value=32),
)
@settings(max_examples=100, deadline=None)
def test_partition_round_robin_exactly_once(n_assignments, n_phones):
    assignments = [DeviceAssignment(f"d{i}", "Std", 1 + i) for i in range(n_assignments)]
    queues = partition_round_robin(assignments, n_phones)
    assert len(queues) == n_phones
    # Every assignment lands exactly once, at position index // n_phones of
    # queue index % n_phones — the layout the wave schedule inverts.
    seen = []
    for phone_index, queue in enumerate(queues):
        for wave_index, assignment in enumerate(queue):
            original = wave_index * n_phones + phone_index
            assert assignments[original] is assignment
            seen.append(assignment.device_id)
    assert sorted(seen) == sorted(a.device_id for a in assignments)
    # Balanced: queue lengths differ by at most one, longest first.
    lengths = [len(q) for q in queues]
    assert max(lengths) - min(lengths) <= 1
    assert lengths == sorted(lengths, reverse=True)
