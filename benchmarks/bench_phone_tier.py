"""Bench: the wave-scheduled physical tier vs the per-device reference model.

Table-I / Fig-5 style runs put hundreds of emulated devices per round on
the phone cluster; before the wave schedule every one of them cost a
generator process plus three heap events (push, training signal, upload),
and every benchmarking phone ran its own 1 Hz sampler process with five
ADB string round-trips per sample.  This sweep measures emulated devices
per round (500 -> 5k across 32-256 phones, the reference model in
:mod:`repro.reference` as "legacy" vs the wave schedule) with a pair
of benchmarking phones polling throughout, and asserts the fast path
changed *nothing* about the simulation: same makespan, same completion
times, same benchmark sample series.

``measure_phone_tier_speedup`` is a plain function so ``ci_gate.py`` can
gate the 5k-device point (>=3x floor).
"""

import time

import numpy as np
from conftest import full_scale

from repro.cluster.actor import DeviceAssignment
from repro.experiments.render import format_table
from repro.ml import standard_fl_flow
from repro.phones import PhoneAssignment, PhoneMgr, SimulatedAdb, VirtualPhone, build_fleet
from repro.reference import ReferencePhoneMgr
from repro.simkernel import RandomStreams, Simulator

#: Devices-per-round sweep (paper-style Table-I rounds scaled up).
SWEEP = ((500, 32), (1_000, 64), (2_000, 128), (5_000, 256))
N_BENCH = 2


def phone_round_result(n_devices: int, n_phones: int, batch: bool, n_bench: int = N_BENCH) -> dict:
    """One actual simulated round of the physical tier at ``n_devices``.

    ``batch=False`` is the per-device reference model on the per-event
    kernel loop; ``batch=True``
    drives the same plan through per-phone cumsum wave schedules, the
    shared sampler ticker and columnar outcome blocks.  Fleet construction
    and task preparation (identical in both modes, and paid once per task
    rather than per round) run before the timer starts; the reported wall
    time covers exactly one round.  Returns the simulated makespan, the
    sorted completion times and the benchmark sample series so callers can
    assert the paths are identical.
    """
    sim = Simulator()
    adb = SimulatedAdb()
    streams = RandomStreams(0)
    phones = []
    for i, spec in enumerate(build_fleet(n_phones + n_bench, 0, prefix="BNCH")):
        phone = VirtualPhone(sim, f"bench-{i:04d}", spec, streams=streams)
        adb.register(phone)
        phones.append(phone)
    samples = []
    tier = PhoneMgr if batch else ReferencePhoneMgr
    mgr = tier(sim, adb, phones, streams=streams, on_sample=samples.append)
    plan = PhoneAssignment(
        grade="High",
        assignments=[DeviceAssignment(f"d{i:05d}", "High", 10 + (i % 7)) for i in range(n_devices)],
        benchmarking=[DeviceAssignment(f"b{i}", "High", 10) for i in range(n_bench)],
        n_phones=n_phones,
        flow=standard_fl_flow(),
        numeric=False,
    )
    sim.process(mgr.prepare([plan], task_id="bench"))
    sim.run(batch=batch)
    round_started = sim.now

    wall_start = time.perf_counter()
    proc = sim.process(mgr.run_round(1, None, 0.0, 33_000, None))
    sim.run(batch=batch)
    wall = time.perf_counter() - wall_start

    result = proc.result
    return {
        "wall": wall,
        "makespan": sim.now - round_started,
        "finished": np.sort(result.finished_times()),
        "n_outcomes": result.n_devices,
        "samples": samples,
        "sessions": sum(p.sessions_completed for p in phones),
    }


def measure_phone_tier_speedup(n_devices: int, n_phones: int, repeats: int = 2) -> dict:
    """Wall-clock comparison of legacy vs wave-scheduled phone rounds.

    ``identical`` is true only when both paths report the same simulated
    makespan, bit-identical sorted completion times, the same number of
    emulated sessions on the fleet, and an identical benchmark sample
    series (timestamps and contents).
    """

    def best(batch: bool) -> tuple[float, dict]:
        walls, result = [], None
        for _ in range(repeats):
            result = phone_round_result(n_devices, n_phones, batch=batch)
            walls.append(result["wall"])
        return min(walls), result

    legacy_wall, legacy = best(batch=False)
    batched_wall, batched = best(batch=True)
    identical = (
        legacy["makespan"] == batched["makespan"]
        and legacy["n_outcomes"] == batched["n_outcomes"]
        and legacy["sessions"] == batched["sessions"]
        and legacy["finished"].tobytes() == batched["finished"].tobytes()
        and len(legacy["samples"]) == len(batched["samples"])
        and all(a == b for a, b in zip(legacy["samples"], batched["samples"]))
    )
    return {
        "n_devices": n_devices,
        "n_phones": n_phones,
        "legacy_wall_s": legacy_wall,
        "batched_wall_s": batched_wall,
        "makespan_s": legacy["makespan"],
        "batched_speedup": legacy_wall / batched_wall,
        "identical": identical,
    }


def test_phone_tier_sweep(persist_result):
    """The wave schedule beats per-device generators across the sweep.

    The gate demands >=3x at the 5k-device point with zero change to the
    simulated round (makespan, completion times, sample series compared
    bit-for-bit); smaller points are reported for the scaling shape.
    """
    sweep = SWEEP if full_scale() else SWEEP[:1] + SWEEP[-1:]
    rows = []
    final = None
    for n_devices, n_phones in sweep:
        stats = measure_phone_tier_speedup(n_devices, n_phones)
        assert stats["identical"], (
            f"batched phone tier changed the simulated round at n={n_devices}"
        )
        rows.append(
            (
                n_devices,
                n_phones,
                round(stats["legacy_wall_s"] * 1e3, 1),
                round(stats["batched_wall_s"] * 1e3, 1),
                f"{stats['batched_speedup']:.1f}x",
            )
        )
        final = stats
    assert final["batched_speedup"] >= 3.0
    persist_result(
        "phone_tier_sweep",
        format_table(
            "Phone tier: emulated devices per round, legacy vs wave-scheduled "
            "(simulated results bit-identical)",
            ["devices", "phones", "legacy ms", "batched ms", "speedup"],
            rows,
        ),
    )
