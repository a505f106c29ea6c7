#!/usr/bin/env python
"""CI benchmark-regression gate.

Runs the kernel-throughput, Fig. 8 scalability (time-only and numeric
variants), phone-tier and multi-tenant scenario benchmarks at reduced
scale, writes the measurements to ``BENCH_ci.json``, and fails (exit 1)
when any gated metric regresses more than ``--tolerance`` (default 20%)
against the committed baseline ``benchmarks/baseline_ci.json``.

Raw events-per-second numbers vary wildly across runner hardware, so the
gate normalizes them by a pure-Python calibration loop timed on the same
machine ("kernel events per calibration op"); speedup ratios are
machine-relative already and are gated directly.  Refresh the baseline
with ``--update-baseline`` after an intentional performance change.

Run locally from the repo root:

    PYTHONPATH=src python benchmarks/ci_gate.py
    PYTHONPATH=src python benchmarks/ci_gate.py --update-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from bench_cloud_ingest import measure_cloud_block_speedup  # noqa: E402
from bench_fig8_scalability import (  # noqa: E402
    measure_numeric_sweep_speedup,
    measure_sweep_speedup,
)
from bench_kernel_throughput import measure_throughputs  # noqa: E402
from bench_phone_tier import measure_phone_tier_speedup  # noqa: E402
from bench_scenarios import (  # noqa: E402
    CI_TENANTS,
    measure_alarm_overhead,
    measure_scenario_ci,
    measure_tracing_overhead,
    measure_transport_overhead,
)

#: Metrics checked against the committed baseline (20% tolerance after
#: on-machine calibration absorbs runner-speed differences).
BASELINE_METRICS = (
    "calibrated_events_legacy",
    "calibrated_events_batched",
    "calibrated_events_pooled",
    "calibrated_scenario_devices",
)

#: Speedup ratios gated by absolute floors instead of the baseline: a
#: ratio already cancels machine speed, but its exact value still shifts
#: with core count and CPU generation, so pinning it to one machine's
#: baseline at 20% would flake across runners.  The floors encode the
#: regression we actually care about: batching must stay decisively
#: faster than per-event execution.
RATIO_FLOORS = {
    "sweep_batched_speedup": 3.0,
    "sweep_best_speedup": 5.0,
    "sweep_numeric_speedup": 3.0,
    "phone_batched_speedup": 3.0,
    "cloud_block_speedup": 2.0,
    # Live alarm evaluation is per monitor event, never per device; the
    # alarmed 12-tenant grid must replay within ~5% of the plain one.
    "alarm_overhead_ratio": 0.95,
    # The transport ingestion gate's lossless fast path is one vectorized
    # deadline compare per block; the gated grid must replay within ~5%
    # of the plain one.
    "transport_overhead_ratio": 0.95,
    # Span recording is tuple appends + O(1) block references with all
    # assembly deferred past the run; the traced grid must replay within
    # ~5% of the plain one.
    "tracing_overhead_ratio": 0.95,
}

GATED_METRICS = BASELINE_METRICS + tuple(RATIO_FLOORS)

CI_EVENT_SCALE = 50_000
CI_SWEEP_SCALE = 20_000
CI_NUMERIC_SCALE = 10_000
CI_PHONE_SCALE = 5_000
CI_PHONE_FLEET = 256
CI_SCENARIO_SCALE = 10_000
CI_CLOUD_SCALE = 12_000

#: Committed digest of the CI grid scenario's report (see golden_ci.json).
GOLDEN_PATH = BENCH_DIR / "golden_ci.json"


def calibration_score(repeats: int = 3) -> float:
    """Operations/second of a fixed pure-Python loop on this machine."""

    def spin() -> int:
        total = 0
        for i in range(200_000):
            total += i * 3 % 7
        return total

    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        spin()
        walls.append(time.perf_counter() - start)
    return 200_000 / min(walls)


def run_benchmarks() -> dict:
    calibration = calibration_score()
    kernel = measure_throughputs(CI_EVENT_SCALE)
    sweep = measure_sweep_speedup(CI_SWEEP_SCALE)
    numeric = measure_numeric_sweep_speedup(CI_NUMERIC_SCALE)
    phone = measure_phone_tier_speedup(CI_PHONE_SCALE, CI_PHONE_FLEET)
    scenario = measure_scenario_ci(CI_SCENARIO_SCALE, n_tenants=CI_TENANTS)
    cloud = measure_cloud_block_speedup(CI_CLOUD_SCALE)
    alarm = measure_alarm_overhead(CI_SCENARIO_SCALE, n_tenants=CI_TENANTS)
    transport = measure_transport_overhead(CI_SCENARIO_SCALE, n_tenants=CI_TENANTS)
    tracing = measure_tracing_overhead(CI_SCENARIO_SCALE, n_tenants=CI_TENANTS)
    return {
        "calibration_ops_per_sec": calibration,
        "kernel": kernel,
        "sweep": sweep,
        "numeric_sweep": numeric,
        "phone_sweep": phone,
        "scenario": scenario,
        "cloud_ingest": cloud,
        "alarm_overhead": alarm,
        "transport_overhead": transport,
        "tracing_overhead": tracing,
        "gated": {
            "calibrated_events_legacy": kernel["events_per_sec_legacy"] / calibration,
            "calibrated_events_batched": kernel["events_per_sec_batched"] / calibration,
            "calibrated_events_pooled": kernel["events_per_sec_pooled"] / calibration,
            "calibrated_scenario_devices": scenario["devices_per_sec"] / calibration,
            "sweep_batched_speedup": sweep["batched_speedup"],
            "sweep_best_speedup": sweep["best_speedup"],
            "sweep_numeric_speedup": numeric["batched_speedup"],
            "phone_batched_speedup": phone["batched_speedup"],
            "cloud_block_speedup": cloud["block_speedup"],
            "alarm_overhead_ratio": alarm["alarm_overhead_ratio"],
            "transport_overhead_ratio": transport["transport_overhead_ratio"],
            "tracing_overhead_ratio": tracing["tracing_overhead_ratio"],
        },
    }


def compare(results: dict, baseline: dict, tolerance: float) -> list[str]:
    failures = []
    baseline_gated = baseline.get("gated", {})
    for metric in BASELINE_METRICS:
        reference = baseline_gated.get(metric)
        if reference is None:
            continue
        measured = results["gated"][metric]
        floor = reference * (1.0 - tolerance)
        status = "OK " if measured >= floor else "FAIL"
        print(
            f"  [{status}] {metric}: {measured:.3f} "
            f"(baseline {reference:.3f}, floor {floor:.3f})"
        )
        if measured < floor:
            failures.append(metric)
    for metric, floor in RATIO_FLOORS.items():
        measured = results["gated"][metric]
        status = "OK " if measured >= floor else "FAIL"
        print(f"  [{status}] {metric}: {measured:.3f} (absolute floor {floor:g})")
        if measured < floor:
            failures.append(metric)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=Path("BENCH_ci.json"))
    parser.add_argument("--baseline", type=Path, default=BENCH_DIR / "baseline_ci.json")
    parser.add_argument("--tolerance", type=float, default=0.20)
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the measured metrics to the baseline file and exit 0",
    )
    args = parser.parse_args(argv)

    print(
        f"Running CI benchmarks (events={CI_EVENT_SCALE}, sweep={CI_SWEEP_SCALE}, "
        f"numeric={CI_NUMERIC_SCALE}, phone={CI_PHONE_SCALE}, "
        f"scenario={CI_SCENARIO_SCALE}x{CI_TENANTS}t, cloud={CI_CLOUD_SCALE}) ..."
    )
    results = run_benchmarks()
    args.output.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"Wrote {args.output}")
    for metric in GATED_METRICS:
        print(f"  {metric}: {results['gated'][metric]:.3f}")

    # The fast paths must preserve simulated results regardless of speed.
    sweep = results["sweep"]
    if not (sweep["batched_round_s"] == sweep["legacy_round_s"] == sweep["sharded4_round_s"]):
        print("FAIL: batched/sharded sweep changed the simulated round time")
        return 1
    if not results["numeric_sweep"]["identical"]:
        print("FAIL: batched numeric sweep changed the simulated results")
        return 1
    if not results["phone_sweep"]["identical"]:
        print("FAIL: wave-scheduled phone tier changed the simulated results")
        return 1
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["grid_scenario"]
    if (golden["total_devices"], golden["n_tenants"]) != (CI_SCENARIO_SCALE, CI_TENANTS):
        print(f"FAIL: {GOLDEN_PATH.name} pins a different grid scenario than the CI point")
        return 1
    if results["scenario"]["report_sha256"] != golden["digest"]:
        print(f"FAIL: batched scenario replay changed the simulated report (vs {GOLDEN_PATH.name})")
        return 1
    if not results["scenario"]["identical"]:
        print("FAIL: batched scenario replay disagrees with the reference model")
        return 1
    if not results["cloud_ingest"]["identical"]:
        print("FAIL: columnar cloud ingestion changed the simulated cloud state")
        return 1
    if results["alarm_overhead"]["alarm_events"] < 1:
        print("FAIL: alarm-overhead run armed rules but no alarm ever transitioned")
        return 1
    if not results["transport_overhead"]["identical"]:
        print("FAIL: the transport ingestion gate changed a lossless scenario report")
        return 1
    if not results["tracing_overhead"]["identical"]:
        print("FAIL: span recording changed the simulated scenario report")
        return 1
    if results["tracing_overhead"]["trace_spans"] < 1:
        print("FAIL: tracing-overhead run armed a tracer but assembled no spans")
        return 1

    if args.update_baseline:
        baseline = {
            "note": "regenerate with: PYTHONPATH=src python benchmarks/ci_gate.py --update-baseline",
            "gated": results["gated"],
        }
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
        print(f"Baseline updated: {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"No baseline at {args.baseline}; run with --update-baseline to create one.")
        return 1

    print(f"Comparing against {args.baseline} (tolerance {args.tolerance:.0%}):")
    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    failures = compare(results, baseline, args.tolerance)
    if failures:
        print(f"Benchmark regression in: {', '.join(failures)}")
        return 1
    print("Benchmark gate passed.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
