"""SimDC benchmark: closed-loop scenario replays, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload flow_burst --seed 0 --seconds 35 --trace 0

Each replay is one closed-loop operation: a fresh single-threaded process
runs ``build_scenario(name, scale, seed)`` -> ``ScenarioRunner(spec).run()``
through the public API, and the next replay starts only after the
previous one has exited.  Replays repeat until ``--seconds`` have passed.
All times are host time; the simulated results are pinned by the report
digest and the work counters, and a replay whose report or counters
differ from the committed ones (``golden.json``, at the default seed) or,
at other seeds, from the run's first replay counts as failed.

``--trace 0`` runs plain replays only and prints the end-to-end metrics
(medians over the replays).  ``--trace 1`` interleaves plain replays
with traced ones, in which ``ledger.py`` wraps each layer's public entry
points from outside the program, and prints the per-layer ledger of the
median traced replay.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"

#: Workload -> (library scenario, scale).  Scales give 2-4 s replays on a
#: 2-core x86 host, so a 35 s run takes about ten samples.
WORKLOADS = {
    # Time-only tenants with threshold-1 realtime dispatch: every
    # device-round is one Message through DeviceFlow and one scalar cloud
    # ingest, while the data, ml and transport layers do no work.
    "flow_burst": ("flash_crowd", 100_000),
    # Numeric FedAvg over synthetic Avazu through a lossy channel with
    # retries, duplicates, an outage and deadline-closed rounds: data, ml
    # and transport carry the run, flow ingest is about 1% of it.
    "lossy_train": ("lossy_uplink", 10_000),
    # The same data/ml load with no channel (a transport change must
    # leave it flat), columnar block ingest beside interval and realtime
    # flow, four tenants contending by priority, and benchmarking phones.
    "diurnal_mix": ("diurnal_multitenant", 15_000),
}
DEFAULT_SEED = 0
#: The whole run must end within the benchmark contract's 180 s.
TIME_LIMIT_S = 170.0
#: BLAS threads per replay; replays are single-threaded processes.
BLAS_THREADS = 1


class ReplayFailed(Exception):
    """A replay raised, timed out, or produced other results than expected."""


def git_rev() -> str | None:
    """HEAD of the checkout's own ``.git``, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    """Content hash of the program's sources (names and bytes)."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def replay_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # One hash seed for every replay, so str-keyed sets and dicts lay out
    # (and cost) the same from one replay to the next.
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(scenario: str, scale: int, seed: int, mode: str, timeout: float) -> dict:
    """Run one replay process to completion and return its result."""
    launched = time.monotonic()
    command = [sys.executable, str(HERE / "replay.py"), scenario, str(scale), str(seed), mode, repr(launched)]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=replay_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise ReplayFailed(f"{mode} replay timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ReplayFailed(f"{mode} replay exited {proc.returncode}: {tail[0]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["mode"] = mode
    return result


class Expectations:
    """What every replay of one (workload, seed) must reproduce exactly."""

    def __init__(self, digest: str | None, counters: dict[str, int]) -> None:
        self.digest = digest
        self.counters = dict(counters)

    def check(self, result: dict) -> None:
        if self.digest is None:
            self.digest = result["digest"]
        elif result["digest"] != self.digest:
            raise ReplayFailed(
                f"{result['mode']} report digest {result['digest'][:12]} != expected {self.digest[:12]}"
            )
        for name, value in result["counters"].items():
            expected = self.counters.setdefault(name, value)
            if value != expected:
                raise ReplayFailed(f"{result['mode']} counter {name} = {value}, expected {expected}")
        not_restored = result.get("ledger", {}).get("not_restored")
        if not_restored:
            raise ReplayFailed(f"ledger left wrapped: {', '.join(not_restored)}")


def load_expectations(workload: str, seed: int) -> Expectations:
    """Committed digest and counters at the default seed; none elsewhere."""
    if seed != DEFAULT_SEED:
        return Expectations(None, {})
    entry = json.loads(GOLDEN.read_text())["workloads"][workload]
    scenario, scale = WORKLOADS[workload]
    if (entry["scenario"], entry["scale"]) != (scenario, scale):
        raise SystemExit(f"{GOLDEN.name} is stale for {workload}; regenerate it with perfbench/golden.py")
    return Expectations(entry["digest"], entry["counters"])


def replay_line(result: dict) -> str:
    return (
        f"replay {result['mode']:<6} run_s {result['run_s']:.4f}  setup_s {result['setup_s']:.4f}  "
        f"peak_rss_mb {result['peak_rss_mb']:.1f}  digest {result['digest'][:12]}  "
        + " ".join(f"{k}={v}" for k, v in sorted(result["counters"].items()))
    )


def end_to_end(plain: list[dict]) -> dict[str, tuple[list[float], str]]:
    """Per-replay samples of each end-to-end metric, with its unit."""
    return {
        "run_s": ([r["run_s"] for r in plain], "s"),
        "device_rounds_per_s": ([r["device_rounds"] / r["run_s"] for r in plain], "1/s"),
        "setup_s": ([r["setup_s"] for r in plain], "s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in plain], "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    """The ledger of the median traced replay, so its rows sum to its run_s."""
    from ledger import COUNTERS, LAYERS

    ranked = sorted(traced, key=lambda r: r["run_s"])
    chosen = ranked[(len(ranked) - 1) // 2]
    ledger = chosen["ledger"]
    run_s = chosen["run_s"]
    device_rounds = chosen["device_rounds"]
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        self_s = ledger["self_s"][layer]
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.calls"] = (ledger["calls"][layer], "count")
        metrics[f"{layer}.us_per_device_round"] = (self_s * 1e6 / device_rounds, "us")
    for name in COUNTERS:
        metrics[name] = (chosen["counters"][name], "count")
    events = chosen["counters"]["simkernel.events"]
    metrics["simkernel.host_us_per_event"] = (
        ledger["self_s"]["simkernel"] * 1e6 / events if events else 0.0, "us"
    )
    for name, value in ledger["ratios"].items():
        metrics[name] = (value, "ratio")
    metrics["traced.run_s"] = (run_s, "s")
    metrics["unattributed_s"] = (run_s - sum(ledger["self_s"].values()), "s")
    metrics["trace_overhead"] = (
        statistics.median([r["run_s"] for r in traced]) / statistics.median([r["run_s"] for r in plain]), "ratio"
    )
    for part in ("setup.import_s", "setup.build_s", "setup.schedule_s"):
        metrics[part] = (statistics.median([r[part] for r in plain]), "s")
    return metrics


def print_ledger(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    """The layer table (rows sum to the traced run_s), then the other metrics."""
    from ledger import LAYERS

    run_s = metrics["traced.run_s"][0]
    print(title)
    print(f"  {'layer':<15} {'self_s':>9} {'share':>7} {'calls':>9} {'us/device-round':>16}")
    shown = {"unattributed_s", "traced.run_s"}
    for layer in LAYERS:
        row = [f"{layer}.{column}" for column in ("self_s", "calls", "us_per_device_round")]
        shown.update(row)
        self_s, calls, per_device = (metrics[name][0] for name in row)
        print(f"  {layer:<15} {self_s:>9.4f} {self_s / run_s:>7.1%} {calls:>9} {per_device:>16.3f}")
    unattributed = metrics["unattributed_s"][0]
    print(f"  {'unattributed':<15} {unattributed:>9.4f} {unattributed / run_s:>7.1%}")
    print(f"  {'traced run_s':<15} {run_s:>9.4f}")
    for name, (value, unit) in metrics.items():
        if name not in shown:
            print(f"  {name:<31} {value:>14.6g} {unit}")


def print_samples(title: str, samples: dict[str, tuple[list[float], str]]) -> None:
    print(title)
    for name, (values, unit) in samples.items():
        print(
            f"  {name:<22} median {statistics.median(values):>12.6g}  "
            f"min {min(values):>12.6g}  max {max(values):>12.6g}  {unit:<5} n={len(values)}"
        )


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "scenarios").is_dir():
        print(f"error: no SimDC sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scenario, scale = WORKLOADS[args.workload]
    expect = load_expectations(args.workload, args.seed)
    modes = ("plain", "traced") if args.trace else ("plain",)
    results: dict[str, list[dict]] = {mode: [] for mode in modes}
    attempted = failed = 0
    # Closed loop: one replay at a time.  Traced runs alternate which
    # mode goes first in each pair, so drift does not favour either.
    # A pass is one replay of each mode; no pass starts that would not
    # end within --seconds, judging by the passes so far.
    order = list(modes)
    measuring = time.monotonic()
    passes = 0
    while True:
        for mode in order:
            remaining = TIME_LIMIT_S - (time.monotonic() - started)
            if remaining <= 0:
                break
            attempted += 1
            try:
                result = launch(scenario, scale, args.seed, mode, remaining)
                expect.check(result)
            except ReplayFailed as exc:
                failed += 1
                print(f"replay {mode:<6} FAILED: {exc}")
                continue
            results[mode].append(result)
            print(replay_line(result))
        order.reverse()
        passes += 1
        elapsed = time.monotonic() - measuring
        if (
            elapsed * (passes + 1) / passes > args.seconds
            or time.monotonic() - started >= TIME_LIMIT_S
            or not any(results.values())
        ):
            break
    if not all(results.values()):
        print(f"error: no successful {' and '.join(modes)} replay ({failed} failed)", file=sys.stderr)
        return 1

    plain = results["plain"]
    first = plain[0]
    nproc = len(os.sched_getaffinity(0))
    manifest = {
        "workload": args.workload,
        "scenario": scenario,
        "scale": scale,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "src_sha256": src_sha256(),
        "spec_sha256": first["spec_sha256"],
        "report_sha256": first["digest"],
        "golden": args.seed == DEFAULT_SEED,
        "python": platform.python_version(),
        "numpy": first["numpy"],
        "blas": first["blas"],
        "blas_threads": min(BLAS_THREADS, nproc),
        "nproc": nproc,
        "replays": {mode: len(rs) for mode, rs in results.items()},
        "device_rounds": first["device_rounds"],
    }
    print("manifest " + json.dumps(manifest, sort_keys=True))
    samples = end_to_end(plain)
    print_samples("end-to-end (plain replays)", samples)
    print(f"  {'failed_share':<22} {failed / attempted:.4g} ratio ({failed} of {attempted} replays failed)")
    metrics = {name: (statistics.median(values), unit) for name, (values, unit) in samples.items()}
    if args.trace:
        metrics = per_layer(plain, results["traced"])
        print_ledger(f"per-layer: ledger of the median traced replay (n={len(results['traced'])})", metrics)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
