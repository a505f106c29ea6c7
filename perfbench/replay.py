"""One scenario replay in its own process; prints one JSON line of results.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/replay.py SCENARIO SCALE SEED plain|traced LAUNCHED

``LAUNCHED`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide), so ``setup_s`` runs from process
start through ``import repro``, the spec build, ``ScenarioRunner(...)``
and ``schedule()``.  ``run_s`` is ``ScenarioRunner.run()`` after that:
replay to idle plus the report build.  ``traced`` replays run with the
per-layer ledger installed and report it; ``plain`` replays run the
program untouched and give the end-to-end numbers.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def replay(scenario: str, scale: int, seed: int, traced: bool, launched: float) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import repro.scenarios as scenarios

    imported = time.monotonic()
    ledger = None
    if traced:
        from ledger import Ledger

        ledger = Ledger()
        ledger.install()
    try:
        spec = scenarios.build_scenario(scenario, scale, seed)
        runner = scenarios.ScenarioRunner(spec)
        built = time.monotonic()
        n_tasks = runner.schedule()
        scheduled = time.monotonic()
        # run() arms the submissions itself; they are already armed (and
        # timed as set-up), so its call gets the count back instead.
        runner.schedule = lambda: n_tasks
        if ledger is not None:
            ledger.reset_times()
        start = time.perf_counter()
        report = runner.run()
        run_s = time.perf_counter() - start
    finally:
        not_restored = ledger.uninstall() if ledger is not None else []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report_json = report.to_json()
    tenants = json.loads(report_json)["tenants"].values()
    device_rounds = sum(t["updates_expected"] for t in tenants)
    result = {
        "digest": hashlib.sha256(report_json.encode()).hexdigest(),
        "spec_sha256": hashlib.sha256(
            json.dumps(spec.to_dict(), sort_keys=True).encode()
        ).hexdigest(),
        "numpy": numpy.__version__,
        "blas": "{name} {version}".format(**numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]),
        "run_s": run_s,
        "setup_s": scheduled - launched,
        "setup.import_s": imported - launched,
        "setup.build_s": built - imported,
        "setup.schedule_s": scheduled - built,
        "peak_rss_mb": peak_rss_mb,
        "device_rounds": device_rounds,
        "counters": {
            "device_rounds": device_rounds,
            "observability.events": len(runner.platform.monitor.events),
        },
    }
    if ledger is not None:
        ledger.finish_counters()
        result["counters"].update(ledger.counters)
        result["ledger"] = {
            "self_s": ledger.self_s,
            "calls": ledger.calls,
            "ratios": {
                **ledger.ratios(),
                "aggregation.update_yield": (
                    sum(t["updates_aggregated"] for t in tenants) / device_rounds
                    if device_rounds
                    else 0.0
                ),
            },
            "not_restored": not_restored,
        }
    return result


def main(argv: list[str]) -> int:
    scenario, scale, seed, mode, launched = argv
    if mode not in ("plain", "traced"):
        raise SystemExit(f"mode must be plain or traced, got {mode!r}")
    result = replay(scenario, int(scale), int(seed), mode == "traced", float(launched))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
