"""Regenerate ``golden.json``: report digests and work counters at the default seed.

Run from the repository root after a change that is meant to alter the
simulated results (and say so in the change)::

    python3 perfbench/golden.py

For each workload it runs one plain and one traced replay, requires the
two to agree, and records the digest and the union of their counters.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, GOLDEN, WORKLOADS, Expectations, launch


def main() -> int:
    workloads = {}
    for workload, (scenario, scale) in WORKLOADS.items():
        expect = Expectations(None, {})
        for mode in ("plain", "traced"):
            expect.check(launch(scenario, scale, DEFAULT_SEED, mode, timeout=600.0))
        workloads[workload] = {
            "scenario": scenario,
            "scale": scale,
            "digest": expect.digest,
            "counters": dict(sorted(expect.counters.items())),
        }
        print(f"{workload}: {expect.digest}")
    GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": workloads}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
