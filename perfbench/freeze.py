"""Write expected.json: the canonical output of every job at seed 0.

    python3 perfbench/freeze.py

The references are regression baselines for the benchmark's correctness
gate, taken from a commit whose outputs are trusted.  Rewriting them hides
any change in results, so do it only when a change of output is intended
and shown correct by the independent oracles under ``tests/``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pgph  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    frozen = {}
    for name in workloads.WORKLOADS:
        frozen[name] = {}
        for job in workloads.setup(name, 0, pgph):
            result = job.run()
            if isinstance(result, dict) and result.get("failures"):
                # a partial report is no reference
                print(f"{name} {job.name}: failures {result['failures']}",
                      file=sys.stderr)
                return 1
            problem = job.check(result)
            if problem:
                print(f"{name} {job.name}: {problem}", file=sys.stderr)
                return 1
            frozen[name][job.name] = workloads.canonical(result)
        print(f"{name}: {len(frozen[name])} jobs", file=sys.stderr)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump(frozen, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
