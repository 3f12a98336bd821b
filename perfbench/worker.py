"""One benchmark worker: a fresh process that runs one workload once.

The library keeps process-global caches (resolutions, chain maps, bar
boundaries, integral homology, coclass families), so a repeat inside one
process would time dictionary lookups.  ``run.py`` therefore starts a new
worker for every sample and passes it the monotonic time of the spawn.

The worker imports ``pgph`` from the checkout's ``src``, builds the
workload's inputs (set-up), runs the job list in order with one client,
checks every output against ``expected.json`` and the job's own identity,
and prints one JSON line with its timings, its ``RUSAGE_SELF`` figures and
the host's versions.  With ``--first-only`` it stops after the first job,
which gives one more ``setup_s`` and ``first_result_s`` sample, or right
after set-up when the list is a single job, which gives one more
``setup_s``; either costs a fraction of a full worker.  With
``--trace PATH`` the layers are wrapped by ``spans.Tracer``, the spans go
to PATH and the per-layer values into the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _host(numpy_version: str) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() at process spawn")
    parser.add_argument("--first-only", action="store_true")
    parser.add_argument("--trace", metavar="PATH")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import spans
    import workloads

    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)[args.workload]

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    import numpy
    import pgph
    if not os.path.abspath(pgph.__file__).startswith(SRC + os.sep):
        print(f"pgph imported from {pgph.__file__}, not {SRC}", file=sys.stderr)
        return 2

    jobs = workloads.setup(args.workload, args.seed, pgph)
    ready = time.monotonic()
    out = {"setup_s": ready - args.spawned, "host": _host(numpy.__version__)}
    if args.first_only:
        jobs = jobs[:1] if len(jobs) > 1 else []

    failed = 0
    mismatches = []
    first = None
    for job in jobs:
        try:
            result = job.run()
        except pgph.PgphError as exc:
            failed += 1
            print(f"{job.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            if isinstance(result, dict) and result.get("failures"):
                failed += 1
                print(f"{job.name}: {result['failures']}", file=sys.stderr)
            elif workloads.canonical(result) != expected.get(job.name):
                mismatches.append(f"{job.name}: differs from expected.json")
            else:
                problem = job.check(result)
                if problem:
                    mismatches.append(f"{job.name}: {problem}")
        if first is None:
            first = time.monotonic()
    done = time.monotonic()
    if first is not None:
        out["first_result_s"] = first - args.spawned

    usage = resource.getrusage(resource.RUSAGE_SELF)
    out.update({
        "run_s": done - ready,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "attempted": len(jobs),
        "failed": failed,
        "mismatches": mismatches,
    })
    if tracer is not None:
        out["layers"] = tracer.metrics(usage.ru_utime + usage.ru_stime)
        tracer.write(args.trace, {"workload": args.workload, "seed": args.seed,
                                  "host": out["host"], "metrics": out["layers"]})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
