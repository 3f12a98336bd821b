"""pgph benchmark: start the workers of one run and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of the workloads in
``workloads.py``, or ``all`` to run each of them in turn and print every
metric by name with its unit.

Each sample is a fresh ``worker.py`` process (the library's caches are
process-global), started one after another.  An untraced run starts the
workload's ``SAMPLES`` of full and short workers, interleaved so that the
samples of every metric spread over the run, then adds more while another
one fits in S seconds.  The last stdout line is one JSON object:

* ``--trace 0``: ``setup_s`` is the median over every worker,
  ``first_result_s`` over every worker that ran the first job, ``run_s``
  and ``peak_rss_mb`` over the full workers;
* ``--trace 1``: at least ``MIN_PAIRS`` pairs of one untraced and one
  traced full worker, in alternating order; the per-layer medians of the
  traced ones, and ``trace.overhead_frac``, the median over the pairs of
  traced over untraced ``run_s``, minus one.

``attempted`` and ``failed`` count jobs over all workers; a job fails
when it raises a ``PgphError`` or ``classify`` lists failures.  Every job
succeeds at the commit the references were frozen from, so a failed job,
a job whose output differs from its frozen reference, or one that breaks
its identity check makes the run report ``correct: false`` without numbers
and exit 1.  A checkout without ``src/pgph`` exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from spans import metric_specs  # noqa: E402
from workloads import SAMPLES, WORKLOADS  # noqa: E402

MIN_PAIRS = 2
# a run must end within 180 s; no worker may outlive this deadline
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    # default budgets and a fixed hash seed, whatever the caller's shell says
    env.pop("PGPH_BUDGET", None)
    env["PYTHONHASHSEED"] = "0"
    # the int64 products never reach BLAS; keep its idle pool to one thread
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _spawn(workload: str, seed: int, started: float, first_only=False,
           trace_path=None) -> dict:
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--spawned", repr(spawned)]
    if first_only:
        cmd.append("--first-only")
    if trace_path:
        cmd += ["--trace", trace_path]
    timeout = max(1.0, DEADLINE_S - (spawned - started))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker ran past the {DEADLINE_S:.0f} s deadline") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    sample = json.loads(lines[-1])
    sample["wall_s"] = time.monotonic() - spawned
    return sample


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def _plan(full: int, short: int) -> list[bool]:
    """Interleave the full (True) and short workers evenly over the run."""
    slots = [((i + 0.5) / full, 1, True) for i in range(full)]
    slots += [((i + 0.5) / short, 0, False) for i in range(short)]
    return [is_full for _, _, is_full in sorted(slots)]


def _untraced(workload: str, seed: int, seconds: float, started: float):
    full, short = [], []

    def spawn(is_full):
        group = full if is_full else short
        group.append(_spawn(workload, seed, started, first_only=not is_full))

    for is_full in _plan(*SAMPLES[workload]):
        spawn(is_full)
    # fill the rest of the window while a worker fits, alternating kinds
    prefer_full = False
    while True:
        left = seconds - (time.monotonic() - started)
        fits = [kind for kind in (prefer_full, not prefer_full)
                if _median(full if kind else short, "wall_s") <= left]
        if not fits:
            return full, short
        spawn(fits[0])
        prefer_full = not fits[0]


def _traced(workload: str, seed: int, seconds: float, started: float):
    """Pairs of (untraced, traced) full workers."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}.spans.json")
    pairs = []
    while len(pairs) < MIN_PAIRS or (
            seconds - (time.monotonic() - started)
            >= statistics.median(p["wall_s"] + t["wall_s"] for p, t in pairs)):
        # swap the order in every other pair, so that a trend in host speed
        # does not favour one side
        order = (False, True) if len(pairs) % 2 == 0 else (True, False)
        got = {with_trace: _spawn(workload, seed, started,
                                  trace_path=path if with_trace else None)
               for with_trace in order}
        pairs.append((got[False], got[True]))
    return pairs


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run workers for about ``seconds`` and return the result object."""
    started = time.monotonic()
    if traced:
        pairs = _traced(workload, seed, seconds, started)
        every = [s for pair in pairs for s in pair]
    else:
        full, short = _untraced(workload, seed, seconds, started)
        every = full + short

    attempted = sum(s["attempted"] for s in every)
    failed = sum(s["failed"] for s in every)
    mismatches = [m for s in every for m in s["mismatches"]]
    print(json.dumps({"host": every[0]["host"], "workload": workload,
                      "seed": seed, "workers": len(every),
                      "fullWorkers": len(pairs) * 2 if traced else len(full),
                      "seconds": time.monotonic() - started}))
    if mismatches or failed:
        for line in sorted(set(mismatches)):
            print(f"mismatch: {line}", file=sys.stderr)
        if failed:
            print(f"{failed} of {attempted} jobs failed", file=sys.stderr)
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}}

    if traced:
        with_trace = [t for _, t in pairs]
        metrics = {}
        for name, unit, _ in metric_specs():
            if name == "trace.overhead_frac":
                value = statistics.median(t["run_s"] / p["run_s"]
                                          for p, t in pairs) - 1
            else:
                value = statistics.median(s["layers"][name] for s in with_trace)
            metrics[name] = {"value": value, "unit": unit}
    else:
        firsts = [s for s in every if "first_result_s" in s]
        metrics = {
            "setup_s": {"value": _median(every, "setup_s"), "unit": "s"},
            "first_result_s": {"value": _median(firsts, "first_result_s"),
                               "unit": "s"},
            "run_s": {"value": _median(full, "run_s"), "unit": "s"},
            "peak_rss_mb": {"value": _median(full, "peak_rss_mb"),
                            "unit": "MB"},
        }
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="pgph benchmark: time to exact invariants, per workload")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pgph", "__init__.py")):
        print(f"no pgph sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds,
                                    bool(args.trace))
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        result = results[args.workload]
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:<18} {metric:<44} {entry['value']:.6g} {entry['unit']}")
        print(f"{name:<18} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
