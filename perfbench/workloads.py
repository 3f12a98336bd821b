"""The four benchmark workloads: seeded inputs, fixed job lists, checks.

A workload's ``setup(seed, pgph)`` builds its inputs through the public
library API and returns the job list.  Everything it does counts as set-up
time.  Each job returns a JSON-able result, which the worker compares with
the reference frozen in ``expected.json`` (canonical JSON, seed 0), and an
optional independent identity check.

The seed changes the inputs but never the answers:

* seed 0 closes each group's own generators and keeps the canonical job
  order;
* any other seed replaces every generator list by a seeded Nielsen
  transform (shuffle, g_i -> g_i g_j, g -> g^k with k prime to p) and
  shuffles the jobs within each stage.  The group is the same, its
  elements are numbered differently, so every cache key and pivot changes
  while every invariant stays fixed.

Stages run in a fixed order.  Caches stay resident for the life of a
worker, so the order of the heavy jobs decides what is resident at the
memory peak and which job pays for shared resolutions; a stage holds only
jobs whose order moves neither, and the first stage holds jobs of one cost,
so ``first_result_s`` and ``peak_rss_mb`` time the same work for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from math import comb
from typing import Callable

SERIES = ("L", "Lp", "D", "Z", "Zp")
CLASSIFY_WORKERS = 2


def canonical(value) -> str:
    """Canonical JSON, the form the CLI prints and the references store."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]
    # returns a description of a failed identity, or None
    check: Callable[[object], str | None] = lambda out: None


# ---------------------------------------------------------------------------
# Seeded generator lists


def _compose(a, b):
    """a then b, the composition order of ``group_from_permutations``."""
    return [b[x] for x in a]


def _power(perm, k):
    out = list(range(len(perm)))
    for _ in range(k):
        out = _compose(out, perm)
    return out


def nielsen(perms, prime: int, rng: random.Random, moves: int = 4):
    """A seeded Nielsen transform of a generator list: same group, new words."""
    gens = [list(p) for p in perms]
    rng.shuffle(gens)
    exponents = [k for k in range(2, 2 * prime + 2) if k % prime]
    for _ in range(moves):
        i = rng.randrange(len(gens))
        if len(gens) > 1 and rng.random() < 0.5:
            j = rng.choice([k for k in range(len(gens)) if k != i])
            gens[i] = _compose(gens[i], gens[j])
        else:
            gens[i] = _power(gens[i], rng.choice(exponents))
    return gens


def _generators(perms, prime: int, seed: int, name: str):
    if seed == 0:
        return [list(p) for p in perms]
    return nielsen(perms, prime, random.Random(f"{seed}/{name}"))


def _close(pgph, perms, prime: int, seed: int, name: str):
    return pgph.group_from_permutations(_generators(perms, prime, seed, name))


def _order_jobs(stages: list[list[Job]], seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for stage in stages:
        stage = list(stage)
        if seed != 0:
            rng.shuffle(stage)
        jobs += stage
    return jobs


def _prime_of(order: int) -> int:
    return next(p for p in range(2, order + 1) if order % p == 0)


def _abelian_perms(factors):
    """One disjoint cycle per invariant factor."""
    total = sum(factors)
    perms, start = [], 0
    for m in factors:
        perm = list(range(total))
        for i in range(m):
            perm[start + i] = start + (i + 1) % m
        perms.append(perm)
        start += m
    return perms


def _catalog_groups(pgph, order: int, seed: int):
    """(id, group) pairs of one bundled order, from seeded generators."""
    p = _prime_of(order)
    return [(e.id, _close(pgph, e.generators, p, seed, e.id))
            for e in pgph.bundled_order(order)]


# ---------------------------------------------------------------------------
# Workloads


def _classify_catalog(seed: int, pgph) -> list[Job]:
    # one stage per order: whichever series comes first resolves the groups
    # of that order, later series mostly reuse the cached resolutions
    stages = []
    for order in (8, 16, 27):
        groups = _catalog_groups(pgph, order, seed)
        stages.append([Job(f"classify/{order}/{kind}",
                           partial(pgph.classify, groups, kind, 7,
                                   workers=CLASSIFY_WORKERS))
                       for kind in SERIES])
    return _order_jobs(stages, seed)


def _homology_job(pgph, name: str, group, rank: int, degree: int) -> Job:
    def check(dims):
        # H_n(C_p^r; F_p) has dimension C(n + r - 1, r - 1)
        want = [comb(n + rank - 1, rank - 1) for n in range(degree + 1)]
        return None if dims == want else f"dims {dims}, expected {want}"
    return Job(name, partial(pgph.homology_dims, group, degree), check)


def _recovery_job(pgph, name: str, group, factors) -> Job:
    def run():
        first, second = pgph.persistence_sequence(group, "Zp", 2)
        return {"matrices": [first.to_json(), second.to_json()],
                "order": pgph.recover_order(first, second),
                "invariants": pgph.recover_abelian_invariants(first, second)}

    def check(out):
        want = (group.order, sorted(factors))
        got = (out["order"], out["invariants"])
        return None if got == want else f"recovered {got}, built {want}"
    return Job(name, run, check)


def _wide_rank(seed: int, pgph) -> list[Job]:
    # high rank at order 32-128: a few seconds per worker, so that a run
    # holds several full workers; order 256 takes 3.5-7 s a job
    jobs = []
    for name, p, rank, degree in (("homology/C2^5", 2, 5, 4),
                                  ("homology/C3^3", 3, 3, 6)):
        group = _close(pgph, _abelian_perms([p] * rank), p, seed, name)
        jobs.append(_homology_job(pgph, name, group, rank, degree))
    for name, factors in (("recover/C2xC4xC4xC4", [2, 4, 4, 4]),
                          ("recover/C2^4xC8", [2, 2, 2, 2, 8]),
                          ("recover/C2^5xC4", [2, 2, 2, 2, 2, 4])):
        group = _close(pgph, _abelian_perms(factors), 2, seed, name)
        jobs.append(_recovery_job(pgph, name, group, factors))
    # no job shares work with another, but each leaves its resolutions
    # resident, so the order of these five fixes the memory peak
    return _order_jobs([[job] for job in jobs], seed)


def _coclass_tree(seed: int, pgph) -> list[Job]:
    # tree_persistence builds its tower from the family member at the top
    # level, so closing those three groups is this workload's set-up
    kinds = ("dihedral", "quaternion", "semidihedral")
    for kind in kinds:
        pgph.family(kind, 8)

    def check(out):
        if out["family"] == "dihedral" and out["stabilizedDim"] != 2:
            return f"stabilizedDim {out['stabilizedDim']}, expected 2"
        return None
    jobs = {(kind, degree): Job(f"tree/{kind}/{degree}",
                                partial(pgph.tree_persistence, kind, degree,
                                        3, 8), check)
            for kind in kinds for degree in (2, 3, 4)}
    # stages by degree; the degree-4 dihedral lift is the memory peak, so it
    # runs alone, after everything of lower degree and before the leaves
    stages = [[jobs[kind, 2] for kind in kinds],
              [jobs[kind, 3] for kind in kinds],
              [jobs["dihedral", 4]],
              [jobs["quaternion", 4], jobs["semidihedral", 4]]]
    return _order_jobs(stages, seed)


def _integral_classify(seed: int, pgph) -> list[Job]:
    groups = _catalog_groups(pgph, 8, seed)

    def check(out):
        return None if out["classes"] == 5 else f"{out['classes']} classes, expected 5"
    return [Job("classify/8/Zp/integral",
                partial(pgph.classify, groups, "Zp", 3, integral=True,
                        workers=CLASSIFY_WORKERS), check)]


WORKLOADS = {
    "classify_catalog": _classify_catalog,
    "wide_rank": _wide_rank,
    "coclass_tree": _coclass_tree,
    "integral_classify": _integral_classify,
}

# Workers per untraced run: (full, short).  A full worker runs the whole
# job list; a short one stops after the first job, or after set-up when the
# list is a single job.  The full count gives every run at least ~14 s of
# job work for run_s (one worker does that on integral_classify, four on
# wide_rank); the short ones add setup_s and first_result_s samples spread
# over the run, at 2.5-4 s each.  Together they take about 22-26 s on
# 2 vCPUs, and up to 30 s when the host runs slow, so a run stays close to
# a 25 s window either way.
SAMPLES = {
    "classify_catalog": (2, 2),
    "wide_rank": (4, 1),
    "coclass_tree": (3, 2),
    "integral_classify": (1, 2),
}


def setup(workload: str, seed: int, pgph) -> list[Job]:
    """Build one workload's inputs for ``seed`` and return its job list."""
    return WORKLOADS[workload](seed, pgph)
