"""Normalized bar complex: a homology oracle and the integral invariants.

The normalized bar complex of G has basis in degree n the tuples of n
non-identity elements, and the usual alternating-sum boundary with tuples
containing the identity dropped.  Far larger than a minimal resolution but
free of clever algebra, it is the reference mod p and the only integral
machinery here; sizes grow as (|G|-1)^n, so entry budgets guard it all.

H_n(G, Z) and induced cokernels come from a p-local Smith form modulo
p^(v_p(|G|)+1), the p-part of p·|G|, for each prime p dividing |G|.  For
n >= 1, |G| annihilates H_n(G, Z) and its quotients, so each p-part lies
below the modulus and is read exactly.  Those groups are finite, so a
nonzero free rank in degree >= 1 means a failed bound: ConsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from pgph import linalg
from pgph.config import Budgets, default_budgets
from pgph.errors import ConsistencyError
from pgph.groups import FiniteGroup, GroupHom
from pgph.resolution import _digest

_BOUNDARIES: dict[tuple, np.ndarray] = {}
_INTEGRAL: dict[tuple, "IntegralHomology"] = {}


def _tuple_count(order: int, n: int) -> int:
    return (order - 1) ** n if n >= 0 else 0


def _tuple_index(order: int, tup) -> int:
    """Rank of a tuple of non-identity elements in lexicographic order."""
    idx = 0
    for g in tup:
        idx = idx * (order - 1) + (g - 1)
    return idx


def _check_boundary_budget(group: FiniteGroup, n: int,
                           budgets: Budgets | None, integral: bool) -> None:
    budgets = budgets or default_budgets()
    entries = _tuple_count(group.order, n) * max(_tuple_count(group.order, n - 1), 1)
    if integral:
        budgets.check_int("bar boundary", entries)
    else:
        budgets.check_fp("bar boundary", entries)


def bar_boundary(group: FiniteGroup, n: int,
                 budgets: Budgets | None = None,
                 integral: bool = False) -> np.ndarray:
    """The matrix of d_n, rows indexed by degree-n tuples (int8 entries)."""
    _check_boundary_budget(group, n, budgets, integral)
    order = group.order
    key = (_digest(group), n)
    cached = _BOUNDARIES.get(key)
    if cached is not None:
        return cached
    rows = _tuple_count(order, n)
    cols = _tuple_count(order, n - 1)
    out = np.zeros((rows, cols), dtype=np.int8)
    if n == 0:
        _BOUNDARIES[key] = out
        return out
    table = group.cayley
    for r, tup in enumerate(product(range(1, order), repeat=n)):
        out[r, _tuple_index(order, tup[1:])] += 1
        sign = -1
        for i in range(n - 1):
            merged = int(table[tup[i], tup[i + 1]])
            if merged:
                joined = tup[:i] + (merged,) + tup[i + 2:]
                out[r, _tuple_index(order, joined)] += sign
            sign = -sign
        out[r, _tuple_index(order, tup[:-1])] += sign
    _BOUNDARIES[key] = out
    return out


def bar_homology_fp(group: FiniteGroup, p: int, n: int,
                    budgets: Budgets | None = None) -> int:
    """dim H_n(G, F_p) straight from the bar complex."""
    if group.order == 1:
        return 1 if n == 0 else 0
    if n == 0:
        return 1
    lower = linalg.rank(bar_boundary(group, n, budgets), p)
    upper = linalg.rank(bar_boundary(group, n + 1, budgets), p)
    return _tuple_count(group.order, n) - lower - upper


@dataclass
class IntegralHomology:
    """H_n(G, Z) with enough internals to push cycles forward.

    ``invariants`` lists torsion coefficients in ascending divisibility
    order followed by one 0 per free rank.  ``cycle_basis`` spans the
    degree-n cycles (a saturated lattice); ``boundary_rows`` spans the
    degree-n boundaries.
    """

    group: FiniteGroup
    degree: int
    invariants: list[int]
    cycle_basis: np.ndarray = field(repr=False)
    boundary_rows: np.ndarray = field(repr=False)


def _cokernel_invariants(matrix: np.ndarray, group: FiniteGroup,
                         cycles: np.ndarray, n: int) -> list[int]:
    """Invariants of the cycle lattice modulo the row span of `matrix`."""
    diag, rest = [1] * min(matrix.shape), group.order
    for p in range(2, group.order + 1):
        e = 1
        while rest % p == 0:
            rest, e = rest // p, e + 1
        if e > 1:
            diag = [d * t for d, t in zip(diag, linalg.snf_p_local(matrix, p, e))]
    free = len(cycles) - sum(1 for d in diag if d)
    if n >= 1 and free:
        raise ConsistencyError(f"H_{n} of order {group.order} reads free rank {free}")
    return [d for d in diag if d > 1] + [0] * free


def integral_homology(group: FiniteGroup, n: int,
                      budgets: Budgets | None = None) -> IntegralHomology:
    """H_n(G, Z) from the integral bar complex.  The cycle lattice is
    saturated, so its quotient by the boundaries is read off d_{n+1} alone."""
    # Budgets bound what a fresh computation would cost, so they are
    # enforced before the result cache: refusals do not depend on history.
    _check_boundary_budget(group, n, budgets, integral=True)
    _check_boundary_budget(group, n + 1, budgets, integral=True)
    key = (_digest(group), n)
    cached = _INTEGRAL.get(key)
    if cached is not None:
        return cached
    cycles = linalg.int_kernel_basis(bar_boundary(group, n, budgets, integral=True))
    upper = bar_boundary(group, n + 1, budgets, integral=True)
    invariants = _cokernel_invariants(upper, group, cycles, n)
    result = _INTEGRAL[key] = IntegralHomology(group, n, invariants, cycles, upper)
    return result


def _push_cycles(cycles: np.ndarray, mapping: np.ndarray,
                 source_order: int, target_order: int, n: int) -> np.ndarray:
    """Image of cycle rows under the tuple-wise pushforward of a hom."""
    out = np.zeros((len(cycles), _tuple_count(target_order, n)), dtype=np.int64)
    if n == 0:
        return cycles.astype(np.int64, copy=True)
    for c, tup in enumerate(product(range(1, source_order), repeat=n)):
        image = tuple(int(mapping[g]) for g in tup)
        if 0 in image:
            continue
        out[:, _tuple_index(target_order, image)] += cycles[:, c]
    return out


def integral_induced_triple(hom: GroupHom, n: int,
                            budgets: Budgets | None = None):
    """(A, B, C): invariants of H_n(source, Z), H_n(target, Z) and of the
    cokernel of the induced map."""
    src = integral_homology(hom.source, n, budgets)
    tgt = integral_homology(hom.target, n, budgets)
    pushed = _push_cycles(src.cycle_basis, hom.mapping,
                          hom.source.order, hom.target.order, n)
    stacked = np.vstack([tgt.boundary_rows.astype(np.int64), pushed])
    return (list(src.invariants), list(tgt.invariants),
            _cokernel_invariants(stacked, hom.target, tgt.cycle_basis, n))
