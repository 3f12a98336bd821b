"""The mod-p bar-complex oracle, and integral invariants of p-groups.

The normalized bar complex of G has basis in degree n the tuples of n
non-identity elements, and the usual alternating-sum boundary with tuples
containing the identity dropped.  Far larger than a minimal resolution but
free of clever algebra, it is the mod-p reference behind ``pgph homology
--oracle``; sizes grow as (|G|-1)^n, so the F_p budget guards it.

Integral invariants come from the minimal resolution mod q = p^E tensored
with Z (`MinimalResolution.tensored`), D_n.  With e = v_p(|G|) + 1, p^(e-1)
kills H_n(G, Z) for n >= 1, so H_n is read off a p-local Smith form of
D_(n+1) mod p^e.  Cokernels also need the cycles Z_n mod p^e, the x with
x D_n = 0 mod p^(2e) reduced mod p^e (p^(e-1) kills H_(n-1)); so E = 2e.
Both the invariants of D_n and Z_n mod p^e come from one local
elimination of [D_n | I] mod p^(2e) (`linalg._local_phases`): its pivots
are the invariants, and the I part of the rows it leaves spans Z_n mod p^e
because no invariant of D_n has valuation e or more.
Along a chain of groups and links, as for one hom, e is the largest
exponent, each group is resolved once mod p^E and each link lifted once.
Two lifts of a hom are chain homotopic, so on cycles they differ mod p^e
by boundaries of the target, and a composite of lifts serves for the
composite hom.  D_n vanishes mod p, so by universal coefficients b_n
counts the invariants of H_n and H_(n-1); a count that disagrees is a
ConsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from pgph import linalg
from pgph.config import default_budgets
from pgph.errors import BudgetExceededError, ConsistencyError
from pgph.groups import FiniteGroup, GroupHom, _log_p
from pgph.resolution import MinimalResolution, _chain_map, _prime, _resolution


def _tuple_count(order: int, n: int) -> int:
    return (order - 1) ** n if n >= 0 else 0


def _tuple_index(order: int, tup) -> int:
    """Rank of a tuple of non-identity elements in lexicographic order."""
    idx = 0
    for g in tup:
        idx = idx * (order - 1) + (g - 1)
    return idx


def bar_boundary(group: FiniteGroup, n: int) -> np.ndarray:
    """The matrix of d_n, rows indexed by degree-n tuples (int8 entries)."""
    order = group.order
    rows = _tuple_count(order, n)
    cols = _tuple_count(order, n - 1)
    default_budgets().check_fp("bar boundary", rows * max(cols, 1))
    out = np.zeros((rows, cols), dtype=np.int8)
    if n == 0:
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
    return out


def bar_homology_fp(group: FiniteGroup, p: int, n: int) -> int:
    """dim H_n(G, F_p) straight from the bar complex."""
    if n == 0:
        return 1
    lower = linalg.rank(bar_boundary(group, n), p)
    upper = linalg.rank(bar_boundary(group, n + 1), p)
    return _tuple_count(group.order, n) - lower - upper


@dataclass
class IntegralHomology:
    """H_n(G, Z) of a p-group G: ``invariants`` lists the torsion
    coefficients in ascending divisibility order, and H_0 = Z reads [0]."""

    group: FiniteGroup
    degree: int
    invariants: list[int]


def _invariants(matrix: np.ndarray, p: int, e: int) -> list[int]:
    """The non-units of a p-local Smith form of ``matrix`` mod p^e."""
    return [d for d in linalg.snf_p_local(matrix, p, e) if d > 1]


def _cycles(lower: np.ndarray, p: int, e: int):
    """(diagonal, cycles) of D = ``lower`` from one local elimination of
    [D | I] mod p^(2e): the p-local Smith diagonal of D, and rows spanning
    the cycles mod p^e, the x with x D = 0 mod p^(2e) reduced mod p^e.

    A pivot row of phase v < e enters such an x only times p^(2e-v), which
    vanishes mod p^e, so the I part of the rows left spans the cycles when no
    invariant of D has valuation in [e, 2e).
    """
    width = lower.shape[1]
    diag, rows = linalg._local_phases(
        np.hstack([lower, np.eye(len(lower), dtype=lower.dtype)]), p, 2 * e, width)
    if diag and diag[-1] >= p ** e:
        raise ConsistencyError(f"a boundary has the invariant {diag[-1]}, beyond {p}^{e - 1}")
    return diag, rows[:, width:] % p ** e


def _homology(res: MinimalResolution, n: int, e: int):
    """Invariants of H_n(G, Z) for n >= 1, read modulo p^e, and rows
    spanning the cycles Z_n mod p^e."""
    lower, cycles = _cycles(res.tensored(n), res.prime, e)
    upper = _invariants(res.tensored(n + 1), res.prime, e)
    free = res.ranks[n] - len(lower) - len(upper)
    if free:
        raise ConsistencyError(f"H_{n} of order {res.group.order} reads free rank {free}")
    return upper, cycles


def integral_homology(group: FiniteGroup, n: int) -> IntegralHomology:
    """H_n(G, Z) of a p-group G, from its minimal resolution mod p^(2e)."""
    return IntegralHomology(group, n, _chain_triples([group], [], n)[0, 0][0])


def _chain_triples(groups, links, n: int) -> dict:
    """(A, B, C) of every composite H_n(Q_i, Z) -> H_n(Q_j, Z), i <= j, along
    groups Q_0, ..., Q_(N-1) joined by ``links`` Q_t -> Q_(t+1), keyed (i, j);
    C reads the cycles of Q_i pushed through f_i ... f_(j-1) mod p^e."""
    p = _prime(*groups)
    if n <= 0:
        cell = ([0], [0], []) if n == 0 else ([], [], [])
        return {(i, j): cell for i in range(len(groups)) for j in range(i, len(groups))}
    e = 1 + max(_log_p(g.order, p) for g in groups)
    q = p ** (2 * e)
    # the block sums of |Q| residues mod q (`resolution._block_sums`) are int64
    if (needed := q * max(g.order for g in groups)) >= linalg._INT64_SAFE:
        raise BudgetExceededError("integral modulus times order", needed, linalg._INT64_SAFE - 1)
    resolutions = [_resolution(g, p, q) for g in groups]
    for res in resolutions:
        res.extend_to(n + 1)
    torsion, cycles = zip(*(_homology(res, n, e) for res in resolutions))
    maps = [_chain_map(hom, q).homology_matrix(n) % p ** e for hom in links]
    triples = {}
    for i, pushed in enumerate(cycles):
        triples[i, i] = (torsion[i], torsion[i], [])
        for j in range(i + 1, len(groups)):
            pushed = linalg._product(pushed, maps[j - 1], p ** e)
            stacked = np.vstack([resolutions[j].tensored(n + 1), pushed])
            triples[i, j] = (torsion[i], torsion[j], _invariants(stacked, p, e))
    return triples


def integral_induced_triple(hom: GroupHom, n: int):
    """(A, B, C): invariants of H_n(source, Z), H_n(target, Z) and of the
    cokernel of the induced map, for a hom between p-groups of one prime."""
    return _chain_triples([hom.source, hom.target], [hom], n)[0, 1]
