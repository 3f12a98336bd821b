"""Minimal free resolutions over modular group algebras of p-groups.

The group algebra A = F_p[G] of a p-group is local, with maximal ideal the
augmentation ideal I.  The trivial module F_p therefore has a minimal free
resolution ... -> A^{b_2} -> A^{b_1} -> A -> F_p -> 0, unique up to
isomorphism, whose ranks are the mod-p homology dimensions of G:
minimality forces the differentials of R ox_A F_p to vanish, so
H_n(G, F_p) = F_p^{b_n} with basis the level-n free generators.

Each level is built in the coordinates of the kernel below it.  Let K_n
= ker d_n be held in its unique RREF with leading columns lead[n].  The
rows of d_n lie in K_{n-1}, where x -> x[lead[n-1]] is injective, so d_n
is replaced by D_n = d_n[:, lead[n-1]], with the same kernel and the same
solutions.  K_n is read off one RREF of D_n and held as (lead, piv, x)
(`linalg._kernel_split`): the identity on the columns lead[n] and x on
piv, the rank D_n pivot rows of D_n; no level forms the rest of K_n.
In K_n-coordinates its rows are the identity and each radical block
(g - 1) K_n is a column gather minus the identity, for the minimal
generators g.  The new generators are the rows of K_n outside the span
of the radical I K_n and of the rows before them: the coordinates at
which no vector of the radical ends, read off one echelon pass over the
radical with its columns reversed (`linalg._radical_pivots`), packed
from x at p = 2 and 3, never dense; only those rows are assembled.
Chain maps are lifted the same way, against the target's D_n
(`linalg._solve_mod`).  Each level checks K_n D_n = D_n[lead] +
x D_n[piv] = 0 exactly, that D_n has full column rank (exactness), and
that K_n has zero block sums (minimality of the level before); a
failure is a ConsistencyError.  Each extension reads its
budgets from PGPH_BUDGET once, at its start, and checks them against
every level it needs, cached or not, unless they passed to that degree
already: a refusal does not depend on the cache, and a later change to
the variable leaves an extension already in flight alone.

The same engine resolves Z/q over (Z/q)[G], q = p^E: a minimal Z_p[G]-
resolution reduced mod q, with the ranks b_n.  Kernels and lifts are
eliminated mod q with unit pivots; the radical pick and the minimality
check read x mod p.  These levels charge the integer budget.

Every matrix mod q here, D_n, x, the generator images and the levels
of chain maps, is stored at `linalg._store_dtype(q)`: uint8 for q <= 256.
What leaves the module, `tensored`, `homology_matrix` and so
`induced_map`, is summed and returned at int64.

Free modules are flattened to row vectors: a vector v of length
b * |G| has v[i * |G| + g] the coefficient of the basis element g e_i,
and elements act by (h v)[i * |G| + k] = v[i * |G| + h^{-1} k].
Surjections G -> Q induce chain maps between the resolutions, and their
block augmentation gives the induced map H_n(G) -> H_n(Q) on free
generators; composing those matrices is composing the maps.
"""

from __future__ import annotations

import threading

import numpy as np

from pgph import linalg
from pgph.config import Budgets, default_budgets
from pgph.errors import ConsistencyError, DataError
from pgph.groups import FiniteGroup, GroupHom

_RESOLUTIONS: dict[tuple, "MinimalResolution"] = {}
_CHAIN_MAPS: dict[tuple, "_ChainMap"] = {}
# guards both caches and every level build, so threads can share them
_LOCK = threading.RLock()


def _acting_columns(group: FiniteGroup, columns: np.ndarray, elements) -> np.ndarray:
    """j[e, c] with (g v)[columns[c]] = v[j[e, c]] for g = elements[e]."""
    n = group.order
    inverses = group.inv[np.asarray(elements, dtype=np.intp)]
    return columns - columns % n + group.cayley[inverses[:, None], columns % n]


def _prime(*groups: FiniteGroup) -> int:
    """The prime of p-groups; a trivial group goes with any prime."""
    primes = {g.prime for g in groups if g.order > 1} or {2}
    if len(primes) > 1:
        raise DataError(f"orders {[g.order for g in groups]} are not powers of one prime")
    return primes.pop()


def _block_sums(rows: np.ndarray, size: int, q: int) -> np.ndarray:
    """Free-module rows tensored with Z, mod q: their |G|-block sums, at
    int64 whatever the dtype of ``rows``."""
    blocks = rows.reshape(len(rows), rows.shape[1] // size, size)
    return blocks.sum(axis=2, dtype=np.int64) % q


class MinimalResolution:
    """A minimal free resolution of Z/q over (Z/q)[G], grown on demand; q
    is the prime p unless a power of it is given.

    ``ranks[n]`` is the rank b_n; ``gen_images[n]`` (n >= 1) holds the
    images of the level-n free generators as rows in (Z/q)^{b_{n-1} |G|};
    ``lead[n]`` holds the leading columns of the RREF mod p of K_n = ker d_n.
    """

    def __init__(self, group: FiniteGroup, prime: int, modulus: int | None = None):
        self.group = group
        self.prime = prime
        self.modulus = modulus or prime
        self.ranks = [1]
        self.gen_images: list[np.ndarray | None] = [None]
        self.lead: list[np.ndarray] = []
        self._checked: tuple = (None, -1)  # budgets, degree of the last passing check

    def _charge(self, budgets: Budgets, stage: str, entries: int) -> None:
        check = budgets.check_fp if self.modulus == self.prime else budgets.check_int
        check(stage, entries)

    def coordinate_differential(self, n: int) -> np.ndarray:
        """D_n = d_n[:, lead[n - 1]], rows indexed by (generator, g).

        The rows of d_n lie in K_{n-1}, on which x -> x[lead[n - 1]] is
        injective, so D_n and d_n have one kernel and one solution set.
        D_0 is d_0, the augmentation.
        """
        size = self.group.order
        if n == 0:
            return np.ones((size, 1), dtype=linalg._store_dtype(self.modulus))
        gens, lead = self.gen_images[n], self.lead[n - 1]
        cols = _acting_columns(self.group, lead, range(size))
        # row (i, g) sits at i * size + g
        return gens[:, cols].reshape(len(gens) * size, len(lead))

    def _differential_entries(self, n: int) -> int:
        """The size of D_n, b_n |G| x k_(n-1), for n >= 1."""
        return self.ranks[n] * self.group.order * len(self.lead[n - 1])

    def _build(self, n: int) -> None:
        """Level n + 1, from D_n and its kernel K_n, held as (lead, piv, x)."""
        p, q, size = self.prime, self.modulus, self.group.order
        diff = self.coordinate_differential(n)
        lead, piv, x = linalg._kernel_split(diff, p, q)
        k = len(lead)
        # mod p x already has this dtype: a view, not a copy
        residues = (x % p if q != p else x).astype(linalg._store_dtype(p), copy=False)
        # K_n D_n = D_n[lead] + x D_n[piv], an inner size of rank D_n
        product = linalg._product(x, diff[piv], q).astype(linalg._fp_dtype(q))
        if linalg._mod(product + diff[lead], q).any():
            raise ConsistencyError(f"a kernel row of d_{n} is not in its kernel")
        if k + diff.shape[1] != diff.shape[0]:
            raise ConsistencyError(f"d_{n} is not onto the kernel below it")
        # the block sums of K_n: x's over the blocks of piv, 1 in lead's block
        blocks = np.eye(self.ranks[n], dtype=residues.dtype)[piv // size]
        sums = linalg._product(residues, blocks, p)
        sums[np.arange(k), lead // size] += 1
        if (sums % p).any():
            raise ConsistencyError(f"the resolution is not minimal at level {n}")
        # radical block (g - 1) K is K[:, g . lead] - I in K-coordinates;
        # row i is picked unless some radical vector ends at coordinate i
        cols = _acting_columns(self.group, lead, self.group.minimal_generators())
        ends = k - 1 - np.array(linalg._radical_pivots(lead, piv, residues, cols, p),
                                dtype=np.intp)
        picks = linalg._complement(ends, k)
        self.gen_images.append(linalg._kernel_rows(lead[picks], piv, x[picks], diff.shape[0]))
        self.lead.append(lead)
        self.ranks.append(len(picks))

    def extend_to(self, degree: int) -> None:
        budgets = default_budgets()
        with _LOCK:
            if self._checked[0] == budgets and degree <= self._checked[1]:
                return
            n_gens = len(self.group.minimal_generators())
            for n in range(degree):
                # level n + 1 needs D_n and the radical of K_n, d k_n x k_n with
                # k_n = b_n |G| - k_(n-1) by exactness; cached levels are checked
                # too, so refusals do not depend on the cache
                if n:
                    self._charge(budgets, "resolution differential", self._differential_entries(n))
                k = self.ranks[n] * self.group.order - (len(self.lead[n - 1]) if n else 1)
                self._charge(budgets, "resolution radical", n_gens * k * k)
                if len(self.ranks) <= n + 1:
                    self._build(n)
            self._checked = (budgets, degree)

    def tensored(self, n: int) -> np.ndarray:
        """d_n tensored with Z, mod q: b_n x b_(n-1)."""
        return _block_sums(self.gen_images[n], self.group.order, self.modulus)


def minimal_resolution(group: FiniteGroup, degree: int) -> MinimalResolution:
    """The cached minimal resolution of ``group`` over F_p, p the prime of
    the p-group ``group``, computed through ``degree``."""
    p = _prime(group)
    res = _resolution(group, p, p)
    res.extend_to(degree)
    return res


def _cached(cache: dict, key: tuple, make):
    with _LOCK:
        if key not in cache:
            cache[key] = make()
        return cache[key]


def _resolution(group: FiniteGroup, prime: int, modulus: int) -> MinimalResolution:
    """The cached resolution of ``group`` mod ``modulus``, a power of ``prime``."""
    return _cached(_RESOLUTIONS, (group.digest, prime, modulus),
                   lambda: MinimalResolution(group, prime, modulus))


def homology_dims(group: FiniteGroup, n_max: int) -> list[int]:
    """dim H_n(G, F_p) for n = 0..n_max."""
    if n_max < 0:
        raise DataError(f"homology degree must be nonnegative: {n_max}")
    res = minimal_resolution(group, n_max)
    return list(res.ranks[: n_max + 1])


class _ChainMap:
    """A chain map between minimal resolutions mod q lifting Z/q = Z/q.

    Level n stores the images of the source free generators in the target
    free module, rows in (Z/q)^{b'_n |Q|}.
    """

    def __init__(self, hom: GroupHom, source: MinimalResolution,
                 target: MinimalResolution):
        self.hom = hom
        self.source = source
        self.target = target
        start = np.zeros((1, target.group.order), dtype=linalg._store_dtype(target.modulus))
        start[0, 0] = 1                             # e_1 -> e_1
        self.levels = [start]
        self._checked: tuple = (None, -1)

    def _lift(self, n: int) -> np.ndarray:
        """Level n, solved against the target's D_n: x @ d'_n and the image
        of d_n under f_{n-1} both lie in K'_{n-1}, so they agree when they
        agree at its leading columns.  f_(n-1) is taken there on all of
        A_G^(b_(n-1)), rows indexed by (generator, g)."""
        p, q = self.source.prime, self.source.modulus
        x, lead = self.levels[n - 1], self.target.lead[n - 1]
        cols = _acting_columns(self.target.group, lead, self.hom.mapping)
        previous = x[:, cols].reshape(len(x) * self.source.group.order, len(lead))
        targets = linalg._product(self.source.gen_images[n], previous, q)
        return linalg._solve_mod(self.target.coordinate_differential(n), targets, p, q)

    def extend_to(self, degree: int) -> None:
        budgets = default_budgets()
        with _LOCK:
            if self._checked[0] == budgets and degree <= self._checked[1]:
                return
            source, target = self.source, self.target
            source.extend_to(degree)
            target.extend_to(degree)
            for n in range(1, degree + 1):
                # level n needs f_(n-1) at the target's leading columns, and the
                # target's D_n; cached levels are checked too, as in resolutions
                source._charge(budgets, "chain map matrix", source.ranks[n - 1]
                               * source.group.order * len(target.lead[n - 1]))
                target._charge(budgets, "resolution differential", target._differential_entries(n))
                if len(self.levels) <= n:
                    self.levels.append(self._lift(n))
            self._checked = (budgets, degree)

    def homology_matrix(self, n: int) -> np.ndarray:
        """f_n tensored with Z, mod q; mod p it induces H_n(source) -> H_n(target)."""
        self.extend_to(n)
        return _block_sums(self.levels[n], self.target.group.order, self.source.modulus)


def _chain_map(hom: GroupHom, modulus: int | None = None) -> _ChainMap:
    """The cached chain map over ``hom`` between resolutions mod ``modulus``,
    by default their prime."""
    p = _prime(hom.source, hom.target)
    q = modulus or p
    key = (hom.source.digest, hom.target.digest, hom.mapping.tobytes(), q)
    source, target = _resolution(hom.source, p, q), _resolution(hom.target, p, q)
    return _cached(_CHAIN_MAPS, key, lambda: _ChainMap(hom, source, target))


def induced_map(hom: GroupHom, n: int) -> np.ndarray:
    """The matrix of H_n(hom): rows index source classes, columns target ones.

    Functorial: the matrix of a composite is the product of the matrices in
    composition order, acting on row vectors.
    """
    return _chain_map(hom).homology_matrix(n)
