"""Minimal free resolutions over modular group algebras of p-groups.

The group algebra A = F_p[G] of a p-group is local, with maximal ideal the
augmentation ideal I.  The trivial module F_p therefore has a minimal free
resolution ... -> A^{b_2} -> A^{b_1} -> A -> F_p -> 0, unique up to
isomorphism, whose ranks are the mod-p homology dimensions of G:
minimality forces the differentials of R ox_A F_p to vanish, so
H_n(G, F_p) = F_p^{b_n} with basis the level-n free generators.

Each level is two echelon passes.  The kernel K of d_n is read off one
RREF (`linalg.kernel_basis`, the unique RREF of K).  The new generators
are the rows of that RREF outside the span of the radical I K, spanned by
(g - 1) K for the minimal generators g, and of the rows before them: the
pivot columns past the radical block of one echelon pass over the
columns [radical rows | kernel rows].

Free modules are flattened to F_p row vectors: a vector v of length
b * |G| has v[i * |G| + g] the coefficient of the basis element g e_i,
and elements act by (h v)[i * |G| + k] = v[i * |G| + h^{-1} k].
Surjections G -> Q induce chain maps between the resolutions, and their
block augmentation gives the induced map H_n(G) -> H_n(Q) on free
generators; composing those matrices is composing the maps.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

from pgph import linalg
from pgph.config import Budgets, default_budgets
from pgph.errors import ConsistencyError, DataError
from pgph.groups import FiniteGroup, GroupHom

_RESOLUTIONS: dict[tuple, "MinimalResolution"] = {}
_CHAIN_MAPS: dict[tuple, "_ChainMap"] = {}
# guards get-or-create on the caches; each cached object carries its own
# lock so concurrent classification workers can share resolutions
_CACHE_LOCK = threading.Lock()


def _digest(group: FiniteGroup) -> bytes:
    return hashlib.sha1(group.cayley.tobytes()).digest()


def _act_rows(group: FiniteGroup, vectors: np.ndarray, g: int) -> np.ndarray:
    """g . v for each row v, vectors of shape (rows, blocks * |G|)."""
    n = group.order
    act = group.cayley[group.inv[g]]
    blocks = vectors.shape[1] // n
    shaped = vectors.reshape(len(vectors), blocks, n)
    return shaped[:, :, act].reshape(vectors.shape)


class MinimalResolution:
    """A minimal free resolution of F_p over F_p[G], grown on demand.

    ``ranks[n]`` is the rank b_n; ``gen_images[n]`` (n >= 1) holds the
    images of the level-n free generators as rows in F_p^{b_{n-1} |G|}.
    """

    def __init__(self, group: FiniteGroup, prime: int):
        self.group = group
        self.prime = prime
        self.ranks = [1]
        self.gen_images: list[np.ndarray | None] = [None]
        self._diffs: dict[int, np.ndarray] = {}
        self._lock = threading.RLock()

    def differential(self, n: int, budgets: Budgets | None = None) -> np.ndarray:
        """The full F_p matrix of d_n, rows indexed by (generator, g)."""
        budgets = budgets or default_budgets()
        self.extend_to(n, budgets)
        if n == 0:
            return np.ones((self.group.order, 1), dtype=np.int64)
        with self._lock:
            if n not in self._diffs:
                gens = self.gen_images[n]
                size = self.group.order
                rows = np.zeros((self.ranks[n] * size, gens.shape[1]), dtype=np.int64)
                budgets.check_fp("resolution differential", rows.size)
                for g in range(size):
                    rows[g::size] = _act_rows(self.group, gens, g)
                # row (i, g) sits at i * size + g
                self._diffs[n] = rows
            return self._diffs[n]

    def _extend_locked(self, degree: int, budgets: Budgets) -> None:
        p = self.prime
        while len(self.ranks) <= degree:
            n = len(self.ranks) - 1
            kernel = linalg.kernel_basis(self.differential(n, budgets), p)
            gens = self.group.minimal_generators()
            k, width = kernel.shape
            radical = len(gens) * k
            budgets.check_fp("resolution radical", radical * width)
            stack = np.empty((width, radical + k), dtype=np.min_scalar_type(p - 1))
            for j, g in enumerate(gens):
                stack[:, j * k : (j + 1) * k] = (
                    (_act_rows(self.group, kernel, g) - kernel) % p).T
            stack[:, radical:] = kernel.T
            pivots = linalg.pivot_columns(stack, p)
            if len(pivots) != k:
                raise ConsistencyError("the radical left the span of the kernel")
            picks = [c - radical for c in pivots if c >= radical]
            # gen_images first: unlocked readers treat len(ranks) as the
            # high-water mark of completed levels
            self.gen_images.append(kernel[picks])
            self.ranks.append(len(picks))

    def extend_to(self, degree: int, budgets: Budgets | None = None) -> None:
        if len(self.ranks) > degree:
            return
        with self._lock:
            self._extend_locked(degree, budgets or default_budgets())


def minimal_resolution(group: FiniteGroup, degree: int,
                       prime: int | None = None,
                       budgets: Budgets | None = None) -> MinimalResolution:
    """The cached minimal resolution of ``group``, computed through ``degree``."""
    if prime is None:
        # the trivial group resolves the same way over any prime field
        p = 2 if group.order == 1 else group.prime
    else:
        p = prime
    key = (_digest(group), p)
    with _CACHE_LOCK:
        res = _RESOLUTIONS.get(key)
        if res is None:
            res = MinimalResolution(group, p)
            _RESOLUTIONS[key] = res
    # budgets go with the call, not the shared object, so a caller never
    # changes the limits of an extension already in flight
    res.extend_to(degree, budgets)
    return res


def homology_dims(group: FiniteGroup, n_max: int,
                  prime: int | None = None,
                  budgets: Budgets | None = None) -> list[int]:
    """dim H_n(G, F_p) for n = 0..n_max."""
    if n_max < 0:
        raise DataError(f"homology degree must be nonnegative: {n_max}")
    res = minimal_resolution(group, n_max, prime=prime, budgets=budgets)
    return list(res.ranks[: n_max + 1])


class _ChainMap:
    """A chain map between minimal resolutions lifting F_p = F_p.

    Level n stores the images of the source free generators in the target
    free module, rows in F_p^{b'_n |Q|}.
    """

    def __init__(self, hom: GroupHom, source: MinimalResolution,
                 target: MinimalResolution):
        self.hom = hom
        self.source = source
        self.target = target
        start = np.zeros((1, target.group.order), dtype=np.int64)
        start[0, 0] = 1                             # e_1 -> e_1
        self.levels = [start]
        self._lock = threading.RLock()

    def _full_matrix(self, n: int, budgets: Budgets) -> np.ndarray:
        """f_n on all of A_G^{b_n}, rows indexed by (generator, g)."""
        src, dst = self.source.group, self.target.group
        x = self.levels[n]
        rows = np.zeros((self.source.ranks[n] * src.order, x.shape[1]), dtype=np.int64)
        budgets.check_fp("chain map matrix", rows.size)
        mapping = self.hom.mapping
        for g in range(src.order):
            rows[g::src.order] = _act_rows(dst, x, int(mapping[g]))
        return rows

    def extend_to(self, degree: int, budgets: Budgets) -> None:
        if len(self.levels) > degree:
            return
        p = self.source.prime
        self.source.extend_to(degree, budgets)
        self.target.extend_to(degree, budgets)
        with self._lock:
            while len(self.levels) <= degree:
                n = len(self.levels)
                previous = self._full_matrix(n - 1, budgets)
                targets = self.source.gen_images[n] @ previous % p
                solved = linalg.solve(self.target.differential(n, budgets),
                                      targets, p)
                self.levels.append(solved)

    def homology_matrix(self, n: int, budgets: Budgets) -> np.ndarray:
        """Induced H_n(source) -> H_n(target) on free generator bases."""
        self.extend_to(n, budgets)
        x = self.levels[n]
        if self.source.ranks[n] == 0 or self.target.ranks[n] == 0:
            return np.zeros((self.source.ranks[n], self.target.ranks[n]), dtype=np.int64)
        size = self.target.group.order
        return x.reshape(len(x), self.target.ranks[n], size).sum(axis=2) % self.source.prime


def _chain_map(hom: GroupHom, budgets: Budgets) -> _ChainMap:
    p = hom.source.prime
    key = (_digest(hom.source), _digest(hom.target), hom.mapping.tobytes(), p)
    source = minimal_resolution(hom.source, 0, budgets=budgets)
    target = minimal_resolution(hom.target, 0, budgets=budgets)
    with _CACHE_LOCK:
        cm = _CHAIN_MAPS.get(key)
        if cm is None:
            cm = _ChainMap(hom, source, target)
            _CHAIN_MAPS[key] = cm
    return cm


def induced_map(hom: GroupHom, n: int, budgets: Budgets | None = None) -> np.ndarray:
    """The matrix of H_n(hom): rows index source classes, columns target ones.

    Functorial: the matrix of a composite is the product of the matrices in
    composition order, acting on row vectors.
    """
    budgets = budgets or default_budgets()
    return _chain_map(hom, budgets).homology_matrix(n, budgets)
