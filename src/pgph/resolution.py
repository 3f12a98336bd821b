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
solutions.  K_n is read off one RREF of D_n (`linalg.kernel_basis`).  In
K_n-coordinates its rows are the identity and each radical block (g - 1)
K_n is a column gather minus the identity, for the minimal generators g.
The new generators are the rows of K_n outside the span of the radical
I K_n and of the rows before them: the coordinates at which no vector of
the radical ends, read off one echelon pass over the radical with its
columns reversed (`linalg.pivot_columns`).  Chain maps are lifted the same
way, against the target's D_n.  Each level checks K_n D_n = 0 exactly,
that D_n has full column rank (exactness), and that K_n has zero block
sums (minimality of the level before); a failure is a ConsistencyError.

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


def _acting_columns(group: FiniteGroup, columns: np.ndarray, elements) -> np.ndarray:
    """j[e, c] with (g v)[columns[c]] = v[j[e, c]] for g = elements[e]."""
    n = group.order
    inverses = group.inv[np.asarray(elements, dtype=np.intp)]
    return columns - columns % n + group.cayley[inverses[:, None], columns % n]


def _vanishes(left: np.ndarray, right: np.ndarray, p: int) -> bool:
    """Whether left @ right == 0 mod p, exactly: float64 products over
    inner chunks short enough that no partial sum reaches 2^53."""
    step = max(1, ((1 << 53) - 1) // (p - 1) ** 2)
    acc = np.zeros((left.shape[0], right.shape[1]))
    for s in range(0, left.shape[1], step):
        part = left[:, s : s + step].astype(np.float64) @ right[s : s + step].astype(np.float64)
        acc = (acc + part % p) % p
    return not acc.any()


class MinimalResolution:
    """A minimal free resolution of F_p over F_p[G], grown on demand.

    ``ranks[n]`` is the rank b_n; ``gen_images[n]`` (n >= 1) holds the
    images of the level-n free generators as rows in F_p^{b_{n-1} |G|};
    ``lead[n]`` holds the leading columns of the RREF of K_n = ker d_n.
    """

    def __init__(self, group: FiniteGroup, prime: int):
        self.group = group
        self.prime = prime
        self.ranks = [1]
        self.gen_images: list[np.ndarray | None] = [None]
        self.lead: list[np.ndarray] = []
        self._lock = threading.RLock()

    def coordinate_differential(self, n: int, budgets: Budgets) -> np.ndarray:
        """D_n = d_n[:, lead[n - 1]], rows indexed by (generator, g).

        The rows of d_n lie in K_{n-1}, on which x -> x[lead[n - 1]] is
        injective, so D_n and d_n have one kernel and one solution set.
        D_0 is d_0, the augmentation.
        """
        size = self.group.order
        if n == 0:
            return np.ones((size, 1), dtype=np.int64)
        gens, lead = self.gen_images[n], self.lead[n - 1]
        budgets.check_fp("resolution differential", len(gens) * size * len(lead))
        cols = _acting_columns(self.group, lead, range(size))
        # row (i, g) sits at i * size + g
        return gens[:, cols].reshape(len(gens) * size, len(lead))

    def _extend_locked(self, degree: int, budgets: Budgets) -> None:
        p = self.prime
        size = self.group.order
        while len(self.ranks) <= degree:
            n = len(self.ranks) - 1
            diff = self.coordinate_differential(n, budgets)
            kernel = linalg.kernel_basis(diff, p)
            k = len(kernel)
            if not _vanishes(kernel, diff, p):
                raise ConsistencyError(f"a kernel row of d_{n} is not in its kernel")
            if k + diff.shape[1] != diff.shape[0]:
                raise ConsistencyError(f"d_{n} is not onto the kernel below it")
            if (kernel.reshape(k, self.ranks[n], size).sum(axis=2) % p).any():
                raise ConsistencyError(f"the resolution is not minimal at level {n}")
            lead = (kernel != 0).argmax(axis=1) if kernel.size else np.zeros(0, dtype=np.intp)
            # In K-coordinates x -> x[lead] the kernel rows are the identity
            # and each radical block (g - 1) K is K[:, g . lead] - I.  Row i
            # lies in the span of the radical and of the rows before it
            # exactly when some radical vector ends at coordinate i, and
            # those ends are the pivots of the radical with columns reversed.
            gens = self.group.minimal_generators()
            budgets.check_fp("resolution radical", len(gens) * k * k)
            radical = np.empty((len(gens) * k, k), dtype=np.min_scalar_type(p - 1))
            diagonal = np.arange(k)
            for j, cols in enumerate(_acting_columns(self.group, lead, gens)):
                block = kernel[:, cols]
                block[diagonal, diagonal] -= 1
                radical[j * k : (j + 1) * k] = block % p
            ends = k - 1 - np.array(linalg.pivot_columns(radical[:, ::-1], p), dtype=np.intp)
            picks = np.setdiff1d(diagonal, ends)
            # gen_images and lead first: unlocked readers treat len(ranks)
            # as the high-water mark of completed levels
            self.gen_images.append(kernel[picks])
            self.lead.append(lead)
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

    def _previous(self, n: int, budgets: Budgets) -> np.ndarray:
        """f_n on all of A_G^{b_n} at the target's ``lead[n]`` columns,
        rows indexed by (generator, g)."""
        x = self.levels[n]
        lead = self.target.lead[n]
        size = self.source.group.order
        budgets.check_fp("chain map matrix", len(x) * size * len(lead))
        cols = _acting_columns(self.target.group, lead, self.hom.mapping)
        return x[:, cols].reshape(len(x) * size, len(lead))

    def extend_to(self, degree: int, budgets: Budgets) -> None:
        if len(self.levels) > degree:
            return
        p = self.source.prime
        self.source.extend_to(degree, budgets)
        self.target.extend_to(degree, budgets)
        with self._lock:
            while len(self.levels) <= degree:
                n = len(self.levels)
                # x @ d'_n and the image of d_n under f_{n-1} both lie in
                # K'_{n-1}, so they agree when they agree at its leading columns
                targets = self.source.gen_images[n] @ self._previous(n - 1, budgets) % p
                solved = linalg.solve(self.target.coordinate_differential(n, budgets),
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
