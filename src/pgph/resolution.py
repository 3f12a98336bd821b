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
Each call checks its budgets against every level it needs, cached or not,
so whether a call is refused does not depend on the cache.

The same engine resolves Z/q over (Z/q)[G], q = p^E: a minimal Z_p[G]-
resolution reduced mod q, with the ranks b_n.  Kernels and lifts are
eliminated mod q with unit pivots; lead, the radical pick and the
minimality check read K_n mod p.  These levels charge the integer budget.

Free modules are flattened to row vectors: a vector v of length
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


def _prime(*groups: FiniteGroup) -> int:
    """The prime of p-groups; a trivial group goes with any prime."""
    primes = {g.prime for g in groups if g.order > 1} or {2}
    if len(primes) > 1:
        raise DataError(f"orders {[g.order for g in groups]} are not powers of one prime")
    return primes.pop()


def _block_sums(rows: np.ndarray, size: int, q: int) -> np.ndarray:
    """Free-module rows tensored with Z, mod q: their |G|-block sums."""
    return rows.reshape(len(rows), rows.shape[1] // size, size).sum(axis=2) % q


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
        self._lock = threading.RLock()

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
            return np.ones((size, 1), dtype=np.int64)
        gens, lead = self.gen_images[n], self.lead[n - 1]
        cols = _acting_columns(self.group, lead, range(size))
        # row (i, g) sits at i * size + g
        return gens[:, cols].reshape(len(gens) * size, len(lead))

    def _differential_entries(self, n: int) -> int:
        """The size of D_n, b_n |G| x k_(n-1), for n >= 1."""
        return self.ranks[n] * self.group.order * len(self.lead[n - 1])

    def _build(self, n: int) -> None:
        """Level n + 1, from D_n."""
        p, q = self.prime, self.modulus
        diff = self.coordinate_differential(n)
        kernel = (linalg.kernel_basis(diff, p) if q == p
                  else linalg._kernel_basis_mod(diff, p, q))
        gens = self.group.minimal_generators()
        k = len(kernel)
        radical = np.empty((len(gens) * k, k), dtype=np.min_scalar_type(p - 1))
        residues = (kernel % p if q != p else kernel).astype(radical.dtype)
        if linalg._product(kernel, diff, q).any():
            raise ConsistencyError(f"a kernel row of d_{n} is not in its kernel")
        if k + diff.shape[1] != diff.shape[0]:
            raise ConsistencyError(f"d_{n} is not onto the kernel below it")
        if _block_sums(residues, self.group.order, p).any():
            raise ConsistencyError(f"the resolution is not minimal at level {n}")
        lead = (residues != 0).argmax(axis=1) if k else np.zeros(0, dtype=np.intp)
        # In K-coordinates x -> x[lead] the kernel rows are the identity
        # and each radical block (g - 1) K is K[:, g . lead] - I.  Row i
        # lies in the span of the radical and of the rows before it
        # exactly when some radical vector ends at coordinate i, and
        # those ends are the pivots of the radical with columns reversed.
        diagonal = np.arange(k)
        for j, cols in enumerate(_acting_columns(self.group, lead, gens)):
            block = radical[j * k : (j + 1) * k]
            np.take(residues, cols, axis=1, out=block, mode="clip")
            # minus 1 mod p without leaving the unsigned dtype
            ones = block[diagonal, diagonal]
            block[diagonal, diagonal] = np.where(ones, ones - 1, p - 1)
        ends = k - 1 - np.array(linalg.pivot_columns(radical[:, ::-1], p), dtype=np.intp)
        picks = np.setdiff1d(diagonal, ends)
        # gen_images and lead first: unlocked readers treat len(ranks)
        # as the high-water mark of completed levels
        self.gen_images.append(kernel[picks])
        self.lead.append(lead)
        self.ranks.append(len(picks))

    def extend_to(self, degree: int, budgets: Budgets | None = None) -> None:
        budgets = budgets or default_budgets()
        for n in range(degree):
            # level n + 1 needs D_n and the radical of K_n, d k_n x k_n with
            # k_n = b_n |G| - k_(n-1) by exactness; cached levels are checked
            # too, so refusals do not depend on the cache
            if n:
                self._charge(budgets, "resolution differential", self._differential_entries(n))
            k = self.ranks[n] * self.group.order - (len(self.lead[n - 1]) if n else 1)
            self._charge(budgets, "resolution radical",
                         len(self.group.minimal_generators()) * k * k)
            if len(self.ranks) <= n + 1:
                with self._lock:
                    if len(self.ranks) <= n + 1:
                        self._build(n)

    def tensored(self, n: int) -> np.ndarray:
        """d_n tensored with Z, mod q: b_n x b_(n-1)."""
        return _block_sums(self.gen_images[n], self.group.order, self.modulus)


def minimal_resolution(group: FiniteGroup, degree: int,
                       budgets: Budgets | None = None) -> MinimalResolution:
    """The cached minimal resolution of ``group`` over F_p, p the prime of
    the p-group ``group``, computed through ``degree``."""
    p = _prime(group)
    res = _resolution(group, p, p)
    # budgets go with the call, not the shared object, so a caller never
    # changes the limits of an extension already in flight
    res.extend_to(degree, budgets)
    return res


def _cached(cache: dict, key: tuple, make):
    with _CACHE_LOCK:
        if key not in cache:
            cache[key] = make()
        return cache[key]


def _resolution(group: FiniteGroup, prime: int, modulus: int) -> MinimalResolution:
    """The cached resolution of ``group`` mod ``modulus``, a power of ``prime``."""
    return _cached(_RESOLUTIONS, (_digest(group), prime, modulus),
                   lambda: MinimalResolution(group, prime, modulus))


def homology_dims(group: FiniteGroup, n_max: int,
                  budgets: Budgets | None = None) -> list[int]:
    """dim H_n(G, F_p) for n = 0..n_max."""
    if n_max < 0:
        raise DataError(f"homology degree must be nonnegative: {n_max}")
    res = minimal_resolution(group, n_max, budgets=budgets)
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
        start = np.zeros((1, target.group.order), dtype=np.int64)
        start[0, 0] = 1                             # e_1 -> e_1
        self.levels = [start]
        self._lock = threading.RLock()

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
        diff = self.target.coordinate_differential(n)
        return (linalg.solve(diff, targets, p) if q == p
                else linalg._solve_mod(diff, targets, p, q))

    def extend_to(self, degree: int, budgets: Budgets) -> None:
        source, target = self.source, self.target
        source.extend_to(degree, budgets)
        target.extend_to(degree, budgets)
        for n in range(1, degree + 1):
            # level n needs f_(n-1) at the target's leading columns, and the
            # target's D_n; cached levels are checked too, as in resolutions
            source._charge(budgets, "chain map matrix", source.ranks[n - 1]
                           * source.group.order * len(target.lead[n - 1]))
            target._charge(budgets, "resolution differential", target._differential_entries(n))
            if len(self.levels) <= n:
                with self._lock:
                    if len(self.levels) <= n:
                        self.levels.append(self._lift(n))

    def homology_matrix(self, n: int, budgets: Budgets) -> np.ndarray:
        """f_n tensored with Z, mod q; mod p it induces H_n(source) -> H_n(target)."""
        self.extend_to(n, budgets)
        return _block_sums(self.levels[n], self.target.group.order, self.source.modulus)


def _chain_map(hom: GroupHom, modulus: int | None = None) -> _ChainMap:
    """The cached chain map over ``hom`` between resolutions mod ``modulus``,
    by default their prime."""
    p = _prime(hom.source, hom.target)
    q = modulus or p
    key = (_digest(hom.source), _digest(hom.target), hom.mapping.tobytes(), q)
    source, target = _resolution(hom.source, p, q), _resolution(hom.target, p, q)
    return _cached(_CHAIN_MAPS, key, lambda: _ChainMap(hom, source, target))


def induced_map(hom: GroupHom, n: int, budgets: Budgets | None = None) -> np.ndarray:
    """The matrix of H_n(hom): rows index source classes, columns target ones.

    Functorial: the matrix of a composite is the product of the matrices in
    composition order, acting on row vectors.
    """
    budgets = budgets or default_budgets()
    return _chain_map(hom).homology_matrix(n, budgets)
