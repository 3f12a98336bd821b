"""Finite p-groups as Cayley tables, their normal series and quotient chains.

Elements are integers 0..n-1 with 0 the identity.  All arithmetic goes
through a dense multiplication table, so every routine here is exact and
deterministic.  The five series are named by short codes:

  L   lower central series          G = L1 >= L2 >= ...,  L_{i+1} = [L_i, G]
  Lp  lower p-central series        Lp_{i+1} = [Lp_i, G] * Lp_i^p
  D   derived series                D_{i+1} = [D_i, D_i]
  Z   upper central series          1 = Z0 <= Z1 <= ...,  Z_{i+1}/Z_i = center(G/Z_i)
  Zp  upper p-central series        Z_{i+1}/Z_i = elements of order dividing p
                                    in the center of G/Z_i

Quotient chains read left to right from the full group down to its smallest
proper quotient in the series: column 1 is always G itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from pgph.config import DEFAULT_ORDER_CAP
from pgph.errors import BudgetExceededError, DataError

SERIES_KINDS = ("L", "Lp", "D", "Z", "Zp")

_DESCENDING = {"L": True, "Lp": True, "D": True, "Z": False, "Zp": False}


def _distinct(values, n: int) -> np.ndarray:
    """The sorted distinct entries of ``values``, element indices below ``n``."""
    seen = np.zeros(n, dtype=bool)
    seen[values] = True
    return np.nonzero(seen)[0]


def _as_table(cayley) -> np.ndarray:
    table = np.asarray(cayley, dtype=np.int32)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise DataError("multiplication table must be square")
    return table


class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``cayley[a, b]`` is the product a*b.  Element 0 must be the identity.
    Construction validates the table (identity, inverses, associativity)
    unless ``validate=False``; closures built by this module skip the
    associativity sweep since it holds by construction.
    """

    def __init__(self, cayley, validate: bool = True):
        self.cayley = _as_table(cayley)
        self.order = self.cayley.shape[0]
        if self.order == 0:
            raise DataError("empty multiplication table")
        if validate:
            self._validate()
        self.inv = self._inverse_table()
        self._comm = None
        self._orders = None
        self._prime = None
        self._min_gens = None

    def _validate(self) -> None:
        n, t = self.order, self.cayley
        if t.min() < 0 or t.max() >= n:
            raise DataError("table entries out of range")
        idx = np.arange(n)
        if not np.array_equal(t[0], idx) or not np.array_equal(t[:, 0], idx):
            raise DataError("element 0 is not an identity")
        # Latin square: every row and column is a permutation
        for axis in (0, 1):
            if not np.all(np.sort(t, axis=axis) == (idx[:, None] if axis == 0 else idx[None, :])):
                raise DataError("table is not a Latin square")
        # associativity, in row blocks to bound memory
        step = max(1, (1 << 22) // max(n * n, 1))
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            left = t[t[lo:hi], :]          # (a*b)*c
            right = t[lo:hi][:, t]         # a*(b*c)
            if not np.array_equal(left, right):
                raise DataError("table is not associative")

    def _inverse_table(self) -> np.ndarray:
        rows, cols = np.nonzero(self.cayley == 0)
        inv = np.empty(self.order, dtype=np.int32)
        inv[rows] = cols
        return inv

    def commutator_table(self) -> np.ndarray:
        """Full n x n table of commutators [a, b]."""
        if self._comm is None:
            t, inv, n = self.cayley, self.inv, self.order
            conj = t[np.broadcast_to(inv[None, :], (n, n)), t]     # b^-1 * (a*b)
            self._comm = t[np.broadcast_to(inv[:, None], (n, n)), conj]
        return self._comm

    def power_table(self, k: int) -> np.ndarray:
        """p[x] = x**k for every element, k >= 0."""
        n = self.order
        cur = np.zeros(n, dtype=np.int32)
        base = np.arange(n, dtype=np.int32)
        for _ in range(k):
            cur = self.cayley[cur, base]
        return cur

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            n = self.order
            orders = np.zeros(n, dtype=np.int64)
            cur = np.arange(n, dtype=np.int32)
            base = cur.copy()
            k = 1
            while np.any(orders == 0):
                orders[(orders == 0) & (cur == 0)] = k
                cur = self.cayley[cur, base]
                k += 1
                if k > n + 1:
                    raise DataError("element order exceeds group order")
            self._orders = orders
        return self._orders

    def order_histogram(self) -> dict[int, int]:
        return {v: int(c) for v, c in enumerate(np.bincount(self.element_orders())) if c}

    # -- structure ---------------------------------------------------------

    @property
    def prime(self) -> int:
        """The unique prime dividing the order.  DataError if not a p-group."""
        if self._prime is None:
            if self.order == 1:
                raise DataError("trivial group has no defining prime")
            p = 2
            while self.order % p:
                p += 1
            m = self.order
            while m % p == 0:
                m //= p
            if m != 1:
                raise DataError(f"order {self.order} is not a prime power")
            self._prime = p
        return self._prime

    @cached_property
    def digest(self) -> bytes:
        """sha1 of the Cayley table, computed once: the cache key of the group."""
        return hashlib.sha1(self.cayley.tobytes()).digest()

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.cayley, self.cayley.T))

    def center_elements(self) -> np.ndarray:
        mask = (self.commutator_table() == 0).all(axis=1)
        return np.nonzero(mask)[0].astype(np.int32)

    def subgroup_generated(self, gens: Iterable[int]) -> np.ndarray:
        """Sorted element array of the subgroup generated by ``gens``."""
        seen = np.zeros(self.order, dtype=bool)
        seen[0] = True
        frontier = [0]
        gens = sorted({int(g) for g in gens})
        while frontier:
            products = self.cayley[np.ix_(frontier, gens)].ravel()
            fresh = products[~seen[products]]
            if len(fresh) == 0:
                break
            seen[fresh] = True
            frontier = _distinct(fresh, self.order).tolist()
        return np.nonzero(seen)[0].astype(np.int32)

    def commutator_subgroup(self, left: Sequence[int] | None = None,
                            right: Sequence[int] | None = None) -> np.ndarray:
        """Subgroup generated by all [a, b], a in left, b in right."""
        comm = self.commutator_table()
        left = np.arange(self.order) if left is None else np.asarray(left)
        right = np.arange(self.order) if right is None else np.asarray(right)
        gens = _distinct(comm[np.ix_(left, right)], self.order)
        return self.subgroup_generated(gens)

    def minimal_generators(self) -> list[int]:
        """A generating set of minimal size, chosen deterministically.

        For a p-group, greedily picking elements outside the closure of the
        Frattini subgroup with the previous picks yields a minimal set.
        """
        if self._min_gens is None:
            if self.order == 1:
                self._min_gens = []
            else:
                p = self.prime
                frattini = self.subgroup_generated(_distinct(np.concatenate(
                    [self.commutator_subgroup(), self.power_table(p)]), self.order))
                chosen: list[int] = []
                span = frattini
                covered = np.zeros(self.order, dtype=bool)
                covered[span] = True
                while len(span) < self.order:
                    nxt = int(np.nonzero(~covered)[0][0])
                    chosen.append(nxt)
                    span = self.subgroup_generated(np.append(span, nxt))
                    covered[:] = False
                    covered[span] = True
                self._min_gens = chosen
        return list(self._min_gens)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup recorded as a sorted tuple of parent element indices."""

    parent: FiniteGroup
    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return int(x) in set(self.elements)


def _subgroup(parent: FiniteGroup, elements) -> Subgroup:
    return Subgroup(parent, tuple(int(x) for x in np.sort(np.asarray(elements))))


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism, stored as the image index of every source element."""

    source: FiniteGroup
    target: FiniteGroup
    mapping: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mapping, dtype=np.int32)
        object.__setattr__(self, "mapping", m)
        if m.shape != (self.source.order,):
            raise DataError("mapping length does not match source order")
        if m.min() < 0 or m.max() >= self.target.order:
            raise DataError("mapping image out of range")
        st = self.target.cayley
        if not np.array_equal(m[self.source.cayley], st[m[:, None], m[None, :]]):
            raise DataError("mapping is not a homomorphism")

    @property
    def is_surjective(self) -> bool:
        return len(_distinct(self.mapping, self.target.order)) == self.target.order

    def compose(self, then: "GroupHom") -> "GroupHom":
        """The composite source -> then.target (apply self first)."""
        if then.source is not self.target:
            raise DataError("homomorphisms do not compose")
        return GroupHom(self.source, then.target, then.mapping[self.mapping])

    def __call__(self, x: int) -> int:
        return int(self.mapping[x])


@dataclass(frozen=True)
class NormalSeries:
    """One of the five series of a group; terms ordered as computed.

    Descending kinds (L, Lp, D) store G = terms[0] down to the trivial
    subgroup; ascending kinds (Z, Zp) store the trivial subgroup up to G.
    """

    group: FiniteGroup
    kind: str
    terms: tuple[Subgroup, ...]

    @property
    def descending(self) -> bool:
        return _DESCENDING[self.kind]

    @property
    def orders(self) -> list[int]:
        return [t.order for t in self.terms]


def series(group: FiniteGroup, kind: str) -> NormalSeries:
    """Compute the series named by ``kind`` (one of L, Lp, D, Z, Zp)."""
    if kind not in SERIES_KINDS:
        raise DataError(f"unknown series kind {kind!r}")
    n = group.order
    if n == 1:
        term = _subgroup(group, [0])
        return NormalSeries(group, kind, (term,))
    p = group.prime
    comm = group.commutator_table()
    everything = np.arange(n)
    if _DESCENDING[kind]:
        terms = [everything]
        while len(terms[-1]) > 1:
            cur = terms[-1]
            if kind == "L":
                gens = _distinct(comm[cur, :], n)
            elif kind == "D":
                gens = _distinct(comm[np.ix_(cur, cur)], n)
            else:  # Lp
                gens = _distinct(np.concatenate(
                    [comm[cur, :].ravel(), group.power_table(p)[cur]]), n)
            nxt = group.subgroup_generated(gens)
            if len(nxt) == len(cur):
                raise DataError(f"{kind} series stalls at order {len(cur)}")
            terms.append(nxt)
    else:
        member = np.zeros(n, dtype=bool)
        member[0] = True
        terms = [np.array([0])]
        powers = group.power_table(p)
        while not member.all():
            central = member[comm].all(axis=1)
            if kind == "Zp":
                central &= member[powers]
            nxt = np.nonzero(central)[0]
            if len(nxt) == len(terms[-1]):
                raise DataError(f"{kind} series stalls at order {len(nxt)}")
            member[:] = False
            member[nxt] = True
            terms.append(nxt)
    return NormalSeries(group, kind, tuple(_subgroup(group, t) for t in terms))


def quotient(group: FiniteGroup, normal: Subgroup | Sequence[int]) -> tuple[FiniteGroup, GroupHom]:
    """The quotient by a normal subgroup, with its projection.

    Cosets are numbered by their minimal representative, so the result is
    canonical for a fixed numbering of the parent.
    """
    elems = normal.elements if isinstance(normal, Subgroup) else tuple(int(x) for x in normal)
    elems = np.asarray(sorted(set(elems)), dtype=np.int32)
    if len(elems) == 0 or elems[0] != 0:
        raise DataError("normal subgroup must contain the identity")
    inside = np.zeros(group.order, dtype=bool)
    inside[elems] = True  # it holds the identity: closed iff every product is inside
    if not inside[group.cayley[np.ix_(elems, elems)]].all():
        raise DataError("element set is not closed under multiplication")
    rep = group.cayley[:, elems].min(axis=1)
    lookup = {int(r): i for i, r in enumerate(sorted(set(int(x) for x in rep)))}
    proj = np.array([lookup[int(r)] for r in rep], dtype=np.int32)
    reps = np.array(sorted(lookup), dtype=np.int32)
    table = proj[group.cayley[np.ix_(reps, reps)]]
    q = FiniteGroup(table, validate=False)
    # well-definedness of the table doubles as the normality check
    if not np.array_equal(proj[group.cayley], q.cayley[proj[:, None], proj[None, :]]):
        raise DataError("subgroup is not normal")
    return q, GroupHom(group, q, proj)


@dataclass(frozen=True)
class QuotientChain:
    """Quotients Q_1 = G, ..., Q_N induced by one series, with their maps.

    ``maps[t]`` is the surjection Q_{t+1} -> Q_{t+2} (0-based list index);
    ``projections[t]`` is the projection G -> Q_{t+1}.
    """

    group: FiniteGroup
    kind: str
    quotients: tuple[FiniteGroup, ...]
    maps: tuple[GroupHom, ...]
    projections: tuple[GroupHom, ...]

    def __len__(self) -> int:
        return len(self.quotients)

    def hom(self, i: int, j: int) -> GroupHom:
        """The composite surjection Q_i -> Q_j for 1 <= i <= j <= N."""
        if not 1 <= i <= j <= len(self.quotients):
            raise DataError(f"chain map indices out of range: {i}, {j}")
        mapping = np.arange(self.quotients[i - 1].order, dtype=np.int32)
        hom = GroupHom(self.quotients[i - 1], self.quotients[i - 1], mapping)
        for t in range(i - 1, j - 1):
            hom = hom.compose(self.maps[t])
        return hom


def quotient_chain(group: FiniteGroup, kind: str) -> QuotientChain:
    """The chain of quotients along the ``kind`` series of ``group``.

    For a descending series G = F_1 > ... > F_k = 1 the chain is
    Q_t = G / F_{k+1-t}, t = 1..k-1; for an ascending series
    1 = S_0 < ... < S_c = G it is Q_t = G / S_{t-1}, t = 1..c.  Either way
    Q_1 = G and each Q_t -> Q_{t+1} is the natural surjection.
    """
    if group.order == 1:
        raise DataError("trivial group has no quotient chain")
    ser = series(group, kind)
    if ser.descending:
        normals = [ser.terms[i] for i in range(len(ser.terms) - 1, 0, -1)]
    else:
        normals = list(ser.terms[:-1])
    quotients: list[FiniteGroup] = []
    projections: list[GroupHom] = []
    for sub in normals:
        q, proj = quotient(group, sub)
        quotients.append(q)
        projections.append(proj)
    maps = []
    for t in range(len(quotients) - 1):
        src, dst = quotients[t], quotients[t + 1]
        mapping = np.empty(src.order, dtype=np.int32)
        mapping[projections[t].mapping] = projections[t + 1].mapping
        maps.append(GroupHom(src, dst, mapping))
    return QuotientChain(group, kind, tuple(quotients), tuple(maps), tuple(projections))


def group_from_permutations(perms: Sequence[Sequence[int]]) -> FiniteGroup:
    """Close a list of permutations (0-based image tuples) into a group.

    Elements are numbered breadth-first from the identity, right-multiplying
    each element by the given generators in order (composition applies the
    left factor first), so the numbering is reproducible.  If element j was
    first reached as x * g_k, then a * j = (a * x) * g_k, so column j of the
    Cayley table is column x sent through right multiplication by g_k.
    A closure past DEFAULT_ORDER_CAP elements is a BudgetExceededError.
    """
    if not perms:
        raise DataError("at least one generating permutation is required")
    degree = len(perms[0])
    gens = []
    for perm in perms:
        image = tuple(int(x) for x in perm)
        if len(image) != degree or sorted(image) != list(range(degree)):
            raise DataError(f"not a permutation of 0..{degree - 1}: {perm}")
        gens.append(image)
    identity = tuple(range(degree))
    index = {identity: 0}
    elements = [identity]
    parents = [(0, 0)]  # parents[j] = (x, k): elements[j] = elements[x] * gens[k]
    right: list[list[int]] = [[] for _ in gens]  # right[k][x] = index of x * gens[k]
    # scanning ``elements`` in order while appending is breadth-first search
    for x, elem in enumerate(elements):
        for k, gen in enumerate(gens):
            prod = tuple(gen[v] for v in elem)
            j = index.get(prod)
            if j is None:
                if len(elements) >= DEFAULT_ORDER_CAP:
                    raise BudgetExceededError("permutation closure",
                                              DEFAULT_ORDER_CAP + 1, DEFAULT_ORDER_CAP)
                j = index[prod] = len(elements)
                elements.append(prod)
                parents.append((x, k))
            right[k].append(j)
    n = len(elements)
    right_mul = np.array(right, dtype=np.int32)
    columns = np.empty((n, n), dtype=np.int32)  # columns[j] = table[:, j]
    columns[0] = np.arange(n, dtype=np.int32)
    for j in range(1, n):
        x, k = parents[j]
        columns[j] = right_mul[k][columns[x]]
    return FiniteGroup(np.ascontiguousarray(columns.T), validate=False)


min_generators = FiniteGroup.minimal_generators


def abelian_invariants(group: FiniteGroup) -> list[int]:
    """Invariants of an abelian p-group as prime powers, ascending.

    Counting solutions of x**(p**k) = 1 for growing k gives the conjugate
    of the exponent partition, which determines the decomposition.
    """
    if group.order == 1:
        return []
    if not group.is_abelian:
        raise DataError("abelian invariants of a nonabelian group")
    p = group.prime
    exponents_ge = []  # entry k-1: number of cyclic factors of order >= p^k
    prev = 0
    k = 1
    while True:
        count = int(np.count_nonzero(group.power_table(p ** k) == 0))
        s = 0
        while p ** s < count:
            s += 1
        if p ** s != count:
            raise DataError("solution count is not a power of p")
        exponents_ge.append(s - prev)
        prev = s
        if count == group.order:
            break
        k += 1
    factors: list[int] = []
    for e in range(len(exponents_ge), 0, -1):
        copies = exponents_ge[e - 1] - (exponents_ge[e] if e < len(exponents_ge) else 0)
        factors = [p ** e] * copies + factors
    return sorted(factors)


def abelianization_invariants(group: FiniteGroup) -> list[int]:
    """Invariants of G / [G, G]."""
    if group.order == 1:
        return []
    q, _ = quotient(group, group.commutator_subgroup())
    return abelian_invariants(q)
