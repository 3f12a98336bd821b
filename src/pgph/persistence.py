"""Persistence matrices over quotient chains, bar codes, and recovery.

A normal series of G yields a chain of quotients Q_1 = G -> ... -> Q_N and,
in each homology degree n, composable maps H_n(Q_i) -> H_n(Q_j).  The n-th
persistence matrix stores dim H_n(Q_i) on the diagonal and the ranks of the
composite maps above it; the bar code is its interval decomposition.  The
integral variant replaces each rank by the triple of abelian invariant
lists (source, target, cokernel) of the corresponding map on H_n(-, Z).

Every chain link of the p-central series (either direction) has a central
elementary abelian kernel K, so the exact sequence

    H_2(Q_t) -> H_2(Q_{t+1}) -> K_t -> H_1(Q_t) -> H_1(Q_{t+1}) -> 0

expresses dim K_t through entries of the first two persistence matrices.
That powers the reconstruction of |G|, and of the full invariant list when
G is abelian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from pgph import linalg
from pgph.barcomplex import _chain_triples
from pgph.config import default_budgets
from pgph.errors import ConsistencyError, DataError, PgphError
from pgph.groups import (FiniteGroup, GroupHom, Subgroup, min_generators,
                         quotient_chain, series)
from pgph.resolution import induced_map, minimal_resolution


@dataclass(frozen=True, eq=False)
class PersistenceMatrix:
    """Upper-triangular rank matrix of one homology degree along one chain.

    ``matrix[i, j]`` (0-based, i <= j) is the rank of the composite map
    H_n(Q_{i+1}) -> H_n(Q_{j+1}); entries below the diagonal are zero.
    """

    group: str
    functor: str
    degree: int
    term_orders: tuple[int, ...]
    matrix: np.ndarray

    @property
    def size(self) -> int:
        return int(self.matrix.shape[0])

    def validate(self) -> None:
        """Check shape, nonnegativity, and rank monotonicity."""
        m = self.matrix
        n = self.size
        if m.shape != (n, n):
            raise DataError(f"persistence matrix is not square: {m.shape}")
        if np.tril(m, -1).any():
            raise DataError("entries below the diagonal must be zero")
        if (m < 0).any():
            raise DataError("negative entry in a persistence matrix")
        for i in range(n):
            for j in range(i, n - 1):
                if m[i, j + 1] > m[i, j]:
                    raise DataError(
                        f"rank grows along row {i + 1}: columns {j + 1}, {j + 2}")
        for j in range(n):
            for i in range(j):
                if m[i, j] > m[i + 1, j]:
                    raise DataError(
                        f"rank shrinks down column {j + 1}: rows {i + 1}, {i + 2}")

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "functor": self.functor,
            "degree": self.degree,
            "termOrders": [int(x) for x in self.term_orders],
            "matrix": [[int(x) for x in row] for row in self.matrix],
        }


@dataclass(frozen=True)
class Barcode:
    """Interval decomposition: bars (birth, death, multiplicity), 1-based."""

    degree: int
    columns: int
    bars: tuple[tuple[int, int, int], ...]

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "columns": self.columns,
            "bars": [[b, d, m] for b, d, m in self.bars],
        }


@dataclass(frozen=True, eq=False)
class IntegralPersistenceMatrix:
    """Triples (A, B, C) of abelian invariants along one chain.

    ``triples[i][j]`` (0-based, i <= j) holds the invariants of the source,
    the target and the cokernel of the map H_n(Q_{i+1}, Z) -> H_n(Q_{j+1}, Z);
    cells below the diagonal hold None.
    """

    group: str
    functor: str
    degree: int
    term_orders: tuple[int, ...]
    triples: tuple[tuple, ...]

    @property
    def size(self) -> int:
        return len(self.triples)

    def entry(self, i: int, j: int):
        """The (A, B, C) triple at 1-based position (i, j)."""
        if not 1 <= i <= j <= self.size:
            raise DataError(f"triple indices out of range: {i}, {j}")
        return self.triples[i - 1][j - 1]

    def to_json(self) -> dict:
        rows = []
        for row in self.triples:
            rows.append([
                0 if cell is None else
                {"A": list(cell[0]), "B": list(cell[1]), "C": list(cell[2])}
                for cell in row
            ])
        return {
            "group": self.group,
            "functor": self.functor,
            "degree": self.degree,
            "termOrders": [int(x) for x in self.term_orders],
            "matrix": rows,
        }


@dataclass(frozen=True)
class InvariantFingerprint:
    """Canonical serialization of a matrix sequence, for exact comparison."""

    group: str
    functor: str
    degrees: int
    serialized: tuple[str, ...]


def _matrix_for_chain(quotients: Sequence[FiniteGroup],
                      maps: Sequence[GroupHom], functor: str, degree: int,
                      name: str) -> PersistenceMatrix:
    """Entry (i, j) is the rank of the composite of ``maps[i:j]`` in degree
    ``degree``; the diagonal holds the homology dimensions of ``quotients``."""
    p = quotients[0].prime
    n_terms = len(quotients)
    dims = [minimal_resolution(q, degree).ranks[degree] for q in quotients]
    links = [induced_map(maps[t], degree) for t in range(n_terms - 1)]
    m = np.zeros((n_terms, n_terms), dtype=np.int64)
    for i in range(n_terms):
        m[i, i] = dims[i]
        acc = np.eye(dims[i], dtype=np.int64)
        for j in range(i + 1, n_terms):
            acc = acc @ links[j - 1] % p
            m[i, j] = linalg.rank(acc, p)
    orders = tuple(q.order for q in quotients)
    return PersistenceMatrix(name, functor, degree, orders, m)


def _integral_for_chain(quotients: Sequence[FiniteGroup],
                        maps: Sequence[GroupHom], functor: str, degree: int,
                        name: str) -> IntegralPersistenceMatrix:
    """`_matrix_for_chain` over Z: cell (i, j) is the (A, B, C) triple."""
    cells = _chain_triples(quotients, maps, degree)
    rows = tuple(
        tuple(None if j < i else tuple(map(tuple, cells[i, j])) for j in range(len(quotients)))
        for i in range(len(quotients)))
    orders = tuple(q.order for q in quotients)
    return IntegralPersistenceMatrix(name, functor, degree, orders, rows)


def persistence_matrix(group: FiniteGroup, functor: str, degree: int, *,
                       name: str = "") -> PersistenceMatrix:
    """The degree-``degree`` persistence matrix of ``group`` over ``functor``."""
    if degree < 0:
        raise DataError(f"homology degree must be nonnegative: {degree}")
    chain = quotient_chain(group, functor)
    return _matrix_for_chain(chain.quotients, chain.maps, functor, degree, name)


def persistence_sequence(group: FiniteGroup, functor: str, max_degree: int, *,
                         name: str = "") -> list[PersistenceMatrix]:
    """Matrices for degrees 1..max_degree, sharing one chain and resolutions."""
    if max_degree < 1:
        raise DataError(f"max degree must be at least 1: {max_degree}")
    chain = quotient_chain(group, functor)
    return [_matrix_for_chain(chain.quotients, chain.maps, functor, degree, name)
            for degree in range(1, max_degree + 1)]


def barcode(pm: PersistenceMatrix) -> Barcode:
    """Interval decomposition of a persistence matrix.

    mu(i, j) = (p_{i,j} - p_{i,j+1}) - (p_{i-1,j} - p_{i-1,j+1}) with zero
    padding outside the matrix; a negative value means the matrix is not
    realizable by any persistence module.
    """
    n = pm.size
    q = np.zeros((n + 2, n + 2), dtype=np.int64)
    q[1:n + 1, 1:n + 1] = pm.matrix
    bars = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            mult = int((q[i, j] - q[i, j + 1]) - (q[i - 1, j] - q[i - 1, j + 1]))
            if mult < 0:
                raise DataError(
                    f"negative multiplicity {mult} at ({i}, {j}): "
                    "not a persistence module")
            if mult:
                bars.append((i, j, mult))
    return Barcode(pm.degree, n, tuple(bars))


def matrix_from_barcode(bc: Barcode) -> PersistenceMatrix:
    """Rebuild the rank matrix: p_{i,j} sums bars born by i and alive at j."""
    n = bc.columns
    m = np.zeros((n, n), dtype=np.int64)
    for birth, death, mult in bc.bars:
        if not (1 <= birth <= death <= n and mult >= 1):
            raise DataError(f"malformed bar ({birth}, {death}, {mult})")
        for i in range(birth, death + 1):
            m[i - 1, i - 1:death] += mult
    return PersistenceMatrix("", "", bc.degree, (), m)


def integral_persistence_matrix(group: FiniteGroup, functor: str, degree: int, *,
                                name: str = "") -> IntegralPersistenceMatrix:
    """Triples of abelian invariants for H_degree(-, Z) along the chain."""
    if degree < 0:
        raise DataError(f"homology degree must be nonnegative: {degree}")
    chain = quotient_chain(group, functor)
    return _integral_for_chain(chain.quotients, chain.maps, functor, degree, name)


def _serialize_matrix(pm: PersistenceMatrix) -> str:
    cells = ",".join(str(int(pm.matrix[i, j]))
                     for i in range(pm.size) for j in range(i, pm.size))
    return f"{pm.functor};N={pm.size};n={pm.degree};{cells}"


def _serialize_integral(ipm: IntegralPersistenceMatrix) -> str:
    def fmt(cell):
        return ":".join(".".join(str(x) for x in part) for part in cell)

    cells = ",".join(fmt(ipm.triples[i][j])
                     for i in range(ipm.size) for j in range(i, ipm.size))
    return f"{ipm.functor};N={ipm.size};n={ipm.degree};{cells}"


def fingerprint(group: FiniteGroup, functor: str, max_degree: int, *,
                integral: bool = False, name: str = "") -> InvariantFingerprint:
    """Degree-separated canonical form of the matrix sequence of a group."""
    if integral:
        chain = quotient_chain(group, functor)
        serials = tuple(
            _serialize_integral(_integral_for_chain(
                chain.quotients, chain.maps, functor, n, name))
            for n in range(1, max_degree + 1))
    else:
        seq = persistence_sequence(group, functor, max_degree, name=name)
        serials = tuple(_serialize_matrix(pm) for pm in seq)
    return InvariantFingerprint(name, functor, max_degree, serials)


def _partition(names: list[str], key) -> tuple[tuple[str, ...], ...]:
    buckets: dict = {}
    for name in names:
        buckets.setdefault(key(name), []).append(name)
    return tuple(sorted(tuple(sorted(v)) for v in buckets.values()))


def classify(catalog, functor: str, max_degree: int, *,
             integral: bool = False, workers: int | None = None) -> dict:
    """Partition a catalog of groups by their matrix-sequence fingerprints.

    ``catalog`` is a name -> group mapping or an iterable of (name, group)
    pairs.  The report counts classes of the full degree range, lists the
    members of each class, and gives two summary statistics: stableT, one
    more than the last degree whose addition strictly refined the partition,
    and the strongest single degree (most classes, then smallest maximum
    class, ties resolved toward the higher degree).  Groups are fingerprinted
    in catalog order on the calling thread.  ``workers`` is accepted and
    validated for compatibility (a negative count is a DataError) but ignored:
    the elimination holds the GIL, so threads ran no faster, and worker
    processes would lose the resolution caches that later calls reuse.
    Budgets come from PGPH_BUDGET, parsed before any group is fingerprinted,
    so a bad value is a DataError of the call; a group its budgets refuse
    is listed under ``failures``, and the call raises only when all are.
    """
    if isinstance(catalog, Mapping):
        pairs = [(str(k), v) for k, v in catalog.items()]
    else:
        pairs = [(str(k), v) for k, v in catalog]
    if not pairs:
        raise DataError("empty catalog")
    if len(set(name for name, _ in pairs)) != len(pairs):
        raise DataError("duplicate group names in catalog")
    if max_degree < 1:
        raise DataError(f"max degree must be at least 1: {max_degree}")
    if workers is not None and workers < 0:
        raise DataError(f"workers must not be negative: {workers}")
    default_budgets()  # a bad PGPH_BUDGET is no group's fault: raise it here

    serials: dict[str, tuple[str, ...]] = {}
    failures: list[dict] = []
    errors: list[PgphError] = []
    for name, group in pairs:
        try:
            serials[name] = fingerprint(group, functor, max_degree,
                                        integral=integral, name=name).serialized
        except ConsistencyError:
            raise  # a defect, not a group this run could not finish
        except PgphError as exc:
            failures.append({"group": name, "error": str(exc)})
            errors.append(exc)

    names = list(serials)  # in catalog order
    if not names:
        # nothing to report: raise the first group's own cause, typed as it was
        errors[0].args = (f"{failures[0]['group']}: {errors[0]}",)
        raise errors[0]

    parts = [_partition(names, lambda _: ())]
    for d in range(1, max_degree + 1):
        parts.append(_partition(names, lambda nm: serials[nm][:d]))
    refining = [d for d in range(1, max_degree + 1) if parts[d] != parts[d - 1]]
    stable_t = 1 + (refining[-1] if refining else 0)

    best = None
    for d in range(1, max_degree + 1):
        part = _partition(names, lambda nm: serials[nm][d - 1])
        stats = (len(part), max(len(c) for c in part), d)
        if best is None or (-stats[0], stats[1], -stats[2]) < (-best[0], best[1], -best[2]):
            best = stats
    final = parts[max_degree]

    return {
        "functor": functor,
        "integral": integral,
        "maxDegree": max_degree,
        "groups": len(names),
        "classes": len(final),
        "maxClassSize": max(len(c) for c in final),
        "stableT": stable_t,
        "members": [list(c) for c in final],
        "singleDegree": {
            "classes": best[0], "maxClassSize": best[1], "degree": best[2]},
        "partial": bool(failures),
        "failures": failures,
    }


def _infer_prime(*matrices: PersistenceMatrix) -> int:
    for pm in matrices:
        if pm.term_orders:
            q = int(pm.term_orders[-1])
            for d in range(2, q + 1):
                if q % d == 0:
                    return d
    raise DataError("prime not given and matrices carry no term orders")


def _recovery_pair(first: PersistenceMatrix, second: PersistenceMatrix,
                   allowed: tuple[str, ...]) -> None:
    if first.functor not in allowed or second.functor != first.functor:
        raise DataError(
            f"recovery needs matching functor in {allowed}: "
            f"{first.functor!r}, {second.functor!r}")
    if (first.degree, second.degree) != (1, 2):
        raise DataError("recovery needs the degree-1 and degree-2 matrices")
    if first.size != second.size:
        raise DataError("matrix sizes differ between degrees")


def _link_kernel_dims(m1: np.ndarray, m2: np.ndarray) -> list[int]:
    """dim K_t for each chain link, from the five-term exact sequence."""
    dims = []
    for t in range(len(m1) - 1):
        k = int(m2[t + 1, t + 1] - m2[t, t + 1]) + int(m1[t, t] - m1[t, t + 1])
        if k < 0:
            raise DataError(f"negative kernel dimension at chain link {t + 1}")
        dims.append(k)
    return dims


def recover_order(first: PersistenceMatrix, second: PersistenceMatrix,
                  prime: int | None = None) -> int:
    """|G| from the degree-1 and degree-2 matrices of a p-central functor.

    Each chain link has central elementary abelian kernel K_t whose
    dimension the exact sequence yields; the last chain term is elementary
    abelian of dimension p_{N,N}, and the orders multiply back up.
    """
    _recovery_pair(first, second, ("Lp", "Zp"))
    p = prime if prime is not None else _infer_prime(first, second)
    m1 = first.matrix
    exponent = int(m1[-1, -1]) + sum(_link_kernel_dims(m1, second.matrix))
    return p ** exponent


def recover_abelian_invariants(first: PersistenceMatrix,
                               second: PersistenceMatrix,
                               prime: int | None = None) -> list[int]:
    """Invariant factors of an abelian group from its Zp-chain matrices.

    Walking the chain backwards from the elementary abelian tail, each link
    multiplies the dim K_t largest invariants of the quotient by p (padding
    with trivial factors), because the kernel is exactly the p-torsion.
    """
    _recovery_pair(first, second, ("Zp",))
    p = prime if prime is not None else _infer_prime(first, second)
    m1 = first.matrix
    kernel_dims = _link_kernel_dims(m1, second.matrix)
    invariants = [p] * int(m1[-1, -1])
    for t in range(len(m1) - 2, -1, -1):
        d = kernel_dims[t]
        if d < len(invariants) or d != int(m1[t, t]):
            raise DataError(
                f"chain link {t + 1} is inconsistent with an abelian group")
        invariants = [p * v for v in [1] * (d - len(invariants)) + invariants]
    return invariants


def _section_p_rank(group: FiniteGroup, upper: Subgroup, lower: Subgroup,
                    p: int) -> int:
    """dim (U/L x F_p) for a central section U/L, as |U| / |U^p L| in logs."""
    powers = group.power_table(p)
    gens = sorted(set(int(powers[x]) for x in upper.elements)
                  | set(lower.elements))
    closure = group.subgroup_generated(gens)
    quotient_size = upper.order // len(closure)
    rank = 0
    while quotient_size > 1:
        if quotient_size % p:
            raise DataError("series section size is not a power of p")
        quotient_size //= p
        rank += 1
    return rank


def verify_lower_central_barcodes(group: FiniteGroup) -> dict:
    """Structural checks on the lower central bar codes of a p-group.

    Degree 1: exactly min-generator-count bars, all full length.  Degree 2:
    no bar starts after column 1 unless it is a single vertex; and the
    isolated vertices in column j >= 2 count dim L_{c+2-j}/L_{c+3-j} x F_p,
    compared against the series sections computed by group arithmetic.
    """
    p = group.prime
    bc1 = barcode(persistence_matrix(group, "L", 1))
    bc2 = barcode(persistence_matrix(group, "L", 2))
    n_cols = bc1.columns
    gen_count = len(min_generators(group))

    expected_bar = (1, n_cols, gen_count)
    full_paths_ok = bc1.bars == ((expected_bar,) if gen_count else ())

    late_starts = [bar for bar in bc2.bars if bar[0] >= 2 and bar[1] > bar[0]]

    ser = series(group, "L")
    mu = {(b, d): m for b, d, m in bc2.bars}
    columns = []
    isolated_ok = True
    for j in range(2, n_cols + 1):
        jp = n_cols + 2 - j
        expected = _section_p_rank(group, ser.terms[jp - 1], ser.terms[jp], p)
        observed = mu.get((j, j), 0)
        columns.append({"column": j, "observed": observed, "expected": expected})
        isolated_ok = isolated_ok and observed == expected

    return {
        "group": group.order,
        "passed": full_paths_ok and not late_starts and isolated_ok,
        "generatorPaths": {
            "passed": full_paths_ok,
            "expected": list(expected_bar),
            "bars": [list(b) for b in bc1.bars],
        },
        "pathStarts": {
            "passed": not late_starts,
            "violations": [list(b) for b in late_starts],
        },
        "isolatedVertices": {"passed": isolated_ok, "columns": columns},
    }
