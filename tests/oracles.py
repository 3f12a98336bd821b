"""Small, slow, independent reference implementations used only by tests.

Everything here favors obviousness over speed: brute-force enumeration,
dictionary-based group arithmetic, exact determinants.  Nothing imports
package internals beyond public constructors, so agreement between these
oracles and the package is meaningful evidence.  The one exception is the
integral bar complex, which takes its integer kernels and Smith forms from
`pgph.linalg`; test_linalg checks both against exact references here.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd


def span_size_mod_p(rows, p):
    """Number of vectors in the row span over F_p, by full enumeration."""
    rows = [tuple(int(x) % p for x in row) for row in rows]
    if not rows:
        return 1
    width = len(rows[0])
    seen = set()
    for coeffs in product(range(p), repeat=len(rows)):
        v = [0] * width
        for c, row in zip(coeffs, rows):
            if c:
                for i, x in enumerate(row):
                    v[i] = (v[i] + c * x) % p
        seen.add(tuple(v))
    return len(seen)


def rank_mod_p(rows, p):
    """Rank over F_p via span counting (exponential; tiny inputs only)."""
    size = span_size_mod_p(rows, p)
    r = 0
    while p**r < size:
        r += 1
    assert p**r == size
    return r


def kernel_vectors_mod_p(rows, p):
    """All x with x @ rows = 0, by full enumeration of F_p^m."""
    m = len(rows)
    width = len(rows[0]) if m else 0
    out = []
    for x in product(range(p), repeat=m):
        v = [0] * width
        for c, row in zip(x, rows):
            if c:
                for i, e in enumerate(row):
                    v[i] = (v[i] + c * e) % p
        if all(e == 0 for e in v):
            out.append(x)
    return out


def rref_mod_p(rows, p, limit=None):
    """Gauss-Jordan elimination mod p on Python ints; (rows, pivot columns).

    Pivots are sought in the first ``limit`` columns (all by default), left
    to right.  Each takes the first row at or below the current one that is
    nonzero there, swaps it up, scales it to 1 and clears the column in
    every other row; later columns ride along.
    """
    M = [[int(x) % p for x in row] for row in rows]
    limit = (len(M[0]) if M else 0) if limit is None else limit
    pivots = []
    for c in range(limit):
        r = len(pivots)
        pr = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = pow(M[r][c], -1, p)
        M[r] = [x * inv % p for x in M[r]]
        for i, row in enumerate(M):
            if i != r and row[c]:
                f = row[c]
                M[i] = [(x - f * y) % p for x, y in zip(row, M[r])]
        pivots.append(c)
    return M, pivots


def det_exact(rows):
    """Exact integer determinant (Bareiss, fraction free)."""
    n = len(rows)
    M = [[int(x) for x in row] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1] if n else 1


def mat_mul_int(a, b):
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
        for row in a
    ]


def smith_diagonal_by_minors(rows):
    """Smith diagonal from determinantal divisors (exponential; tiny inputs).

    D_k, the gcd of all k x k minors, equals d_1 * ... * d_k, so
    d_k = D_k / D_(k-1) while D_k is nonzero, and 0 from there on.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    diag = []
    previous = 1
    for k in range(1, min(m, n) + 1):
        divisor = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                divisor = gcd(divisor, det_exact([[rows[i][j] for j in cs]
                                                  for i in rs]))
        if divisor == 0:
            break
        diag.append(divisor // previous)
        previous = divisor
    return diag + [0] * (min(m, n) - len(diag))


def smith_normal_form(a):
    """Full Smith normal form by row and column operations; (diagonal, U, V).

    U @ a @ V is diagonal, U and V are unimodular, and the diagonal is
    nonnegative and forms a divisibility chain.  Python ints throughout.
    """
    A = [[int(x) for x in row] for row in a]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        A[i] = [x - q * y for x, y in zip(A[i], A[j])]
        U[i] = [x - q * y for x, y in zip(U[i], U[j])]

    def col_op(j, i, q):  # col_j -= q * col_i
        for row in A:
            row[j] -= q * row[i]
        for row in V:
            row[j] -= q * row[i]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    k = 0
    while k < m and k < n:
        best = None
        for i in range(k, m):
            for j in range(k, n):
                v = A[i][j]
                if v and (best is None or abs(v) < abs(best[0])):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != k:
            swap_rows(k, bi)
        if bj != k:
            swap_cols(k, bj)
        while True:
            dirty = False
            for i in range(k + 1, m):
                if A[i][k]:
                    q = A[i][k] // A[k][k]
                    if q:
                        row_op(i, k, q)
                    if A[i][k]:
                        swap_rows(k, i)
                        dirty = True
            if dirty:
                continue
            for j in range(k + 1, n):
                if A[k][j]:
                    q = A[k][j] // A[k][k]
                    if q:
                        col_op(j, k, q)
                    if A[k][j]:
                        swap_cols(k, j)
                        dirty = True
            if not dirty and all(A[i][k] == 0 for i in range(k + 1, m)):
                break
        pivot = A[k][k]
        culprit = None
        for i in range(k + 1, m):
            if any(A[i][j] % pivot for j in range(k + 1, n)):
                culprit = i
                break
        if culprit is not None:
            A[k] = [x + y for x, y in zip(A[k], A[culprit])]
            U[k] = [x + y for x, y in zip(U[k], U[culprit])]
            continue
        if pivot < 0:
            A[k] = [-x for x in A[k]]
            U[k] = [-x for x in U[k]]
        k += 1
    diag = [A[i][i] for i in range(min(m, n))]
    return diag, U, V


# ---------------------------------------------------------------------------
# Dictionary-based permutation group arithmetic


def perm_compose(x, y):
    """Apply x, then y (matching the package's left-to-right convention)."""
    return tuple(y[i] for i in x)


def perm_inverse(x):
    inv = [0] * len(x)
    for i, v in enumerate(x):
        inv[v] = i
    return tuple(inv)


def close_permutations(gens):
    """Closure of a permutation set under composition, as a set of tuples."""
    degree = len(gens[0])
    identity = tuple(range(degree))
    elems = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = perm_compose(x, g)
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new
    return elems


class ToyGroup:
    """Set-of-permutations group with naive dictionary arithmetic."""

    def __init__(self, gens):
        self.gens = [tuple(g) for g in gens]
        self.elements = sorted(close_permutations(self.gens))

    @property
    def order(self):
        return len(self.elements)

    def mul(self, x, y):
        return perm_compose(x, y)

    def inv(self, x):
        return perm_inverse(x)

    def identity(self):
        return tuple(range(len(self.gens[0])))

    def conjugate(self, x, g):
        return perm_compose(perm_compose(perm_inverse(g), x), g)

    def commutator(self, x, y):
        lhs = perm_compose(perm_inverse(x), perm_inverse(y))
        return perm_compose(lhs, perm_compose(x, y))

    def subgroup_generated(self, subset):
        subset = [tuple(s) for s in subset]
        if not subset:
            return {self.identity()}
        return close_permutations(subset + [self.identity()])

    def commutator_subgroup(self, a_set, b_set):
        comms = [self.commutator(x, y) for x in a_set for y in b_set]
        return self.subgroup_generated(comms)

    def center(self):
        return {
            x
            for x in self.elements
            if all(self.mul(x, g) == self.mul(g, x) for g in self.elements)
        }

    def power(self, x, k):
        out = self.identity()
        for _ in range(k):
            out = perm_compose(out, x)
        return out

    def element_order(self, x):
        k = 1
        y = x
        ident = self.identity()
        while y != ident:
            y = perm_compose(y, x)
            k += 1
        return k

    def order_histogram(self):
        hist = {}
        for x in self.elements:
            o = self.element_order(x)
            hist[o] = hist.get(o, 0) + 1
        return hist

    def lower_central_series(self):
        full = set(self.elements)
        terms = [full]
        while len(terms[-1]) > 1:
            nxt = self.commutator_subgroup(terms[-1], full)
            if nxt == terms[-1]:
                raise AssertionError("series stalled; not nilpotent?")
            terms.append(nxt)
        return terms

    def upper_central_series(self):
        terms = [{self.identity()}]
        while len(terms[-1]) < self.order:
            prev = terms[-1]
            nxt = {
                x
                for x in self.elements
                if all(self.commutator(x, g) in prev for g in self.elements)
            }
            if nxt == prev:
                raise AssertionError("series stalled; not nilpotent?")
            terms.append(nxt)
        return terms


def cyclic_product_rep(orders):
    """Disjoint cycles, one generator per factor."""
    total = sum(orders)
    gens = []
    start = 0
    for m in orders:
        perm = list(range(total))
        for i in range(m):
            perm[start + i] = start + (i + 1) % m
        gens.append(tuple(perm))
        start += m
    return gens


def kunneth_dims_abelian(cyclic_orders, p, n_max):
    """dim H_n(prod C_m, F_p) for p dividing every m: r-fold convolution of ones."""
    for m in cyclic_orders:
        assert m % p == 0
    dims = [1] + [0] * n_max
    for _ in cyclic_orders:
        dims = [sum(dims[: n + 1]) for n in range(n_max + 1)]
    # r-fold convolution of the all-ones sequence: C(n + r - 1, r - 1)
    return dims


# ---------------------------------------------------------------------------
# Normalized bar complex, as an independent homology oracle.  Matrices are
# plain numpy with a textbook elimination; nothing below touches pgph.


import numpy as np


def fp_rank_simple(matrix, p):
    """Rank mod p by plain Gaussian elimination, no shortcuts."""
    a = np.array(matrix, dtype=np.int64) % p
    rank = 0
    for col in range(a.shape[1] if a.size else 0):
        pivot = next((r for r in range(rank, a.shape[0]) if a[r, col]), None)
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), p - 2, p) % p
        factors = a[:, col].copy()
        factors[rank] = 0
        hit = np.nonzero(factors)[0]
        if len(hit):
            a[hit] = (a[hit] - np.outer(factors[hit], a[rank])) % p
        rank += 1
    return rank


def fp_kernel_simple(matrix, p):
    """Rows x with x @ matrix = 0 mod p, via [A | I] elimination."""
    a = np.array(matrix, dtype=np.int64) % p
    m = a.shape[0]
    aug = np.hstack([a, np.eye(m, dtype=np.int64)])
    rank = 0
    for col in range(a.shape[1]):
        pivot = next((r for r in range(rank, m) if aug[r, col]), None)
        if pivot is None:
            continue
        aug[[rank, pivot]] = aug[[pivot, rank]]
        aug[rank] = aug[rank] * pow(int(aug[rank, col]), p - 2, p) % p
        factors = aug[:, col].copy()
        factors[rank] = 0
        hit = np.nonzero(factors)[0]
        if len(hit):
            aug[hit] = (aug[hit] - np.outer(factors[hit], aug[rank])) % p
        rank += 1
    return aug[rank:, a.shape[1]:]


def fp_rank_echelon(matrix, p):
    """Rank mod p by row-echelon elimination (below-pivot updates only).

    Same arithmetic as fp_rank_simple, oriented for tall matrices: works on
    whichever of A / A^T has fewer rows and never re-reduces above a pivot.
    The rows from the pivot row on are zero left of the pivot column, so
    only the columns from it on are updated, at int16 when a row update,
    -(p-1)^2 .. p-1, fits.
    """
    dtype = np.int16 if (p - 1) ** 2 + p < 1 << 15 else np.int64
    a = np.asarray(matrix)
    if a.size == 0:
        return 0
    if a.shape[0] > a.shape[1]:
        a = a.T
    # one working copy, at int16 when the input fits it: a boundary built
    # at int16 is reduced in place, never widened
    if not np.can_cast(a.dtype, dtype):
        a = a % p
    a = a.astype(dtype, order="C")
    a %= p
    m = a.shape[0]
    rank = 0
    for col in range(a.shape[1]):
        if rank == m:
            break
        live = np.nonzero(a[rank:, col])[0]
        if len(live) == 0:
            continue
        pivot = rank + int(live[0])
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        a[rank, col:] = a[rank, col:] * pow(int(a[rank, col]), p - 2, p) % p
        below = rank + 1 + np.nonzero(a[rank + 1:, col])[0]
        if len(below):
            a[below, col:] = (a[below, col:] - np.outer(a[below, col], a[rank, col:])) % p
        rank += 1
    return rank


def _pack_rows_gf2(row_cols, ncols):
    """Pack per-row column index lists into uint64 words (64 bits per word)."""
    words = max((ncols + 63) // 64, 1)
    out = np.zeros((len(row_cols), words), dtype=np.uint64)
    one = np.uint64(1)
    for r, cols in enumerate(row_cols):
        for c in cols:
            out[r, c >> 6] ^= one << np.uint64(c & 63)
    return out


def rank_gf2_packed(packed, ncols):
    """Rank of packed GF(2) rows by word-wise row echelon."""
    a = packed.copy()
    m = a.shape[0]
    rank = 0
    for col in range(ncols):
        if rank == m:
            break
        w = col >> 6
        mask = np.uint64(1) << np.uint64(col & 63)
        live = np.flatnonzero(a[rank:, w] & mask)
        if live.size == 0:
            continue
        pivot = rank + int(live[0])
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        below = rank + 1 + np.flatnonzero(a[rank + 1:, w] & mask)
        if below.size:
            a[below] ^= a[rank]
        rank += 1
    return rank


def fp_rank_gf2(matrix):
    """Rank over F_2 of a dense 0/1 matrix via the packed eliminator."""
    a = np.asarray(matrix) % 2
    if a.size == 0:
        return 0
    rows = [list(np.nonzero(row)[0]) for row in a]
    return rank_gf2_packed(_pack_rows_gf2(rows, a.shape[1]), a.shape[1])


def bar_basis(order, n):
    """Tuples of n non-identity elements, in lexicographic order."""
    from itertools import product as iproduct
    return list(iproduct(range(1, order), repeat=n))


def bar_boundary(table, n):
    """Integer matrix of d_n on the normalized bar complex, rows = B_n, at
    int16: an entry is a sum of at most n + 1 faces, each +-1."""
    table = np.asarray(table)
    order = table.shape[0]
    if n == 0:
        return np.zeros((1, 0), dtype=np.int16)
    rows = bar_basis(order, n)
    cols = bar_basis(order, n - 1)
    col_index = {t: i for i, t in enumerate(cols)}
    out = np.zeros((len(rows), len(cols)), dtype=np.int16)
    for r, tup in enumerate(rows):
        out[r, col_index[tup[1:]]] += 1
        sign = -1
        for i in range(n - 1):
            merged = tup[:i] + (int(table[tup[i], tup[i + 1]]),) + tup[i + 2:]
            if 0 not in merged:
                out[r, col_index[merged]] += sign
            sign = -sign
        out[r, col_index[tup[:-1]]] += sign
    return out


def rank_gf2_ints(rows):
    """Rank over F_2 of rows given as Python ints, one bit per column.

    Each row XORs the basis row at its leading bit until it has none there
    or is zero; only the basis is held, so ``rows`` may be a generator.
    """
    basis = {}
    for x in rows:
        while x:
            lead = x.bit_length()
            if lead not in basis:
                basis[lead] = x
                break
            x ^= basis[lead]
    return len(basis)


def bar_boundary_rank_gf2(table, n):
    """Rank of d_n over F_2 without materializing the dense boundary.

    Signs vanish mod 2, so each row is the XOR of the bits of its faces,
    built as one Python int straight from the Cayley table and streamed
    into `rank_gf2_ints`.
    """
    table = np.asarray(table).tolist()
    order = len(table)
    col_index = {t: i for i, t in enumerate(bar_basis(order, n - 1))}

    def rows():
        for tup in product(range(1, order), repeat=n):
            x = (1 << col_index[tup[1:]]) ^ (1 << col_index[tup[:-1]])
            for i in range(n - 1):
                g = table[tup[i]][tup[i + 1]]
                if g:
                    x ^= 1 << col_index[tup[:i] + (g,) + tup[i + 2:]]
            yield x

    return rank_gf2_ints(rows())


def bar_homology_dims(table, p, n_max):
    """dim H_n(G, F_p) for n = 0..n_max from the bar complex."""
    order = len(table)
    dims = []
    ranks = [0]  # rank of d_n for n = 0
    for n in range(1, n_max + 2):
        if order == 1:
            ranks.append(0)
        elif p == 2:
            ranks.append(bar_boundary_rank_gf2(table, n))
        else:
            ranks.append(fp_rank_echelon(bar_boundary(table, n), p))
    for n in range(n_max + 1):
        basis = (order - 1) ** n
        dims.append(basis - ranks[n] - ranks[n + 1])
    return dims


def bar_push_matrix(table_q, mapping, n):
    """Chain map of the bar complexes under an element mapping."""
    order_g = len(mapping)
    order_q = len(table_q)
    rows = bar_basis(order_g, n)
    cols = bar_basis(order_q, n)
    col_index = {t: i for i, t in enumerate(cols)}
    out = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for r, tup in enumerate(rows):
        image = tuple(int(mapping[g]) for g in tup)
        if 0 not in image:
            out[r, col_index[image]] += 1
    return out


def bar_induced_rank(table_g, table_q, mapping, n, p):
    """Rank of H_n(G, F_p) -> H_n(Q, F_p) for the given surjection."""
    if n == 0:
        return 1
    kernel = fp_kernel_simple(bar_boundary(table_g, n), p)
    pushed = kernel @ bar_push_matrix(table_q, mapping, n) % p
    image_rows = bar_boundary(table_q, n + 1)
    stacked = np.vstack([image_rows, pushed])
    return fp_rank_simple(stacked, p) - fp_rank_simple(image_rows, p)


# ---------------------------------------------------------------------------
# Integral homology from the integer bar complex, for any finite group.
# For n >= 1, |G| kills H_n(G, Z) and its quotients, so a Smith form read
# modulo p^(v_p(|G|)+1) for each prime p dividing |G| gives them exactly.


def _cokernel_invariants(matrix, cycles, order, n):
    """Invariants of the saturated lattice spanned by ``cycles`` modulo the
    row span of ``matrix``: torsion ascending, then one 0 per free rank."""
    from pgph import linalg
    diag, rest = [1] * min(matrix.shape), order
    for p in range(2, order + 1):
        e = 1
        while rest % p == 0:
            rest, e = rest // p, e + 1
        if e > 1:
            diag = [d * t for d, t in zip(diag, linalg.snf_p_local(matrix, p, e))]
    free = len(cycles) - sum(1 for d in diag if d)
    assert n == 0 or not free, "H_n of a finite group is finite for n >= 1"
    return [d for d in diag if d > 1] + [0] * free


_INTEGRAL_MEMO = {}


def _bar_integral(table, n):
    """(integer n-cycles, invariants of H_n(G, Z)), memoized: the triples
    along a quotient chain share their groups."""
    from pgph import linalg
    table = np.asarray(table)
    key = (table.tobytes(), len(table), n)
    if key not in _INTEGRAL_MEMO:
        cycles = linalg.int_kernel_basis(bar_boundary(table, n))
        homology = _cokernel_invariants(bar_boundary(table, n + 1), cycles,
                                        len(table), n)
        _INTEGRAL_MEMO[key] = cycles, homology
    return _INTEGRAL_MEMO[key]


def bar_integral_homology(table, n):
    """Invariants of H_n(G, Z) from the integer bar complex."""
    return list(_bar_integral(table, n)[1])


def bar_integral_triple(table_g, table_q, mapping, n):
    """(A, B, C) of H_n(G, Z) -> H_n(Q, Z) under an element mapping: the
    invariants of source, target and cokernel."""
    cycles, a = _bar_integral(table_g, n)
    target_cycles, b = _bar_integral(table_q, n)
    # the push matrix has at most one 1 per row: add cycle columns into place
    push = bar_push_matrix(table_q, mapping, n)
    hit = push.any(axis=1)
    pushed = np.zeros((push.shape[1], len(cycles)), dtype=np.int64)
    np.add.at(pushed, push[hit].argmax(axis=1), cycles.T[hit])
    stacked = np.vstack([bar_boundary(table_q, n + 1), pushed.T])
    c = _cokernel_invariants(stacked, target_cycles, len(table_q), n)
    return list(a), list(b), c


# ---------------------------------------------------------------------------
# Full-width matrices of a resolution and of a chain map.  The package
# builds each level in the coordinates of the kernel below it; these build
# the textbook matrices on all of the free modules, from the multiplication
# table and the stored generator images alone.


def act_on_rows(table, vectors, g):
    """g . v for each row v of a flattened free module over the group with
    multiplication table ``table``: (g v)[i |G| + k] = v[i |G| + g^{-1} k]."""
    table = np.asarray(table)
    n = len(table)
    g_inverse = int(np.flatnonzero(table[g] == 0)[0])
    vectors = np.asarray(vectors, dtype=np.int64)
    blocks = vectors.reshape(len(vectors), vectors.shape[1] // n, n)
    return blocks[:, :, table[g_inverse]].reshape(vectors.shape)


def free_module_matrix(table, images, elements):
    """Rows (i, g) at i * |elements| + g: elements[g] . images[i]."""
    images = np.asarray(images, dtype=np.int64)
    rows = np.zeros((len(images) * len(elements), images.shape[1]), dtype=np.int64)
    for g, h in enumerate(elements):
        rows[g :: len(elements)] = act_on_rows(table, images, int(h))
    return rows


def full_differential(res, n):
    """The F_p matrix of d_n on all of A^{b_n}, rows indexed by (generator, g)."""
    order = res.group.order
    if n == 0:
        return np.ones((order, 1), dtype=np.int64)
    return free_module_matrix(res.group.cayley, res.gen_images[n], range(order))
