"""Exact dense linear algebra over prime fields and over the integers.

Conventions used throughout the package: vectors are rows, a matrix A acts
on the right (x -> x @ A), the kernel of A is the row space {x : x @ A = 0},
and composing maps multiplies their matrices left to right.  Prime-field
matrices are numpy integer arrays with entries reduced mod p; integer
matrices are kept exact (arbitrary-precision Python ints whenever numpy's
fixed width could overflow).

Private variants eliminate modulo q = p^E with unit pivots (nonzero mod
p, inverted mod q), and raise ValueError where a column has no unit left.

GF(2) is eliminated on bit-packed rows.  Other moduli go through column
panels of `_PANEL` columns: one pivot at a time on the panel's columns,
which picks the same rows and pivots J as a pass over the whole matrix,
then one exact float64 product updates every other row.  The product
sums at most `_PANEL` terms below (q - 1)^2, exact while that stays below
2^53; past it, and on Python-int matrices, the pivot loop runs alone.
Both ways give the same matrix and pivots, byte for byte.

Integral invariants use that same unit-pivot elimination, one phase per
power of p (`_local_phases`, `snf_p_local`).  `int_kernel_basis` and
`snf_diagonal`, unimodular elimination over the integers, are references
only: no package path calls them, the tests compare against them, and the
benchmark's traced runs still wrap them.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "int_kernel_basis",
    "kernel_basis",
    "pivot_columns",
    "rank",
    "row_reduce",
    "snf_diagonal",
    "snf_p_local",
    "solve",
]

_PANEL = 128  # columns eliminated by the pivot loop between products
_CHUNK = 1 << 18  # entries per row chunk of a float64 product or update
_INT64_GUARD = 1 << 40  # switch integer elimination to Python ints beyond this
_INT64_SAFE = 1 << 62  # bound every int64 row update stays below


def _matrix(a) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
    return arr


def _product(left: np.ndarray, right: np.ndarray, q: int) -> np.ndarray:
    """left @ right mod q, exactly: float64 products of row chunks over inner
    chunks short enough that no partial sum reaches 2^53, or Python ints
    for a q so large that a single product can."""
    if (q - 1) ** 2 >= 1 << 53:
        return left.astype(object) @ right.astype(object) % q
    step = ((1 << 53) - 1) // (q - 1) ** 2
    inner = left.shape[1]
    parts = [(s, right[s : s + step].astype(np.float64)) for s in range(0, inner, step)]
    out = np.zeros((left.shape[0], right.shape[1]), dtype=np.int64)
    rows = max(1, _CHUNK // max(inner, 1))
    for lo in range(0, left.shape[0], rows):
        acc = out[lo : lo + rows]
        for s, part in parts:
            # below 2^53 the float64 sums are exact integers, and an int64
            # remainder is several times cheaper than a float64 one
            acc += (left[lo : lo + rows, s : s + step].astype(np.float64) @ part).astype(np.int64)
            acc %= q
    return out


def _as_fp(a, q: int) -> np.ndarray:
    """A fresh C-ordered copy of ``a`` reduced mod q: int64, or Python ints
    when a row update of entries below q could overflow int64."""
    dtype = np.int64 if (q - 1) ** 2 + q < _INT64_SAFE else object
    arr = np.array(_matrix(a), dtype=dtype, order="C")
    arr %= q
    return arr


# ---------------------------------------------------------------------------
# GF(2) bit packing


def _pack_gf2(a: np.ndarray) -> np.ndarray:
    """Pack 0/1 rows into uint64 words, 64 columns per word, little bit order."""
    m, n = a.shape
    if n == 0:
        return np.zeros((m, 0), dtype=np.uint64)
    packed = np.packbits(a.astype(np.uint8, copy=False), axis=1, bitorder="little")
    words = np.zeros((m, -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view(np.uint64)


def _unpack_gf2(words: np.ndarray, n: int) -> np.ndarray:
    m = words.shape[0]
    if n == 0:
        return np.zeros((m, 0), dtype=np.int64)
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, count=n, bitorder="little")
    return bits.astype(np.int64)


def _row_reduce_gf2(words: np.ndarray, limit: int, reduce_above: bool):
    m = words.shape[0]
    pivots = []
    r = 0
    for c in range(limit):
        if r >= m:
            break
        word, bit = divmod(c, 64)
        # one pass over the column finds the pivot and the rows to clear
        hot = (words[:, word] & np.uint64(1 << bit)) != 0
        hits = np.nonzero(hot[r:])[0]
        if hits.size == 0:
            continue
        pr = r + int(hits[0])
        if pr != r:
            words[[r, pr]] = words[[pr, r]]
        hot[pr] = hot[r] = False
        if not reduce_above:
            hot[:r] = False
        if hot.any():
            # the pivot row is zero in the words left of its pivot
            words[hot, word:] ^= words[r, word:]
        pivots.append(c)
        r += 1
    return words, pivots


def _pivot_loop(arr: np.ndarray, p: int, q: int, limit: int, reduce_above: bool):
    """Eliminate ``arr`` in place one pivot at a time; (pivots, swaps), the
    row pairs swapped in order."""
    m = arr.shape[0]
    pivots, swaps = [], []
    r = 0
    for c in range(limit):
        if r >= m:
            break
        col = arr[r:, c]
        hits = np.nonzero(col if q == p else col % p)[0]
        if hits.size == 0:
            continue
        pr = r + int(hits[0])
        if pr != r:
            arr[[r, pr]] = arr[[pr, r]]
            swaps.append((r, pr))
        inv = pow(int(arr[r, c]), -1, q)
        if inv != 1:
            arr[r] = (arr[r] * inv) % q
        if reduce_above:
            mask = arr[:, c] != 0
            mask[r] = False
        else:
            mask = np.zeros(m, dtype=bool)
            mask[r + 1 :] = arr[r + 1 :, c] != 0
        if mask.any():
            # mod p the pivot row is zero left of its pivot
            cols = slice(c if q == p else 0, None)
            arr[mask, cols] = (arr[mask, cols] - np.outer(arr[mask, c], arr[r, cols])) % q
        pivots.append(c)
        r += 1
    return pivots, swaps


def _row_reduce_dense(arr: np.ndarray, p: int, q: int, limit: int, reduce_above: bool):
    """`_pivot_loop` through column panels: the loop on a panel's columns
    picks its rows and pivots J, and every other row takes one update
    row - row[J] @ top, with top = B^-1 @ rows[picked], B = rows[picked][:, J].
    The results are the loop's, byte for byte."""
    m = arr.shape[0]
    if min(m, limit) <= _PANEL or _PANEL * (q - 1) ** 2 >= 1 << 53:
        return arr, _pivot_loop(arr, p, q, limit, reduce_above)[0]
    step = max(1, _CHUNK // arr.shape[1])
    pivots: list[int] = []
    r = 0
    for c0 in range(0, limit, _PANEL):
        if r >= m:
            break
        panel = arr[r:, c0 : min(c0 + _PANEL, limit)].copy()
        found, swaps = _pivot_loop(panel, p, q, panel.shape[1], False)
        if not found:
            continue
        for a, b in swaps:
            arr[[r + a, r + b]] = arr[[r + b, r + a]]
        k = len(found)
        # mod p the picked rows, so top too, are zero left of the panel,
        # and the update leaves those columns alone; mod p^E they need not be
        start = c0 if q == p else 0
        cols = c0 - start + np.array(found)
        picked = arr[r : r + k, start:]
        inverse = np.hstack([picked[:, cols], np.eye(k, dtype=arr.dtype)])
        _pivot_loop(inverse, p, q, k, True)
        top = _product(inverse[:, k:], picked, q)
        # the loop leaves the pivot rows echelon, as the panel loop did,
        # or reduced, as top is
        picked[:] = top if reduce_above else _product(panel[:k, found], top, q)
        for lo, hi in ((0, r if reduce_above else 0), (r + k, m)):
            for s in range(lo, hi, step):
                block = arr[s : min(s + step, hi), start:]
                block -= _product(block[:, cols], top, q)
                block %= q
        pivots += [c0 + c for c in found]
        r += k
    return arr, pivots


def _echelon(src: np.ndarray, p: int, pivot_limit: int | None, reduce_above: bool,
             q: int):
    """Eliminate a copy of ``src`` mod q into (work, pivots); mod 2, ``work``
    is bit packed (see `_pack_gf2`)."""
    limit = src.shape[1] if pivot_limit is None else pivot_limit
    if q == 2:
        # pack straight from the source dtype; a wide copy of a huge matrix
        # can dwarf the packed working set
        words = _pack_gf2((src % 2).astype(np.uint8, copy=False))
        return _row_reduce_gf2(words, limit, reduce_above)
    return _row_reduce_dense(_as_fp(src, q), p, q, limit, reduce_above)


def row_reduce(a, p: int, pivot_limit: int | None = None, reduce_above: bool = True):
    """Gaussian elimination mod p; returns (R, pivot_columns).

    Pivot search is restricted to the first `pivot_limit` columns; trailing
    columns ride along, which is how augmented systems are solved.  With
    `reduce_above` the result is in reduced row echelon form, otherwise
    entries below pivots are cleared but rows above are left alone.  Rows
    with no pivot end up at the bottom, zero in the first `pivot_limit`
    columns.  Fully deterministic: first usable row wins each pivot.
    """
    return _reduce(a, p, p, pivot_limit, reduce_above)


def _reduce(a, p: int, q: int, pivot_limit: int | None = None, reduce_above: bool = True):
    """`row_reduce` mod q, a power of p, with unit pivots; ValueError where a
    column without a unit leaves a row without a pivot nonzero mod q."""
    src = _matrix(a)
    work, pivots = _echelon(src, p, pivot_limit, reduce_above, q)
    if q == 2:
        work = _unpack_gf2(work, src.shape[1])
    if q != p and work[len(pivots) :, :pivot_limit].any():
        raise ValueError(f"a column has no unit pivot mod {q}")
    return work, pivots


def pivot_columns(a, p: int) -> list[int]:
    """Columns of ``a`` outside the F_p span of the columns before them."""
    return _echelon(_matrix(a), p, None, False, p)[1]


def rank(a, p: int) -> int:
    """Rank of a matrix over F_p."""
    return len(pivot_columns(a, p))


def kernel_basis(a, p: int) -> np.ndarray:
    """Rows spanning {x : x @ a = 0}, in reduced row echelon form.

    Read off one RREF of a^T with reversed columns.  Each of its pivot rows
    is nonzero only at its pivot and at free columns of lower original
    index, so the free-variable basis already is the unique RREF.
    """
    return _kernel_basis_mod(a, p, p)


def _kernel_basis_mod(a, p: int, q: int) -> np.ndarray:
    """`kernel_basis` mod q, a power of p, in RREF mod p; see `_reduce`."""
    reduced, pivots = _reduce(_matrix(a).T[:, ::-1], p, q)
    m = reduced.shape[1]
    free = np.setdiff1d(np.arange(m), pivots)
    basis = np.zeros((len(free), m), dtype=np.int64)
    # filled in reversed coordinates, so the row of the lowest original
    # free column comes first
    flipped = basis[::-1, ::-1]
    flipped[np.arange(len(free)), free] = 1
    flipped[:, pivots] = (-reduced[: len(pivots), free].T) % q
    return basis


def solve(a, b, p: int):
    """Solve x @ a = b for x; b may be one row or a stack of rows.

    Returns the particular solution with free coordinates zero (one row per
    row of b).  Raises ValueError when the system is inconsistent.
    """
    return _solve_mod(a, b, p, p)


def _solve_mod(a, b, p: int, q: int):
    """`solve` mod q, a power of p; see `_reduce`."""
    arr = _as_fp(a, q)
    rhs = np.asarray(b, dtype=np.int64) % q
    single = rhs.ndim == 1
    if single:
        rhs = rhs[None, :]
    m, n = arr.shape
    if rhs.shape[1] != n:
        raise ValueError(f"rhs width {rhs.shape[1]} does not match matrix cols {n}")
    k = rhs.shape[0]
    aug = np.hstack([arr.T, rhs.T])  # (n, m + k)
    reduced, pivots = _reduce(aug, p, q, pivot_limit=m)
    if np.any(reduced[len(pivots) :, m:]):
        raise ValueError("inconsistent linear system")
    x = np.zeros((k, m), dtype=np.int64)
    for row_idx, pc in enumerate(pivots):
        x[:, pc] = reduced[row_idx, m:]
    return x[0] if single else x


# ---------------------------------------------------------------------------
# Integer lattices


def _to_int_rows(a) -> list[list[int]]:
    if isinstance(a, np.ndarray) and a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return [[int(v) for v in row] for row in a]


def snf_diagonal(a) -> list[int]:
    """Smith normal form diagonal (no transforms), divisibility chain order.

    Exact on Python ints and meant for small matrices.  A reference only:
    integral invariants are read with `snf_p_local`, which the tests check
    against this; it stays here because the benchmark's traced runs wrap it.
    """
    M = _to_int_rows(a)
    m = len(M)
    n = len(M[0]) if m else 0
    diag = []
    for k in range(min(m, n)):
        while True:
            # the smallest entry left becomes the pivot; each pass that
            # leaves a remainder in its row or column makes it smaller
            nonzero = [(abs(M[i][j]), i, j) for i in range(k, m) for j in range(k, n) if M[i][j]]
            if not nonzero:
                return diag + [0] * (min(m, n) - k)
            _, bi, bj = min(nonzero)
            M[k], M[bi] = M[bi], M[k]
            for row in M:
                row[k], row[bj] = row[bj], row[k]
            pivot = M[k][k]
            for i in range(k + 1, m):
                q = M[i][k] // pivot
                M[i] = [x - q * y for x, y in zip(M[i], M[k])]
            for j in range(k + 1, n):
                q = M[k][j] // pivot
                for row in M:
                    row[j] -= q * row[k]
            if any(M[i][k] for i in range(k + 1, m)) or any(M[k][k + 1 :]):
                continue
            # a pivot must divide everything below it: else add that row
            culprit = next((i for i in range(k + 1, m)
                            if any(v % pivot for v in M[i][k + 1 :])), None)
            if culprit is None:
                break
            M[k] = [x + y for x, y in zip(M[k], M[culprit])]
        diag.append(abs(pivot))
    return diag


def _update_fits(scale, row, target_max: int) -> bool:
    """Whether target - outer(scale, row) is sure to fit in int64, given
    target_max = max|target|."""
    bound = int(np.abs(scale).max()) * int(np.abs(row).max()) + target_max
    return bound < _INT64_SAFE


def _local_phases(a, p: int, top: int, width: int):
    """Local elimination of ``a`` modulo p^top; (diagonal, rows left).

    Phase v row-reduces the first ``width`` columns modulo p^(top-v) with
    unit pivots, each giving one entry p^v, while further columns ride
    along.  The pivot block is unitriangular and the rows left are zero in
    its columns, so column operations split it off.  A column with no unit
    never gets one, so the rows left vanish mod p in the first ``width``
    columns, which are divided by p before the next phase.
    """
    diag: list[int] = []
    rest = a % p ** top
    for v in range(top):
        mod = p ** (top - v)
        reduced, pivots = _row_reduce_dense(_as_fp(rest, mod), p, mod, width,
                                            reduce_above=False)
        diag += [p ** v] * len(pivots)
        rest = reduced[len(pivots) :]
        rest[:, :width] //= p
        if not rest[:, :width].any():
            break
    return diag, rest


def snf_p_local(a, p: int, e: int) -> list[int]:
    """Smith diagonal over Z localized at p, read modulo p^e.

    Each invariant d of `a` becomes p^v_p(d) when v_p(d) < e and 0
    otherwise, in divisibility-chain order; one `_local_phases` pass over
    all columns.
    """
    arr = np.asarray(a)
    if arr.size == 0:
        return []
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
    if arr.shape[0] > arr.shape[1]:
        # a pivot updates each row that meets its column: on a sparse tall
        # input (a bar boundary) far more rows than on its transpose
        arr = arr.T
    diag = _local_phases(arr, p, e, arr.shape[1])[0]
    return diag + [0] * (min(arr.shape) - len(diag))


def _int_kernel_rows(M: np.ndarray, n: int) -> np.ndarray | None:
    """Unimodular row reduction of [a | I] in place; the I-part of the rows
    whose a-part (the first n columns) vanishes.  None when an int64 update
    could overflow."""
    checked = M.dtype != object
    m = M.shape[0]
    r = 0
    for c in range(n):
        while r < m:
            col = M[r:, c]
            nz = np.nonzero(col)[0]
            if nz.size == 0:
                break
            bi = r + int(nz[np.argmin(np.abs(col[nz]))])
            if bi != r:
                M[[r, bi]] = M[[bi, r]]
            quotients = M[r + 1 :, c] // M[r, c]
            hit = np.nonzero(quotients)[0]
            if hit.size:
                targets = r + 1 + hit
                if checked and not _update_fits(quotients[hit], M[r],
                                                int(np.abs(M[targets]).max())):
                    return None
                M[targets] -= quotients[hit, None] * M[r]
            if not np.any(M[r + 1 :, c]):
                r += 1
                break
        if checked and int(np.abs(M).max(initial=0)) >= _INT64_GUARD:
            return None
    return M[r:, n:]


def int_kernel_basis(a) -> np.ndarray:
    """Basis of the integer kernel lattice {x : x @ a = 0}, rows of length m.

    Row-reduces [a | I] with unimodular row operations, in int64 or, when
    that could overflow, in Python ints; rows whose a-part vanishes give
    the kernel.  The result spans a saturated sublattice, so any integer
    kernel vector is an integer combination of these rows.  A reference
    only: the integral cycles come from `_local_phases`, which the tests
    check against this; it stays here because the benchmark's traced runs
    wrap it.
    """
    A = _to_int_rows(a)
    m = len(A)
    n = len(A[0]) if m else 0
    if m == 0:
        return np.zeros((0, 0), dtype=np.int64)
    for dtype in (np.int64, object):
        M = np.hstack([np.array(A, dtype=dtype).reshape(m, n), np.eye(m, dtype=dtype)])
        kernel = _int_kernel_rows(M, n)
        if kernel is not None:
            break
    if dtype is object and all(abs(v) < 1 << 62 for v in kernel.flat):
        kernel = kernel.astype(np.int64)
    return kernel
