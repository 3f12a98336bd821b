"""Exact dense linear algebra over prime fields and over the integers.

Conventions used throughout the package: vectors are rows, a matrix A acts
on the right (x -> x @ A), the kernel of A is the row space {x : x @ A = 0},
and composing maps multiplies their matrices left to right.  Matrices mod
p are numpy integer arrays with entries reduced mod p.

Private variants eliminate modulo q = p^E up to 2^61 (a larger q is a
BudgetExceededError) with unit pivots (nonzero mod p, inverted mod q), and
raise ValueError where a column has no unit left.

Pivots, kernels and solutions mod 2 and mod 3 come from an echelon basis
of rows held as Python ints (`_bit_rows`): mod 2 one bit per column, so a
reduction step is one XOR of a whole row; mod 3 the bitsliced pair of
masks of the entries 1 and 2 (Boothby and Bradshaw, arXiv:0901.1413), so
a step is seven bitwise operations.  A resolution's radical is packed into
such rows straight from its kernel, never dense (`_radical_pivots`).  The
back-reduced basis is the unique RREF.  Every elimination entry point
returns that RREF, or raises, and the ring alone picks its engine.  The
eliminations mod p >= 5, mod p^E for E > 1 and in the p-local phases go
through column panels of `_PANEL` columns: one pivot at a time on the
panel's columns, which picks the same rows and pivots J as a pass over
the whole matrix, then one exact product (`_product`, on limbs of w bits)
updates every other row.  Both ways give the same matrix and pivots, byte
for byte.

Matrices mod q are stored between eliminations at the narrowest unsigned
dtype that holds 0 .. q-1, or int64 past 2^32 (`_store_dtype`), and worked
at the narrowest signed dtype that holds a row update (`_fp_dtype`),
reduced by floor division (`_mod`).  The private eliminators and
`_product` take and return the storage width; the public `row_reduce`,
`kernel_basis` and `solve` widen their results to int64 (`_widen`), so a
caller's arithmetic cannot wrap.

Integral invariants use that same unit-pivot elimination, one phase per
power of p (`_local_phases`, `snf_p_local`).  `int_kernel_basis` and
`snf_diagonal`, unimodular elimination over the integers, are references
only: no package path calls them, the tests compare against them, and the
benchmark's traced runs still wrap them.
"""

from __future__ import annotations

import numpy as np

from pgph.errors import BudgetExceededError

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
_MODULUS_CAP = 1 << 61  # the largest q that `_product` splits exactly


def _matrix(a) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
    return arr


def _limb(a: np.ndarray, i: int, n: int, w: int, real) -> np.ndarray:
    """Limb i of ``a`` at ``real``: bits w(n-1-i) up to w(n-i), or all of ``a`` when n = 1."""
    return a.astype(real) if n == 1 else ((a >> w * (n - 1 - i)) & (1 << w) - 1).astype(real)


def _product(left: np.ndarray, right: np.ndarray, q: int) -> np.ndarray:
    """left @ right mod q, exactly, at `_store_dtype(q)`.  Both factors
    split into n limbs of w bits (2w <= 52, bits(q-1) + w <= 62), n = 1
    while (q-1)^2 < 2^53.  Limb pairs are multiplied over row chunks in
    float32 when inner top^2 < 2^24, top the largest limb, else in float64
    over inner chunks that keep each partial sum below 2^53, and reduced
    at int64; the accumulator, below q, is shifted w bits (below 2^62)
    before each next, less significant, sum of limb products."""
    store = _store_dtype(q)
    bits = (q - 1).bit_length()
    n = 1 if (q - 1) ** 2 < 1 << 53 else -(-bits // min(26, 62 - bits))
    w = -(-bits // n)
    top = q - 1 if n == 1 else (1 << w) - 1
    inner = left.shape[1]
    if inner * top ** 2 < 1 << 24:
        # every partial sum is a non-negative integer below 2^24: exact
        real, step = np.float32, max(inner, 1)
    else:
        real, step = np.float64, ((1 << 53) - 1) // top ** 2
    parts = [(s, [_limb(right[s : s + step], j, n, w, real) for j in range(n)])
             for s in range(0, inner, step)]
    out = np.empty((left.shape[0], right.shape[1]), dtype=store)
    rows = max(1, _CHUNK // max(inner, 1))
    for lo in range(0, left.shape[0], rows):
        acc = np.zeros((min(rows, left.shape[0] - lo), right.shape[1]), dtype=np.int64)
        for k in range(2 * n - 1):
            if k:
                acc <<= w
            for s, part in parts:
                for i in range(max(0, k - n + 1), min(k, n - 1) + 1):
                    # exact float sums, reduced at int64 by floor division
                    acc += (_limb(left[lo : lo + rows, s : s + step], i, n, w, real)
                            @ part[k - i]).astype(np.int64)
                    _mod(acc, q)
        out[lo : lo + rows] = acc
    return out


def _mod(a: np.ndarray, q: int) -> np.ndarray:
    """Reduce ``a`` mod q in place, and return it.  numpy vectorises integer
    floor division by a scalar but not the remainder, so a - q (a // q) is
    the cheap form.  The steps run in place on one temporary: an
    expression on temporaries makes numpy walk the C stack to elide them,
    which maps about 0.5 MB of library pages the first time."""
    quotient = a // q
    quotient *= q
    a -= quotient
    return a


def _fp_dtype(q: int):
    """The narrowest signed dtype that holds a row update, -(q-1)^2 .. q-1,
    and its reduction, up to int64; BudgetExceededError past `_MODULUS_CAP`."""
    if q > _MODULUS_CAP:
        raise BudgetExceededError("modulus", q, _MODULUS_CAP)
    bound = (q - 1) ** 2 + q
    for dtype, safe in ((np.int16, 1 << 15), (np.int32, 1 << 31)):
        if bound < safe:
            return dtype
    return np.int64


def _store_dtype(q: int):
    """The narrowest unsigned dtype that holds 0 .. q-1, for matrices mod q
    between eliminations; int64 past 2^32, so no uint64 meets an int64."""
    return np.min_scalar_type(q - 1) if q <= 1 << 32 else _fp_dtype(q)


def _as_fp(a, q: int) -> np.ndarray:
    """A fresh C-ordered copy of ``a`` reduced mod q at `_fp_dtype(q)`, via
    int64 when ``a`` does not fit that dtype; Python ints are reduced first."""
    src = _matrix(a)
    src = src % q if src.dtype == object else src
    dtype = _fp_dtype(q)
    wide = dtype if np.can_cast(src.dtype, dtype) else np.int64
    arr = _mod(np.array(src, dtype=wide, order="C"), q)
    return arr if wide is dtype else arr.astype(dtype)


def _widen(arr: np.ndarray) -> np.ndarray:
    """A narrow mod-q matrix at int64, the width public results have."""
    return arr.astype(np.int64, copy=False)


def _swap(arr: np.ndarray, i: int, j: int) -> None:
    """Swap rows i and j in place: three row copies, several times cheaper
    than a fancy-indexed swap."""
    row = arr[i].copy()
    arr[i] = arr[j]
    arr[j] = row


# ---------------------------------------------------------------------------
# GF(2) and GF(3) on Python-int rows


def _bit_rows(a: np.ndarray, p: int) -> tuple[list, int]:
    """Rows of ``a`` mod p, 2 or 3, as Python ints, and their width
    w = 8 ceil(n/8): mod 2 one int per row, mod 3 the pair (ones, twos) of
    masks of the entries 1 and 2.  Column j sits at bit w-1-j, so a row's
    leading column is w minus its bit length.  Row chunks of `_CHUNK`
    entries at a time, so no copy of the whole of ``a`` is made.  Parity of
    integers is a bitwise and, many times cheaper than a remainder."""
    m, n = a.shape
    rows: list = []
    step = max(1, _CHUNK // max(n, 1))
    for lo in range(0, m, step):
        block = a[lo : lo + step]
        if p == 2:
            masks = [block & 1 if block.dtype.kind in "biu" else block % 2]
        else:
            block = block % 3
            masks = [block == 1, block == 2]
        ints = [_row_ints(np.packbits(m.astype(np.uint8, copy=False), axis=1)) for m in masks]
        rows += ints[0] if p == 2 else zip(*ints)
    return rows, 8 * -(-n // 8)


def _row_ints(packed: np.ndarray) -> list[int]:
    """The rows of a C-ordered uint8 matrix as big-endian ints, sliced from one `tobytes`."""
    w, buf = packed.shape[1], packed.tobytes()
    return [int.from_bytes(buf[i * w : i * w + w], "big") for i in range(len(packed))]


def _unpack(rows: list[int], m: int, w: int, n: int) -> np.ndarray:
    """The first n columns of ``rows``, ints of w bits, zero-padded to m rows, at uint8."""
    packed = b"".join(x.to_bytes(w // 8, "big") for x in rows) + bytes((m - len(rows)) * (w // 8))
    return np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(m, w // 8), axis=1, count=n)


def _gf2_basis(rows: list[int], low: int = 0):
    """An echelon basis of ``rows``, keyed by leading bit, and the indices
    of the rows that grew it.  Each row XORs the basis row at its leading
    bit until it has none there or its leading bit is at most ``low``; a
    row left nonzero at or below ``low`` makes the system inconsistent
    (ValueError)."""
    basis: dict[int, int] = {}
    grew = []
    for i, x in enumerate(rows):
        while (lead := x.bit_length()) > low:
            row = basis.get(lead)
            if row is None:
                basis[lead] = x
                grew.append(i)
                break
            x ^= row
        else:
            if x:
                raise ValueError("inconsistent linear system")
    return basis, grew


def _rref_gf2(src: np.ndarray, limit: int):
    """The RREF of ``src`` mod 2 at uint8 and its pivots, which lie in the
    first ``limit`` columns; the rows past the pivots are zero, and a row
    that is nonzero only past the limit makes the system inconsistent
    (ValueError).  The basis is back-reduced from its last pivot up: each
    row clears its other pivot bits with the reduced rows below it."""
    m, n = src.shape
    rows, w = _bit_rows(src, 2)
    basis, _ = _gf2_basis(rows, w - limit)
    leads = sorted(basis, reverse=True)
    done = 0
    for lead in reversed(leads):
        x = basis[lead]
        hits = x & done
        while hits:
            top = hits.bit_length()
            x ^= basis[top]
            hits ^= 1 << top - 1
        basis[lead] = x
        done |= 1 << lead - 1
    return _unpack([basis[lead] for lead in leads], m, w, n), [w - lead for lead in leads]


def _gf3_basis(rows: list[tuple[int, int]], low: int = 0):
    """`_gf2_basis` mod 3, keyed by the leading bit of ones | twos.  A basis
    row has entry 1 at its lead (negation swaps the masks), so a step adds
    it to a row with 2 there, or subtracts it: x + y is t = (x1 | y2) ^
    (x2 | y1), (x2 | y2) ^ t, (x1 | y1) ^ t (Kawahara, Aoki, Takagi 2008)."""
    basis: dict[int, tuple[int, int]] = {}
    grew = []
    for i, (x1, x2) in enumerate(rows):
        while (lead := (x1 | x2).bit_length()) > low:
            row = basis.get(lead)
            one = x1.bit_length() == lead
            if row is None:
                basis[lead] = (x1, x2) if one else (x2, x1)
                grew.append(i)
                break
            y2, y1 = row if one else row[::-1]
            t = (x1 | y2) ^ (x2 | y1)
            x1, x2 = (x2 | y2) ^ t, (x1 | y1) ^ t
        else:
            if x1 | x2:
                raise ValueError("inconsistent linear system")
    return basis, grew


def _rref_gf3(src: np.ndarray, limit: int):
    """`_rref_gf2` mod 3: the RREF at uint8 is ones + 2 twos."""
    m, n = src.shape
    rows, w = _bit_rows(src, 3)
    basis, _ = _gf3_basis(rows, w - limit)
    leads = sorted(basis, reverse=True)
    done = 0
    for lead in reversed(leads):
        x1, x2 = basis[lead]
        # the reduced rows below leave the other pivot entries as read here
        for hits, minus in ((x1 & done, True), (x2 & done, False)):
            while hits:
                top = hits.bit_length()
                y2, y1 = basis[top] if minus else basis[top][::-1]
                t = (x1 | y2) ^ (x2 | y1)
                x1, x2 = (x2 | y2) ^ t, (x1 | y1) ^ t
                hits ^= 1 << top - 1
        basis[lead] = x1, x2
        done |= 1 << lead - 1
    ones, twos = (_unpack([basis[lead][k] for lead in leads], m, w, n) for k in (0, 1))
    return ones + 2 * twos, [w - lead for lead in leads]


def _pivot_loop(arr: np.ndarray, p: int, q: int, limit: int, reduce_above: bool):
    """Eliminate ``arr`` in place one pivot at a time; (pivots, swaps), the
    row pairs swapped in order.  Rows update by `_product` once (q-1)^2 + q
    >= 2^62, where int64 could overflow."""
    wide = (q - 1) ** 2 + q >= _INT64_SAFE
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
            _swap(arr, r, pr)
            swaps.append((r, pr))
        inv = pow(int(arr[r, c]), -1, q)
        if inv != 1:
            arr[r] = (_product(np.array([[inv]]), arr[None, r], q) if wide
                      else _mod(arr[r] * inv, q))
        if q == p:
            # the row swapped down is zero in this column, and the pivot
            # row is zero left of its pivot
            rows, start = r + hits[1:], c
        else:
            # rows with a non-unit in this column are cleared too
            rows, start = r + 1 + np.nonzero(arr[r + 1 :, c])[0], 0
        if reduce_above:
            rows = np.concatenate([np.nonzero(arr[:r, c])[0], rows])
        if rows.size:
            block = arr[rows, start:]
            mult = block[:, c - start, None]
            block -= _product(mult, arr[None, r, start:], q) if wide else mult * arr[r, start:]
            arr[rows, start:] = _mod(block, q)
        pivots.append(c)
        r += 1
    return pivots, swaps


def _row_reduce_dense(arr: np.ndarray, p: int, q: int, limit: int, reduce_above: bool):
    """`_pivot_loop` through column panels: the loop on a panel's columns
    picks its rows and pivots J, and every other row takes one update
    row - row[J] @ top, with top = B^-1 @ rows[picked], B = rows[picked][:, J].
    The results are the loop's, byte for byte."""
    m = arr.shape[0]
    if min(m, limit) <= _PANEL:
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
            _swap(arr, r + a, r + b)
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
                _mod(block, q)
        pivots += [c0 + c for c in found]
        r += k
    return arr, pivots


def row_reduce(a, p: int):
    """(R, pivot_columns): R the reduced row echelon form of ``a`` mod p,
    its zero rows at the bottom; the first usable row wins each pivot."""
    work, pivots = _reduce(a, p, p)
    return _widen(work), pivots


def _reduce(a, p: int, q: int, pivot_limit: int | None = None):
    """`row_reduce` mod q, a power of p, with unit pivots in the first
    ``pivot_limit`` columns (all by default) and the rest riding along, at
    `_store_dtype(q)`.  ValueError for a row left nonzero: in those columns
    where one has no unit pivot, past them where the system is inconsistent."""
    src = _matrix(a)
    limit = src.shape[1] if pivot_limit is None else pivot_limit
    if q in (2, 3):
        return (_rref_gf2 if q == 2 else _rref_gf3)(src, limit)
    work, pivots = _row_reduce_dense(_as_fp(src, q), p, q, limit, True)
    work = work.astype(_store_dtype(q), copy=False)
    rest = work[len(pivots) :]
    if rest[:, :limit].any():
        raise ValueError(f"a column has no unit pivot mod {q}")
    if rest.any():
        raise ValueError("inconsistent linear system")
    return work, pivots


def _complement(indices, k: int) -> np.ndarray:
    """The indices below ``k`` that are not in ``indices``, ascending."""
    outside = np.ones(k, dtype=bool)
    outside[indices] = False
    return np.nonzero(outside)[0]


def pivot_columns(a, p: int) -> list[int]:
    """Columns of ``a`` outside the F_p span of the columns before them;
    mod 2 and 3, the columns that grow an echelon basis of Python ints."""
    arr = _matrix(a)
    if p in (2, 3):
        return (_gf2_basis if p == 2 else _gf3_basis)(_bit_rows(arr.T, p)[0])[1]
    return _row_reduce_dense(_as_fp(arr, p), p, p, arr.shape[1], False)[1]


def _radical_pivots(residues: np.ndarray, cols: np.ndarray, p: int) -> list[int]:
    """`pivot_columns(radical[:, ::-1], p)`, block j of the radical being
    residues[:, cols[j]] - I mod p.  Gathered row c is reversed column c:
    block after block, column cols[j][k-1-c] of ``residues`` less 1 at
    entry k-1-c.  Mod 2 and 3 the columns are turned upside down and packed
    into bytes, which only permutes and pads coordinates: never dense."""
    k, d = len(residues), len(cols)
    c, gather = np.arange(k)[:, None], cols[:, ::-1].T
    if p not in (2, 3):
        radical, at = residues.T[gather], (c, np.arange(d), k - 1 - c)
        # minus 1 mod p without leaving the unsigned dtype
        radical[at] = np.where(radical[at], radical[at] - 1, p - 1)
        return pivot_columns(radical.reshape(k, d * k).T, p)
    at, bit = (c, np.arange(d), c // 8), (0x80 >> c % 8).astype(np.uint8)
    masks = [np.packbits(residues[::-1] & b, axis=0).T[gather] for b in (1, 2)[: p - 1]]
    if p == 2:
        masks[0][at] ^= bit
    else:
        # x - 1 mod 3: ones where x was 2, twos where x was 0
        one, two = (mask[at] for mask in masks)
        masks[0][at] = one & ~bit | two & bit
        masks[1][at] = two & ~bit | ~(one | two) & bit
    ints = [_row_ints(mask.reshape(k, d * mask.shape[2])) for mask in masks]
    return (_gf2_basis(ints[0]) if p == 2 else _gf3_basis(zip(*ints)))[1]


def rank(a, p: int) -> int:
    """Rank of a matrix over F_p."""
    return len(pivot_columns(a, p))


def kernel_basis(a, p: int) -> np.ndarray:
    """Rows spanning {x : x @ a = 0}, in reduced row echelon form.

    Read off one RREF of a^T with reversed columns.  Each of its pivot rows
    is nonzero only at its pivot and at free columns of lower original
    index, so the free-variable basis already is the unique RREF.
    """
    return _widen(_kernel_basis_mod(a, p, p))


def _kernel_basis_mod(a, p: int, q: int) -> np.ndarray:
    """`kernel_basis` mod q, a power of p, in RREF mod p; see `_reduce`."""
    reduced, pivots = _reduce(_matrix(a).T[:, ::-1], p, q)
    m = reduced.shape[1]
    free = _complement(pivots, m)
    basis = np.zeros((len(free), m), dtype=reduced.dtype)
    # filled in reversed coordinates, so the row of the lowest original
    # free column comes first
    flipped = basis[::-1, ::-1]
    flipped[np.arange(len(free)), free] = 1
    # minus the pivot rows' free part, mod q at their own unsigned dtype:
    # (q - 1) - x + 1, with q taken to 0; a dtype of exactly q values,
    # uint8 for q = 256, wraps it to 0 itself
    negated = (q - 1) - reduced[: len(pivots), free].T
    negated += 1
    negated[negated == q] = 0
    flipped[:, pivots] = negated
    return basis


def solve(a, b, p: int):
    """Solve x @ a = b for x; b may be one row or a stack of rows.

    Returns the particular solution with free coordinates zero (one row per
    row of b).  Raises ValueError when the system is inconsistent.
    """
    return _widen(_solve_mod(a, b, p, p))


def _solve_mod(a, b, p: int, q: int):
    """`solve` mod q, a power of p; see `_reduce`."""
    arr = _matrix(a)
    # both sides are reduced mod q once, by the elimination; an integer
    # right-hand side keeps its dtype, so narrow sides stay narrow
    rhs = np.asarray(b)
    if rhs.dtype.kind not in "iu":
        rhs = rhs.astype(np.int64)
    single = rhs.ndim == 1
    if single:
        rhs = rhs[None, :]
    m, n = arr.shape
    if rhs.shape[1] != n:
        raise ValueError(f"rhs width {rhs.shape[1]} does not match matrix cols {n}")
    k = rhs.shape[0]
    aug = np.hstack([arr.T, rhs.T])  # (n, m + k)
    reduced, pivots = _reduce(aug, p, q, pivot_limit=m)
    x = np.zeros((k, m), dtype=reduced.dtype)
    x[:, pivots] = reduced[: len(pivots), m:].T
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
    rest = _as_fp(a, p ** top)
    for v in range(top):
        mod = p ** (top - v)
        reduced, pivots = _row_reduce_dense(_as_fp(rest, mod), p, mod, width,
                                            reduce_above=False)
        diag += [p ** v] * len(pivots)
        rest = reduced[len(pivots) :]
        rest[:, :width] //= p
        if not rest[:, :width].any():
            break
    return diag, _widen(rest)


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
