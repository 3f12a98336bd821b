"""Exact linear algebra: hand values, oracle agreement, and random sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgph import linalg
from pgph.errors import BudgetExceededError
from oracles import (det_exact, kernel_vectors_mod_p, mat_mul_int, rank_mod_p,
                     rref_mod_p, smith_diagonal_by_minors, smith_normal_form)


def test_rank_hand_values():
    assert linalg.rank(np.eye(4, dtype=int), 2) == 4
    assert linalg.rank(np.zeros((3, 5), dtype=int), 3) == 0
    assert linalg.rank([[1, 1], [1, 1]], 2) == 1
    assert linalg.rank([[1, 2], [2, 4]], 5) == 1
    assert linalg.rank([[1, 2], [2, 1]], 3) == 1  # second row = 2 * first mod 3
    # entries past int64 are reduced on the way in: mod 3 the second row is 0
    assert linalg.rank([[2**70, 1], [3, 2**65 + 1]], 3) == 1
    assert linalg.rank([[2**70, 1], [3, 2**65 + 1]], 2) == 2


def test_rank_empty_shapes():
    assert linalg.rank(np.zeros((0, 4), dtype=int), 2) == 0
    assert linalg.rank(np.zeros((4, 0), dtype=int), 2) == 0


def test_kernel_hand_values():
    k = linalg.kernel_basis([[1, 1], [1, 1]], 2)
    assert k.tolist() == [[1, 1]]
    k = linalg.kernel_basis(np.eye(3, dtype=int), 3)
    assert k.shape == (0, 3)
    k = linalg.kernel_basis(np.zeros((2, 3), dtype=int), 2)
    assert k.tolist() == [[1, 0], [0, 1]]
    # every column free, and none free, on the mod-p and mod-q paths
    invertible = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 0]])     # det 1
    for p, q in ((2, 2), (3, 3), (5, 5), (2, 8), (3, 9)):
        zero = linalg._kernel_basis_mod(np.zeros((3, 3), dtype=int), p, q)
        assert zero.tolist() == np.eye(3, dtype=int).tolist()
        assert linalg._kernel_basis_mod(invertible, p, q).shape == (0, 3)
    k = linalg.kernel_basis([[1, 2], [3, 4]], 5)
    assert k.shape == (0, 2) and k.dtype == np.int64


def test_kernel_rows_annihilate():
    rng = np.random.RandomState(7)
    for p in (2, 3, 5):
        for _ in range(20):
            a = rng.randint(0, p, size=(rng.randint(1, 12), rng.randint(1, 12)))
            k = linalg.kernel_basis(a, p)
            assert len(k) + linalg.rank(a, p) == a.shape[0]
            if len(k):
                assert not np.any((k @ a) % p)


def test_rank_against_enumeration_oracle():
    rng = np.random.RandomState(11)
    for p in (2, 3):
        for _ in range(15):
            a = rng.randint(0, p, size=(rng.randint(1, 7), rng.randint(1, 5)))
            assert linalg.rank(a, p) == rank_mod_p(a.tolist(), p)


def test_kernel_against_enumeration_oracle():
    # the kernel is returned as the unique RREF of its span
    rng = np.random.RandomState(13)
    for p in (2, 3, 5):
        shapes = [(0, 0), (0, 3), (3, 0)] + [
            (rng.randint(1, 6), rng.randint(1, 5)) for _ in range(10)]
        for m, n in shapes:
            a = rng.randint(0, p, size=(m, n))
            expected = set(kernel_vectors_mod_p(a.tolist(), p))
            k = linalg.kernel_basis(a, p)
            assert k.dtype == np.int64 and k.shape[1] == m
            assert np.array_equal(linalg.row_reduce(k, p)[0], k)
            # nonzero RREF rows are independent, so they span p^len(k)
            # vectors, all in the kernel
            assert k.any(axis=1).all()
            for row in k:
                assert tuple(int(x) for x in row) in expected
            assert p ** len(k) == len(expected)


def test_solve_round_trip():
    rng = np.random.RandomState(17)
    for p in (2, 3, 5):
        for _ in range(20):
            a = rng.randint(0, p, size=(rng.randint(1, 10), rng.randint(1, 10)))
            x = rng.randint(0, p, size=(3, a.shape[0]))
            b = (x @ a) % p
            got = linalg.solve(a, b, p)
            assert np.array_equal((got @ a) % p, b)


def test_solve_single_row_and_inconsistent():
    a = [[1, 0], [0, 0]]
    x = linalg.solve(a, [1, 0], 2)
    assert ((x @ np.array(a)) % 2).tolist() == [1, 0]
    with pytest.raises(ValueError):
        linalg.solve(a, [0, 1], 2)


@pytest.mark.parametrize("p", [2, 3, 191])
def test_public_results_are_int64(p):
    # matrices mod p are stored narrow inside, but callers get int64, so
    # their own arithmetic on a result cannot wrap
    rng = np.random.default_rng(p)
    a = _rank_deficient(rng, p, 12, 9).astype(np.uint8)
    b = rng.integers(0, p, size=(2, 12)) @ a % p
    reduced, _ = linalg.row_reduce(a, p)
    kernel = linalg.kernel_basis(a, p)
    solved = linalg.solve(a, b.astype(np.uint8), p)
    for got in (reduced, kernel, solved):
        assert got.dtype == np.int64
    assert len(kernel) and not (kernel @ a % p).any()
    assert np.array_equal(solved @ a % p, b)
    assert linalg._kernel_basis_mod(a, p, p).dtype == linalg._store_dtype(p) == np.uint8


@pytest.mark.parametrize("q, inner", [(2053, 3), (2053, 4), (67108879, 5),
                                      (94906267, 3), (509 ** 4, 4), ((1 << 61) - 1, 3)])
def test_product_is_exact_at_the_float_edges(monkeypatch, q, inner):
    # inner (q-1)^2 < 2^24 runs in float32, so width 3 at q = 2053 does
    # and width 4 does not; 67108879 needs three float64 inner chunks.
    # Sums just past 2^24 and odd are the ones float32 would round.  Row
    # chunks of two rows each land in the narrow result.  94906267 is the
    # first q with (q-1)^2 >= 2^53, split into two limbs of 14 bits; 509^4
    # takes two limbs of 18 bits, and 2^61 - 1 sixty-one limbs of one bit
    monkeypatch.setattr(linalg, "_CHUNK", 2 * inner)
    full = np.full((3, inner), q - 1, dtype=np.int64)
    full[1, -1] = full[2, 0] = q - 2
    rng = np.random.default_rng(inner)
    for left in (full, rng.integers(0, q, size=(5, inner))):
        right = left.T.copy()
        got = linalg._product(left, right, q)
        want = left.astype(object) @ right.astype(object) % q
        assert got.dtype == linalg._store_dtype(q)
        assert got.astype(object).tolist() == want.tolist()


def test_elimination_mod_a_prime_power():
    # mod 4 the column [2] has no unit pivot: refused, not answered wrongly
    with pytest.raises(ValueError, match="no unit pivot"):
        linalg._kernel_basis_mod(np.array([[2]]), 2, 4)
    with pytest.raises(ValueError, match="no unit pivot"):
        linalg._solve_mod(np.array([[2]]), np.array([2]), 2, 4)
    # with a unit pivot in every column both are exact mod q
    rng = np.random.default_rng(11)
    checked = 0
    # 13^2 and 3^5 are worked at int16 and int32, 3^10 at int64; 223^4 is
    # stored at uint32, 509^4 and 3163^4 at int64, and their row updates go
    # through the limb product; 2^8 is stored at uint8, where -x mod q wraps
    for p, q in ((2, 16), (3, 81), (5, 5 ** 6), (13, 13 ** 2), (3, 3 ** 5),
                 (3, 3 ** 10), (223, 223 ** 4), (2, 2 ** 8), (509, 509 ** 4),
                 (3163, 3163 ** 4)):
        for _ in range(30):
            m = int(rng.integers(1, 7))
            a = rng.integers(0, q, size=(m, int(rng.integers(0, m + 1))))
            if q > 1 << 31:
                a = a.astype(object)  # products of entries overflow int64
            if linalg.rank(a, p) < a.shape[1]:
                continue
            kernel = linalg._kernel_basis_mod(a, p, q)
            assert kernel.shape == (m - a.shape[1], m)
            assert kernel.dtype == linalg._store_dtype(q) != object
            assert not (kernel @ a % q).any()
            # a free summand of rank m - cols, so all of the kernel
            assert linalg.rank(kernel, p) == len(kernel)
            x = rng.integers(0, q, size=(3, m))
            solved = linalg._solve_mod(a, x @ a % q, p, q)
            assert solved.dtype == linalg._store_dtype(q) != object
            assert np.array_equal(solved @ a % q, x @ a % q)
            checked += 1
    assert checked > 30


def test_packed_gf2_words_match_enumeration():
    # GF(2) rows of many bytes, past a 64-bit machine word, as Python ints
    rng = np.random.RandomState(23)
    for _ in range(8):
        a = rng.randint(0, 2, size=(rng.randint(1, 9), rng.randint(1, 150)))
        assert linalg.rank(a, 2) == rank_mod_p(a.tolist(), 2)
        expected = set(kernel_vectors_mod_p(a.tolist(), 2))
        k = linalg.kernel_basis(a, 2)
        assert np.array_equal(linalg.row_reduce(k, 2)[0], k)
        assert {tuple(int(x) for x in row) for row in k} <= expected
        assert 2 ** len(k) == len(expected)


def test_packed_solve_round_trip():
    rng = np.random.RandomState(29)
    a = rng.randint(0, 2, size=(40, 70))
    x = rng.randint(0, 2, size=(5, 40))
    b = (x @ a) % 2
    got = linalg.solve(a, b, 2)
    assert np.array_equal((got @ a) % 2, b)
    # the particular solution is zero off the pivot rows of a
    free = np.setdiff1d(np.arange(40), linalg.pivot_columns(a.T, 2))
    assert not got[:, free].any()


def test_f2_and_f3_never_reach_the_dense_eliminator(monkeypatch, cold_caches):
    # mod 2 and 3 every entry point reduces on int rows; only the p-local
    # phases of integral invariants still eliminate mod 2 through the panels
    from pgph import bundled_group, group_from_permutations, homology_dims
    from pgph.persistence import persistence_sequence
    from oracles import cyclic_product_rep
    dense = linalg._row_reduce_dense

    def guarded(arr, p, q, limit, reduce_above):
        assert q not in (2, 3), f"dense elimination mod {q}"
        return dense(arr, p, q, limit, reduce_above)

    monkeypatch.setattr(linalg, "_row_reduce_dense", guarded)
    for orders, n_max, dims in (([2] * 5, 3, [1, 5, 15, 35]), ([3] * 3, 4, [1, 3, 6, 10, 15])):
        g = group_from_permutations(cyclic_product_rep(orders))
        assert homology_dims(g, n_max) == dims
    for name in ("8.3", "27.3"):
        assert len(persistence_sequence(bundled_group(name), "L", 3)) == 3
    rng = np.random.default_rng(43)
    for p in (2, 3):
        a = _rank_deficient(rng, p, 30, 20)
        kernel = linalg.kernel_basis(a, p)
        assert len(kernel) == 30 - linalg.rank(a, p) == 30 - len(linalg.row_reduce(a, p)[1])
        assert linalg.pivot_columns(a, p) == linalg.row_reduce(a, p)[1]
        b = rng.integers(0, p, size=(2, 30)) @ a % p
        assert np.array_equal(linalg.solve(a, b, p) @ a % p, b)
        with pytest.raises(ValueError, match="inconsistent"):
            linalg.solve(np.zeros((3, 4), dtype=int), np.ones(4, dtype=int), p)


def _dense(a, p, q, limit=None, reduce_above=True):
    """``a`` mod q through the dense eliminator, at ``limit`` (all columns
    by default): the reference the other engines are checked against."""
    limit = np.shape(a)[1] if limit is None else limit
    return linalg._row_reduce_dense(linalg._as_fp(a, q), p, q, limit, reduce_above)


def _dense_rref(p):
    """`linalg._rref_gf2` (p = 2) or `_rref_gf3` (p = 3) through the dense
    eliminator."""
    def rref(src, limit):
        work, pivots = _dense(src, p, p, limit)
        if work[len(pivots) :].any():
            raise ValueError("inconsistent linear system")
        return work.astype(np.uint8), pivots
    return rref


def _result(call):
    """``call()``, or the message of the ValueError it raises."""
    try:
        return call()
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("p, n", [pytest.param(p, n, id=f"{n}" if p == 2 else f"{n}-gf3")
                                  for p in (2, 3) for n in (0, 1, 7, 8, 9, 63, 64, 65, 200)])
def test_gf2_int_rows_match_the_dense_eliminator(monkeypatch, p, n):
    # mod 2 one int a row, mod 3 a pair of masks.  m = 0 gives 0 x n and
    # n = 0 gives m x 0; a solve's pivot limit is m, which ends mid-byte for
    # m = 1, 5 and 13
    rng = np.random.default_rng([p, n])
    inconsistent = 0
    for m in (0, 1, 5, 13, 40):
        for density in (0.05, 0.5):
            entries = rng.integers(1, p, size=(m, n)) * (rng.random((m, n)) < density)
            # every form is reduced mod p on the way in; mod 3 a bool
            # matrix is the pattern of nonzeros
            inputs = [entries, entries + p * rng.integers(-3, 3, size=(m, n)),
                      entries.astype(bool), entries.astype(np.uint8),
                      entries.astype(object) + p * (1 << 65)]
            for a in inputs:
                vals = (a % p).astype(np.int64)
                want_rref, want_pivots = rref_mod_p(vals.tolist(), p)
                x = rng.integers(0, p, size=(3, m))
                rhs = [x @ vals % p, rng.integers(0, p, size=(3, n))]
                pivots = linalg.pivot_columns(a, p)
                assert pivots == _dense(a, p, p, reduce_above=False)[1] == want_pivots
                assert linalg.rank(a, p) == len(want_pivots)
                work, got_pivots = linalg._reduce(a, p, p)
                dense, dense_pivots = _dense(a, p, p)
                assert work.dtype == np.uint8 and got_pivots == dense_pivots == want_pivots
                assert np.array_equal(work, dense) and work.tolist() == want_rref
                got = {"kernel": linalg._kernel_basis_mod(a, p, p)}
                got.update((f"solve{i}", _result(lambda: linalg._solve_mod(a, b, p, p)))
                           for i, b in enumerate(rhs))
                with monkeypatch.context() as patch:
                    patch.setattr(linalg, f"_rref_gf{p}", _dense_rref(p))
                    want = {"kernel": linalg._kernel_basis_mod(a, p, p)}
                    want.update((f"solve{i}", _result(lambda: linalg._solve_mod(a, b, p, p)))
                                for i, b in enumerate(rhs))
                for name in want:
                    assert type(got[name]) is type(want[name]), (m, name)
                    assert np.array_equal(got[name], want[name]), (m, name)
                    assert isinstance(got[name], str) or got[name].dtype == np.uint8
                kernel = got["kernel"]
                assert np.array_equal(linalg.kernel_basis(a, p), kernel)
                assert linalg.kernel_basis(a, p).dtype == np.int64
                assert len(kernel) == m - len(want_pivots)
                assert not (kernel.astype(np.int64) @ vals % p).any()
                assert rref_mod_p(kernel.tolist(), p)[0] == kernel.tolist()
                # the oracle's solution: free coordinates zero, the rest
                # read off the RREF of [a^T | b^T]
                for i, b in enumerate(rhs):
                    aug, aug_pivots = rref_mod_p(np.hstack([vals.T, b.T]).tolist(), p, m)
                    aug = np.array(aug, dtype=np.int64).reshape(n, m + 3)
                    if aug[len(aug_pivots) :, m:].any():
                        assert got[f"solve{i}"] == "inconsistent linear system"
                        inconsistent += 1
                        continue
                    solved = np.zeros((3, m), dtype=np.int64)
                    solved[:, aug_pivots] = aug[: len(aug_pivots), m:].T
                    assert np.array_equal(got[f"solve{i}"], solved)
                    public = linalg.solve(a, b, p)
                    assert public.dtype == np.int64 and np.array_equal(public, solved)
                assert not isinstance(got["solve0"], str)
    # every right-hand side is consistent when the columns are independent
    assert inconsistent or n <= 1


def _radical_cases():
    """(residues, cols, p): hand shapes, seeded random inputs, and the
    levels of resolutions mod p and mod p^E."""
    from pgph import bundled_group, resolution
    rng = np.random.default_rng(41)
    for p in (2, 3):
        yield np.zeros((0, 0), dtype=np.uint8), np.zeros((1, 0), dtype=np.intp), p
        yield np.zeros((0, 4), dtype=np.uint8), np.zeros((2, 0), dtype=np.intp), p
        yield rng.integers(0, p, (5, 9), dtype=np.uint8), np.zeros((0, 5), dtype=np.intp), p
        # k on both sides of a byte boundary, one to three generators
        for k in (1, 5, 7, 8, 9, 13, 16, 17, 31, 40):
            for d in (1, 2, 3):
                for density in (0.1, 0.6):
                    width = k + int(rng.integers(0, 12))
                    residues = (rng.integers(1, p, (k, width)) * (rng.random((k, width))
                                                                  < density)).astype(np.uint8)
                    yield residues, rng.integers(0, width, (d, k)), p
    yield rng.integers(0, 5, (12, 20), dtype=np.uint8), rng.integers(0, 20, (2, 12)), 5
    # the real inputs of a level, from each resolution's own kernels
    for name, q in (("8.3", 2), ("8.3", 8), ("9.2", 3), ("9.2", 9), ("27.3", 3),
                    ("27.3", 27), ("5.1", 5)):
        group = bundled_group(name)
        p = group.prime
        res = resolution.MinimalResolution(group, p, q)
        res.extend_to(3)
        for n in range(3):
            kernel = linalg._kernel_basis_mod(res.coordinate_differential(n), p, q)
            cols = resolution._acting_columns(group, res.lead[n], group.minimal_generators())
            yield (kernel % p).astype(np.uint8), cols, p


def test_radical_pivots_match_the_dense_radical():
    # block j of the radical is residues[:, cols[j]] - I mod p; its pivots
    # with columns reversed, whether it is built densely or packed
    cases = 0
    for residues, cols, p in _radical_cases():
        k = len(residues)
        radical = np.vstack([np.zeros((0, k), dtype=np.int64)] + [
            (residues[:, c].astype(np.int64) - np.eye(k, dtype=np.int64)) % p for c in cols])
        want = linalg.pivot_columns(radical[:, ::-1], p)
        assert linalg._radical_pivots(residues, cols, p) == want, (p, residues.shape, len(cols))
        if radical.size and k <= 16:
            assert want == rref_mod_p(radical[:, ::-1].tolist(), p)[1]
        cases += 1
    assert cases > 100


def _rank_deficient(rng, q, m, n, r=None):
    """X @ Y mod q of rank r < min(m, n) mod p (random by default), with
    some columns replaced by multiples of earlier ones so that pivots spread
    across panels."""
    r = int(rng.integers(1, min(m, n))) if r is None else r
    # X and the multipliers stay below 2^63 / (q max(m, n)), so that int64
    # holds every sum; for the small q of the older inputs that is past q
    low = min(q, (1 << 63) // (q * max(m, n)))
    a = rng.integers(0, low, size=(m, r)) @ rng.integers(0, q, size=(r, n)) % q
    for j in rng.choice(np.arange(1, n), size=n // 3, replace=False):
        a[:, j] = a[:, rng.integers(0, j)] * rng.integers(0, low) % q
    return a


def _exact(x, q):
    """``x`` as Python ints from q = 2^31 on, where int64 products wrap."""
    return x if q < 1 << 31 else x.astype(object)


def _eliminations(a, p, q, limit, rng):
    """Every exact eliminator on ``a`` mod q; a ValueError is a result."""
    m = a.shape[0]
    calls = {
        "reduce": lambda: linalg._reduce(a, p, q),
        "echelon": lambda: _dense(a, p, q, reduce_above=False),
        "reduce_limit": lambda: _dense(a, p, q, limit),
        "echelon_limit": lambda: _dense(a, p, q, limit, reduce_above=False),
        "kernel": lambda: linalg._kernel_basis_mod(a, p, q),
        "solve": lambda: linalg._solve_mod(a, _exact(rng.integers(0, q, size=(3, m)), q) @ a % q,
                                           p, q),
    }
    if q == p:
        calls["pivots"] = lambda: linalg.pivot_columns(a, p)
    else:
        e = round(np.log(q) / np.log(p))
        # multiples of p off the span give invariants p, p^2, ...
        noisy = (a + p * rng.integers(0, q, size=a.shape) * (rng.random(a.shape) < 0.01)) % q
        calls["snf"] = lambda: linalg.snf_p_local(noisy, p, e)
    out = {}
    for name, call in calls.items():
        try:
            out[name] = call()
        except ValueError as err:
            out[name] = str(err)
    return out


@pytest.mark.parametrize("panel, sizes", [(None, (150, 400)), (8, (10, 60))])
def test_panels_match_the_pivot_loop(monkeypatch, panel, sizes):
    # the pivot loop over the whole matrix is the reference, byte for byte
    if panel is not None:
        monkeypatch.setattr(linalg, "_PANEL", panel)
    # panels run at 509^4 and 2^40 too, with the limb product in the pivot
    # loop as well
    for p, q in ((3, 3), (5, 5), (7, 7), (3, 9), (2, 16), (3, 81),
                 (13, 169), (181, 181), (3, 243), (191, 191), (509, 509 ** 4), (2, 2 ** 40)):
        rng = np.random.default_rng([p, q, sizes[0]])
        m, n = (int(v) for v in rng.integers(*sizes, size=2))
        a = _rank_deficient(rng, q, m, n)
        limit = int(rng.integers(1, n))
        seed = int(rng.integers(1 << 30))
        got = _eliminations(a, p, q, limit, np.random.default_rng(seed))
        with monkeypatch.context() as loop:
            loop.setattr(linalg, "_PANEL", 1 << 30)
            want = _eliminations(a, p, q, limit, np.random.default_rng(seed))
        assert got.keys() == want.keys()
        for name in want:
            if isinstance(want[name], tuple):
                assert got[name][1] == want[name][1], (p, q, name)
                got[name], want[name] = got[name][0], want[name][0]
            assert type(got[name]) is type(want[name]), (p, q, name)
            assert np.array_equal(got[name], want[name]), (p, q, name)
            assert np.asarray(got[name]).dtype == np.asarray(want[name]).dtype
        if not isinstance(got["kernel"], str):
            if q < 1 << 31:
                assert not (got["kernel"] @ a % q).any()
            else:  # Freivalds' check in Python ints: K (a v) = 0 for a random v
                v = _exact(rng.integers(0, q, size=(n, 1)), q)
                assert not (_exact(got["kernel"], q) @ (a @ v % q) % q).any()
        if q == p:
            assert np.array_equal(linalg.kernel_basis(a, p), got["kernel"])
            assert np.array_equal(linalg.row_reduce(a, p)[0], got["reduce"])


@pytest.mark.parametrize("p, width, m, n, limit", [
    (2, None, 60, 200, 150),  # 25 bytes a GF(2) row; the limit ends mid-byte
    (3, np.int16, 60, 200, 150),  # a GF(3) row is two masks of 25 bytes, as above
    (181, np.int16, 40, 50, 37),  # the last int16 prime
    (191, np.int32, 40, 50, 37),  # the first int32 prime
    (46337, np.int32, 40, 50, 37),  # the last int32 prime
    (46349, np.int64, 40, 50, 37),
])
def test_row_reduce_matches_the_rref_oracle(monkeypatch, p, width, m, n, limit):
    # the oracle follows the same rule, first usable row wins, so its RREF
    # is the eliminator's entry for entry at every storage width, through
    # the pivot loop alone and through panels of 8 with row chunks of a
    # few rows (GF(2) and GF(3) rows become ints a few at a time then)
    if width is not None:
        assert linalg._fp_dtype(p) is width
    rng = np.random.default_rng([p, m, n])
    a = _rank_deficient(rng, p, m, n, r=3 * m // 4)
    a[:, rng.random(n) < 0.7] = 0  # spreads the pivots past the limit
    if p < 5:
        # eight bytes of columns with no pivot, then one at the next byte's
        # first bit
        a[:, 64:128] = 0
        a[:, 128] = 1
    inputs = [a + p * rng.integers(-p, p, size=a.shape)]  # reduced on the way in
    if p < 256:
        inputs.append(a.astype(np.uint8))
    for panel in (None, 8):
        with monkeypatch.context() as patch:
            if panel is not None:
                patch.setattr(linalg, "_PANEL", panel)
                patch.setattr(linalg, "_CHUNK", 4 * n + 1)
            for src in inputs:
                # the public RREF at full width, the dense one at the limit
                for lim, (got, got_pivots) in ((None, linalg.row_reduce(src, p)),
                                               (limit, _dense(src, p, p, limit))):
                    want, pivots = rref_mod_p(src.tolist(), p, lim)
                    assert got.dtype == (np.int64 if lim is None else linalg._fp_dtype(p))
                    assert got_pivots == pivots, (panel, src.dtype, lim)
                    assert got.tolist() == want, (panel, src.dtype, lim)


# ---------------------------------------------------------------------------
# Integer lattice routines


def _nonzero(diag):
    """Rank over the rationals, read off a Smith diagonal."""
    return sum(1 for d in diag if d)


def test_snf_diagonal_matches_determinantal_divisors():
    rng = np.random.RandomState(31)
    for density in (1.0, 0.4) * 100:
        # sparse matrices often have invariants off the divisibility chain,
        # like diag(2, 3), which a dense random matrix rarely does
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = rng.randint(-5, 6, size=(m, n)) * (rng.rand(m, n) < density)
        a = a.tolist()
        assert linalg.snf_diagonal(a) == smith_diagonal_by_minors(a)


def test_smith_normal_form_random_certified():
    # the oracle's unimodular U, V certify snf_diagonal: U @ a @ V is its diagonal
    rng = np.random.RandomState(31)
    for _ in range(25):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        a = rng.randint(-5, 6, size=(m, n)).tolist()
        _, U, V = smith_normal_form(a)
        diag = linalg.snf_diagonal(a)
        assert abs(det_exact(U)) == 1
        assert abs(det_exact(V)) == 1
        product = mat_mul_int(mat_mul_int(U, a), V)
        for i in range(m):
            for j in range(n):
                want = diag[i] if (i == j and i < len(diag)) else 0
                assert product[i][j] == want
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i + 1] % diag[i] == 0
        assert all(d >= 0 for d in diag)


def test_snf_diagonal_matches_full_form():
    rng = np.random.RandomState(37)
    for _ in range(30):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        a = rng.randint(-5, 6, size=(m, n))
        fast = linalg.snf_diagonal(a)
        slow, _, _ = smith_normal_form(a.tolist())
        assert fast == slow


def test_snf_diagonal_hand_values():
    assert linalg.snf_diagonal([[2, 4], [6, 8]]) == [2, 4]
    assert linalg.snf_diagonal([[2]]) == [2]
    assert linalg.snf_diagonal(np.zeros((3, 2), dtype=int)) == [0, 0]
    assert linalg.snf_diagonal(np.zeros((0, 5), dtype=int)) == []
    assert linalg.snf_diagonal([[6, 0], [0, 10]]) == [2, 30]


def test_int_kernel_basis_annihilates_and_saturates():
    rng = np.random.RandomState(41)
    for _ in range(20):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        a = rng.randint(-4, 5, size=(m, n))
        k = linalg.int_kernel_basis(a)
        assert len(k) + _nonzero(linalg.snf_diagonal(a)) == m
        if len(k):
            assert not np.any(np.asarray(k) @ a)
            # saturated lattice: elementary divisors of the basis are all 1
            assert linalg.snf_diagonal(k) == [1] * len(k)


def test_int_kernel_hand_value():
    k = linalg.int_kernel_basis([[2], [4]])
    assert len(k) == 1
    x, y = k[0]
    assert 2 * x + 4 * y == 0
    assert abs(x) == 2 and abs(y) == 1


def test_large_entry_fallback_exact():
    # entries and products beyond the int64 comfort zone stay exact
    big = 1 << 45
    diag = linalg.snf_diagonal([[big, 0], [0, 2]])
    assert diag == [2, big]
    assert linalg.snf_diagonal([[big, 1], [0, big]]) == [1, big * big]


def test_unit_pivot_update_does_not_wrap():
    # one elimination step multiplies 2**39 by 2**39, past int64
    big = 1 << 39
    assert linalg.snf_diagonal([[1, big], [big, 1]]) == [1, big * big - 1]
    assert linalg.snf_diagonal([[1, big], [big, 0]]) == [1, big * big]
    assert linalg.int_kernel_basis([[1, big], [big, 0]]).shape == (0, 2)
    assert _nonzero(linalg.snf_diagonal([[1, big], [big, 0]])) == 2


def _matrices(bits):
    # units keep the int64 kernel elimination busy; wide entries make its
    # row updates overflow int64 unless they are bounded first
    entries = st.one_of(st.sampled_from([0, 1, -1]),
                        st.integers(-(1 << bits), 1 << bits))
    return st.integers(1, 4).flatmap(
        lambda m: st.lists(st.lists(entries, min_size=3, max_size=3),
                           min_size=m, max_size=m))


_MATRICES = st.sampled_from([39, 45]).flatmap(_matrices)


@settings(max_examples=200, deadline=None)
@given(_MATRICES)
def test_int_kernel_basis_is_exact(rows):
    kernel = linalg.int_kernel_basis(rows)
    assert len(kernel) == len(rows) - _nonzero(linalg.snf_diagonal(rows))
    for vec in kernel.tolist():
        assert mat_mul_int([vec], rows) == [[0] * len(rows[0])]


def _p_parts(diag, p, e):
    """Map a Smith diagonal to its p-local parts read modulo p^e."""
    out = []
    for d in diag:
        v = 0
        while d and d % p == 0:
            d, v = d // p, v + 1
        out.append(p ** v if d and v < e else 0)
    return out


_SMALL_MATRICES = st.tuples(st.integers(0, 7), st.integers(0, 7)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-60, 60), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))


@settings(max_examples=300, deadline=None)
@given(_SMALL_MATRICES, st.sampled_from([2, 3, 5]), st.integers(1, 5))
def test_snf_p_local_matches_exact_core(rows, p, e):
    assert linalg.snf_p_local(rows, p, e) == _p_parts(linalg.snf_diagonal(rows), p, e)


def test_snf_p_local_hand_values():
    assert linalg.snf_p_local([[2, 0], [0, 12]], 2, 3) == [2, 4]
    assert linalg.snf_p_local([[2, 0], [0, 12]], 3, 2) == [1, 3]
    assert linalg.snf_p_local([[8, 0, 0], [0, 3, 0]], 2, 3) == [1, 0]
    assert linalg.snf_p_local(np.zeros((3, 0), dtype=np.int8), 2, 2) == []
    big = 1 << 70  # beyond int64 on input, reduced mod 2^60 on the way in
    assert linalg.snf_p_local([[big, 1], [0, 6]], 2, 60) == [1, 0]
    # a modulus past 2^61 has no exact fixed-width representation
    with pytest.raises(BudgetExceededError, match="modulus"):
        linalg.snf_p_local([[big, 1], [0, 6]], 2, 80)


@pytest.mark.parametrize("a, b, message", [
    (np.eye(3, dtype=np.int64), np.ones(4, dtype=np.int64), "rhs width 4 does not match matrix cols 3"),
    (np.eye(3, dtype=np.int64), np.ones((2, 2), dtype=np.int64), "rhs width 2 does not match matrix cols 3"),
    (np.array([[1, 2], [2, 4]]), np.array([1, 1]), "inconsistent"),
    (np.zeros((3, 4), dtype=np.int64), np.ones(4, dtype=np.int64), "inconsistent"),
], ids=["wide-rhs", "narrow-rhs", "mod5-rank-one", "mod5-zero"])
def test_solve_guards_raise_value_errors(a, b, message):
    with pytest.raises(ValueError, match=message):
        linalg.solve(a, b, 5)
