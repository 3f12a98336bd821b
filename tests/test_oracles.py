"""Self-checks for the test oracles.

The acceptance suite trusts the oracles as an independent reference, so
the rank routines they rely on are cross-validated here on random
matrices against the naive eliminator.
"""

import numpy as np

import oracles


def random_matrices(rng, p):
    for _ in range(40):
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 12))
        yield rng.integers(0, p, size=(rows, cols))


def test_rank_variants_agree_mod_two():
    rng = np.random.default_rng(7)
    for m in random_matrices(rng, 2):
        expected = oracles.fp_rank_simple(m, 2)
        assert oracles.fp_rank_echelon(m, 2) == expected
        assert oracles.fp_rank_gf2(m) == expected


def test_rank_variants_agree_odd_prime():
    rng = np.random.default_rng(11)
    for m in random_matrices(rng, 5):
        assert oracles.fp_rank_echelon(m, 5) == oracles.fp_rank_simple(m, 5)


def test_rank_edge_shapes():
    assert oracles.fp_rank_gf2(np.zeros((3, 4), dtype=np.int64)) == 0
    assert oracles.fp_rank_echelon(np.zeros((1, 1), dtype=np.int64), 3) == 0
    wide = np.array([[1, 0, 1, 1]])
    assert oracles.fp_rank_gf2(wide) == 1
    assert oracles.fp_rank_echelon(wide.T, 2) == 1


def test_int_row_rank_matches_the_packed_words():
    # rank_gf2_packed is the reference for the leading-bit basis of ints
    rng = np.random.default_rng(13)
    for rows, cols in ((0, 5), (4, 0), (1, 1), (9, 64), (30, 65), (70, 40), (50, 200)):
        for density in (0.05, 0.5):
            m = (rng.random((rows, cols)) < density).astype(np.int64)
            ints = [sum(int(v) << j for j, v in enumerate(row)) for row in m]
            packed = oracles._pack_rows_gf2([np.nonzero(row)[0] for row in m], cols)
            assert (oracles.rank_gf2_ints(iter(ints))
                    == oracles.rank_gf2_packed(packed, cols)
                    == oracles.fp_rank_simple(m, 2))


def test_packed_bar_rank_matches_dense():
    # every group of order 4 and 8; d_5 of order 8 would be 16807 x 2401
    # dense entries, so order 8 stops at d_4
    from pgph import bundled_order

    for order, n_max in ((4, 5), (8, 4)):
        for entry in bundled_order(order):
            for n in range(1, n_max + 1):
                dense = oracles.bar_boundary(entry.group.cayley, n)
                assert (oracles.bar_boundary_rank_gf2(entry.group.cayley, n)
                        == oracles.fp_rank_gf2(dense)), (entry.id, n)
