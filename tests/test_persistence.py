"""Persistence matrices, bar codes, recovery and classification.

Matrix entries are cross-checked against composite-map ranks computed on
the normalized bar complex (tests.oracles), which shares none of the
minimal-resolution code.  The order-64 dihedral degree-2 matrix and its
bar code are pinned to their published values.
"""

import hashlib
import json
import threading

import numpy as np
import pytest

from pgph import persistence, resolution
from pgph.catalog import bundled_catalog, bundled_order
from pgph.errors import BudgetExceededError, DataError
from pgph.groups import (SERIES_KINDS, abelian_invariants,
                         group_from_permutations, quotient_chain)
from pgph.persistence import (Barcode, PersistenceMatrix, barcode, classify,
                              fingerprint, integral_persistence_matrix,
                              matrix_from_barcode, persistence_matrix,
                              persistence_sequence, recover_abelian_invariants,
                              recover_order, verify_lower_central_barcodes)

import oracles

C2 = [(1, 0)]
C4 = [(1, 2, 3, 0)]
C8 = [(1, 2, 3, 4, 5, 6, 7, 0)]
C4xC2 = [(1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)]
C2_CUBED = [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)]
D4 = [(1, 2, 3, 0), (0, 3, 2, 1)]
Q8 = [(1, 2, 3, 0, 7, 4, 5, 6), (4, 5, 6, 7, 2, 3, 0, 1)]
D8 = [(1, 2, 3, 4, 5, 6, 7, 0), (0, 7, 6, 5, 4, 3, 2, 1)]
HEIS3 = [(3, 4, 5, 6, 7, 8, 0, 1, 2), (0, 1, 2, 4, 5, 3, 8, 6, 7)]
C9xC3 = [(1, 2, 3, 4, 5, 6, 7, 8, 0, 9, 10, 11),
         (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 9)]


def dihedral_rep(points: int):
    rot = tuple((i + 1) % points for i in range(points))
    ref = tuple((-i) % points for i in range(points))
    return [rot, ref]


DIHEDRAL64_P2L = [
    [3, 2, 2, 2, 2],
    [0, 3, 2, 2, 2],
    [0, 0, 3, 2, 2],
    [0, 0, 0, 3, 2],
    [0, 0, 0, 0, 3],
]


def test_dihedral64_degree2_lower_central_matrix():
    g = group_from_permutations(dihedral_rep(32))
    pm = persistence_matrix(g, "L", 2)
    assert pm.term_orders == (64, 32, 16, 8, 4)
    assert pm.matrix.tolist() == DIHEDRAL64_P2L


def test_dihedral64_barcode_round_trip():
    g = group_from_permutations(dihedral_rep(32))
    pm = persistence_matrix(g, "L", 2)
    bc = barcode(pm)
    assert bc.bars == ((1, 1, 1), (1, 5, 2), (2, 2, 1), (3, 3, 1),
                       (4, 4, 1), (5, 5, 1))
    rebuilt = matrix_from_barcode(bc)
    assert np.array_equal(rebuilt.matrix, pm.matrix)
    assert barcode(rebuilt) == bc


def test_barcode_hand_values():
    pm = PersistenceMatrix("", "L", 1, (), np.array([[3, 2], [0, 3]]))
    assert barcode(pm).bars == ((1, 1, 1), (1, 2, 2), (2, 2, 1))
    single = PersistenceMatrix("", "L", 1, (), np.array([[5]]))
    assert barcode(single).bars == ((1, 1, 5),)
    zero = PersistenceMatrix("", "L", 1, (), np.zeros((3, 3), dtype=np.int64))
    assert barcode(zero).bars == ()


def test_matrix_from_barcode_hand_values():
    bc = Barcode(1, 2, ((1, 1, 1), (1, 2, 2), (2, 2, 1)))
    assert matrix_from_barcode(bc).matrix.tolist() == [[3, 2], [0, 3]]
    empty = Barcode(1, 3, ())
    assert matrix_from_barcode(empty).matrix.tolist() == [[0] * 3] * 3
    with pytest.raises(DataError):
        matrix_from_barcode(Barcode(1, 2, ((2, 1, 1),)))


def test_barcode_rejects_non_realizable():
    # monotone in rows and columns, yet mu(2,2) = -1
    pm = PersistenceMatrix("", "L", 2, (),
                           np.array([[2, 2, 0], [0, 2, 1], [0, 0, 1]]))
    pm.validate()
    with pytest.raises(DataError):
        barcode(pm)
    growing = PersistenceMatrix("", "L", 1, (), np.array([[1, 2], [0, 2]]))
    with pytest.raises(DataError):
        growing.validate()


def test_abelian_chains_are_single_column():
    g = group_from_permutations(C4xC2)
    for degree, expected in ((1, 2), (2, 3)):
        pm = persistence_matrix(g, "L", degree)
        assert pm.matrix.tolist() == [[expected]]
    seq = persistence_sequence(group_from_permutations(C2), "L", 5)
    assert [pm.matrix.tolist() for pm in seq] == [[[1]]] * 5


def test_matrix_entries_match_bar_oracle():
    cases = [
        (D4, ("L", "Lp", "D", "Z", "Zp"), (1, 2)),
        (Q8, ("Zp",), (1, 2, 3)),
        (C8, ("Zp",), (1, 2)),
    ]
    for rep, functors, degrees in cases:
        g = group_from_permutations(rep)
        for functor in functors:
            chain = quotient_chain(g, functor)
            for degree in degrees:
                pm = persistence_matrix(g, functor, degree)
                for i in range(1, len(chain) + 1):
                    src = chain.quotients[i - 1]
                    dims = oracles.bar_homology_dims(
                        src.cayley.tolist(), g.prime, degree)
                    assert pm.matrix[i - 1, i - 1] == dims[degree]
                    for j in range(i + 1, len(chain) + 1):
                        hom = chain.hom(i, j)
                        expected = oracles.bar_induced_rank(
                            src.cayley.tolist(),
                            chain.quotients[j - 1].cayley.tolist(),
                            hom.mapping, degree, g.prime)
                        assert pm.matrix[i - 1, j - 1] == expected, (
                            functor, degree, i, j)


def test_degree_zero_matrix_is_all_ones():
    g = group_from_permutations(D4)
    for functor in ("L", "Lp", "D", "Z", "Zp"):
        pm = persistence_matrix(g, functor, 0)
        n = pm.size
        assert pm.matrix.tolist() == np.triu(np.ones((n, n), dtype=int)).tolist()


def test_computed_matrices_validate_and_round_trip():
    reps = (C8, C4xC2, C2_CUBED, D4, Q8, D8, HEIS3)
    for rep in reps:
        g = group_from_permutations(rep)
        for functor in ("L", "Lp", "D", "Z", "Zp"):
            for pm in persistence_sequence(g, functor, 3):
                pm.validate()
                bc = barcode(pm)
                assert np.array_equal(matrix_from_barcode(bc).matrix, pm.matrix)


def _logp(value: int, p: int) -> int:
    out = 0
    while value > 1:
        assert value % p == 0
        value //= p
        out += 1
    return out


def test_five_term_rank_identity():
    """Chain links with central elementary abelian kernel K satisfy
    dim K = (dim H_2(Q') - rank H_2) + (dim H_1(Q) - rank H_1)."""
    cases = [(D4, "Zp"), (D4, "Lp"), (Q8, "Zp"), (D8, "Lp"), (HEIS3, "Zp")]
    for rep, functor in cases:
        g = group_from_permutations(rep)
        p1 = persistence_matrix(g, functor, 1)
        p2 = persistence_matrix(g, functor, 2)
        m1, m2 = p1.matrix, p2.matrix
        for t in range(p1.size - 1):
            kernel_dim = _logp(p1.term_orders[t] // p1.term_orders[t + 1],
                               g.prime)
            from_ranks = int(m2[t + 1, t + 1] - m2[t, t + 1]) \
                + int(m1[t, t] - m1[t, t + 1])
            assert from_ranks == kernel_dim, (functor, t)


def test_recover_order_on_known_groups():
    reps = (C8, C4xC2, C2_CUBED, D4, Q8, D8, HEIS3, C9xC3)
    for rep in reps:
        g = group_from_permutations(rep)
        for functor in ("Zp", "Lp"):
            first = persistence_matrix(g, functor, 1)
            second = persistence_matrix(g, functor, 2)
            assert recover_order(first, second) == g.order
            assert recover_order(first, second, prime=g.prime) == g.order


def test_recover_order_input_validation():
    g = group_from_permutations(D4)
    z1 = persistence_matrix(g, "Zp", 1)
    z2 = persistence_matrix(g, "Zp", 2)
    l1 = persistence_matrix(g, "L", 1)
    l2 = persistence_matrix(g, "L", 2)
    with pytest.raises(DataError):
        recover_order(l1, l2)          # not a p-central functor
    with pytest.raises(DataError):
        recover_order(z1, z1)          # wrong degree pair
    with pytest.raises(DataError):
        recover_order(z2, z1)
    stripped = PersistenceMatrix("", "Zp", 1, (), z1.matrix)
    with pytest.raises(DataError):
        recover_order(stripped, PersistenceMatrix("", "Zp", 2, (), z2.matrix))


def test_recover_abelian_invariants():
    cases = [
        (C8, [8]),
        (C4xC2, [2, 4]),
        (C2_CUBED, [2, 2, 2]),
        (C9xC3, [3, 9]),
    ]
    for rep, expected in cases:
        g = group_from_permutations(rep)
        first = persistence_matrix(g, "Zp", 1)
        second = persistence_matrix(g, "Zp", 2)
        assert recover_abelian_invariants(first, second) == expected
        assert expected == abelian_invariants(g)


def test_recover_abelian_invariants_published_example():
    g = group_from_permutations(oracles.cyclic_product_rep([2, 4, 4, 16]))
    assert g.order == 512
    first = persistence_matrix(g, "Zp", 1)
    second = persistence_matrix(g, "Zp", 2)
    assert recover_abelian_invariants(first, second) == [2, 4, 4, 16]


def test_recover_abelian_rejects_nonabelian_input():
    g = group_from_permutations(D4)
    first = persistence_matrix(g, "Zp", 1)
    second = persistence_matrix(g, "Zp", 2)
    with pytest.raises(DataError):
        recover_abelian_invariants(first, second)


def test_classify_single_group():
    report = classify({"only": group_from_permutations(C4)}, "Zp", 2)
    assert report["classes"] == 1
    assert report["maxClassSize"] == 1
    assert report["stableT"] == 1
    assert report["members"] == [["only"]]
    assert not report["partial"]


def test_classify_separates_at_degree_one():
    catalog = {
        "cyclic": group_from_permutations(C8),
        "elementary": group_from_permutations(C2_CUBED),
    }
    report = classify(catalog, "Zp", 2)
    assert report["classes"] == 2
    assert report["stableT"] == 2
    assert report["singleDegree"]["classes"] == 2


def test_classify_frattini_pair_order8():
    catalog = {
        "C8": group_from_permutations(C8),
        "C4xC2": group_from_permutations(C4xC2),
        "D4": group_from_permutations(D4),
        "Q8": group_from_permutations(Q8),
        "C2^3": group_from_permutations(C2_CUBED),
    }
    report = classify(catalog, "Lp", 3)
    assert (report["classes"], report["maxClassSize"]) == (4, 2)
    assert report["stableT"] == 3
    pair = [c for c in report["members"] if len(c) == 2]
    assert pair == [["C4xC2", "D4"]]


def test_classify_partial_on_budget_failure(monkeypatch, cold_caches):
    points = 16
    rot = tuple((i + 1) % points for i in range(points))
    ref = tuple((7 * i) % points for i in range(points))
    semidihedral32 = group_from_permutations([rot, ref])
    assert semidihedral32.order == 32
    catalog = {
        "small": group_from_permutations(C4),
        "big": semidihedral32,
    }
    monkeypatch.setenv("PGPH_BUDGET", "fp=1500,int=1000000")
    report = classify(catalog, "L", 1)
    assert report["partial"]
    assert report["classes"] == 1
    assert [f["group"] for f in report["failures"]] == ["big"]


def test_classify_all_failed_raises_first_groups_own_error(monkeypatch, cold_caches):
    s3 = group_from_permutations([(1, 0, 2), (1, 2, 0)])
    with pytest.raises(DataError, match="^s3: .*not a prime power"):
        classify({"s3": s3, "s3 again": s3}, "L", 1, workers=2)
    catalog = {"small": group_from_permutations(C4),
               "big": group_from_permutations(C8)}
    monkeypatch.setenv("PGPH_BUDGET", "fp=1000000,int=5")
    with pytest.raises(BudgetExceededError, match="^small: resolution radical"):
        classify(catalog, "Zp", 1, integral=True)


def test_classify_rejects_negative_workers(monkeypatch):
    # a typed refusal before any group is fingerprinted
    def started(*args, **kwargs):
        raise AssertionError("work started")
    monkeypatch.setattr(persistence, "fingerprint", started)
    with pytest.raises(DataError, match="workers must not be negative: -1"):
        classify({"c4": group_from_permutations(C4)}, "L", 1, workers=-1)


def test_classify_fingerprints_on_the_calling_thread(monkeypatch):
    threads = []

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return fingerprint(*args, **kwargs)
    monkeypatch.setattr(persistence, "fingerprint", recording)
    catalog = {entry.id: entry.group for entry in bundled_order(8)}
    for workers in (None, 1, 2, 4):
        classify(catalog, "L", 2, workers=workers)
    assert threads == [threading.get_ident()] * (4 * len(catalog))


def test_classify_same_report_for_any_worker_count(monkeypatch):
    catalog = {entry.id: entry.group for entry in bundled_order(16)}
    order8 = {entry.id: entry.group for entry in bundled_order(8)}
    reports = {}
    for workers in (1, 2):
        monkeypatch.setattr(resolution, "_RESOLUTIONS", {})
        monkeypatch.setattr(resolution, "_CHAIN_MAPS", {})
        reports[workers] = [classify(catalog, kind, 3, workers=workers)
                            for kind in SERIES_KINDS]
        reports[workers].append(classify(order8, "Zp", 3, integral=True,
                                         workers=workers))
    assert reports[1] == reports[2]
    assert not any(report["partial"] for report in reports[1])


def test_persistence_sequence_budget_refusal(monkeypatch, cold_caches):
    g = group_from_permutations(dihedral_rep(16))
    assert g.order == 32
    monkeypatch.setenv("PGPH_BUDGET", "fp=5000,int=1000000")
    with pytest.raises(BudgetExceededError):
        persistence_sequence(g, "L", 3)


def test_integral_persistence_matrix_values():
    c4 = group_from_permutations(C4)
    ip = integral_persistence_matrix(c4, "Zp", 1)
    assert ip.size == 2
    assert ip.term_orders == (4, 2)
    assert ip.entry(1, 1) == ((4,), (4,), ())
    assert ip.entry(1, 2) == ((4,), (2,), ())
    assert ip.entry(2, 2) == ((2,), (2,), ())

    d4 = group_from_permutations(D4)
    ip2 = integral_persistence_matrix(d4, "Zp", 2)
    assert ip2.entry(1, 2) == ((2,), (2,), (2,))
    for i in range(1, ip2.size + 1):
        a, b, c = ip2.entry(i, i)
        assert a == b and c == ()


def test_integral_persistence_matrices_are_pinned():
    # 490 matrices over the five series at every degree from 1 up, whose
    # mod-2^E and mod-3^E levels pick generators off the packed radical;
    # the digest was recorded when the integral path moved onto the
    # resolution engine
    depths = {16: 4, 27: 3, 32: 3, 64: 3, 128: 3}
    digest = hashlib.sha1()
    count = 0
    for entry in bundled_catalog():
        for kind in SERIES_KINDS:
            for n in range(1, depths.get(entry.order, 0) + 1):
                matrix = integral_persistence_matrix(entry.group, kind, n, name=entry.id)
                digest.update(json.dumps(matrix.to_json(), sort_keys=True).encode())
                count += 1
    assert count == 490
    assert digest.hexdigest() == "d501fe9dc879695ea932130cd1f1ba1c78f934dd"


def test_integral_fingerprints_differ():
    c4 = group_from_permutations(C4)
    klein = group_from_permutations([(1, 0, 2, 3), (0, 1, 3, 2)])
    f1 = fingerprint(c4, "Zp", 1, integral=True)
    f2 = fingerprint(klein, "Zp", 1, integral=True)
    assert f1.serialized != f2.serialized


def test_lower_central_structure_checks():
    for rep in (D4, Q8, D8, HEIS3):
        report = verify_lower_central_barcodes(group_from_permutations(rep))
        assert report["passed"], report

    abelian = verify_lower_central_barcodes(group_from_permutations(C4xC2))
    assert abelian["passed"]
    assert abelian["isolatedVertices"]["columns"] == []

    big = verify_lower_central_barcodes(group_from_permutations(dihedral_rep(32)))
    assert big["passed"]
    assert big["generatorPaths"]["bars"] == [[1, 5, 2]]


def _c4():
    return group_from_permutations(C4)


def _pm(rows):
    return PersistenceMatrix("", "L", 1, (), np.array(rows, dtype=np.int64))


@pytest.mark.parametrize("call, message", [
    (lambda: persistence_matrix(_c4(), "L", -1), "must be nonnegative: -1"),
    (lambda: integral_persistence_matrix(_c4(), "L", -1), "must be nonnegative: -1"),
    (lambda: persistence_sequence(_c4(), "L", 0), "at least 1: 0"),
    (lambda: classify({}, "L", 2), "empty catalog"),
    (lambda: classify([("a", _c4()), ("a", _c4())], "L", 1), "duplicate group names"),
    (lambda: integral_persistence_matrix(_c4(), "Z", 1).entry(0, 1),
     "triple indices out of range: 0, 1"),
    (lambda: integral_persistence_matrix(_c4(), "Z", 1).entry(2, 1),
     "triple indices out of range: 2, 1"),
    (lambda: integral_persistence_matrix(_c4(), "Z", 1).entry(1, 3),
     "triple indices out of range: 1, 3"),
    (lambda: _pm([[1, 1, 1]]).validate(), "not square"),
    (lambda: _pm([[1, 0], [1, 1]]).validate(), "below the diagonal"),
    (lambda: _pm([[1, -1], [0, 1]]).validate(), "negative entry"),
    (lambda: _pm([[1, 2], [0, 2]]).validate(), "rank grows along row 1"),
    (lambda: _pm([[2, 2], [0, 1]]).validate(), "rank shrinks down column 2"),
], ids=["matrix-degree", "integral-degree", "sequence-degree", "empty-catalog",
        "duplicate-names", "entry-below-1", "entry-reversed", "entry-past-end",
        "not-square", "below-diagonal", "negative", "row-grows", "column-shrinks"])
def test_persistence_guards_raise_data_errors(call, message):
    with pytest.raises(DataError, match=message):
        call()
