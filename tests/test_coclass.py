"""Coclass-one families, tree links, and stabilized tree homology.

Family constructions are certified internally by order, class, and
derived-subgroup checks; the tests here pin the published facts (order-64
dihedral has class 5, stabilized image dimension 2 in every degree up to
4, dim H_2 = 3 on the dihedral path) and the structural contracts of the
reports.
"""

import sys
import threading

import pytest

from pgph import coclass
from pgph.coclass import (FAMILY_KINDS, family, tree_links, tree_persistence,
                          verify_tree_h2_bound)
from pgph.errors import BudgetExceededError, DataError
from pgph.groups import abelianization_invariants, series
from pgph.persistence import fingerprint, persistence_matrix


def test_family_members_pinned():
    d32 = family("dihedral", 6)
    assert d32.order == 64
    assert len(series(d32, "L").terms) - 1 == 5
    q8 = family("quaternion", 3)
    assert q8.order == 8
    # generalized quaternion groups have a unique involution
    assert q8.order_histogram() == {1: 1, 2: 1, 4: 6}
    sd16 = family("semidihedral", 4)
    assert sd16.order == 16
    assert abelianization_invariants(sd16) == [2, 2]


def test_family_coclass_invariants():
    for kind, lo in (("dihedral", 3), ("quaternion", 3), ("semidihedral", 4)):
        for level in range(lo, 8):
            g = family(kind, level)
            assert g.order == 2 ** level
            assert len(series(g, "L").terms) - 1 == level - 1
            assert len(g.commutator_subgroup()) == 2 ** (level - 2)


def test_family_rejects_bad_requests():
    with pytest.raises(DataError):
        family("cyclic", 3)
    with pytest.raises(DataError):
        family("semidihedral", 3)
    with pytest.raises(DataError):
        family("dihedral", 2)
    with pytest.raises(BudgetExceededError):
        family("dihedral", 10)


def test_tree_link_dihedral():
    link = tree_links("dihedral", 3)
    assert link.source.order == 16 and link.target.order == 8
    assert link.is_surjective
    kernel = [x for x in range(16) if link(x) == 0]
    assert len(kernel) == 2
    src = link.source
    # the kernel is the last lower-central term, central of order 2
    assert set(kernel) == set(int(v) for v in series(src, "L").terms[-2].elements)
    assert set(kernel) <= set(int(v) for v in src.center_elements())


def test_tree_link_leaves_have_dihedral_parents():
    d4 = family("dihedral", 3)
    for kind in ("quaternion", "semidihedral"):
        link = tree_links(kind, 3)
        assert link.source.order == 16
        assert link.target.order == 8
        assert link.target.order_histogram() == d4.order_histogram()
        assert abelianization_invariants(link.target) == [2, 2]


def test_tree_links_source_is_the_family_member():
    for kind in FAMILY_KINDS:
        assert tree_links(kind, 4).source is family(kind, 5)


def test_tree_link_rejects_bad_levels():
    with pytest.raises(DataError):
        tree_links("dihedral", 2)
    with pytest.raises(DataError):
        tree_links("spiral", 3)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_tree_persistence_stabilizes_at_two(degree):
    rep = tree_persistence("dihedral", degree, 3, 6)
    assert rep["levels"] == [3, 4, 5, 6]
    assert rep["stabilizedDim"] == 2
    assert rep["stabilizedLevel"] == 3
    assert rep["singleStepDims"] == [2, 2, 2]


def test_tree_persistence_report_structure():
    rep = tree_persistence("dihedral", 2, 3, 6)
    assert [len(row) for row in rep["imageDims"]] == [3, 2, 1]
    for row in rep["imageDims"]:
        # images are nested over k
        assert all(a >= b for a, b in zip(row, row[1:]))
    assert rep["singleStepDims"] == [row[0] for row in rep["imageDims"]]
    inter = rep["intersectionDims"]
    assert inter == [row[-1] for row in rep["imageDims"]]
    # intersections over shrinking windows grow with the level
    assert all(a <= b for a, b in zip(inter, inter[1:]))


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("degree", [2, 3, 4])
def test_tree_persistence_reads_the_persistence_matrix(kind, degree):
    # the lower-central quotient chain of the top member is numbered
    # independently of the tower; column j of its matrix holds the images
    # into level 7 - j, the row above the diagonal is k = 1
    rep = tree_persistence(kind, degree, 3, 7)
    m = persistence_matrix(family(kind, 7), "L", degree).matrix
    for lvl, row in zip(range(3, 7), rep["imageDims"]):
        j = 7 - lvl
        assert row == [int(m[j - k, j]) for k in range(1, j + 1)]


def test_tree_tower_is_built_once(cold_caches, monkeypatch):
    calls = []
    real = coclass.quotient

    def counting(group, sub):
        calls.append(group.order)
        return real(group, sub)
    monkeypatch.setattr(coclass, "quotient", counting)
    for degree in (1, 2, 3):
        tree_persistence("dihedral", degree, 3, 6)
    tree_links("dihedral", 5)
    # one quotient per link of the level-6 tower: 6 -> 5 -> 4 -> 3
    assert calls == [64, 32, 16]


def test_tree_persistence_leaf_families():
    rep = tree_persistence("quaternion", 2, 3, 6)
    assert rep["stabilizedDim"] == 2
    rep = tree_persistence("semidihedral", 1, 3, 6)
    assert rep["stabilizedDim"] == 2


def test_tree_persistence_window_validation():
    with pytest.raises(DataError):
        tree_persistence("dihedral", 2, 3, 3)
    with pytest.raises(DataError):
        tree_persistence("dihedral", 2, 2, 5)
    with pytest.raises(DataError):
        tree_persistence("dihedral", -1, 3, 5)
    with pytest.raises(DataError):
        tree_persistence("moebius", 2, 3, 5)


def test_tree_persistence_short_window_unstabilized():
    rep = tree_persistence("dihedral", 1, 3, 4)
    assert rep["singleStepDims"] == [2]
    assert rep["stabilizedDim"] is None
    assert rep["stabilizedLevel"] is None


def test_h2_bound_on_dihedral_path():
    rep = verify_tree_h2_bound("dihedral", 5, 7)
    assert rep["passed"]
    assert rep["estimatedStableDim"] == 2
    for check in rep["checks"]:
        assert check["h2Dim"] == 3
        assert check["relatorBound"] == 3
        assert not check["leaf"]


def test_h2_bound_on_leaves():
    for kind in ("quaternion", "semidihedral"):
        rep = verify_tree_h2_bound(kind, 4, 6)
        assert rep["passed"]
        for check in rep["checks"]:
            assert check["leaf"]
            assert check["h2Dim"] >= rep["estimatedStableDim"]
            assert check["relatorBound"] is None


def test_h2_bound_empty_window():
    rep = verify_tree_h2_bound("dihedral", 5, 4)
    assert rep == {"family": "dihedral", "levels": [], "estimatedStableDim": None,
                   "checks": [], "passed": True}


def test_order64_members_have_distinct_lower_central_barcodes():
    prints = [fingerprint(family(kind, 6), "L", 3, name=kind)
              for kind in FAMILY_KINDS]
    assert prints[0].serialized != prints[1].serialized
    assert prints[0].serialized != prints[2].serialized
    assert prints[1].serialized != prints[2].serialized


def test_tree_persistence_budget_refusal(monkeypatch):
    monkeypatch.setenv("PGPH_BUDGET", "fp=10")
    with pytest.raises(BudgetExceededError):
        tree_persistence("dihedral", 5, 3, 4)
    # the budget is read by each call, so the default one answers
    monkeypatch.delenv("PGPH_BUDGET")
    assert tree_persistence("dihedral", 5, 3, 4)["levels"] == [3, 4]


def test_tree_persistence_concurrent_calls_agree(cold_caches):
    # with no tower cached, every thread races its first build; a short
    # switch interval interleaves the builds, and one tower must win
    results = {}

    def run(tag):
        results[tag] = tree_persistence("dihedral", 2, 3, 5)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4
    assert all(results[i] == results[0] for i in range(4))
    assert list(coclass._TOWERS) == [("dihedral", 5)]
