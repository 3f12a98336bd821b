"""Bar complex homology, integral invariants, and induced triples."""

import numpy as np
import pytest

from pgph import (
    bar_homology_fp,
    group_from_permutations,
    homology_dims,
    integral_homology,
    integral_induced_triple,
    quotient,
)
from pgph import barcomplex, linalg
from pgph.barcomplex import bar_boundary
from pgph.catalog import bundled_catalog, bundled_order
from pgph.config import Budgets
from pgph.errors import BudgetExceededError, ConsistencyError
from pgph.groups import GroupHom

C2 = [(1, 0)]
C4 = [(1, 2, 3, 0)]
V4 = [(1, 0, 2, 3), (0, 1, 3, 2)]
D4 = [(1, 2, 3, 0), (0, 3, 2, 1)]
Q8 = [(1, 2, 3, 0, 7, 4, 5, 6), (4, 5, 6, 7, 2, 3, 0, 1)]
C3 = [(1, 2, 0)]
S3 = [(1, 0, 2), (1, 2, 0)]


def test_bar_boundary_squares_to_zero():
    g = group_from_permutations(D4)
    for n in (1, 2, 3):
        prod = bar_boundary(g, n + 1).astype(np.int64) @ bar_boundary(g, n).astype(np.int64)
        assert not np.any(prod)


def test_bar_dims_agree_with_resolutions():
    for perms, p in ((C2, 2), (C4, 2), (V4, 2), (D4, 2), (Q8, 2), (C3, 3)):
        g = group_from_permutations(perms)
        dims = homology_dims(g, 3)
        assert [bar_homology_fp(g, p, n) for n in range(4)] == dims


def test_bar_dims_trivial_group():
    g = group_from_permutations([(0,)])
    assert bar_homology_fp(g, 2, 0) == 1
    assert bar_homology_fp(g, 2, 1) == 0
    assert bar_homology_fp(g, 2, 3) == 0


def test_integral_homology_cyclic():
    c4 = group_from_permutations(C4)
    assert integral_homology(c4, 0).invariants == [0]
    assert integral_homology(c4, 1).invariants == [4]
    assert integral_homology(c4, 2).invariants == []
    assert integral_homology(c4, 3).invariants == [4]
    c2 = group_from_permutations(C2)
    assert integral_homology(c2, 1).invariants == [2]
    assert integral_homology(c2, 2).invariants == []
    assert integral_homology(c2, 3).invariants == [2]


def test_integral_homology_klein_and_dihedral():
    v4 = group_from_permutations(V4)
    assert integral_homology(v4, 1).invariants == [2, 2]
    # Schur multiplier of the Klein group is C2
    assert integral_homology(v4, 2).invariants == [2]
    d4 = group_from_permutations(D4)
    assert integral_homology(d4, 1).invariants == [2, 2]
    assert integral_homology(d4, 2).invariants == [2]


def test_integral_homology_quaternion():
    q8 = group_from_permutations(Q8)
    assert integral_homology(q8, 1).invariants == [2, 2]
    assert integral_homology(q8, 2).invariants == []      # trivial multiplier
    assert integral_homology(q8, 3).invariants == [8]     # periodic, order |G|


def test_integral_homology_beyond_p_groups():
    s3 = group_from_permutations(S3)
    assert [integral_homology(s3, n).invariants for n in range(4)] == [[0], [2], [], [6]]


def test_universal_coefficients_consistency():
    # dim H_n(F_p) = (p-divisible part of H_n) + (p-torsion of H_{n-1})
    cases = [(e.id, e.group, 3) for e in bundled_catalog() if 1 < e.order <= 8]
    cases += [(e.id, e.group, 2) for e in bundled_order(16)]
    for name, g, top in cases:
        p = g.prime
        dims = homology_dims(g, top)
        integral = [integral_homology(g, n).invariants for n in range(top + 1)]
        for n in range(top + 1):
            tensor = sum(1 for d in integral[n] if d == 0 or d % p == 0)
            tor = 0
            if n > 0:
                tor = sum(1 for d in integral[n - 1] if d != 0 and d % p == 0)
            assert dims[n] == tensor + tor, (name, n)


def test_exponent_too_small_raises(monkeypatch):
    # modulo 2 alone the invariant 8 of H_3(Q8) reads as free rank
    local = linalg.snf_p_local
    monkeypatch.setattr(linalg, "snf_p_local", lambda a, p, e: local(a, p, 1))
    monkeypatch.setattr(barcomplex, "_INTEGRAL", {})
    with pytest.raises(ConsistencyError, match="free rank 1"):
        integral_homology(group_from_permutations(Q8), 3)


def test_triple_identity_and_cyclic_surjection():
    c4 = group_from_permutations(C4)
    c2 = group_from_permutations(C2)
    ident = GroupHom(c4, c4, np.arange(4))
    assert integral_induced_triple(ident, 1) == ([4], [4], [])
    hom = GroupHom(c4, c2, [0, 1, 0, 1])
    assert integral_induced_triple(hom, 1) == ([4], [2], [])
    # degree 2: both sides vanish integrally
    assert integral_induced_triple(hom, 2) == ([], [], [])
    # degree 3: the induced map Z/4 -> Z/2 is onto index... the cokernel
    # detects exactly how much of the target is missed
    a, b, c = integral_induced_triple(hom, 3)
    assert a == [4] and b == [2]


def test_triple_to_trivial_group():
    c4 = group_from_permutations(C4)
    triv = group_from_permutations([(0,)])
    hom = GroupHom(c4, triv, [0, 0, 0, 0])
    assert integral_induced_triple(hom, 1) == ([4], [], [])
    assert integral_induced_triple(hom, 2) == ([], [], [])


def test_triple_center_quotient_of_d4():
    d4 = group_from_permutations(D4)
    q, proj = quotient(d4, d4.center_elements())
    a, b, c = integral_induced_triple(proj, 1)
    assert a == [2, 2] and b == [2, 2] and c == []
    a, b, c = integral_induced_triple(proj, 2)
    assert a == [2] and b == [2]
    # H_2(D4) -> H_2(V4) kills the multiplier class: full cokernel
    assert c == [2]


def test_integral_budget_refusal():
    g = group_from_permutations(D4)
    with pytest.raises(BudgetExceededError):
        integral_homology(g, 3, budgets=Budgets(fp_entries=10**9, int_entries=100))
