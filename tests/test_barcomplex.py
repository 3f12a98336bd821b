"""Bar complex homology, integral invariants, and induced triples."""

import numpy as np
import pytest

from pgph import (
    bar_homology_fp,
    group_from_permutations,
    homology_dims,
    induced_map,
    integral_homology,
    integral_induced_triple,
    integral_persistence_matrix,
    quotient,
)
from pgph import linalg, resolution
from pgph.barcomplex import _cycles, bar_boundary
from pgph.catalog import bundled_catalog, bundled_group, bundled_order
from pgph.errors import BudgetExceededError, ConsistencyError, DataError
from pgph.groups import GroupHom, quotient_chain

import oracles

C2 = [(1, 0)]
C4 = [(1, 2, 3, 0)]
V4 = [(1, 0, 2, 3), (0, 1, 3, 2)]
D4 = [(1, 2, 3, 0), (0, 3, 2, 1)]
Q8 = [(1, 2, 3, 0, 7, 4, 5, 6), (4, 5, 6, 7, 2, 3, 0, 1)]
C3 = [(1, 2, 0)]
S3 = [(1, 0, 2), (1, 2, 0)]


def cyclic(n):
    return group_from_permutations([tuple((i + 1) % n for i in range(n))])


def involution(g):
    return next(x for x in range(1, g.order) if g.cayley[x, x] == 0)


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
    # the bar-complex oracle takes any finite group; the package, p-groups
    s3 = group_from_permutations(S3)
    assert [oracles.bar_integral_homology(s3.cayley, n) for n in range(4)] == [
        [0], [2], [], [6]]
    with pytest.raises(DataError, match="not a prime power"):
        integral_homology(s3, 1)
    with pytest.raises(DataError, match="not a prime power"):
        integral_induced_triple(GroupHom(s3, s3, np.arange(6)), 1)


def test_universal_coefficients_consistency():
    # dim H_n(F_p) = (p-divisible part of H_n) + (p-torsion of H_{n-1})
    cases = [(e.id, e.group, 3) for e in bundled_catalog() if 1 < e.order <= 8]
    cases += [(e.id, e.group, 4) for e in bundled_order(16)]
    cases += [(e.id, e.group, 3) for e in bundled_order(27)]
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


def test_integral_homology_beyond_the_bar_complex():
    # textbook H_3 of the generalized quaternion, semidihedral and dihedral
    # groups; the bar complex is refused here under the default budget
    assert integral_homology(bundled_group("16.9"), 3).invariants == [16]
    assert integral_homology(bundled_group("16.8"), 3).invariants == [2, 8]
    assert integral_homology(bundled_group("128.dihedral"), 3).invariants == [2, 2, 64]


def test_integral_h3_separates_semidihedral_from_quaternion():
    # a further witness for criterion 3: the two groups agree integrally
    # through degree 2 and are told apart by H_3
    sd16, q16 = bundled_group("16.8"), bundled_group("16.9")
    for n in range(3):
        assert integral_homology(sd16, n).invariants == integral_homology(q16, n).invariants
    assert integral_homology(sd16, 3).invariants == [2, 8]
    assert integral_homology(q16, 3).invariants == [16]


def test_triples_match_the_bar_complex_oracle():
    # every chain hom of every series, at each order to the degrees the
    # integer bar complex reaches, taken alone and as a cell of the chain's
    # matrix, which composes link maps at one modulus
    plan = {4: (0, 1, 2, 3, 4), 8: (1, 2, 3), 9: (1, 2, 3), 16: (1, 2), 27: (1,)}
    compared, mismatches = 0, []
    for order, degrees in plan.items():
        for entry in bundled_order(order):
            for kind in ("Z", "Zp", "L", "Lp", "D"):
                chain = quotient_chain(entry.group, kind)
                for n in degrees:
                    matrix = integral_persistence_matrix(entry.group, kind, n)
                    for i in range(1, len(chain) + 1):
                        for j in range(i, len(chain) + 1):
                            hom = chain.hom(i, j)
                            want = oracles.bar_integral_triple(
                                hom.source.cayley, hom.target.cayley, hom.mapping, n)
                            cell = [list(part) for part in matrix.entry(i, j)]
                            got = (integral_induced_triple(hom, n), tuple(cell))
                            compared += 1
                            if got != (want, want):
                                mismatches.append((entry.id, kind, i, j, n, got, want))
    assert compared == 824
    assert not mismatches, mismatches[:4]


def test_chain_matrix_lifts_one_chain_map_per_link(cold_caches):
    # one modulus for the chain C8 -> C4 -> C2: each quotient is resolved
    # once and each link lifted once, composites reuse them
    integral_persistence_matrix(bundled_group("8.1"), "Zp", 3)
    assert len(resolution._RESOLUTIONS) == 3
    assert len(resolution._CHAIN_MAPS) == 2


def test_exponent_too_small_raises(monkeypatch):
    # modulo 2 alone the invariant 8 of H_3(Q8) reads as free rank
    local = linalg.snf_p_local
    monkeypatch.setattr(linalg, "snf_p_local", lambda a, p, e: local(a, p, 1))
    monkeypatch.setattr(resolution, "_RESOLUTIONS", {})
    with pytest.raises(ConsistencyError, match="free rank 1"):
        integral_homology(group_from_permutations(Q8), 3)


def _unimodular(rng, size):
    u = np.eye(size, dtype=object)
    for _ in range(2 * size if size > 1 else 0):
        i, j = rng.choice(size, 2, replace=False)
        u[i] += int(rng.randint(-2, 3)) * u[j]
    return u[rng.permutation(size)]


def _module(rows, p, e):
    """The p-local Smith diagonal of the row span of ``rows`` in (Z/p^e)^b."""
    return [d for d in linalg.snf_p_local(rows, p, e) if d]


def _assert_cycles_match_the_reference(lower, p, e):
    # x with x D = 0 mod p^(2e), from the unimodular integer kernel; two
    # finite spans, one inside the other, agree when their diagonals do
    b = len(lower)
    q = p ** (2 * e)
    lattice = linalg.int_kernel_basis(np.vstack([lower, q * np.eye(lower.shape[1], dtype=object)]))
    reference = lattice[:, :b] % p ** e
    diag, cycles = _cycles(lower, p, e)
    assert cycles.shape[1] == b
    assert diag == _module(lower, p, e)
    both = np.vstack([reference, cycles])
    assert _module(reference, p, e) == _module(cycles, p, e) == _module(both, p, e)


def test_local_cycles_match_the_integer_kernel():
    rng = np.random.RandomState(5)
    for p, e in ((2, 1), (2, 3), (3, 2), (5, 2)):
        for _ in range(25):
            m, k = rng.randint(1, 7), rng.randint(1, 7)
            diagonal = np.zeros((m, k), dtype=object)
            for i in range(min(m, k)):
                if rng.randint(4):
                    # some zero invariants, and units prime to p
                    diagonal[i, i] = p ** int(rng.randint(e)) * int(rng.choice([1, p + 1]))
            lower = _unimodular(rng, m) @ diagonal @ _unimodular(rng, k)
            _assert_cycles_match_the_reference(lower, p, e)


def test_local_cycles_of_resolutions_match_the_integer_kernel():
    for g in [e.group for e in bundled_order(8)] + [bundled_group("16.9"), bundled_group("27.3")]:
        p = g.prime
        e = 1 + round(np.log(g.order) / np.log(p))
        res = resolution._resolution(g, p, p ** (2 * e))
        res.extend_to(4)
        for n in range(1, 4):
            _assert_cycles_match_the_reference(res.tensored(n), p, e)


def test_local_cycles_refuse_an_invariant_past_the_exponent():
    # p^(e-1) kills the homology below, so an invariant p^v with e <= v < 2e
    # is a defect, not a reading of the cycles
    rng = np.random.RandomState(11)
    for p, e, v in ((2, 2, 2), (2, 2, 3), (3, 3, 4)):
        diagonal = np.diag([1, p, p ** v, 0]).astype(object)
        lower = _unimodular(rng, 4) @ diagonal @ _unimodular(rng, 4)
        with pytest.raises(ConsistencyError, match="invariant"):
            _cycles(lower, p, e)


def test_integral_path_needs_no_integer_reference(monkeypatch):
    # the integer kernel and the exact Smith diagonal are test references
    # only: the integral path runs on the unit-pivot eliminator alone
    d4 = group_from_permutations(D4)
    _, proj = quotient(d4, d4.center_elements())

    def integral():
        matrices = [integral_persistence_matrix(entry.group, "Zp", n).to_json()
                    for entry in bundled_order(16) for n in (1, 2, 3)]
        return matrices, [integral_induced_triple(proj, n) for n in (1, 2, 3)]

    want = integral()

    def refuse(*args, **kwargs):
        raise AssertionError("an integer reference was called")

    monkeypatch.setattr(linalg, "int_kernel_basis", refuse)
    monkeypatch.setattr(linalg, "snf_diagonal", refuse)
    monkeypatch.setattr(resolution, "_RESOLUTIONS", {})
    monkeypatch.setattr(resolution, "_CHAIN_MAPS", {})
    assert integral() == want


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


def test_integral_budget_refusal(monkeypatch):
    g = group_from_permutations(D4)
    monkeypatch.setenv("PGPH_BUDGET", "fp=1000000000,int=100")
    with pytest.raises(BudgetExceededError):
        integral_homology(g, 3)


def _outcome(call):
    try:
        return call()
    except BudgetExceededError as exc:
        return str(exc)


def test_refusals_do_not_depend_on_the_cache(monkeypatch):
    # cached levels are charged again, so warm caches refuse what cold ones do
    d4 = group_from_permutations(D4)
    _, proj = quotient(d4, d4.center_elements())
    calls = [
        ("int", lambda: integral_homology(d4, 3).invariants),
        ("int", lambda: integral_induced_triple(proj, 2)),
        ("fp", lambda: homology_dims(d4, 3)),
        ("fp", lambda: induced_map(proj, 2).tolist()),
    ]

    def under(kind, budget, call):
        monkeypatch.setenv("PGPH_BUDGET", f"{kind}={budget}")
        return _outcome(call)

    refused = passed = 0
    for budget in (20, 60, 100, 150, 1000):
        cold = []
        for kind, call in calls:
            monkeypatch.setattr(resolution, "_RESOLUTIONS", {})
            monkeypatch.setattr(resolution, "_CHAIN_MAPS", {})
            cold.append(under(kind, budget, call))
        for kind, call in calls:
            assert not isinstance(under(kind, 10**9, call), str)
        assert [under(kind, budget, call) for kind, call in calls] == cold, budget
        refused += sum(isinstance(out, str) for out in cold)
        passed += sum(not isinstance(out, str) for out in cold)
    assert refused and passed


def test_triples_of_injections_match_the_bar_complex_oracle():
    # the target may need a larger exponent than the source, and a trivial
    # group goes with either prime
    c2, c8, c16 = cyclic(2), cyclic(8), cyclic(16)
    trivial = group_from_permutations([(0,)])
    cases = [(GroupHom(c2, c8, np.array([0, involution(c8)])), (1, 2, 3)),
             (GroupHom(c2, c16, np.array([0, involution(c16)])), (1, 2)),
             (GroupHom(trivial, cyclic(3), np.array([0])), (1, 2, 3)),
             (GroupHom(trivial, c8, np.array([0])), (1, 2, 3))]
    for hom, degrees in cases:
        for n in degrees:
            want = oracles.bar_integral_triple(hom.source.cayley, hom.target.cayley,
                                               hom.mapping, n)
            assert integral_induced_triple(hom, n) == want, (hom.target.order, n)
    # H_1(C2) = Z/2 lands on 4 Z/8, leaving Z/4
    assert integral_induced_triple(cases[0][0], 1) == ([2], [8], [4])


def test_triple_across_two_primes_is_refused():
    hom = GroupHom(cyclic(2), cyclic(3), np.array([0, 0]))
    with pytest.raises(DataError, match="one prime"):
        integral_induced_triple(hom, 1)


def test_integral_chain_past_the_block_sum_bound_is_refused(monkeypatch):
    # tensoring sums |Q| residues mod q at int64, so q |Q| must stay below
    # the bound; patched to 243 it refuses C3 (3^4 * 3 = 243), not C2 (32)
    monkeypatch.setattr(linalg, "_INT64_SAFE", 243)
    with pytest.raises(BudgetExceededError, match="integral modulus"):
        integral_homology(cyclic(3), 1)
    assert integral_homology(cyclic(2), 1).invariants == [2]


@pytest.mark.parametrize("p", [101, 239, 509])
def test_integral_homology_of_large_prime_cyclic_groups(p):
    # modulo p^4 the exact products split their entries into two limbs
    # from p = 101 on; from p = 223 on, a row update could pass int64, so
    # the pivot loop updates through that product too; from p = 257 on
    # the matrices are stored at int64
    g = cyclic(p)
    if p < 509:  # the bar oracle's (p-1)^2 rows take minutes at 509
        assert integral_homology(g, 1).invariants == oracles.bar_integral_homology(g.cayley, 1)
    assert [integral_homology(g, n).invariants for n in (1, 2, 3)] == [[p], [], [p]]
