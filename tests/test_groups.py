"""Group arithmetic, series and quotient chains against the naive oracle."""

import random

import numpy as np
import pytest

from pgph import (
    DataError,
    FiniteGroup,
    GroupHom,
    abelian_invariants,
    group_from_permutations,
    min_generators,
    quotient,
    quotient_chain,
    series,
)
from pgph.catalog import _bundled_registry, bundled_catalog
from pgph.config import DEFAULT_ORDER_CAP
from pgph.errors import BudgetExceededError
from pgph.groups import SERIES_KINDS, Subgroup, _log_p
from oracles import ToyGroup, perm_compose


# permutation generators for the worked examples
C4 = [(1, 2, 3, 0)]
C2 = [(1, 0)]
V4 = [(1, 0, 2, 3), (0, 1, 3, 2)]
D4 = [(1, 2, 3, 0), (0, 3, 2, 1)]                  # 4-cycle and a reflection
D8 = [(1, 2, 3, 4, 5, 6, 7, 0), (0, 7, 6, 5, 4, 3, 2, 1)]
# right regular representation of the quaternion group on 1,i,-1,-i,j,k,-j,-k
Q8 = [(1, 2, 3, 0, 7, 4, 5, 6), (4, 5, 6, 7, 2, 3, 0, 1)]
HEIS3 = [(3, 4, 5, 6, 7, 8, 0, 1, 2),              # translations and a shear
         (0, 1, 2, 4, 5, 3, 8, 6, 7)]              # generating Heis(F_3)


def bfs_elements(perms):
    """The element numbering contract of group_from_permutations, replayed
    with the oracle's composition."""
    gens = [tuple(p) for p in perms]
    identity = tuple(range(len(gens[0])))
    index = {identity: 0}
    elements = [identity]
    queue = [identity]
    while queue:
        nxt = []
        for elem in queue:
            for gen in gens:
                prod = perm_compose(elem, gen)
                if prod not in index:
                    index[prod] = len(elements)
                    elements.append(prod)
                    nxt.append(prod)
        queue = nxt
    return elements, index


def indices_of(index, elems):
    return sorted(index[e] for e in elems)


def test_cyclic_four_basics():
    g = group_from_permutations(C4)
    assert g.order == 4
    assert g.is_abelian
    assert g.prime == 2
    assert abelian_invariants(g) == [4]
    assert g.element_orders().tolist() == [1, 4, 2, 4]


def test_klein_four():
    g = group_from_permutations(V4)
    assert g.order == 4
    assert abelian_invariants(g) == [2, 2]


def test_dihedral_eight_structure():
    g = group_from_permutations(D4)
    toy = ToyGroup(D4)
    _, index = bfs_elements(D4)
    assert g.order == toy.order == 8
    assert not g.is_abelian
    assert g.order_histogram() == toy.order_histogram()
    assert g.center_elements().tolist() == indices_of(index, toy.center())
    derived = g.commutator_subgroup()
    want = toy.commutator_subgroup(toy.elements, toy.elements)
    assert derived.tolist() == indices_of(index, want)


def test_quaternion_eight_structure():
    g = group_from_permutations(Q8)
    toy = ToyGroup(Q8)
    assert g.order == toy.order == 8
    assert g.order_histogram() == {1: 1, 2: 1, 4: 6}
    assert g.order_histogram() == toy.order_histogram()
    assert len(g.center_elements()) == 2


def test_cayley_table_matches_oracle_composition():
    elements, index = bfs_elements(D4)
    g = group_from_permutations(D4)
    for a in range(g.order):
        for b in range(g.order):
            want = index[perm_compose(elements[a], elements[b])]
            assert g.cayley[a, b] == want
    for a in range(g.order):
        assert g.cayley[a, g.inv[a]] == 0


def test_validation_rejects_bad_tables():
    with pytest.raises(DataError):
        FiniteGroup([[0, 1], [1, 1]])              # not a Latin square
    with pytest.raises(DataError):
        FiniteGroup([[1, 0], [0, 1]])              # 0 is not the identity
    # a nonassociative Latin square with two-sided identity
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(DataError):
        FiniteGroup(loop)


def test_prime_validation():
    with pytest.raises(DataError):
        _ = group_from_permutations([(1, 2, 3, 4, 5, 0)]).prime  # order 6


def _cycle(n):
    return [tuple(range(1, n)) + (0,)]


def test_order_cap():
    # S_6, of order 720, from a 6-cycle and a transposition
    with pytest.raises(BudgetExceededError, match="permutation closure"):
        group_from_permutations([(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)])


def test_order_cap_boundary():
    assert DEFAULT_ORDER_CAP == 512
    assert group_from_permutations(_cycle(512)).order == 512
    with pytest.raises(BudgetExceededError, match="needs 513, budget allows 512"):
        group_from_permutations(_cycle(513))


def oracle_table(perms):
    elements, index = bfs_elements(perms)
    return np.array([[index[perm_compose(a, b)] for b in elements]
                     for a in elements], dtype=np.int32)


def assert_table_matches_oracle(perms):
    got = group_from_permutations(perms).cayley
    want = oracle_table(perms)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


REGISTRY = _bundled_registry()
ORACLE_IDS = [name for name in REGISTRY if int(name.split(".")[0]) <= 128]
ORACLE_IDS.append("512.c2c4c4c16")


@pytest.mark.parametrize("name", ORACLE_IDS)
def test_closure_table_matches_oracle(name):
    assert_table_matches_oracle(REGISTRY[name])


def test_closure_table_matches_oracle_after_generator_moves():
    rng = random.Random(20100612)
    first_of_order = {}
    for name, perms in REGISTRY.items():
        if len(perms) > 1 and int(name.split(".")[0]) <= 128:
            first_of_order.setdefault(name.split(".")[0], perms)
    assert len(first_of_order) >= 7
    for perms in first_of_order.values():
        gens = [tuple(g) for g in perms]
        rng.shuffle(gens)
        i, j = rng.sample(range(len(gens)), 2)
        gens[i] = perm_compose(gens[i], gens[j])        # g_i -> g_i * g_j
        assert_table_matches_oracle(gens)


def test_lower_central_series_dihedral_16():
    # dihedral group of order 16: successive terms of orders 16, 4, 2, 1
    g = group_from_permutations(D8)
    toy = ToyGroup(D8)
    _, index = bfs_elements(D8)
    got = series(g, "L")
    want = toy.lower_central_series()
    assert got.orders == [len(t) for t in want] == [16, 4, 2, 1]
    for sub, elems in zip(got.terms, want):
        assert list(sub.elements) == indices_of(index, elems)


def test_upper_central_series_matches_oracle():
    for perms in (D4, Q8, HEIS3):
        g = group_from_permutations(perms)
        toy = ToyGroup(perms)
        _, index = bfs_elements(perms)
        got = series(g, "Z")
        want = toy.upper_central_series()
        assert got.orders == [len(t) for t in want]
        for sub, elems in zip(got.terms, want):
            assert list(sub.elements) == indices_of(index, elems)


def test_derived_series_of_dihedral():
    g = group_from_permutations(D4)
    s = series(g, "D")
    assert s.orders == [8, 2, 1]


def test_lower_p_central_of_small_abelians():
    g = group_from_permutations(V4)
    assert series(g, "Lp").orders == [4, 1]
    c4 = group_from_permutations(C4)
    # commutators are trivial but squares are not: Lp sees the C2 inside C4
    assert series(c4, "Lp").orders == [4, 2, 1]
    assert series(c4, "L").orders == [4, 1]


def test_upper_p_central_of_cyclic_four():
    # successive layers of order p: 1 < C2 < C4
    c4 = group_from_permutations(C4)
    assert series(c4, "Zp").orders == [1, 2, 4]


def test_heisenberg_series():
    g = group_from_permutations(HEIS3)
    assert g.order == 27
    assert g.prime == 3
    assert g.order_histogram() == {1: 1, 3: 26}
    assert series(g, "L").orders == [27, 3, 1]
    assert series(g, "Z").orders == [1, 3, 27]
    assert series(g, "Zp").orders == [1, 3, 27]
    assert series(g, "Lp").orders == [27, 3, 1]


def test_quotient_center_of_q8():
    g = group_from_permutations(Q8)
    q, proj = quotient(g, g.center_elements())
    assert q.order == 4
    assert abelian_invariants(q) == [2, 2]         # Q8 over its center is Klein
    assert proj.is_surjective
    assert proj(0) == 0
    # homomorphisms that miss part of the target
    assert not GroupHom(g, q, np.zeros(g.order, dtype=np.int32)).is_surjective
    c4 = group_from_permutations(C4)
    square = GroupHom(c4, c4, c4.power_table(2))
    assert square.mapping.tolist() == [0, 2, 0, 2]
    assert not square.is_surjective


def test_quotient_rejects_bad_inputs():
    g = group_from_permutations(D4)
    with pytest.raises(DataError, match="not closed"):
        quotient(g, [0, 1, 2])
    with pytest.raises(DataError, match="not closed"):
        quotient(g, [0, 1, 1, 2, 3])                # repeats do not help
    # a non-normal subgroup: one generated by a non-central involution
    orders = g.element_orders()
    central = set(g.center_elements().tolist())
    refl = next(i for i in range(g.order) if orders[i] == 2 and i not in central)
    with pytest.raises(DataError, match="^subgroup is not normal$"):
        quotient(g, g.subgroup_generated([refl]))
    with pytest.raises(DataError, match="^subgroup is not normal$"):
        quotient(g, [0, refl])


def test_quotient_chain_descending_orders():
    g = group_from_permutations(D8)
    chain = quotient_chain(g, "L")
    assert [q.order for q in chain.quotients] == [16, 8, 4]
    assert all(h.is_surjective for h in chain.maps)
    assert chain.quotients[0].order == g.order     # column 1 is G itself


def test_quotient_chain_ascending_orders():
    d4 = group_from_permutations(D4)
    chain = quotient_chain(d4, "Z")
    # Z series of the dihedral group of order 8 is 1 < C2 < G
    assert [q.order for q in chain.quotients] == [8, 4]
    assert chain.projections[0].mapping.tolist() == list(range(8))


def test_quotient_chain_consistency():
    g = group_from_permutations(HEIS3)
    for kind in ("L", "Lp", "D", "Z", "Zp"):
        chain = quotient_chain(g, kind)
        for t, hom in enumerate(chain.maps):
            # projections commute with the chain maps
            left = hom.mapping[chain.projections[t].mapping]
            assert np.array_equal(left, chain.projections[t + 1].mapping)
        end = chain.hom(1, len(chain))
        assert end.is_surjective
        assert end.target.order == chain.quotients[-1].order


def test_quotient_chain_matches_the_definition_on_every_bundled_chain():
    # Q_t is G divided by one series term, with cosets numbered by their
    # least element of G; the chain builds it as an iterated quotient and
    # must give the same table, the same links and the same projections
    chains = 0
    for entry in bundled_catalog():
        g = entry.group
        if g.order == 1:
            continue
        for kind in SERIES_KINDS:
            ser = series(g, kind)
            terms = ser.terms[:0:-1] if ser.descending else ser.terms[:-1]
            chain = quotient_chain(g, kind)
            assert chain.quotients[0] is g
            assert len(chain) == len(terms)
            direct = [quotient(g, term) for term in terms]
            for t, (q, proj) in enumerate(direct):
                assert np.array_equal(chain.quotients[t].cayley, q.cayley), (entry.id, kind, t)
                assert np.array_equal(chain.projections[t].mapping, proj.mapping)
                if t:
                    link = np.empty(direct[t - 1][0].order, dtype=np.int32)
                    link[direct[t - 1][1].mapping] = proj.mapping
                    assert np.array_equal(chain.maps[t - 1].mapping, link)
            chains += 1
    assert chains == 235


def test_trivial_group_has_no_chain():
    g = group_from_permutations([(0,)])
    assert g.order == 1
    with pytest.raises(DataError):
        quotient_chain(g, "L")


def test_min_generators():
    assert min_generators(group_from_permutations(C4)) == [1]
    d4 = group_from_permutations(D4)
    gens = min_generators(d4)
    assert len(gens) == 2
    assert len(d4.subgroup_generated(gens)) == 8
    c2cube = group_from_permutations([(1, 0, 2, 3, 4, 5),
                                      (0, 1, 3, 2, 4, 5),
                                      (0, 1, 2, 3, 5, 4)])
    assert len(min_generators(c2cube)) == 3


def test_abelian_invariants_products():
    c4xc2 = group_from_permutations([(1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)])
    assert abelian_invariants(c4xc2) == [2, 4]
    c2cube = group_from_permutations([(1, 0, 2, 3, 4, 5),
                                      (0, 1, 3, 2, 4, 5),
                                      (0, 1, 2, 3, 5, 4)])
    assert abelian_invariants(c2cube) == [2, 2, 2]
    with pytest.raises(DataError):
        abelian_invariants(group_from_permutations(D4))


def test_hom_validation():
    c4 = group_from_permutations(C4)
    c2 = group_from_permutations(C2)
    GroupHom(c4, c2, [0, 1, 0, 1])
    with pytest.raises(DataError):
        GroupHom(c4, c2, [0, 1, 1, 0])


def test_log_p_is_exact():
    assert [_log_p(n, 2) for n in (1, 2, 8, 2 ** 70)] == [0, 1, 3, 70]
    assert _log_p(3 ** 40, 3) == 40
    for n, p in ((0, 2), (12, 2), (6, 3), (3 ** 40 + 3, 3), (-8, 2)):
        with pytest.raises(DataError, match=f"^{n} is not a power of {p}$"):
            _log_p(n, p)


def _c4():
    return group_from_permutations(C4)


@pytest.mark.parametrize("call, message", [
    (lambda: FiniteGroup([[0, 1]]), "must be square"),
    (lambda: FiniteGroup(np.zeros((0, 0))), "empty multiplication table"),
    (lambda: FiniteGroup([[0, 1], [1, 2]]), "entries out of range"),
    (lambda: GroupHom(_c4(), _c4(), [0, 1]), "length does not match"),
    (lambda: GroupHom(_c4(), _c4(), [0, 1, 2, 4]), "image out of range"),
    (lambda: GroupHom(_c4(), _c4(), [0, -1, 0, 1]), "image out of range"),
    (lambda: series(_c4(), "X"), "unknown series kind 'X'"),
    (lambda: quotient(_c4(), [0, 999]), "elements outside 0..3"),
    (lambda: quotient(_c4(), [-1, 0]), "elements outside 0..3"),
    (lambda: quotient(_c4(), [2]), "must contain the identity"),
    (lambda: quotient(_c4(), []), "must contain the identity"),
    (lambda: group_from_permutations([]), "at least one generating permutation"),
    (lambda: group_from_permutations([(0, 0)]), "not a permutation"),
    (lambda: group_from_permutations([(1, 0), (0, 1, 2)]), "not a permutation"),
    (lambda: quotient_chain(_c4(), "L").hom(0, 1), "indices out of range: 0, 1"),
    (lambda: quotient_chain(_c4(), "L").hom(2, 1), "indices out of range: 2, 1"),
    (lambda: quotient_chain(_c4(), "L").hom(1, 3), "indices out of range: 1, 3"),
], ids=["not-square", "empty", "entry-range", "hom-length", "hom-image-high",
        "hom-image-negative", "series-kind", "quotient-past-end",
        "quotient-negative", "no-identity", "empty-subgroup",
        "no-permutations", "repeated-point", "mixed-degrees", "hom-below-1",
        "hom-reversed", "hom-past-end"])
def test_group_guards_raise_data_errors(call, message):
    with pytest.raises(DataError, match=message):
        call()


def test_subgroup_membership():
    g = _c4()
    sub = Subgroup(g, (0, 2))
    assert 2 in sub and np.int32(0) in sub
    assert 1 not in sub and 3 not in sub
