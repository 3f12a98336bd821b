"""Minimal resolutions and induced maps against the bar complex oracle."""

import numpy as np
import pytest

from pgph import (
    bundled_catalog,
    bundled_group,
    group_from_permutations,
    homology_dims,
    induced_map,
    minimal_resolution,
    quotient,
    quotient_chain,
)
from pgph.catalog import _direct_sum
from pgph.errors import BudgetExceededError
from oracles import (
    act_on_rows,
    bar_homology_dims,
    bar_induced_rank,
    cyclic_product_rep,
    fp_rank_echelon,
    free_module_matrix,
    full_differential,
    kunneth_dims_abelian,
)

C2 = [(1, 0)]
C4 = [(1, 2, 3, 0)]
C8 = [(1, 2, 3, 4, 5, 6, 7, 0)]
V4 = [(1, 0, 2, 3), (0, 1, 3, 2)]
C4xC2 = [(1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)]
C2cube = [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)]
D4 = [(1, 2, 3, 0), (0, 3, 2, 1)]
Q8 = [(1, 2, 3, 0, 7, 4, 5, 6), (4, 5, 6, 7, 2, 3, 0, 1)]
C3 = [(1, 2, 0)]
C3xC3 = [(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3)]
HEIS3 = [(3, 4, 5, 6, 7, 8, 0, 1, 2), (0, 1, 2, 4, 5, 3, 8, 6, 7)]


def test_cyclic_groups_have_dimension_one_everywhere():
    for perms in (C2, C4, C8):
        g = group_from_permutations(perms)
        assert homology_dims(g, 6) == [1] * 7
    g = group_from_permutations(C3)
    assert homology_dims(g, 6) == [1] * 7


def test_abelian_dims_match_kunneth():
    cases = [
        (V4, [2, 2], 2, 5),
        (C4xC2, [4, 2], 2, 5),
        (C2cube, [2, 2, 2], 2, 4),
        (C3xC3, [3, 3], 3, 5),
    ]
    for perms, orders, p, n_max in cases:
        g = group_from_permutations(perms)
        assert homology_dims(g, n_max) == kunneth_dims_abelian(orders, p, n_max)


def test_wide_radicals_match_kunneth():
    # the level-3 radical of C3^4 is 2264 x 566, five column panels of
    # the F_p eliminator
    g = group_from_permutations(cyclic_product_rep([3] * 4))
    assert homology_dims(g, 3) == kunneth_dims_abelian([3] * 4, 3, 3)


@pytest.mark.slow
@pytest.mark.parametrize("orders", [[3] * 4, [5] * 3])
def test_wide_radicals_match_kunneth_to_degree_four(orders):
    g = group_from_permutations(cyclic_product_rep(orders))
    assert homology_dims(g, 4) == kunneth_dims_abelian(orders, orders[0], 4)


def test_order_64_products_match_kunneth():
    # H_n(G x H; F_2) is the sum of H_i(G) (x) H_(n-i)(H): the dims convolve.
    # The Pauli group times C2^2 runs GF(2) eliminations on a few thousand
    # sparse rows by degree 4
    gens = {e.id: [list(p) for p in e.generators] for e in bundled_catalog()}
    for left, right in (("16.13", "4.2"), ("16.8", "4.1")):
        product = group_from_permutations(_direct_sum(gens[left], gens[right]))
        assert product.order == 64
        a, b = (homology_dims(bundled_group(name), 4) for name in (left, right))
        assert homology_dims(product, 4) == [sum(a[i] * b[n - i] for i in range(n + 1))
                                             for n in range(5)]


def test_order_81_matches_kunneth():
    # the top of the paper's range: GF(3) eliminations on radicals of a
    # few thousand rows by degree 5
    g = group_from_permutations(cyclic_product_rep([3] * 4))
    assert homology_dims(g, 5) == kunneth_dims_abelian([3] * 4, 3, 5)
    # 27.3 x C3: the dims of a direct product convolve
    gens = {e.id: [list(p) for p in e.generators] for e in bundled_catalog()}
    product = group_from_permutations(_direct_sum(gens["27.3"], C3))
    assert product.order == 81
    a, b = homology_dims(bundled_group("27.3"), 6), homology_dims(group_from_permutations(C3), 6)
    dims = [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(7)]
    assert homology_dims(product, 6) == dims == [1, 3, 7, 13, 20, 28, 37]


def test_dihedral_and_quaternion_dims():
    d4 = group_from_permutations(D4)
    assert homology_dims(d4, 5) == [1, 2, 3, 4, 5, 6]
    q8 = group_from_permutations(Q8)
    # period four: 1, 2, 2, 1, then again from dimension one
    assert homology_dims(q8, 7) == [1, 2, 2, 1, 1, 2, 2, 1]


def test_dims_match_bar_complex_oracle():
    for perms, p, n_max in ((D4, 2, 3), (Q8, 2, 3), (C4xC2, 2, 3), (C3xC3, 3, 3)):
        g = group_from_permutations(perms)
        assert homology_dims(g, n_max) == bar_homology_dims(g.cayley, p, n_max)
    # every bundled group of order 8 to degree 5, the order-32 families to 2
    cases = [(f"8.{k}", 5) for k in range(1, 6)]
    cases += [(f"32.{family}", 2) for family in ("dihedral", "quaternion", "semidihedral")]
    for name, n_max in cases:
        g = bundled_group(name)
        assert homology_dims(g, n_max) == bar_homology_dims(g.cayley, 2, n_max), name


@pytest.mark.slow
@pytest.mark.parametrize("family", ["dihedral", "quaternion", "semidihedral"])
def test_dims_match_bar_complex_oracle_order_32(family):
    g = bundled_group(f"32.{family}")
    assert homology_dims(g, 3) == bar_homology_dims(g.cayley, 2, 3)


@pytest.mark.slow
def test_dims_match_bar_complex_oracle_heisenberg():
    g = group_from_permutations(HEIS3)
    assert homology_dims(g, 2) == bar_homology_dims(g.cayley, 3, 2)


def test_resolution_is_exact_and_minimal():
    for perms in (D4, Q8, C4xC2, HEIS3):
        g = group_from_permutations(perms)
        p = g.prime
        res = minimal_resolution(g, 4)
        size = g.order
        for n in range(1, 5):
            here = full_differential(res, n)
            below = full_differential(res, n - 1)
            assert not np.any(here @ below % p), "d compose d must vanish"
            # image of the generators lies in the radical: block sums vanish
            gens = res.gen_images[n]
            blocks = gens.reshape(len(gens), -1, size).sum(axis=2) % p
            assert not np.any(blocks)
        from pgph import linalg
        for n in range(4):
            dn = full_differential(res, n)
            nullity = dn.shape[0] - linalg.rank(dn, p)
            assert nullity == linalg.rank(full_differential(res, n + 1), p)


def test_identity_map_induces_identity_matrix():
    from pgph.groups import GroupHom
    g = group_from_permutations(D4)
    ident = GroupHom(g, g, np.arange(8))
    for n in range(4):
        got = induced_map(ident, n)
        assert np.array_equal(got, np.eye(got.shape[0], dtype=np.int64))


def test_cyclic_surjection_kills_degree_two():
    c4 = group_from_permutations(C4)
    c2 = group_from_permutations(C2)
    from pgph.groups import GroupHom
    hom = GroupHom(c4, c2, [0, 1, 0, 1])
    assert induced_map(hom, 0).tolist() == [[1]]
    assert induced_map(hom, 1).tolist() == [[1]]
    assert induced_map(hom, 2).tolist() == [[0]]
    # oracle agreement, including the vanishing in degree two
    for n in range(3):
        want = bar_induced_rank(c4.cayley, c2.cayley, hom.mapping, n, 2)
        from pgph import linalg
        assert linalg.rank(induced_map(hom, n), 2) == want


def test_induced_ranks_match_bar_oracle_on_central_quotients():
    for perms, n_max in ((D4, 3), (Q8, 3), (HEIS3, 2)):
        g = group_from_permutations(perms)
        q, proj = quotient(g, g.center_elements())
        p = g.prime
        from pgph import linalg
        for n in range(n_max + 1):
            got = linalg.rank(induced_map(proj, n), p)
            want = bar_induced_rank(g.cayley, q.cayley, proj.mapping, n, p)
            assert got == want, (perms, n)


def test_functoriality_along_a_chain():
    g = group_from_permutations(C8)
    chain = quotient_chain(g, "Zp")
    assert [q.order for q in chain.quotients] == [8, 4, 2]
    for n in range(5):
        direct = induced_map(chain.hom(1, 3), n)
        step = induced_map(chain.hom(1, 2), n) @ induced_map(chain.hom(2, 3), n) % 2
        assert np.array_equal(direct, step)


def test_budget_refusal(monkeypatch):
    from pgph.resolution import MinimalResolution
    g = group_from_permutations(D4)
    res = MinimalResolution(g, 2)
    monkeypatch.setenv("PGPH_BUDGET", "10")
    with pytest.raises(BudgetExceededError):
        res.extend_to(3)


def test_budget_of_a_later_call_leaves_an_extension_in_flight_alone(
        monkeypatch, cold_caches):
    from pgph import linalg
    g = bundled_group("16.3")
    kernel_basis = linalg._kernel_basis_mod
    calls = []

    def kernel_basis_with_a_cache_hit(a, p, q):
        # the budget shrinks, and a second caller reaches the cached
        # resolution under it, while the first caller is extending it
        if not calls:
            monkeypatch.setenv("PGPH_BUDGET", "fp=10")
            minimal_resolution(g, 0)
        calls.append(1)
        return kernel_basis(a, p, q)

    monkeypatch.delenv("PGPH_BUDGET", raising=False)
    monkeypatch.setattr(linalg, "_kernel_basis_mod", kernel_basis_with_a_cache_hit)
    res = minimal_resolution(g, 3)
    assert len(calls) == 3
    assert res.ranks == [1, 2, 4, 6]
    # the next call reads the new budget
    with pytest.raises(BudgetExceededError):
        minimal_resolution(g, 3)


@pytest.mark.parametrize("name, degree", [("8.3", 3), ("27.3", 2)])
def test_levels_are_stored_narrow_and_read_out_at_int64(cold_caches, name, degree):
    # q = p and q = p^(2e) (2^8 for order 8, 3^8 for order 27): levels are
    # kept at the narrowest unsigned dtype, results leave at int64
    from pgph import linalg
    from pgph.groups import _log_p
    from pgph.resolution import _chain_map

    g = bundled_group(name)
    p = g.prime
    hom = quotient_chain(g, "L").hom(1, 2)
    for q in (p, p ** (2 * (1 + _log_p(g.order, p)))):
        cm = _chain_map(hom, q)
        cm.extend_to(degree)
        store = linalg._store_dtype(q)
        for res in (cm.source, cm.target):
            assert all(gens.dtype == store for gens in res.gen_images[1:]), q
            assert res.tensored(degree).dtype == np.int64
        assert all(level.dtype == store for level in cm.levels), q
        assert cm.homology_matrix(degree).dtype == np.int64
    assert linalg._store_dtype(2 ** 8) == np.uint8
    assert linalg._store_dtype(3 ** 8) == np.uint16
    assert induced_map(hom, degree).dtype == np.int64


def test_resolution_transients_stay_small(cold_caches):
    # every matrix mod p lives at uint8 from the eliminators' outputs to
    # the caches, and the K D = 0 check runs in row chunks
    import tracemalloc

    g = bundled_group("16.14")
    tracemalloc.start()
    try:
        homology_dims(g, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000, peak


def test_generators_follow_the_greedy_rule():
    # level n takes, in order, each kernel row outside the span of the
    # radical I.K and of the kernel rows before it; orders 9 and 27 check
    # the radical's minus one on the diagonal in the mod-3 packing
    from pgph import linalg
    for entry in bundled_catalog():
        if not 1 < entry.order <= 27:
            continue
        g = entry.group
        res = minimal_resolution(g, 3)
        p = res.prime
        for n in range(1, 4):
            kernel = linalg.kernel_basis(full_differential(res, n - 1), p)
            radical = np.vstack([np.zeros((0, kernel.shape[1]), dtype=np.int64)] + [
                (act_on_rows(g.cayley, kernel, h) - kernel) % p
                for h in g.minimal_generators()])
            ranks = [fp_rank_echelon(np.vstack([radical, kernel[:i]]), p)
                     for i in range(len(kernel) + 1)]
            picks = [i for i in range(len(kernel)) if ranks[i + 1] > ranks[i]]
            assert np.array_equal(res.gen_images[n], kernel[picks]), (entry.id, n)


def test_coordinate_levels_match_full_width():
    # levels are built on D_n = d_n[:, lead[n - 1]]: it must have the
    # kernel of the full d_n, and lifts solved against the target's D_n
    # must equal lifts solved against its full differential
    from pgph import linalg
    from pgph.resolution import _chain_map
    for entry in bundled_catalog():
        if entry.order > 27:
            continue
        res = minimal_resolution(entry.group, 4)
        p = res.prime
        for n in range(5):
            want = linalg.kernel_basis(full_differential(res, n), p)
            got = linalg.kernel_basis(res.coordinate_differential(n), p)
            assert np.array_equal(got, want), (entry.id, n)
        if entry.order == 1:
            continue                    # the trivial group has no chain
        for kind in ("L", "Zp"):
            chain = quotient_chain(entry.group, kind)
            for i in range(1, len(chain.quotients)):
                cm = _chain_map(chain.hom(i, i + 1))
                cm.extend_to(4)
                for n in range(1, 5):
                    previous = free_module_matrix(cm.target.group.cayley,
                                                  cm.levels[n - 1], cm.hom.mapping)
                    targets = cm.source.gen_images[n] @ previous % p
                    full = linalg.solve(full_differential(cm.target, n), targets, p)
                    assert np.array_equal(cm.levels[n], full), (entry.id, kind, i, n)


def test_concurrent_extensions_build_each_level_once(monkeypatch):
    # more threads than cores extend one cold resolution and one mod-p^E
    # chain map to different degrees at once; each level is built once and
    # everything agrees with a serial run
    import sys
    import threading

    from pgph import integral_induced_triple, resolution

    g = bundled_group("16.8")
    hom = quotient_chain(g, "L").hom(1, 2)
    degrees = [4, 1, 3, 2, 4, 3, 1, 2]

    def work(d):
        return minimal_resolution(g, d).ranks[d], integral_induced_triple(hom, d)

    def cold():
        monkeypatch.setattr(resolution, "_RESOLUTIONS", {})
        monkeypatch.setattr(resolution, "_CHAIN_MAPS", {})

    cold()
    serial = [work(d) for d in degrees]
    cold()
    results = [None] * len(degrees)

    def run(i):
        results[i] = work(degrees[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(degrees))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == serial
    for res in resolution._RESOLUTIONS.values():
        assert len(res.gen_images) == len(res.ranks) == len(res.lead) + 1
    for cm in resolution._CHAIN_MAPS.values():
        assert len(cm.levels) <= max(degrees) + 1
