"""Coclass-one families of 2-groups and homology along the coclass tree.

A 2-group of order 2^l with nilpotency class l - 1 has coclass one.  Three
families realize this for every l: the dihedral groups, the generalized
quaternion groups, and (from order 16 on) the semidihedral groups.  In the
tree of coclass-one 2-groups the dihedral groups form the unique infinite
path; each quaternion or semidihedral group is a leaf whose parent is the
dihedral group of half its order.  Every edge is the quotient by the last
nontrivial lower-central term, a central subgroup of order 2.

Walking down the path, the induced maps in mod-2 homology

    nu(l, k) : H_n(G_{l+k}; F_2) -> H_n(G_l; F_2)

have nested images over k, and their dimensions settle as the window
grows.  ``tree_persistence`` reports those dimensions together with the
detected stable value, the finite-window estimate of the degree-n homology
of the whole tree.  ``verify_tree_h2_bound`` checks the degree-2
consequences: on path groups dim H_2 exceeds the stable dimension by
exactly one, on leaves it is at least the stable dimension, and the sum is
a lower bound for the number of relators in any presentation.
"""

from __future__ import annotations

import threading

import numpy as np

from pgph.config import DEFAULT_ORDER_CAP
from pgph.errors import BudgetExceededError, DataError
from pgph.groups import (FiniteGroup, GroupHom, abelianization_invariants,
                         group_from_permutations, quotient, series)
from pgph.linalg import rank
from pgph.resolution import induced_map, minimal_resolution

FAMILY_KINDS = ("dihedral", "quaternion", "semidihedral")

_MIN_LEVEL = {"dihedral": 3, "quaternion": 3, "semidihedral": 4}

_FAMILY_CACHE: dict[tuple[str, int], FiniteGroup] = {}
_FAMILY_LOCK = threading.Lock()


def _dihedral_perms(level: int) -> list[list[int]]:
    points = 2 ** (level - 1)
    rot = [(i + 1) % points for i in range(points)]
    ref = [(-i) % points for i in range(points)]
    return [rot, ref]


def _quaternion_perms(level: int) -> list[list[int]]:
    # Right-regular action on the 2^level words a^i b^j (j = 0, 1): every
    # subgroup contains the unique minimal subgroup, so no smaller faithful
    # permutation representation exists.
    m = 2 ** (level - 1)
    size = 2 * m
    by_a = [0] * size
    by_b = [0] * size
    for i in range(m):
        by_a[i] = (i + 1) % m              # a^i . a
        by_a[m + i] = m + (i - 1) % m      # a^i b . a = a^(i-1) b
        by_b[i] = m + i                    # a^i . b
        by_b[m + i] = (i + m // 2) % m     # a^i b . b = a^(i + m/2)
    return [by_a, by_b]


def _semidihedral_perms(level: int) -> list[list[int]]:
    m = 2 ** (level - 1)
    twist = 2 ** (level - 2) - 1
    rot = [(i + 1) % m for i in range(m)]
    ref = [(twist * i) % m for i in range(m)]
    return [rot, ref]


_BUILDERS = {
    "dihedral": _dihedral_perms,
    "quaternion": _quaternion_perms,
    "semidihedral": _semidihedral_perms,
}


def _nilpotency_class(group: FiniteGroup) -> int:
    return len(series(group, "L").terms) - 1


def _certify_member(group: FiniteGroup, kind: str, level: int) -> None:
    """Order, class, and derived-subgroup checks for a constructed level."""
    if group.order != 2 ** level:
        raise DataError(f"{kind} level {level}: order {group.order}, "
                        f"expected {2 ** level}")
    cls = _nilpotency_class(group)
    if cls != level - 1:
        raise DataError(f"{kind} level {level}: class {cls}, "
                        f"expected {level - 1}")
    derived = group.commutator_subgroup()
    if len(derived) != 2 ** (level - 2):
        raise DataError(f"{kind} level {level}: derived subgroup order "
                        f"{len(derived)}, expected {2 ** (level - 2)}")
    if int(group.element_orders()[derived].max()) != len(derived):
        raise DataError(f"{kind} level {level}: derived subgroup not cyclic")


def family_permutations(kind: str, level: int) -> list[list[int]]:
    """Defining generator permutations (0-based image lists) of a family member."""
    if kind not in FAMILY_KINDS:
        raise DataError(f"unknown family kind {kind!r}")
    if not isinstance(level, int) or level < _MIN_LEVEL[kind]:
        raise DataError(f"{kind} family starts at level {_MIN_LEVEL[kind]}, "
                        f"got {level!r}")
    if 2 ** level > DEFAULT_ORDER_CAP:
        raise BudgetExceededError(f"{kind} family level {level}",
                                  2 ** level, DEFAULT_ORDER_CAP)
    return _BUILDERS[kind](level)


def family(kind: str, level: int) -> FiniteGroup:
    """The coclass-one family member of order ``2 ** level``.

    Dihedral groups act on the 2^(level-1)-gon, semidihedral groups on the
    residues mod 2^(level-1) by i -> i + 1 and i -> (2^(level-2) - 1) i,
    and quaternion groups by their right-regular representation.  The
    construction is certified by order, nilpotency class, and
    derived-subgroup checks before being returned.
    """
    perms = family_permutations(kind, level)
    key = (kind, level)
    with _FAMILY_LOCK:
        cached = _FAMILY_CACHE.get(key)
        if cached is not None:
            return cached
        group = group_from_permutations(perms)
        _certify_member(group, kind, level)
        _FAMILY_CACHE[key] = group
        return group


def _invariant_signature(group: FiniteGroup):
    return (group.order,
            _nilpotency_class(group),
            tuple(sorted(group.order_histogram().items())),
            tuple(abelianization_invariants(group)),
            len(group.center_elements()),
            len(group.commutator_subgroup()))


def _last_lower_central(group: FiniteGroup):
    terms = series(group, "L").terms
    if len(terms) < 2:
        raise DataError("abelian group has no tree edge")
    return terms[-2]


def _tree_edge(kind: str, source: FiniteGroup, level: int) -> GroupHom:
    """The quotient of a level-(level + 1) group by its last nontrivial
    lower-central term, certified to be an order-2 kernel onto a copy of
    the dihedral group of order 2^level."""
    kernel = _last_lower_central(source)
    if kernel.order != 2:
        raise DataError(f"{kind} level {level + 1}: last lower-central term "
                        f"has order {kernel.order}, expected 2")
    quot, proj = quotient(source, kernel)
    reference = family("dihedral", level)
    if _invariant_signature(quot) != _invariant_signature(reference):
        raise DataError(f"no tree edge: the quotient of the level-{level + 1} "
                        f"{kind} group does not match the dihedral group of "
                        f"order {2 ** level}")
    return proj


def tree_links(kind: str, level: int) -> GroupHom:
    """The tree edge from level ``level + 1`` of a family down to level ``level``.

    The source is the family member of order 2^(level+1); the surjection is
    the quotient by its last nontrivial lower-central term, which must have
    order 2.  The target of the returned homomorphism is the quotient group
    itself, a renumbered copy of the dihedral group of order 2^level: the
    infinite path of the tree runs through the dihedral groups, so every
    parent is dihedral.  The match is certified by invariant comparison
    (order, class, order histogram, abelianization, center, derived
    subgroup), not by an isomorphism search.
    """
    if kind not in FAMILY_KINDS:
        raise DataError(f"unknown family kind {kind!r}")
    if not isinstance(level, int) or level < 3:
        raise DataError(f"tree links exist from level 3 up, got {level!r}")
    return _tree_edge(kind, family(kind, level + 1), level)


def _tower(kind: str, l_min: int, l_max: int):
    """Groups and connecting surjections for levels l_min..l_max.

    Built top down by iterated quotients, so consecutive links literally
    compose; each link is certified like a ``tree_links`` edge rather than
    trusted.
    """
    groups = {l_max: family(kind, l_max)}
    links: dict[int, GroupHom] = {}
    for lvl in range(l_max - 1, l_min - 1, -1):
        links[lvl] = _tree_edge(kind, groups[lvl + 1], lvl)
        groups[lvl] = links[lvl].target
    return groups, links


def tree_persistence(kind: str, degree: int, l_min: int, l_max: int,
                     budgets=None) -> dict:
    """Image dimensions of the homology maps down the coclass tree.

    For each level l in ``l_min..l_max - 1`` the report row lists
    dim Im(nu(l, k)) for k = 1 up to the window edge; the images are nested,
    so the last entry of a row is the intersection dimension over the whole
    window.  The single-step dimensions (k = 1) are scanned for a constant
    tail of length at least two; its value is reported as ``stabilizedDim``
    and estimates the stable degree-``degree`` homology of the tree.  A
    window without such a tail reports null rather than failing.
    """
    if kind not in FAMILY_KINDS:
        raise DataError(f"unknown family kind {kind!r}")
    if degree < 0:
        raise DataError(f"negative homology degree {degree}")
    if l_min < 3:
        raise DataError(f"tree levels start at 3, got l_min = {l_min}")
    if l_min >= l_max:
        raise DataError("window must contain at least one link "
                        f"(l_min = {l_min}, l_max = {l_max})")
    groups, links = _tower(kind, l_min, l_max)
    p = 2
    matrices = {lvl: induced_map(links[lvl], degree, budgets)
                for lvl in range(l_min, l_max)}
    image_dims = []
    for lvl in range(l_min, l_max):
        acc = matrices[lvl]
        row = [rank(acc, p)]
        for k in range(2, l_max - lvl + 1):
            # nu(lvl, k) factors through nu(lvl, k - 1); left factor is the
            # link leaving the new source level.
            acc = matrices[lvl + k - 1] @ acc % p
            row.append(rank(acc, p))
        image_dims.append(row)
    single = [row[0] for row in image_dims]
    stab_level = None
    stab_dim = None
    for i in range(len(single) - 1):
        tail = single[i:]
        if all(v == tail[0] for v in tail):
            stab_level = l_min + i
            stab_dim = tail[0]
            break
    return {
        "family": kind,
        "degree": degree,
        "levels": list(range(l_min, l_max + 1)),
        "imageDims": image_dims,
        "singleStepDims": single,
        "intersectionDims": [row[-1] for row in image_dims],
        "stabilizedLevel": stab_level,
        "stabilizedDim": stab_dim,
    }


def verify_tree_h2_bound(kind: str, l_min: int, l_max: int,
                         budgets=None) -> dict:
    """Check the degree-2 consequences of tree stabilization on a family.

    The stable degree-2 dimension is estimated on the dihedral path (levels
    3 up to at least 5).  Path groups must then satisfy
    dim H_2 = estimate + 1 exactly, and that value is also the reported
    lower bound for the number of relators in any presentation; leaf
    families (quaternion, semidihedral) must satisfy dim H_2 >= estimate.
    Failures are recorded in the report, never raised.  An empty window
    yields an empty report.
    """
    if kind not in FAMILY_KINDS:
        raise DataError(f"unknown family kind {kind!r}")
    if l_min > l_max:
        return {"family": kind, "levels": [], "estimatedStableDim": None,
                "checks": [], "passed": True}
    if l_min < _MIN_LEVEL[kind]:
        raise DataError(f"{kind} family starts at level {_MIN_LEVEL[kind]}, "
                        f"got l_min = {l_min}")
    estimate = tree_persistence("dihedral", 2, 3, max(l_max, 5),
                                budgets)["stabilizedDim"]
    if estimate is None:
        return {"family": kind, "levels": list(range(l_min, l_max + 1)),
                "estimatedStableDim": None, "checks": [], "passed": False,
                "reason": "no stabilization in the estimation window"}
    leaf = kind != "dihedral"
    members = {lvl: family(kind, lvl) for lvl in range(l_min, l_max + 1)}
    checks = []
    for lvl, group in members.items():
        h2 = minimal_resolution(group, 2, budgets=budgets).ranks[2]
        passed = h2 >= estimate if leaf else h2 == estimate + 1
        checks.append({
            "level": lvl,
            "order": group.order,
            "h2Dim": h2,
            "leaf": leaf,
            "passed": passed,
            "relatorBound": None if leaf else estimate + 1,
        })
    return {
        "family": kind,
        "levels": list(range(l_min, l_max + 1)),
        "estimatedStableDim": estimate,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
