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
grows.  The quotients down from a member are its lower central quotient
chain (``quotient_chain``), each one certified against the dihedral group
of its order (``_tower``), so these dimensions are entries above the
diagonal of the member's lower central persistence matrix, the one that
``persistence_matrix`` returns.  ``tree_persistence`` reports them
together with the detected stable value, the finite-window estimate of the
degree-n homology of the whole tree.  ``verify_tree_h2_bound`` checks the
degree-2 consequences: on path groups dim H_2 exceeds the stable dimension
by exactly one, on leaves it is at least the stable dimension, and the sum
is a lower bound for the number of relators in any presentation.
"""

from __future__ import annotations

import threading

from pgph.config import DEFAULT_ORDER_CAP
from pgph.errors import BudgetExceededError, DataError
from pgph.groups import (FiniteGroup, GroupHom, abelianization_invariants,
                         group_from_permutations, quotient_chain, series)
from pgph.persistence import _matrix_for_chain
from pgph.resolution import minimal_resolution

FAMILY_KINDS = ("dihedral", "quaternion", "semidihedral")

_MIN_LEVEL = {"dihedral": 3, "quaternion": 3, "semidihedral": 4}

_FAMILY_CACHE: dict[tuple[str, int], FiniteGroup] = {}
_TOWERS: dict[tuple[str, int],
              tuple[tuple[FiniteGroup, ...], tuple[GroupHom, ...]]] = {}
_FAMILY_LOCK = threading.RLock()


def _mod_affine_perms(modulus: int, mult: int) -> list[list[int]]:
    """i -> i + 1 and i -> mult * i on Z/modulus."""
    return [[(i + 1) % modulus for i in range(modulus)],
            [(mult * i) % modulus for i in range(modulus)]]


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


_BUILDERS = {
    "dihedral": lambda level: _mod_affine_perms(2 ** (level - 1), -1),
    "quaternion": _quaternion_perms,
    "semidihedral": lambda level: _mod_affine_perms(2 ** (level - 1),
                                                    2 ** (level - 2) - 1),
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


def _tower(kind: str, l_max: int):
    """The level-``l_max`` family member and its quotients down to level 3.

    Returns ``(groups, links)`` top first: ``groups[i]`` has level
    ``l_max - i`` and ``links[i]`` maps it onto ``groups[i + 1]``.  They
    are the first ``l_max - 2`` quotients of the lower central quotient
    chain of the member and the maps between them: each link divides by
    the last nontrivial lower-central term.  Each quotient is certified to
    match the dihedral group of its order by invariants (order, class,
    order histogram, abelianization, center, derived subgroup), not by an
    isomorphism search.  Each tower is built once and cached beside the
    family members.
    """
    key = (kind, l_max)
    with _FAMILY_LOCK:
        if key not in _TOWERS:
            chain = quotient_chain(family(kind, l_max), "L")
            groups = chain.quotients[:l_max - 2]
            for level, quot in zip(range(l_max - 1, 2, -1), groups[1:]):
                if (_invariant_signature(quot)
                        != _invariant_signature(family("dihedral", level))):
                    raise DataError(f"no tree edge: the quotient of the level-"
                                    f"{level + 1} {kind} group does not match the "
                                    f"dihedral group of order {2 ** level}")
            _TOWERS[key] = (groups, chain.maps[:l_max - 3])
        return _TOWERS[key]


def tree_links(kind: str, level: int) -> GroupHom:
    """The tree edge from level ``level + 1`` of a family down to level ``level``.

    The source is the family member of order 2^(level+1); the surjection is
    the quotient by its last nontrivial lower-central term, which must have
    order 2.  The target of the returned homomorphism is the quotient group
    itself, a renumbered copy of the dihedral group of order 2^level: the
    infinite path of the tree runs through the dihedral groups, so every
    parent is dihedral.  The edge is the top link of the certified tower
    (see ``_tower``).
    """
    if kind not in FAMILY_KINDS:
        raise DataError(f"unknown family kind {kind!r}")
    if not isinstance(level, int) or level < 3:
        raise DataError(f"tree links exist from level 3 up, got {level!r}")
    return _tower(kind, level + 1)[1][0]


def tree_persistence(kind: str, degree: int, l_min: int, l_max: int) -> dict:
    """Image dimensions of the homology maps down the coclass tree.

    For each level l in ``l_min..l_max - 1`` the report row lists
    dim Im(nu(l, k)) for k = 1 up to the window edge; the images are nested,
    so the last entry of a row is the intersection dimension over the whole
    window.  The row of level l is the column of level l in the persistence
    matrix of the tower from ``l_max`` down to ``l_min``, read upwards from
    the diagonal.  The single-step dimensions (k = 1) are scanned for a
    constant tail of length at least two; its value is reported as
    ``stabilizedDim`` and estimates the stable degree-``degree`` homology
    of the tree.  A window without such a tail reports null rather than
    failing.
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
    groups, links = _tower(kind, l_max)
    width = l_max - l_min + 1
    m = _matrix_for_chain(groups[:width], links[:width - 1], "L", degree, "").matrix
    # groups[i] has level l_max - i, so nu(lvl, k) is entry (i, j) with
    # i = l_max - lvl - k and j = l_max - lvl
    image_dims = [[int(m[l_max - lvl - k, l_max - lvl])
                   for k in range(1, l_max - lvl + 1)]
                  for lvl in range(l_min, l_max)]
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


def verify_tree_h2_bound(kind: str, l_min: int, l_max: int) -> dict:
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
    estimate = tree_persistence("dihedral", 2, 3, max(l_max, 5))["stabilizedDim"]
    if estimate is None:
        return {"family": kind, "levels": list(range(l_min, l_max + 1)),
                "estimatedStableDim": None, "checks": [], "passed": False,
                "reason": "no stabilization in the estimation window"}
    leaf = kind != "dihedral"
    members = {lvl: family(kind, lvl) for lvl in range(l_min, l_max + 1)}
    checks = []
    for lvl, group in members.items():
        h2 = minimal_resolution(group, 2).ranks[2]
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
