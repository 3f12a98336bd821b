"""Bundled group catalog and group-file serialization.

Every entry is defined by permutation generators, so a group file round
trips exactly: ``group_from_permutations`` numbers elements breadth-first
from the identity, which makes the Cayley table a pure function of the
generator list.

The bundled catalog covers every group of prime-power order up to 16 and
of order 27, the dihedral / quaternion / semidihedral families up to
order 256 (ids like ``64.dihedral``), and the named abelian group
C2 x C4 x C4 x C16 of order 512.  Ids follow the ``order.index``
convention of the standard small-group numbering.  Other orders are
ingested from user-provided files:

    { "name": "32.1", "degree": 32, "generators": [[...1-based...]],
      "tags": [] }

with a catalog directory holding one file per group plus ``index.json``
listing the names.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field

from pgph.coclass import _mod_affine_perms, family_permutations
from pgph.errors import DataError
from pgph.groups import FiniteGroup, group_from_permutations

PROVENANCE_BUNDLED = "bundled"
PROVENANCE_INGESTED = "ingested"


# ---------------------------------------------------------------------------
# Permutation builders


def _abelian_perms(orders: list[int]) -> list[list[int]]:
    """One disjoint cycle per invariant factor."""
    total = sum(orders)
    perms = []
    start = 0
    for m in orders:
        perm = list(range(total))
        for i in range(m):
            perm[start + i] = start + (i + 1) % m
        perms.append(perm)
        start += m
    return perms


def _direct_sum(left: list[list[int]], right: list[list[int]]) -> list[list[int]]:
    """Generators of a direct product acting on the disjoint union of points."""
    dl = len(left[0])
    dr = len(right[0])
    out = [perm + list(range(dl, dl + dr)) for perm in left]
    out += [list(range(dl)) + [dl + x for x in perm] for perm in right]
    return out


_Q8 = [[1, 2, 3, 0, 7, 4, 5, 6], [4, 5, 6, 7, 2, 3, 0, 1]]

# V4 = <(0 1), (2 3)> extended by a 4-cycle swapping the two transpositions;
# the extra 4-cycle on 4..7 keeps the extension split of order 16
_SWAP_EXTENSION = [
    [1, 0, 2, 3, 4, 5, 6, 7],
    [0, 1, 3, 2, 4, 5, 6, 7],
    [2, 3, 1, 0, 5, 6, 7, 4],
]

# C4 |x C4 with inversion action, right-regular on the words a^i b^j,
# point index i + 4 j
_C4_SEMI_C4 = [
    [((i + (1 if j % 2 == 0 else -1)) % 4) + 4 * j
     for j in range(4) for i in range(4)],
    [i + 4 * ((j + 1) % 4) for j in range(4) for i in range(4)],
]

# Pauli group <X, Z, iI> on the eight vectors (phase, axis),
# phase in {1, i, -1, -i}, point index 2 * phase + axis
_PAULI = [
    [1, 0, 3, 2, 5, 4, 7, 6],   # X: swap axes
    [0, 5, 2, 7, 4, 1, 6, 3],   # Z: negate the second axis
    [2, 3, 4, 5, 6, 7, 0, 1],   # iI: advance the phase
]


def _bundled_registry() -> dict[str, list[list[int]]]:
    reg: dict[str, list[list[int]]] = {}
    reg["1.1"] = [[0]]
    for p in (2, 3, 5, 7, 11, 13):
        reg[f"{p}.1"] = _abelian_perms([p])
    reg["4.1"] = _abelian_perms([4])
    reg["4.2"] = _abelian_perms([2, 2])
    reg["8.1"] = _abelian_perms([8])
    reg["8.2"] = _abelian_perms([4, 2])
    reg["8.3"] = family_permutations("dihedral", 3)
    reg["8.4"] = _Q8
    reg["8.5"] = _abelian_perms([2, 2, 2])
    reg["9.1"] = _abelian_perms([9])
    reg["9.2"] = _abelian_perms([3, 3])
    reg["16.1"] = _abelian_perms([16])
    reg["16.2"] = _abelian_perms([4, 4])
    reg["16.3"] = _SWAP_EXTENSION
    reg["16.4"] = _C4_SEMI_C4
    reg["16.5"] = _abelian_perms([8, 2])
    reg["16.6"] = _mod_affine_perms(8, 5)
    reg["16.7"] = family_permutations("dihedral", 4)
    reg["16.8"] = _mod_affine_perms(8, 3)
    reg["16.9"] = family_permutations("quaternion", 4)
    reg["16.10"] = _abelian_perms([4, 2, 2])
    reg["16.11"] = _direct_sum(family_permutations("dihedral", 3),
                               _abelian_perms([2]))
    reg["16.12"] = _direct_sum(_Q8, _abelian_perms([2]))
    reg["16.13"] = _PAULI
    reg["16.14"] = _abelian_perms([2, 2, 2, 2])
    reg["27.1"] = _abelian_perms([27])
    reg["27.2"] = _abelian_perms([9, 3])
    # Heisenberg group: strictly upper unitriangular 3x3 matrices over F_3
    reg["27.3"] = [[3, 4, 5, 6, 7, 8, 0, 1, 2], [0, 1, 2, 4, 5, 3, 8, 6, 7]]
    reg["27.4"] = _mod_affine_perms(9, 4)
    reg["27.5"] = _abelian_perms([3, 3, 3])
    for level in range(5, 9):
        order = 2 ** level
        for kind in ("dihedral", "quaternion", "semidihedral"):
            reg[f"{order}.{kind}"] = family_permutations(kind, level)
    reg["512.c2c4c4c16"] = _abelian_perms([2, 4, 4, 16])
    return reg


# ---------------------------------------------------------------------------
# Catalog entries


@dataclass(frozen=True)
class CatalogEntry:
    """A named group with its defining generators and provenance."""

    id: str
    group: FiniteGroup
    generators: tuple[tuple[int, ...], ...]
    provenance: str
    tags: tuple[str, ...] = field(default=())

    @property
    def order(self) -> int:
        return self.group.order


def _id_sort_key(name: str):
    order_part, _, index_part = name.partition(".")
    try:
        order = int(order_part)
    except ValueError:
        return (1, 0, 0, name)
    if index_part.isdigit():
        return (0, order, 0, f"{int(index_part):08d}")
    return (0, order, 1, index_part)


_BUNDLED: tuple[CatalogEntry, ...] | None = None
_BUNDLED_LOCK = threading.Lock()


def bundled_catalog() -> tuple[CatalogEntry, ...]:
    """All bundled groups, constructed, validated, and ordered by id."""
    global _BUNDLED
    with _BUNDLED_LOCK:
        if _BUNDLED is None:
            entries = []
            for name, perms in _bundled_registry().items():
                group = group_from_permutations(perms)
                order = int(name.partition(".")[0])
                if group.order != order:
                    raise DataError(f"bundled group {name} has order "
                                    f"{group.order}")
                entries.append(CatalogEntry(
                    id=name,
                    group=group,
                    generators=tuple(tuple(p) for p in perms),
                    provenance=PROVENANCE_BUNDLED,
                ))
            entries.sort(key=lambda e: _id_sort_key(e.id))
            _BUNDLED = tuple(entries)
    return _BUNDLED


def bundled_ids() -> list[str]:
    return [entry.id for entry in bundled_catalog()]


def bundled_group(name: str) -> FiniteGroup:
    for entry in bundled_catalog():
        if entry.id == name:
            return entry.group
    raise DataError(f"no bundled group {name!r}")


def bundled_order(order: int) -> list[CatalogEntry]:
    """The bundled entries of one order (empty for uncovered orders)."""
    return [e for e in bundled_catalog() if e.order == order]


# ---------------------------------------------------------------------------
# Group files


def _group_file_error(path: str, reason: str) -> DataError:
    return DataError(f"{os.path.basename(path)}: {reason}")


def _read_json(path: str):
    """The JSON value in a UTF-8 file; a DataError naming the file if none."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise _group_file_error(path, f"cannot read: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _group_file_error(path, f"not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _group_file_error(path, f"invalid JSON: {exc}") from exc


def load_group_file(path: str) -> CatalogEntry:
    """Read one JSON group file (1-based generator image lists)."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise _group_file_error(path, "top level is not an object")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise _group_file_error(path, "missing or empty \"name\"")
    degree = data.get("degree")
    # type(x) is int: JSON true and false load as bools, a subclass of int
    if type(degree) is not int or degree < 1:
        raise _group_file_error(path, "\"degree\" must be a positive integer")
    raw_gens = data.get("generators")
    if not isinstance(raw_gens, list) or not raw_gens:
        raise _group_file_error(path, "\"generators\" must be a nonempty list")
    perms = []
    for k, images in enumerate(raw_gens):
        if (not isinstance(images, list) or len(images) != degree
                or not all(type(x) is int for x in images)):
            raise _group_file_error(
                path, f"generator {k + 1} is not a list of {degree} integers")
        if sorted(images) != list(range(1, degree + 1)):
            raise _group_file_error(
                path, f"generator {k + 1} is not a permutation of 1..{degree}")
        perms.append(tuple(x - 1 for x in images))
    tags = data.get("tags", [])
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        raise _group_file_error(path, "\"tags\" must be a list of strings")
    try:
        group = group_from_permutations(perms)
    except DataError as exc:
        raise _group_file_error(path, str(exc)) from exc
    return CatalogEntry(id=name, group=group,
                        generators=tuple(perms),
                        provenance=PROVENANCE_INGESTED,
                        tags=tuple(tags))


def _plain_file_name(name: str) -> bool:
    """Whether ``name`` names a file in a directory: no path separator or NUL, neither . nor .."""
    return name not in (".", "..") and not any(c in name for c in "/\\\0")


def load_catalog(path: str) -> list[CatalogEntry]:
    """Read a catalog directory; a directory with no index is empty."""
    if not os.path.isdir(path):
        raise DataError(f"not a catalog directory: {path}")
    index_path = os.path.join(path, "index.json")
    # a dangling symlink is an index that cannot be read, not a missing one
    if not os.path.lexists(index_path):
        return []
    index = _read_json(index_path)
    names = index.get("groups") if isinstance(index, dict) else None
    if (not isinstance(names, list)
            or not all(isinstance(n, str) and n for n in names)):
        raise _group_file_error(index_path,
                                "expected {\"groups\": [names...]}")
    if len(set(names)) != len(names):
        raise _group_file_error(index_path, "duplicate group names")
    for name in names:
        if not _plain_file_name(name):
            raise _group_file_error(index_path, f"group name {name!r} is not a plain file name")
    entries = []
    for name in names:
        entry = load_group_file(os.path.join(path, f"{name}.json"))
        if entry.id != name:
            raise _group_file_error(
                os.path.join(path, f"{name}.json"),
                f"file says name {entry.id!r}, index says {name!r}")
        entries.append(entry)
    entries.sort(key=lambda e: _id_sort_key(e.id))
    return entries


def write_catalog(entries, path: str) -> None:
    """Write one file per entry plus index.json, in canonical id order."""
    entries = sorted(entries, key=lambda e: _id_sort_key(e.id))
    names = [entry.id for entry in entries]
    if len(set(names)) != len(names):
        raise DataError("duplicate entry ids")
    for name in names:
        if not _plain_file_name(name):
            raise DataError(f"entry id {name!r} is not a plain file name")
    os.makedirs(path, exist_ok=True)
    for entry in entries:
        payload = {
            "name": entry.id,
            "degree": len(entry.generators[0]),
            "generators": [[x + 1 for x in perm] for perm in entry.generators],
            "tags": list(entry.tags),
        }
        target = os.path.join(path, f"{entry.id}.json")
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.write("\n")
    with open(os.path.join(path, "index.json"), "w", encoding="utf-8") as handle:
        json.dump({"groups": names}, handle, sort_keys=True)
        handle.write("\n")
