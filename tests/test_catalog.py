"""Bundled catalog contents and group-file round trips."""

import json
import os

import numpy as np
import pytest

from pgph.catalog import (
    CatalogEntry,
    bundled_catalog,
    bundled_group,
    bundled_ids,
    bundled_order,
    load_catalog,
    load_group_file,
    write_catalog,
)
from pgph.coclass import _invariant_signature
from pgph.errors import DataError
from pgph.groups import abelianization_invariants


def test_bundled_catalog_shape():
    entries = bundled_catalog()
    assert len(entries) == 48
    counts = {}
    for entry in entries:
        counts[entry.order] = counts.get(entry.order, 0) + 1
    assert counts == {
        1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 7: 1, 8: 5, 9: 2, 11: 1, 13: 1,
        16: 14, 27: 5, 32: 3, 64: 3, 128: 3, 256: 3, 512: 1,
    }
    # numeric ids exhaust the classification at the fully covered orders
    assert [e.id for e in bundled_order(8)] == [f"8.{i}" for i in range(1, 6)]
    assert [e.id for e in bundled_order(16)] == [f"16.{i}" for i in range(1, 15)]
    assert [e.id for e in bundled_order(27)] == [f"27.{i}" for i in range(1, 6)]
    assert all(e.provenance == "bundled" for e in entries)


def test_bundled_entries_pairwise_distinct():
    # no two entries are isomorphic: each differs from every other in an
    # invariant signature (order, class, element orders, abelianization,
    # centre, derived subgroup)
    seen = {}
    for entry in bundled_catalog():
        sig = _invariant_signature(entry.group)
        assert sig not in seen, (seen.get(sig), entry.id)
        seen[sig] = entry.id


def test_bundled_ids_are_canonically_sorted():
    ids = bundled_ids()
    assert ids.index("8.1") < ids.index("8.5") < ids.index("16.2")
    # numeric index sorts numerically, not lexicographically
    assert ids.index("16.2") < ids.index("16.10")
    # named family ids sort after numeric ids of the same order
    assert ids[-1] == "512.c2c4c4c16"
    assert ids.index("32.dihedral") < ids.index("32.quaternion")


def test_bundled_group_lookup():
    assert bundled_group("1.1").order == 1
    assert bundled_group("64.dihedral").order == 64
    q8 = bundled_group("8.4")
    assert q8.order_histogram() == {1: 1, 2: 1, 4: 6}
    with pytest.raises(DataError):
        bundled_group("6.1")


def test_order_histograms_count_element_orders():
    # one count per element order, keys ascending, over every bundled group
    for entry in bundled_catalog():
        orders = entry.group.element_orders().tolist()
        want = {k: orders.count(k) for k in sorted(set(orders))}
        histogram = entry.group.order_histogram()
        assert list(histogram.items()) == list(want.items()), entry.id
        assert all(type(k) is int and type(v) is int for k, v in histogram.items())


def test_bundled_order_16_spot_checks():
    # the three hand-built entries of order 16, pinned by cheap invariants
    groups = {e.id: e.group for e in bundled_order(16)}
    g = groups["16.3"]
    assert g.order_histogram() == {1: 1, 2: 7, 4: 8}
    assert abelianization_invariants(g) == [2, 4]
    g = groups["16.4"]
    assert g.order_histogram() == {1: 1, 2: 3, 4: 12}
    assert abelianization_invariants(g) == [2, 4]
    g = groups["16.13"]
    assert g.order_histogram() == {1: 1, 2: 7, 4: 8}
    assert abelianization_invariants(g) == [2, 2, 2]


def test_bundled_abelian_entries():
    assert abelianization_invariants(bundled_group("16.2")) == [4, 4]
    assert abelianization_invariants(bundled_group("16.14")) == [2, 2, 2, 2]
    big = bundled_group("512.c2c4c4c16")
    assert big.order == 512
    assert abelianization_invariants(big) == [2, 4, 4, 16]


def test_round_trip_preserves_cayley_tables(tmp_path):
    entries = bundled_catalog()
    write_catalog(entries, str(tmp_path))
    loaded = load_catalog(str(tmp_path))
    assert [e.id for e in loaded] == [e.id for e in entries]
    for old, new in zip(entries, loaded):
        assert new.provenance == "ingested"
        assert new.generators == old.generators
        assert np.array_equal(new.group.cayley, old.group.cayley)


def test_round_trip_keeps_tags(tmp_path):
    entry = load_entry_fixture(tmp_path, tags=["abelian", "cyclic"])
    write_catalog([entry], str(tmp_path / "out"))
    loaded = load_catalog(str(tmp_path / "out"))
    assert loaded[0].tags == ("abelian", "cyclic")


def load_entry_fixture(tmp_path, tags=()):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps({
        "name": "c4",
        "degree": 4,
        "generators": [[2, 3, 4, 1]],
        "tags": list(tags),
    }))
    return load_group_file(str(path))


def test_load_group_file_valid(tmp_path):
    entry = load_entry_fixture(tmp_path)
    assert entry.id == "c4"
    assert entry.group.order == 4
    assert entry.provenance == "ingested"
    assert entry.generators == ((1, 2, 3, 0),)


def write_bad_file(tmp_path, payload) -> str:
    path = tmp_path / "bad.json"
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    elif isinstance(payload, str):
        path.write_text(payload)
    else:
        path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("payload,fragment", [
    ("{not json", "invalid JSON"),
    ([1, 2], "not an object"),
    ({"degree": 4, "generators": [[2, 3, 4, 1]]}, "name"),
    ({"name": "x", "degree": "4", "generators": [[2, 3, 4, 1]]}, "degree"),
    ({"name": "x", "degree": 4, "generators": []}, "generators"),
    ({"name": "x", "degree": 4, "generators": [[2, 3, 4]]},
     "not a list of 4 integers"),
    ({"name": "x", "degree": 4, "generators": [[2, 2, 4, 1]]},
     "not a permutation"),
    ({"name": "x", "degree": 4, "generators": [[0, 1, 2, 3]]},
     "not a permutation"),
    ({"name": "x", "degree": 4, "generators": [[2, 3, 4, 1]], "tags": "cyc"},
     "tags"),
    # JSON booleans are not integers, though Python's bool is an int
    ({"name": "x", "degree": True, "generators": [[1]]}, "degree"),
    ({"name": "x", "degree": 2, "generators": [[2, True]]},
     "not a list of 2 integers"),
    (b'{"name": "\xff"}', "not UTF-8"),
])
def test_load_group_file_rejects(tmp_path, payload, fragment):
    path = write_bad_file(tmp_path, payload)
    with pytest.raises(DataError) as err:
        load_group_file(path)
    # errors name the offending file
    assert "bad.json" in str(err.value)
    assert fragment in str(err.value)


def test_load_group_file_missing(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_group_file(str(tmp_path / "absent.json"))


def test_load_catalog_requires_directory(tmp_path):
    with pytest.raises(DataError, match="not a catalog directory"):
        load_catalog(str(tmp_path / "nowhere"))


def test_load_catalog_empty_directory(tmp_path):
    assert load_catalog(str(tmp_path)) == []


def test_load_catalog_rejects_duplicate_index_names(tmp_path):
    (tmp_path / "index.json").write_text(json.dumps({"groups": ["a", "a"]}))
    with pytest.raises(DataError, match="duplicate"):
        load_catalog(str(tmp_path))


def test_load_catalog_rejects_name_mismatch(tmp_path):
    (tmp_path / "index.json").write_text(json.dumps({"groups": ["c2"]}))
    (tmp_path / "c2.json").write_text(json.dumps({
        "name": "other", "degree": 2, "generators": [[2, 1]], "tags": [],
    }))
    with pytest.raises(DataError, match="index says"):
        load_catalog(str(tmp_path))


def test_load_catalog_rejects_bad_index(tmp_path):
    (tmp_path / "index.json").write_text(json.dumps({"entries": ["a"]}))
    with pytest.raises(DataError, match="groups"):
        load_catalog(str(tmp_path))


@pytest.mark.parametrize("make_index", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b'{"groups": ["\xe9"]}'),
    lambda path: path.symlink_to(path.parent / "missing.json"),
])
def test_load_catalog_rejects_unreadable_index(tmp_path, make_index):
    # a directory, bytes that are not UTF-8, or a dangling symlink
    make_index(tmp_path / "index.json")
    with pytest.raises(DataError, match="^index.json: (cannot read|not UTF-8)"):
        load_catalog(str(tmp_path))


def test_load_catalog_missing_member_file(tmp_path):
    (tmp_path / "index.json").write_text(json.dumps({"groups": ["c2"]}))
    with pytest.raises(DataError, match="c2.json"):
        load_catalog(str(tmp_path))


def test_write_catalog_rejects_duplicate_ids(tmp_path):
    entry = load_entry_fixture(tmp_path)
    twin = CatalogEntry(id=entry.id, group=entry.group,
                        generators=entry.generators, provenance="ingested")
    with pytest.raises(DataError, match="duplicate"):
        write_catalog([entry, twin], str(tmp_path / "out"))


# names that are not plain file names: a NUL, path separators, . and ..
NOT_FILE_NAMES = ["a\0b", "../outside", "a/b", "a\\b", ".", ".."]


def _index_outside(tmp_path, name):
    """A catalog directory under ``tmp_path`` whose index lists ``name``,
    and a valid group file of that name where "../outside" leads."""
    catalog = tmp_path / "catalog"
    catalog.mkdir()
    (catalog / "index.json").write_text(json.dumps({"groups": [name]}))
    (tmp_path / "outside.json").write_text(json.dumps({
        "name": name, "degree": 2, "generators": [[2, 1]], "tags": [],
    }))
    return catalog


@pytest.mark.parametrize("name", NOT_FILE_NAMES)
def test_load_catalog_rejects_names_that_are_not_file_names(tmp_path, name):
    catalog = _index_outside(tmp_path, name)
    with pytest.raises(DataError, match="^index.json: group name .* is not a plain file name"):
        load_catalog(str(catalog))


@pytest.mark.parametrize("name", NOT_FILE_NAMES)
def test_write_catalog_rejects_ids_that_are_not_file_names(tmp_path, name):
    entry = load_entry_fixture(tmp_path)
    bad = CatalogEntry(id=name, group=entry.group,
                       generators=entry.generators, provenance="ingested")
    out = tmp_path / "out"
    with pytest.raises(DataError, match="is not a plain file name"):
        write_catalog([entry, bad], str(out))
    # nothing is written, inside the target or outside it
    assert not out.exists() and not (tmp_path / "outside.json").exists()


def test_write_catalog_emits_sorted_index(tmp_path):
    entries = bundled_order(8) + bundled_order(4)
    out = tmp_path / "out"
    write_catalog(entries, str(out))
    with open(out / "index.json", "r", encoding="utf-8") as handle:
        index = json.load(handle)
    assert index == {"groups": ["4.1", "4.2"] + [f"8.{i}" for i in range(1, 6)]}
    assert sorted(os.listdir(out)) == sorted(
        ["index.json"] + [f"{n}.json" for n in index["groups"]])
