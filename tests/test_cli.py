"""Exit codes, output formats, and determinism of the command line."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import pgph
from pgph import resolution
from pgph.catalog import bundled_group, bundled_order, write_catalog
from pgph.cli import main
from pgph.persistence import persistence_matrix


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors_exit_two(capsys):
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["nonsense"])[0] == 2
    assert run(capsys, ["barcode", "--group", "catalog:8.1",
                        "--series", "X", "--degree", "1"])[0] == 2
    assert run(capsys, ["coclass", "--family", "dihedral",
                        "--levels", "3-5", "--degree", "1"])[0] == 2
    assert run(capsys, ["matrix", "--group", "catalog:8.1",
                        "--series", "L"])[0] == 2


def test_data_errors_exit_four(capsys, tmp_path):
    code, _, err = run(capsys, ["matrix", "--group", "catalog:6.1",
                                "--series", "L", "--degree", "1"])
    assert code == 4 and "no bundled group" in err
    assert run(capsys, ["matrix", "--group", str(tmp_path / "no.json"),
                        "--series", "L", "--degree", "1"])[0] == 4
    assert run(capsys, ["classify", "--catalog", "bundled6",
                        "--series", "Z", "--max-degree", "2"])[0] == 4
    assert run(capsys, ["classify", "--catalog", str(tmp_path / "none"),
                        "--series", "Z", "--max-degree", "2"])[0] == 4
    (tmp_path / "unreadable" / "index.json").mkdir(parents=True)
    code, _, err = run(capsys, ["classify", "--catalog", str(tmp_path / "unreadable"),
                                "--series", "Z", "--max-degree", "2"])
    assert code == 4 and "index.json: cannot read" in err
    assert "Traceback" not in err
    (tmp_path / "dangling").mkdir()
    (tmp_path / "dangling" / "index.json").symlink_to(tmp_path / "missing.json")
    code, _, err = run(capsys, ["classify", "--catalog", str(tmp_path / "dangling"),
                                "--series", "Z", "--max-degree", "2"])
    assert code == 4 and "index.json: cannot read" in err
    boolean = tmp_path / "y.json"
    boolean.write_text(json.dumps({"name": "y", "degree": 2, "generators": [[2, True]]}))
    code, _, err = run(capsys, ["homology", "--group", str(boolean), "--max-degree", "2"])
    assert code == 4 and "not a list of 2 integers" in err
    # window starts below the smallest family member
    assert run(capsys, ["coclass", "--family", "dihedral",
                        "--levels", "2..5", "--degree", "1"])[0] == 4
    # an output path in a missing directory is refused, not a traceback,
    # and nothing is written: classify opens --csv before it prints
    missing = tmp_path / "no" / "dir"
    for argv in (["matrix", "--group", "catalog:8.3", "--series", "L",
                  "--degree", "1", "--json", str(missing / "x.json")],
                 ["barcode", "--group", "catalog:8.3", "--series", "L",
                  "--degree", "1", "--svg", str(missing / "a.svg")],
                 ["integral", "--group", "catalog:8.3", "--series", "L",
                  "--max-degree", "1", "--json", str(missing / "i.json")],
                 ["classify", "--catalog", "bundled8", "--series", "L",
                  "--max-degree", "1", "--csv", str(missing / "x.csv")]):
        code, out, err = run(capsys, argv)
        assert code == 4 and "cannot write" in err, argv
        assert out == "", argv
        assert "Traceback" not in err


@pytest.mark.parametrize("name", ["a\0b", "../outside", "a/b", "a\\b", ".", ".."])
def test_catalog_names_that_are_not_file_names_exit_four(capsys, tmp_path, name):
    # the index names a file in the catalog directory; a valid group file
    # where "../outside" leads is never read
    catalog = tmp_path / "catalog"
    catalog.mkdir()
    (catalog / "index.json").write_text(json.dumps({"groups": [name]}))
    (tmp_path / "outside.json").write_text(json.dumps({
        "name": name, "degree": 2, "generators": [[2, 1]], "tags": []}))
    code, out, err = run(capsys, ["classify", "--catalog", str(catalog),
                                  "--series", "Z", "--max-degree", "2"])
    assert code == 4 and out == ""
    assert err.startswith("data error: index.json: group name ")
    assert "not a plain file name" in err and "Traceback" not in err


def test_budget_exhaustion_exits_three(capsys, monkeypatch, cold_caches):
    monkeypatch.setenv("PGPH_BUDGET", "10")
    code, _, err = run(capsys, ["matrix", "--group", "catalog:16.7",
                                "--series", "L", "--degree", "3"])
    assert code == 3
    assert "budget" in err


def test_classify_blames_a_bad_budget_on_no_group(capsys, monkeypatch):
    monkeypatch.setenv("PGPH_BUDGET", "abc")
    code, out, err = run(capsys, ["classify", "--catalog", "bundled8",
                                  "--series", "L", "--max-degree", "2"])
    assert code == 4 and out == ""
    assert err == "data error: unparsable PGPH_BUDGET value: 'abc'\n"


def test_classify_all_refused_exits_three(capsys, monkeypatch):
    # every group is refused, so the report gives way to the first refusal
    monkeypatch.setenv("PGPH_BUDGET", "int=40")
    code, out, err = run(capsys, ["classify", "--catalog", "bundled8",
                                  "--series", "Zp", "--max-degree", "3",
                                  "--integral"])
    assert code == 3 and out == ""
    assert err.startswith("budget exceeded: 8.1: resolution radical")
    assert "Traceback" not in err


def _corrupt_last_kernel_row(kernel_split):
    # the eliminator gets one entry of one kernel vector wrong: the last
    # row at the last pivot row of the differential
    def wrapped(a, p, q):
        lead, piv, x = kernel_split(a, p, q)
        if x.size:
            x[-1, -1] = (int(x[-1, -1]) + 1) % q
        return lead, piv, x
    return wrapped


def _drop_last_pivot(radical_pivots):
    # one radical vector too few: a redundant generator is picked
    return lambda lead, piv, x, cols, p: radical_pivots(lead, piv, x, cols, p)[:-1]


def _add_a_pivot(radical_pivots):
    # one radical vector too many: a needed generator is left out
    def wrapped(lead, piv, x, cols, p):
        pivots = radical_pivots(lead, piv, x, cols, p)
        # the radical has one column per kernel row
        spare = sorted(set(range(len(lead))) - set(pivots))
        return sorted(pivots + spare[:1])
    return wrapped


def test_consistency_error_exits_five(capsys, monkeypatch, cold_caches):
    # each fault trips its own check of the resolution
    for name, fault, message in (
            ("_kernel_split", _corrupt_last_kernel_row, "is not in its kernel"),
            ("_radical_pivots", _drop_last_pivot, "is not minimal"),
            ("_radical_pivots", _add_a_pivot, "is not onto")):
        with monkeypatch.context() as patch:
            patch.setattr(resolution, "_RESOLUTIONS", {})
            patch.setattr(resolution, "_CHAIN_MAPS", {})
            patch.setattr(resolution.linalg, name,
                          fault(getattr(resolution.linalg, name)))
            for argv in (["homology", "--group", "catalog:8.3", "--max-degree", "2"],
                         ["classify", "--catalog", "bundled8", "--series", "L",
                          "--max-degree", "2"],
                         ["homology", "--group", "catalog:27.3", "--max-degree", "2"]):
                code, out, err = run(capsys, argv)
                assert code == 5 and out == ""
                assert err.startswith("internal consistency error:")
                assert message in err, (name, err)
                assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["classify", "--catalog", "bundled8", "--series", "L",
     "--max-degree", "0", "--integral"],
    ["classify", "--catalog", "bundled8", "--series", "L",
     "--max-degree", "0"],
    ["homology", "--group", "catalog:8.3", "--max-degree", "-1"],
    ["integral", "--group", "catalog:8.3", "--series", "L",
     "--max-degree", "0"],
])
def test_degrees_out_of_range_exit_four(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 4 and out == ""
    # the degree is refused as such, not blamed on one group
    assert err.startswith("data error: ") and "degree" in err
    assert "8." not in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_matrix_stdout_matches_library(capsys):
    code, out, _ = run(capsys, ["matrix", "--group", "catalog:8.3",
                                "--series", "L", "--degree", "2"])
    assert code == 0
    payload = json.loads(out)
    pm = persistence_matrix(bundled_group("8.3"), "L", 2, name="8.3")
    assert payload == pm.to_json()
    # canonical form: sorted keys, no spaces, one trailing newline
    assert out == json.dumps(payload, sort_keys=True,
                             separators=(",", ":")) + "\n"


def test_repeated_runs_byte_identical(capsys):
    argv = ["classify", "--catalog", "bundled8", "--series", "Lp",
            "--max-degree", "2"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second
    assert first[0] == 0


def test_matrix_json_file(capsys, tmp_path):
    out_path = tmp_path / "m.json"
    code, out, _ = run(capsys, ["matrix", "--group", "catalog:8.3",
                                "--series", "L", "--degree", "2",
                                "--json", str(out_path)])
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert payload["matrix"] == [[3, 2], [0, 3]]


def test_barcode_default_json(capsys):
    code, out, _ = run(capsys, ["barcode", "--group", "catalog:8.3",
                                "--series", "Z", "--degree", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == "8.3"
    assert payload["functor"] == "Z"
    assert all(len(bar) == 3 for bar in payload["bars"])


def test_barcode_txt(capsys):
    code, out, _ = run(capsys, ["barcode", "--group", "catalog:8.3",
                                "--series", "L", "--degree", "2", "--txt"])
    assert code == 0
    assert out.startswith("degree 2, columns 2")


def test_barcode_svg_file(capsys, tmp_path):
    svg_path = tmp_path / "bars.svg"
    code, out, _ = run(capsys, ["barcode", "--group", "catalog:64.dihedral",
                                "--series", "L", "--degree", "2",
                                "--svg", str(svg_path)])
    assert code == 0 and out == ""
    root = ET.fromstring(svg_path.read_text())
    bars = [el for el in root.iter() if el.get("class") == "bar"]
    assert len(bars) == 2


def test_classify_emits_report_then_csv(capsys):
    code, out, _ = run(capsys, ["classify", "--catalog", "bundled8",
                                "--series", "Z", "--max-degree", "3"])
    assert code == 0
    json_line, csv_header, csv_row, tail = out.split("\n")
    assert tail == ""
    report = json.loads(json_line)
    assert (report["classes"], report["maxClassSize"], report["stableT"]) \
        == (5, 1, 3)
    assert report["singleDegree"] == {"classes": 5, "maxClassSize": 1,
                                      "degree": 3}
    assert csv_header.startswith("series,integral,maxDegree")
    assert csv_row == "Z,0,3,5,5,1,3,5,1,3"


def test_classify_writes_files(capsys, tmp_path):
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "summary.csv"
    code, out, _ = run(capsys, ["classify", "--catalog", "bundled8",
                                "--series", "Lp", "--max-degree", "3",
                                "--json", str(json_path),
                                "--csv", str(csv_path)])
    assert code == 0 and out == ""
    report = json.loads(json_path.read_text())
    assert (report["classes"], report["maxClassSize"], report["stableT"]) \
        == (4, 2, 3)
    assert csv_path.read_text().splitlines()[1] == "Lp,0,3,5,4,2,3,4,2,3"


def test_classify_directory_catalog(capsys, tmp_path):
    write_catalog(bundled_order(4), str(tmp_path))
    code, out, _ = run(capsys, ["classify", "--catalog", str(tmp_path),
                                "--series", "Zp", "--max-degree", "2"])
    assert code == 0
    report = json.loads(out.split("\n")[0])
    assert report["groups"] == 2
    assert report["classes"] == 2


def test_coclass_report(capsys):
    code, out, _ = run(capsys, ["coclass", "--family", "dihedral",
                                "--levels", "3..5", "--degree", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["stabilizedDim"] == 2
    assert report["levels"] == [3, 4, 5]


def test_homology_oracle_cross_check(capsys):
    code, out, _ = run(capsys, ["homology", "--group", "catalog:9.2",
                                "--max-degree", "2", "--oracle"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [1, 2, 3]
    assert payload["agrees"] is True


def test_homology_oracle_of_the_trivial_group(capsys):
    # the oracle resolves over the prime the resolution picks, 2 here
    code, out, _ = run(capsys, ["homology", "--group", "catalog:1.1",
                                "--max-degree", "2", "--oracle"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == payload["oracle"] == [1, 0, 0]


def test_integral_matrices(capsys):
    code, out, _ = run(capsys, ["integral", "--group", "catalog:4.1",
                                "--series", "Zp", "--max-degree", "1"])
    assert code == 0
    payload = json.loads(out)
    cell = payload["matrices"][0]["matrix"][0][1]
    assert cell == {"A": [4], "B": [2], "C": []}


def test_integral_beyond_the_bar_complex(capsys):
    # both needed more than the default integer budget as bar complexes
    code, out, _ = run(capsys, ["integral", "--group", "catalog:16.8",
                                "--series", "Zp", "--max-degree", "3"])
    assert code == 0
    assert json.loads(out)["matrices"][2]["matrix"][0][0]["A"] == [2, 8]
    code, out, _ = run(capsys, ["classify", "--catalog", "bundled27", "--series",
                                "Zp", "--max-degree", "2", "--integral"])
    assert code == 0
    assert json.loads(out.split("\n")[0])["groups"] == 5


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert all(line.startswith("ok ") for line in lines)


def test_library_runs_without_numpy_ma_or_a_thread_pool():
    # numpy's set routines import numpy.ma on first use, and a thread pool
    # imports concurrent.futures; no path here needs either
    script = "\n".join([
        "import contextlib, io, sys",
        "import pgph.cli as cli",
        "from pgph import classify, homology_dims, tree_persistence",
        "from pgph.catalog import bundled_order",
        "groups = {entry.id: entry.group for entry in bundled_order(8)}",
        "classify(groups, 'L', 3, workers=2)",
        "classify(groups, 'Zp', 2, integral=True, workers=2)",
        "homology_dims(groups['8.3'], 3)",
        "tree_persistence('dihedral', 2, 3, 5)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = cli.main(['matrix', '--group', 'catalog:8.3',",
        "                     '--series', 'L', '--degree', '2'])",
        "print(code, [m for m in ('numpy.ma', 'concurrent.futures')",
        "             if m in sys.modules])",
    ])
    src = os.path.dirname(os.path.dirname(pgph.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[-2] == "0 []"


def test_selftest_fails_under_optimized_python():
    # python -O strips assert statements; the selftest checks must not be
    script = ("import sys; import pgph.cli as cli; "
              "cli.recover_order = lambda m1, m2: -1; "
              "sys.exit(cli.main(['selftest']))")
    src = os.path.dirname(os.path.dirname(pgph.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "FAIL order and abelian recovery" in done.stdout
