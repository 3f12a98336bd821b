"""Command line interface.

Subcommands compute persistence matrices, bar codes, classification
reports, integral invariants, coclass tree reports, and homology
dimensions for groups drawn from the bundled catalog (``catalog:ID``),
from single group files, or from catalog directories.  All JSON output
is canonical (sorted keys, no whitespace), so identical inputs produce
byte-identical files.

Exit codes: 0 success, 1 selftest failure, 2 usage error, 3 budget
exceeded, 4 bad data, 5 failed internal consistency check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
import tempfile

import numpy as np

from pgph.barcomplex import bar_homology_fp
from pgph.catalog import (bundled_catalog, bundled_group, bundled_ids, bundled_order,
                          load_catalog, load_group_file, write_catalog)
from pgph.coclass import FAMILY_KINDS, tree_persistence
from pgph.errors import BudgetExceededError, ConsistencyError, DataError
from pgph.groups import (SERIES_KINDS, abelianization_invariants,
                         min_generators, quotient_chain, series)
from pgph.persistence import (barcode, classify, integral_persistence_matrix,
                              matrix_from_barcode, persistence_matrix,
                              recover_abelian_invariants, recover_order,
                              verify_lower_central_barcodes)
from pgph.resolution import homology_dims, minimal_resolution
from pgph.svg import barcode_text, render_svg

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_DATA = 4
EXIT_CONSISTENCY = 5


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(*outputs: tuple[str, str | None]) -> None:
    """Write each (text, path) pair, a None path to stdout.  Every file is
    opened before any text is written, so a path that cannot be opened
    leaves every target unwritten, stdout included."""
    path = None
    try:
        with contextlib.ExitStack() as stack:
            handles = []
            for _, path in outputs:
                handles.append(stack.enter_context(open(path, "w", encoding="utf-8"))
                               if path else sys.stdout)
            for (text, path), handle in zip(outputs, handles):
                handle.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _resolve_group(token: str):
    """A group selector: ``catalog:ID`` or a path to a group file."""
    if token.startswith("catalog:"):
        name = token[len("catalog:"):]
        return name, bundled_group(name)
    entry = load_group_file(token)
    return entry.id, entry.group


def _resolve_catalog(token: str):
    """A catalog selector: ``bundledN`` or a catalog directory."""
    match = re.fullmatch(r"bundled(\d+)", token)
    if match:
        entries = bundled_order(int(match.group(1)))
        if not entries:
            raise DataError(f"no bundled groups of order {match.group(1)}")
    else:
        entries = load_catalog(token)
    return [(e.id, e.group) for e in entries]


def _parse_levels(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not match:
        raise argparse.ArgumentTypeError(
            f"expected a level window like 3..6, got {text!r}")
    return int(match.group(1)), int(match.group(2))


def _cmd_matrix(args) -> int:
    name, group = _resolve_group(args.group)
    pm = persistence_matrix(group, args.series, args.degree, name=name)
    _emit((_canonical(pm.to_json()), args.json))
    return EXIT_OK


def _cmd_barcode(args) -> int:
    name, group = _resolve_group(args.group)
    pm = persistence_matrix(group, args.series, args.degree, name=name)
    bc = barcode(pm)
    if args.svg:
        _emit((render_svg(bc), args.svg))
    elif args.txt:
        sys.stdout.write(barcode_text(bc))
    else:
        payload = {"group": name, "functor": args.series, **bc.to_json()}
        _emit((_canonical(payload), args.json))
    return EXIT_OK


def _classify_csv(report: dict) -> str:
    single = report["singleDegree"]
    fields = (report["functor"], int(report["integral"]), report["maxDegree"],
              report["groups"], report["classes"], report["maxClassSize"],
              report["stableT"], single["classes"], single["maxClassSize"],
              single["degree"])
    header = ("series,integral,maxDegree,groups,classes,maxClassSize,"
              "stableT,singleClasses,singleMaxClassSize,singleDegree")
    return header + "\n" + ",".join(str(x) for x in fields) + "\n"


def _cmd_classify(args) -> int:
    pairs = _resolve_catalog(args.catalog)
    report = classify(pairs, args.series, args.max_degree,
                      integral=args.integral)
    report["catalog"] = args.catalog
    _emit((_canonical(report), args.json), (_classify_csv(report), args.csv))
    return EXIT_OK


def _cmd_integral(args) -> int:
    if args.max_degree < 1:
        raise DataError(f"max degree must be at least 1: {args.max_degree}")
    name, group = _resolve_group(args.group)
    matrices = [
        integral_persistence_matrix(group, args.series, n, name=name).to_json()
        for n in range(1, args.max_degree + 1)]
    payload = {"group": name, "functor": args.series, "matrices": matrices}
    _emit((_canonical(payload), args.json))
    return EXIT_OK


def _cmd_coclass(args) -> int:
    l_min, l_max = args.levels
    report = tree_persistence(args.family, args.degree, l_min, l_max)
    _emit((_canonical(report), args.json))
    return EXIT_OK


def _cmd_homology(args) -> int:
    name, group = _resolve_group(args.group)
    dims = homology_dims(group, args.max_degree)
    payload = {"group": name, "order": group.order, "dims": dims}
    if args.oracle:
        p = minimal_resolution(group, 0).prime
        reference = [bar_homology_fp(group, p, n) for n in range(args.max_degree + 1)]
        payload["oracle"] = reference
        payload["agrees"] = reference == dims
    _emit((_canonical(payload), args.json))
    return EXIT_OK


# One function per structural property, shared by the selftest and the
# acceptance tests.  Each takes (name, group) pairs and returns failures:
# explicit checks, so ``python -O`` cannot strip them.

def diagonal_failures(pairs, kinds) -> list[str]:
    """Degree-1 matrices have one column per series step, and their
    diagonal counts the minimal generators of each quotient."""
    failures = []
    for name, g in pairs:
        for kind in kinds:
            pm = persistence_matrix(g, kind, 1, name=name)
            if pm.size != len(series(g, kind).terms) - 1:
                failures.append(f"{name}: column count != class ({kind})")
            for t, q in enumerate(quotient_chain(g, kind).quotients):
                if pm.matrix[t, t] != len(min_generators(q)):
                    failures.append(f"{name}: diagonal != generator count ({kind})")
    return failures


def recovery_failures(pairs, kinds) -> list[str]:
    """The order from the degree-1 and degree-2 matrices of each p-central
    series in ``kinds``, and along Zp the invariants of an abelian group."""
    failures = []
    for name, g in pairs:
        for kind in kinds:
            m1 = persistence_matrix(g, kind, 1, name=name)
            m2 = persistence_matrix(g, kind, 2, name=name)
            if recover_order(m1, m2) != g.order:
                failures.append(f"{name}: order not recovered ({kind})")
            if (kind == "Zp" and len(g.commutator_subgroup()) == 1
                    and recover_abelian_invariants(m1, m2) != abelianization_invariants(g)):
                failures.append(f"{name}: invariants lost")
    return failures


def round_trip_failures(pairs, kinds, degrees) -> list[str]:
    """Every matrix is rebuilt exactly from its bar code."""
    failures = []
    for name, g in pairs:
        for kind in kinds:
            for degree in degrees:
                pm = persistence_matrix(g, kind, degree, name=name)
                if not np.array_equal(matrix_from_barcode(barcode(pm)).matrix, pm.matrix):
                    failures.append(f"{name} {kind} {degree}")
    return failures


def _selftest_suites():
    """(label, suite) pairs; a suite returns (checks made, failures)."""
    pairs = [(e.id, e.group) for e in bundled_catalog()
             if e.order in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 27)]
    nonabelian = [(name, g) for name, g in pairs if len(g.commutator_subgroup()) > 1]
    small = [(name, g) for name, g in pairs if g.order <= 8]

    def round_trip():
        with tempfile.TemporaryDirectory() as scratch:
            write_catalog(bundled_catalog(), scratch)
            loaded = load_catalog(scratch)
        failures = [] if [e.id for e in loaded] == bundled_ids() else ["catalog ids"]
        failures += [old.id for old, new in zip(bundled_catalog(), loaded)
                     if not np.array_equal(old.group.cayley, new.group.cayley)]
        return len(loaded), failures

    def structure():
        return len(pairs), (diagonal_failures(pairs, ("L",))
                            + round_trip_failures(pairs, ("L",), (1, 2)))

    def barcode_structure():
        reports = [(name, verify_lower_central_barcodes(g)) for name, g in nonabelian]
        return len(reports), [item for item in reports if not item[1]["passed"]]

    def homology_cross_check():
        oracle = {name: [bar_homology_fp(g, g.prime, n) for n in range(4)] for name, g in small}
        return len(small), [name for name, g in small if homology_dims(g, 3) != oracle[name]]

    return [("catalog round trip", round_trip),
            ("matrix structure", structure),
            ("order and abelian recovery",
             lambda: (len(pairs), recovery_failures(pairs, ("Zp",)))),
            ("lower central bar codes", barcode_structure),
            ("homology cross-check", homology_cross_check)]


def _cmd_selftest(args) -> int:
    failed = False
    for label, suite in _selftest_suites():
        count, failures = suite()
        if failures:
            failed = True
            print(f"FAIL {label}: {failures[:4]}")
        else:
            print(f"ok {label} ({count} checks)")
    return EXIT_SELFTEST if failed else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgph",
        description="Persistent homology invariants of finite p-groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def group_arg(p):
        p.add_argument("--group", required=True,
                       help="group file path or catalog:ID")

    def series_arg(p):
        p.add_argument("--series", required=True, choices=SERIES_KINDS,
                       help="normal series code")

    def json_arg(p):
        p.add_argument("--json", metavar="OUT",
                       help="write JSON here instead of stdout")

    p = sub.add_parser("matrix", help="persistence matrix of one group")
    group_arg(p), series_arg(p)
    p.add_argument("--degree", type=int, required=True)
    json_arg(p)
    p.set_defaults(run=_cmd_matrix)

    p = sub.add_parser("barcode", help="bar code of one group")
    group_arg(p), series_arg(p)
    p.add_argument("--degree", type=int, required=True)
    target = p.add_mutually_exclusive_group()
    target.add_argument("--svg", metavar="OUT", help="write an SVG chart")
    target.add_argument("--txt", action="store_true",
                        help="print a plain-text listing")
    target.add_argument("--json", metavar="OUT",
                        help="write JSON here instead of stdout")
    p.set_defaults(run=_cmd_barcode)

    p = sub.add_parser("classify",
                       help="partition a catalog by matrix fingerprints")
    p.add_argument("--catalog", required=True,
                   help="catalog directory or bundledN for a bundled order")
    series_arg(p)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--integral", action="store_true",
                   help="fingerprint by integral invariant triples")
    json_arg(p)
    p.add_argument("--csv", metavar="OUT", help="write the summary row here")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("integral",
                       help="integral persistence matrices of one group")
    group_arg(p), series_arg(p)
    p.add_argument("--max-degree", type=int, required=True)
    json_arg(p)
    p.set_defaults(run=_cmd_integral)

    p = sub.add_parser("coclass", help="tree persistence of a family window")
    p.add_argument("--family", required=True, choices=FAMILY_KINDS)
    p.add_argument("--levels", type=_parse_levels, required=True,
                   metavar="A..B", help="level window, e.g. 3..6")
    p.add_argument("--degree", type=int, required=True)
    json_arg(p)
    p.set_defaults(run=_cmd_coclass)

    p = sub.add_parser("homology", help="mod-p homology dimensions")
    group_arg(p)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the bar complex")
    json_arg(p)
    p.set_defaults(run=_cmd_homology)

    p = sub.add_parser("selftest",
                       help="run the invariant suites on the bundled catalog")
    p.set_defaults(run=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY


if __name__ == "__main__":
    sys.exit(main())
