"""Budgets read from PGPH_BUDGET, and the public surface that reads them."""

import importlib
import inspect

import pytest

import pgph
from pgph import bundled_group, homology_dims
from pgph.config import (DEFAULT_FP_ENTRIES, DEFAULT_INT_ENTRIES, Budgets,
                         default_budgets)
from pgph.errors import BudgetExceededError, DataError


@pytest.mark.parametrize("raw, fp, integral", [
    (None, DEFAULT_FP_ENTRIES, DEFAULT_INT_ENTRIES),
    ("", DEFAULT_FP_ENTRIES, DEFAULT_INT_ENTRIES),
    ("7", 7, 7),
    ("fp=5,int=6", 5, 6),
    ("int=6, fp=5", 5, 6),
    ("int=6", DEFAULT_FP_ENTRIES, 6),
])
def test_budget_values(monkeypatch, raw, fp, integral):
    if raw is None:
        monkeypatch.delenv("PGPH_BUDGET", raising=False)
    else:
        monkeypatch.setenv("PGPH_BUDGET", raw)
    assert default_budgets() == Budgets(fp_entries=fp, int_entries=integral)


@pytest.mark.parametrize("raw, fragment", [
    ("abc", "unparsable"),
    ("gpu=5", "unparsable"),
    ("fp=10,", "unparsable"),
    ("fp=ten", "unparsable"),
    ("0", "must be positive"),
    ("-3", "must be positive"),
    ("fp=0", "must be positive"),
    ("fp=10,int=-1", "must be positive"),
    # a repeated key is refused, not resolved by the last assignment
    ("fp=5,fp=1000000000", "sets 'fp' twice"),
    ("int=6, fp=5, int=7", "sets 'int' twice"),
])
def test_bad_budget_values_are_data_errors(monkeypatch, raw, fragment):
    monkeypatch.setenv("PGPH_BUDGET", raw)
    with pytest.raises(DataError, match=fragment):
        default_budgets()


def test_a_library_call_reads_the_budget_when_it_starts(monkeypatch):
    g = bundled_group("8.3")
    monkeypatch.setenv("PGPH_BUDGET", "10")
    with pytest.raises(BudgetExceededError):
        homology_dims(g, 2)
    monkeypatch.delenv("PGPH_BUDGET")
    assert homology_dims(g, 2) == [1, 2, 3]


EXPORTS = {
    "Barcode", "BudgetExceededError", "Budgets", "CatalogEntry",
    "ConsistencyError", "DataError", "FAMILY_KINDS", "FiniteGroup", "GroupHom",
    "IntegralHomology", "IntegralPersistenceMatrix", "InvariantFingerprint",
    "NormalSeries", "PersistenceMatrix", "PgphError", "QuotientChain",
    "Subgroup", "abelian_invariants", "abelianization_invariants",
    "bar_homology_fp", "barcode", "barcode_text", "bundled_catalog",
    "bundled_group", "bundled_ids", "bundled_order", "classify",
    "default_budgets", "family", "family_permutations", "fingerprint",
    "group_from_permutations", "homology_dims", "induced_map",
    "integral_homology", "integral_induced_triple",
    "integral_persistence_matrix", "load_catalog", "load_group_file",
    "matrix_from_barcode", "min_generators", "minimal_resolution",
    "persistence_matrix", "persistence_sequence", "quotient", "quotient_chain",
    "recover_abelian_invariants", "recover_order", "render_svg", "series",
    "tree_links", "tree_persistence", "verify_lower_central_barcodes",
    "verify_tree_h2_bound", "write_catalog",
}

MODULES = ("barcomplex", "catalog", "cli", "coclass", "config", "errors",
           "groups", "linalg", "persistence", "resolution", "svg")


def test_exported_names():
    exported = {name for name, value in vars(pgph).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == EXPORTS


def _functions():
    """Every function and method defined in the package, by qualified name."""
    for module_name in MODULES:
        module = importlib.import_module(f"pgph.{module_name}")
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                yield value.__qualname__, value
            elif inspect.isclass(value):
                for member in vars(value).values():
                    if inspect.isfunction(member):
                        yield member.__qualname__, member


def test_budgets_are_no_parameter():
    # PGPH_BUDGET is the one source of budgets; only the charge that
    # checks a level against them is handed a snapshot
    takes_budgets = {name for name, function in _functions()
                     if "budgets" in inspect.signature(function).parameters}
    assert takes_budgets == {"MinimalResolution._charge"}


@pytest.mark.parametrize("function, names", [
    (pgph.persistence_matrix, ("name",)),
    (pgph.persistence_sequence, ("name",)),
    (pgph.integral_persistence_matrix, ("name",)),
    (pgph.fingerprint, ("integral", "name")),
    (pgph.classify, ("integral", "workers")),
])
def test_options_are_keyword_only(function, names):
    params = inspect.signature(function).parameters
    assert all(params[n].kind is inspect.Parameter.KEYWORD_ONLY for n in names)
