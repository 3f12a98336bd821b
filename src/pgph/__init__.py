"""Persistent homology invariants of finite p-groups.

The package computes, for a finite p-group, the five standard normal series
(lower central, lower p-central, derived, upper central, upper p-central),
the chains of quotients they induce, minimal free resolutions over the
modular group algebra, and the persistence matrices, barcodes and integral
persistence invariants of the induced maps in homology along those chains.
A bundled catalog of small p-groups and the dihedral, quaternion and
semidihedral families backs a command line interface (``pgph``).
"""

from pgph.config import Budgets, default_budgets
from pgph.errors import BudgetExceededError, ConsistencyError, DataError, PgphError

__version__ = "0.1.0"

from pgph.groups import (
    FiniteGroup,
    GroupHom,
    NormalSeries,
    QuotientChain,
    Subgroup,
    abelian_invariants,
    abelianization_invariants,
    group_from_permutations,
    min_generators,
    quotient,
    quotient_chain,
    series,
)

from pgph.resolution import homology_dims, induced_map, minimal_resolution

from pgph.barcomplex import (
    IntegralHomology,
    bar_homology_fp,
    integral_homology,
    integral_induced_triple,
)

from pgph.persistence import (
    Barcode,
    IntegralPersistenceMatrix,
    InvariantFingerprint,
    PersistenceMatrix,
    barcode,
    classify,
    fingerprint,
    integral_persistence_matrix,
    matrix_from_barcode,
    persistence_matrix,
    persistence_sequence,
    recover_abelian_invariants,
    recover_order,
    verify_lower_central_barcodes,
)

from pgph.coclass import (
    FAMILY_KINDS,
    family,
    family_permutations,
    tree_links,
    tree_persistence,
    verify_tree_h2_bound,
)

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

from pgph.svg import barcode_text, render_svg
