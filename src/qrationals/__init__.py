"""Exact arithmetic for q-deformed rational numbers.

The package constructs the canonical deformation [a/b]_q as a ratio of
integer polynomials (via alternating continued fractions or weighted Farey
mediants on the Stern-Brocot tree), differentiates it exactly at q = 1,
verifies closed-form first- and second-derivative expressions, extracts
lineages with their polynomial weight tables, evaluates generalized Dedekind
sums with their reciprocity and identity battery, and recovers the
closed-form coefficients by exact linear fits.  There is no floating point
anywhere in the computational path.
"""
from .exact import (
    IntPoly,
    PoleAtOneError,
    Rat,
    RatFunc,
    SingularMatrixError,
    ZeroDenominatorError,
    derivative_at_one,
    jets_at_one,
    matrix_rank_exact,
    rat_to_str,
    solve_linear_exact,
)
from .qdeform import (
    CFrac,
    QRational,
    deform,
    deform_from_cfrac,
    qrational_from_json,
    qrational_to_json,
    to_cfrac,
)
from .sbtree import (
    DegenerateWeightsError,
    InsufficientDepthError,
    Lineage,
    NonUnimodularError,
    VanishingLineageError,
    build_qtree,
    delta,
    delta_identity_residual,
    derivative_identity_residual,
    equivalence_mismatches,
    identity_correction,
    identity_sweep,
    lagrange_coefficients,
    lineage_extract,
    lineage_to_json,
    mediant,
    walk_qtree,
    weighted_mediant,
)
from .closedforms import (
    NoInverseError,
    bracket,
    bracket_weight_sum,
    bridge_mismatches,
    d1_closed,
    d2_closed,
    denominator_d1_closed,
    lemma_calibration,
    mod_inverse,
    numerator_d1_closed,
    thomae,
)
from .dedekind import (
    battery_sweep,
    bernoulli_number,
    bernoulli_poly,
    check_identities,
    h_val,
    reciprocity_residual,
    reciprocity_sweep,
    s_sum,
)
from .fit import (
    RankDeficientError,
    default_d1_samples,
    default_d2_samples,
    emit_plot_data,
    fit_d1,
    fit_d2,
    plot_data_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Rat", "IntPoly", "RatFunc", "QRational", "CFrac", "Lineage",
    "rat_to_str", "derivative_at_one", "jets_at_one",
    "solve_linear_exact", "matrix_rank_exact",
    "to_cfrac", "deform", "deform_from_cfrac",
    "qrational_to_json", "qrational_from_json",
    "mediant", "weighted_mediant", "walk_qtree", "build_qtree", "delta",
    "lineage_extract",
    "lagrange_coefficients", "delta_identity_residual",
    "derivative_identity_residual", "identity_correction",
    "equivalence_mismatches", "identity_sweep", "lineage_to_json",
    "mod_inverse", "thomae", "bracket", "d1_closed", "d2_closed",
    "bracket_weight_sum", "bridge_mismatches",
    "numerator_d1_closed", "denominator_d1_closed",
    "lemma_calibration",
    "bernoulli_number", "bernoulli_poly",
    "s_sum", "h_val", "reciprocity_residual", "check_identities",
    "reciprocity_sweep", "battery_sweep",
    "fit_d1", "fit_d2", "default_d1_samples", "default_d2_samples",
    "emit_plot_data", "plot_data_csv",
    "ZeroDenominatorError", "PoleAtOneError", "SingularMatrixError",
    "NonUnimodularError", "VanishingLineageError", "DegenerateWeightsError",
    "InsufficientDepthError", "NoInverseError", "RankDeficientError",
    "__version__",
]
