"""Exact-arithmetic chi_y genus workbench.

Computes chi_y genera of manifolds whose rational cohomology is a truncated
polynomial ring from formal Chern data, derives the Diophantine constraint
system for a hypothetical pair (M, D) with D of the same kind one dimension
down, and decides whether that system has integer solutions — with verdicts
backed by replayable certificates or exhaustive bounded search.
"""

from .chern import (
    ChernVector,
    chern_to_power_sums,
    power_sums_to_elementary,
    projective_space,
    todd_class,
)
from .fujita import (
    MONOMIAL_SCHEMA,
    SYSTEM_SCHEMA,
    Branch,
    DichotomyRoots,
    Equation,
    EquationSystem,
    ForcedValues,
    adjunction_chern,
    alternating_sum_check,
    dichotomy_residual,
    dichotomy_roots,
    forced_values,
    generate_system,
    parity_admissible,
    unknown_chern_vector,
)
from .genus import (
    ChiYPolynomial,
    HodgeDiamond,
    MinusOneExpansion,
    PinnedProducts,
    a1_closed_form,
    chi_y_from_chern,
    chi_y_from_hodge,
    expand_at_minus_one,
    minus_one_coefficients,
    pinned_products,
)
from .polynomials import MultivariatePolynomial
from .series import TruncatedSeries, bernoulli
from .solve import (
    REPORT_SCHEMA,
    EnumerationBudget,
    EnumerationOutcome,
    ReducedSystem,
    RootAnalysis,
    SearchReport,
    SolverConfig,
    SoundnessError,
    Substitution,
    VERDICT_INCONCLUSIVE,
    VERDICT_NO_SOLUTION,
    VERDICT_SOLUTIONS,
    bounded_enumerate,
    classify,
    linear_reduce,
    solve_system,
    univariate_integer_roots,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "ChernVector",
    "ChiYPolynomial",
    "DichotomyRoots",
    "EnumerationBudget",
    "EnumerationOutcome",
    "Equation",
    "EquationSystem",
    "ForcedValues",
    "HodgeDiamond",
    "MinusOneExpansion",
    "MONOMIAL_SCHEMA",
    "MultivariatePolynomial",
    "PinnedProducts",
    "REPORT_SCHEMA",
    "ReducedSystem",
    "RootAnalysis",
    "SYSTEM_SCHEMA",
    "SearchReport",
    "SolverConfig",
    "SoundnessError",
    "Substitution",
    "TruncatedSeries",
    "VERDICT_INCONCLUSIVE",
    "VERDICT_NO_SOLUTION",
    "VERDICT_SOLUTIONS",
    "a1_closed_form",
    "adjunction_chern",
    "alternating_sum_check",
    "bernoulli",
    "bounded_enumerate",
    "chern_to_power_sums",
    "chi_y_from_chern",
    "chi_y_from_hodge",
    "classify",
    "dichotomy_residual",
    "dichotomy_roots",
    "expand_at_minus_one",
    "forced_values",
    "generate_system",
    "linear_reduce",
    "minus_one_coefficients",
    "parity_admissible",
    "pinned_products",
    "power_sums_to_elementary",
    "projective_space",
    "solve_system",
    "todd_class",
    "univariate_integer_roots",
    "unknown_chern_vector",
    "verify_certificate",
]
