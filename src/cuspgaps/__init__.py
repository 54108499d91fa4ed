"""cuspgaps: exact-arithmetic toolkit for cusp form spaces on Gamma_0(N).

Closed-form invariants and dimension formulas, a from-scratch modular
symbols engine producing integral echelon q-expansion bases, the
U_p / V_p / Atkin-Lehner / trace operator stack, and Weierstrass gap data
at the cusp at infinity, all over exact rationals.
"""

__version__ = "0.1.0"

from .gaps import GapData, gap_data
from .heckeops import apply_Up, apply_Vp, build_operator_stack, coefficient_valuation, normalize_p
from .invariants import (
    alpha_pair,
    classify_triple,
    cusp_dim,
    eps2,
    eps3,
    eps_inf,
    genus,
    index,
    master_inequality_lhs,
    sturm_bound,
    valence_bound,
    vanishing_levels,
    vanishing_order_bound,
)
from .msengine import SpaceBasis, build_presentation, qexpansion_basis
from .qexp import QExpansion

__all__ = [
    "GapData",
    "QExpansion",
    "SpaceBasis",
    "alpha_pair",
    "apply_Up",
    "apply_Vp",
    "build_operator_stack",
    "build_presentation",
    "classify_triple",
    "coefficient_valuation",
    "cusp_dim",
    "eps2",
    "eps3",
    "eps_inf",
    "gap_data",
    "genus",
    "index",
    "master_inequality_lhs",
    "normalize_p",
    "qexpansion_basis",
    "sturm_bound",
    "valence_bound",
    "vanishing_levels",
    "vanishing_order_bound",
    "__version__",
]
