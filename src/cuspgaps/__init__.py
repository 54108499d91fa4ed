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
    LevelInvariants,
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
from .oracles import EtaProduct, delta_expansion, eisenstein_E, eta_expand, tau, victor_miller_basis
from .qexp import QExpansion

__all__ = [
    "EtaProduct",
    "GapData",
    "LevelInvariants",
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
    "delta_expansion",
    "eisenstein_E",
    "eps2",
    "eps3",
    "eps_inf",
    "eta_expand",
    "gap_data",
    "genus",
    "index",
    "master_inequality_lhs",
    "normalize_p",
    "qexpansion_basis",
    "sturm_bound",
    "tau",
    "valence_bound",
    "vanishing_levels",
    "vanishing_order_bound",
    "victor_miller_basis",
    "__version__",
]
