"""Modular symbols engine: presentations of the plus quotient for
Gamma_0(N) and integral echelon q-expansion bases of S_k(Gamma_0(N))."""

from .basis import (
    SpaceBasis,
    coefficient_image,
    echelon_basis,
    hecke_matrices_from_symbols,
    hecke_stability_certificate,
    qexpansion_basis,
)
from .p1 import P1, p1_space
from .presentation import MSPresentation, build_presentation, hecke_cosets

__all__ = [
    "P1",
    "MSPresentation",
    "SpaceBasis",
    "build_presentation",
    "coefficient_image",
    "echelon_basis",
    "hecke_cosets",
    "hecke_matrices_from_symbols",
    "hecke_stability_certificate",
    "p1_space",
    "qexpansion_basis",
]
