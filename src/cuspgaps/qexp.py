"""Truncated q-expansions with exact rational coefficients.

A QExpansion stores the coefficients of q^1 .. q^B; the constant term is
never tracked (everything here is a cusp expansion or is only used through
coefficients of positive index).
"""

from __future__ import annotations

from dataclasses import dataclass

from .invariants import check_index


@dataclass(frozen=True)
class QExpansion:
    coeffs: tuple  # coefficient of q^(i+1) at position i; ints or Fractions
    weight: int
    level: int

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    def coefficient(self, n: int):
        """Coefficient of q^n, 1 <= n <= precision."""
        if not 1 <= n <= self.precision:
            raise ValueError(f"coefficient q^{n} outside known precision {self.precision}")
        return self.coeffs[n - 1]

    def order(self) -> int | None:
        """Index of the first non-zero coefficient, or None if the truncation
        is identically zero."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i + 1
        return None

    def is_zero(self) -> bool:
        return self.order() is None

    def truncate(self, precision: int) -> "QExpansion":
        check_index("precision", precision, 0)
        if precision > self.precision:
            raise ValueError(f"cannot extend precision {self.precision} to {precision}")
        return QExpansion(self.coeffs[:precision], self.weight, self.level)
