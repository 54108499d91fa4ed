"""Independent brute-force ground truth for small spaces.

Level-1 bases are built from Eisenstein series and the discriminant form by
naive truncated series multiplication (no FFT, correctness over speed), and
eta products supply the classical level-11 weight-2 form.  These routines
share no code with the modular symbols engine, so agreement between the two
is a genuine cross-check.  They serve the tests only, which import this
module from the tests directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from cuspgaps.arith import divisors
from cuspgaps.linalg import rref
from cuspgaps.qexp import QExpansion


# -- truncated integer power series with constant term, coeffs[n] = a_n ------

def series_mul(a: list, b: list, prec: int) -> list:
    out = [0] * prec
    for i, x in enumerate(a[:prec]):
        if x:
            for j, y in enumerate(b[: prec - i]):
                if y:
                    out[i + j] += x * y
    return out


def series_pow(a: list, n: int, prec: int) -> list:
    out = [1] + [0] * (prec - 1)
    base = list(a[:prec]) + [0] * (prec - len(a))
    while n:
        if n & 1:
            out = series_mul(out, base, prec)
        n >>= 1
        if n:
            base = series_mul(base, base, prec)
    return out


def _sigma(n: int, power: int) -> int:
    return sum(d**power for d in divisors(n))


def eisenstein_E(k: int, prec: int) -> QExpansion:
    """Normalized Eisenstein series E_4 = 1 + 240*sum sigma_3(n) q^n or
    E_6 = 1 - 504*sum sigma_5(n) q^n, returned with the constant term
    dropped (QExpansion tracks q^1..q^B); use eisenstein_series_full for
    the raw list including a_0."""
    return QExpansion(tuple(eisenstein_series_full(k, prec)[1:]), k, 1)


def eisenstein_series_full(k: int, prec: int) -> list:
    if prec < 1:
        raise ValueError("precision must be >= 1")
    if k == 4:
        return [1] + [240 * _sigma(n, 3) for n in range(1, prec + 1)]
    if k == 6:
        return [1] + [-504 * _sigma(n, 5) for n in range(1, prec + 1)]
    raise ValueError(f"only E_4 and E_6 are implemented, got k = {k}")


@lru_cache(maxsize=None)
def _euler_product(scale: int, prec: int) -> tuple:
    """prod_{n>=1} (1 - q^(scale*n)) to q^prec, by Euler's pentagonal
    number theorem."""
    out = [0] * (prec + 1)
    out[0] = 1
    j = 1
    while True:
        g1 = scale * j * (3 * j - 1) // 2
        g2 = scale * j * (3 * j + 1) // 2
        if g1 > prec and g2 > prec:
            break
        sign = -1 if j % 2 else 1
        if g1 <= prec:
            out[g1] += sign
        if g2 <= prec:
            out[g2] += sign
        j += 1
    return tuple(out)


@dataclass(frozen=True)
class EtaProduct:
    """A finite product prod_i eta(m_i z)^(r_i), stored as (scale, exponent)
    pairs; the weight is sum(r_i)/2."""

    factors: tuple  # ((scale, exponent), ...)

    @property
    def weight(self) -> Fraction:
        return Fraction(sum(r for _, r in self.factors), 2)

    @property
    def leading_exponent(self) -> Fraction:
        return Fraction(sum(m * r for m, r in self.factors), 24)


def eta_expand(product: EtaProduct, prec: int) -> QExpansion:
    """q-expansion of an eta product to precision prec (exact integers).

    The leading exponent sum(m*r)/24 must be a positive integer; exponents
    r must be positive (no eta quotients here).
    """
    if prec < 1:
        raise ValueError("precision must be >= 1")
    lead = product.leading_exponent
    if lead.denominator != 1:
        raise ValueError(f"non-integral leading exponent {lead}")
    lead = int(lead)
    if product.factors and lead < 1:
        raise ValueError(f"leading exponent {lead} must be >= 1")
    weight = product.weight
    if weight.denominator != 1:
        raise ValueError(f"eta product of non-integral weight {weight}")
    tail = [1] + [0] * prec
    for scale, r in product.factors:
        if r <= 0:
            raise ValueError("eta product exponents must be positive")
        tail = series_mul(tail, series_pow(list(_euler_product(scale, prec)), r, prec + 1), prec + 1)
    level = 1
    for scale, _ in product.factors:
        level = level * scale // math.gcd(level, scale)
    coeffs = [0] * prec
    for n in range(max(lead, 1), prec + 1):
        coeffs[n - 1] = tail[n - lead]
    return QExpansion(tuple(coeffs), int(weight), level)


@lru_cache(maxsize=None)
def delta_expansion(prec: int) -> QExpansion:
    """The discriminant cusp form eta(z)^24 = q - 24q^2 + 252q^3 - ..."""
    return eta_expand(EtaProduct(((1, 24),)), prec)


def tau(n: int) -> int:
    """Ramanujan tau(n) read off the eta-product expansion."""
    return delta_expansion(max(n, 16)).coefficient(n)


def victor_miller_basis(weight: int, prec: int) -> list[QExpansion]:
    """Echelonized integral basis of the level-1 weight-k cusp space, built
    from Delta^j * E_4^a * E_6^b and reduced to pivots 1..d.

    Returns [] for weights of dimension zero.  Weight must be even >= 4.
    """
    if weight < 4 or weight % 2:
        raise ValueError(f"weight must be even >= 4, got {weight}")
    dim = weight // 12 - (1 if weight % 12 == 2 else 0)
    if dim <= 0:
        return []
    delta = list(delta_expansion(prec).coeffs)
    delta_full = [0] + delta  # include a_0 = 0
    e4 = eisenstein_series_full(4, prec)
    e6 = eisenstein_series_full(6, prec)
    rows = []
    for j in range(1, dim + 1):
        rem = weight - 12 * j
        b = 0 if rem % 4 == 0 else 1
        a = (rem - 6 * b) // 4
        series = series_pow(delta_full, j, prec + 1)
        if a:
            series = series_mul(series, series_pow(e4, a, prec + 1), prec + 1)
        if b:
            series = series_mul(series, series_pow(e6, b, prec + 1), prec + 1)
        rows.append(series[1 : prec + 1])
    reduced, _ = rref(rows)
    return [QExpansion(tuple(row), weight, 1) for row in reduced]
