"""Eisenstein series, eta products, Victor-Miller bases, and tau."""

from math import gcd

import pytest

from oracles import (
    EtaProduct,
    delta_expansion,
    eisenstein_E,
    eisenstein_series_full,
    eta_expand,
    tau,
    victor_miller_basis,
)


def test_eisenstein_leading_coefficients():
    e4 = eisenstein_E(4, 10)
    assert eisenstein_series_full(4, 10)[0] == 1
    assert e4.coefficient(1) == 240  # sigma_3(1) = 1
    e6 = eisenstein_E(6, 10)
    assert e6.coefficient(1) == -504  # sigma_5(1) = 1
    with pytest.raises(ValueError):
        eisenstein_E(8, 10)


def test_discriminant_from_eisenstein():
    """E_4^3 - E_6^2 = 1728 Delta, coefficientwise: an independent route."""
    from oracles import series_pow

    prec = 40
    e4 = eisenstein_series_full(4, prec)
    e6 = eisenstein_series_full(6, prec)
    num = [a - b for a, b in zip(series_pow(e4, 3, prec + 1), series_pow(e6, 2, prec + 1))]
    delta = delta_expansion(prec)
    assert num[0] == 0
    for n in range(1, prec + 1):
        assert num[n] % 1728 == 0
        assert num[n] // 1728 == delta.coefficient(n)


def test_delta_leading_terms():
    d = delta_expansion(10)
    assert d.coeffs[:4] == (1, -24, 252, -1472)
    assert d.weight == 12 and d.level == 1


def test_eta_products():
    f = eta_expand(EtaProduct(((1, 2), (11, 2))), 12)
    assert f.coefficient(1) == 1 and f.coefficient(2) == -2
    assert f.weight == 2
    empty = eta_expand(EtaProduct(()), 8)
    assert list(empty.coeffs) == [0] * 8  # constant 1 has no positive-index terms
    with pytest.raises(ValueError):
        eta_expand(EtaProduct(((1, 2),)), 10)  # leading exponent 1/12


def test_tau_multiplicativity():
    for m in range(2, 51):
        for n in range(2, 51 // m + 1):
            if gcd(m, n) == 1:
                assert tau(m * n) == tau(m) * tau(n)


def test_tau_prime_power_recursion():
    for p in (2, 3, 5, 7, 11, 13):
        assert tau(p * p) == tau(p) ** 2 - p**11


def test_victor_miller_shapes():
    assert victor_miller_basis(12, 15)[0].coeffs == delta_expansion(15).coeffs
    vm16 = victor_miller_basis(16, 15)
    assert len(vm16) == 1 and vm16[0].order() == 1
    vm28 = victor_miller_basis(28, 15)
    assert len(vm28) == 2 and [f.order() for f in vm28] == [1, 2]
    assert victor_miller_basis(4, 10) == []
    assert victor_miller_basis(14, 10) == []


def test_victor_miller_echelon_pivot_normalization():
    for k in (12, 16, 18, 20, 22, 26, 28):
        basis = victor_miller_basis(k, 30)
        pivots = [f.order() for f in basis]
        assert pivots == list(range(1, len(basis) + 1))
        for i, f in enumerate(basis):
            # reduced echelon: zero at the other pivots
            for j, c in enumerate(pivots):
                if j != i:
                    assert f.coefficient(c) == 0
