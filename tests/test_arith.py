"""Number theory helpers."""

from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from cuspgaps.arith import (
    divisors,
    factorize,
    is_prime,
    primes_up_to,
    trial_factor,
    xgcd,
)
from test_invariants import euler_phi


@given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=-10**6, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_xgcd(a, b):
    g, x, y = xgcd(a, b)
    assert g == gcd(a, b)
    assert a * x + b * y == g


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_factorize_roundtrip(n):
    prod = 1
    for p, e in factorize(n):
        assert is_prime(p)
        prod *= p**e
    assert prod == n
    assert trial_factor(n) == factorize(n)


def test_primes_up_to():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == []


def test_divisors_and_phi():
    assert divisors(46) == [1, 2, 23, 46]
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert sum(euler_phi(d) for d in divisors(360)) == 360

