"""Small exact number-theory helpers shared across the package."""

from __future__ import annotations

from functools import lru_cache


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y == g == gcd(a, b), g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b != 0:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    f = 17
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            start = p * p
            sieve[start::p] = b"\x00" * len(sieve[start::p])
    return [i for i, v in enumerate(sieve) if v]


def trial_factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as a tuple of (p, e) pairs, by trial
    division; uncached, for numbers that are factored once."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """trial_factor(n), cached for numbers that are factored again and again."""
    return trial_factor(n)


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize(n):
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def kronecker_minus4(p: int) -> int:
    """Kronecker symbol (-4/p) for a prime p; (-4/2) = 0."""
    if p == 2:
        return 0
    return 1 if p % 4 == 1 else -1


def kronecker_minus3(p: int) -> int:
    """Kronecker symbol (-3/p) for a prime p; (-3/2) = -1."""
    if p == 3:
        return 0
    return 1 if p % 3 == 1 else -1

