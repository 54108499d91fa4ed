"""The projective line P^1(Z/NZ): enumeration and canonical representatives.

Classes are orbits of pairs (u, v) with gcd(u, v, N) = 1 under scaling by
units of Z/NZ.  The canonical representative (c, d) of a class is (0, 1)
or has c | N; either way gcd(c, d) = 1, so it lifts to the bottom row of an
SL_2(Z) matrix.  Level 1 is no special case: every pair is (0, 0) mod 1,
which normalizes to (0, 1), so P^1(Z/1Z) = [(0, 1)].  The normalization
follows Stein, Algorithm 8.29; it runs only while the space is built.
Lookups go through one dense table over all N^2 pairs mod N, filled by
spreading each representative over its orbit under the units (Cremona,
Algorithms for Modular Elliptic Curves, ch. 2), so index() is a single
list access.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from ..arith import xgcd


def _lift_unit(a: int, d: int, n: int) -> int:
    """Lift a unit a modulo d (with d | n) to a unit modulo n."""
    # split n = n1 * n2 with n1 supported on primes of d and gcd(n2, d) = 1
    n1, n2 = 1, n
    g = gcd(n2, d)
    while g > 1:
        n1 *= g
        n2 //= g
        g = gcd(n2, g)
    if n2 == 1:
        return a % n
    # any lift of a mod d is a unit mod n1; CRT with 1 mod n2
    g, x, y = xgcd(n1, n2)
    return ((a % n1) * y * n2 + x * n1) % n


class P1:
    """Enumerated P^1(Z/NZ) with constant-time index lookup."""

    def __init__(self, level: int):
        if level < 1:
            raise ValueError("level must be >= 1")
        n = self.level = level
        self._reps = sorted({self.normalize(u, v) for u, v in self._candidates()})
        # table[u * N + v] is the index of the class of (u, v), or -1 when
        # gcd(u, v, N) > 1; scaling by units covers every point of a class
        table = [-1] * (n * n)
        units = [s for s in range(n) if gcd(s, n) == 1]
        for i, (c, d) in enumerate(self._reps):
            for s in units:
                table[s * c % n * n + s * d % n] = i
        self._table = table

    def _candidates(self):
        n = self.level
        # (1, v) covers all classes with unit first coordinate; (c, v) with
        # c | N, c > 1 covers the rest
        for v in range(n):
            yield 1, v
        for c in range(2, n + 1):
            if n % c == 0:
                for v in range(n):
                    if gcd(gcd(c, v), n) == 1:
                        yield c, v

    def __len__(self) -> int:
        return len(self._reps)

    def __getitem__(self, i: int) -> tuple[int, int]:
        return self._reps[i]

    def __iter__(self):
        return iter(self._reps)

    def normalize(self, u: int, v: int) -> tuple[int, int]:
        """Canonical representative of the class of (u, v).

        Raises ValueError when gcd(u, v, N) > 1 (not a point of P^1).
        """
        n = self.level
        u %= n
        v %= n
        if gcd(gcd(u, v), n) != 1:
            raise ValueError(f"({u}, {v}) is not a point of P^1(Z/{n})")
        if u == 0:
            return (0, 1)
        g, s, _ = xgcd(u, n)
        # s*u == g (mod n); s is a unit mod n/g
        s = _lift_unit(s % (n // g), n // g, n)
        u1, v1 = g, s * v % n
        if g == 1:
            return (1, v1)
        # the stabilizer of the first coordinate g scales v by units
        # congruent to 1 mod n/g; take the minimum
        best = v1
        for j in range(1, g):
            t = 1 + j * (n // g)
            if gcd(t, n) == 1:
                cand = t * v1 % n
                if cand < best:
                    best = cand
        return (g, best)

    def index(self, u: int, v: int) -> int:
        """Position of the class of (u, v) among the representatives.

        Raises ValueError when gcd(u, v, N) > 1 (not a point of P^1).
        """
        n = self.level
        u %= n
        v %= n
        i = self._table[u * n + v]
        if i < 0:
            raise ValueError(f"({u}, {v}) is not a point of P^1(Z/{n})")
        return i


@lru_cache(maxsize=None)
def p1_space(level: int) -> P1:
    return P1(level)


def p1_enumerate(level: int) -> list[tuple[int, int]]:
    """Ordered list of canonical P^1(Z/NZ) representatives."""
    return list(p1_space(level))
