"""The projective line P^1(Z/NZ): enumeration and canonical representatives.

Classes are orbits of pairs (u, v) with gcd(u, v, N) = 1 under scaling by
units of Z/NZ, and the canonical representative of a class is its least
pair in lexicographic order.  One sweep over the pairs mod N, in that
order, builds the representatives and a dense lookup table over all N^2
pairs together: the first point met that the table does not yet hold is
the least pair of a new class, and its orbit under the units is filled in
at once (Cremona, Algorithms for Modular Elliptic Curves, ch. 2).  index()
and normalize() are then single list reads.  The least pair (c, d) of a
class is (0, 1) or has c | N, so gcd(c, d) = 1 and it lifts to the bottom
row of an SL_2(Z) matrix.  The class of (0, 1), whose points are the
(0, s) with s a unit, is entered before the sweep, which then starts at
u = 1; at level 1 that class is the one point (0, 0), so
P^1(Z/1Z) = [(0, 1)] with no other special case.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from ..invariants import check_level


class P1:
    """Enumerated P^1(Z/NZ) with constant-time index lookup."""

    def __init__(self, level: int):
        n = self.level = check_level(level)
        units = [s for s in range(n) if gcd(s, n) == 1]
        # table[u * N + v] is the index of the class of (u, v), or -1 when
        # gcd(u, v, N) > 1; the class of (0, 1) is the points (0, s)
        table = [-1] * (n * n)
        for s in units:
            table[s] = 0
        reps = [(0, 1)]
        for u in range(1, n):
            g = gcd(u, n)
            for v in range(n):
                if table[u * n + v] < 0 and gcd(g, v) == 1:
                    for s in units:
                        table[s * u % n * n + s * v % n] = len(reps)
                    reps.append((u, v))
        self._reps = reps
        self._table = table

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
        return self._reps[self.index(u, v)]

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


@lru_cache(maxsize=None, typed=True)
def p1_space(level: int) -> P1:
    return P1(level)
