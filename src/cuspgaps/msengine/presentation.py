"""Finite presentation of weight-k modular symbols for Gamma_0(N).

Manin symbols are pairs (X^i Y^(k-2-i), (c:d)) indexed by
t = i * |P^1| + p1_index.  The presentation quotients the free module on
these symbols by the standard two-term and three-term relations

    x + x.sigma = 0,   x + x.tau + x.tau^2 = 0,

together with the star identification x = x.iota (the plus quotient; the
star involution acts by [P, (c:d)] -> (-1)^i [P, (-c:d)] for even weight).
Two-term and star relations are absorbed into a signed union-find, which
lives only while the presentation is built: it leaves one fold table that
sends each Manin symbol to (live column, sign), or to None if the symbol
is zero.  The three-term relations are eliminated by exact integer echelon
reduction; each pivot column is stored as an integer row over the free
columns (the generators), scaled by one common denominator D, the lcm of
the leads of the primitive integer RREF rows.  Reducing a
combination of symbols into the quotient therefore sums integers and
divides by D once.  The cuspidal subspace is the kernel of the boundary
map to cusp classes (cusps taken modulo Gamma_0(N) and negation, which is
what the star quotient sees), kept as primitive integer vectors.  Its
dimension must equal dim S_k(Gamma_0(N)); a mismatch raises EngineError
since it would mean a presentation convention bug.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from ..arith import xgcd
from ..errors import EngineError
from ..invariants import check_level, check_weight, cusp_dim
from ..linalg import Echelonizer, kernel_basis
from .action import Mat2, act_path, expand_monomial, mat_adjugate, mat_det, mat_mul2
from .p1 import p1_space

TAU: Mat2 = ((0, -1), (1, -1))
TAU2: Mat2 = ((-1, 1), (-1, 0))


class _SignedUnionFind:
    """Union-find tracking x = +/- y identifications and forced zeros."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.sign = [1] * n
        self.zero = [False] * n

    def find(self, x: int) -> tuple[int, int]:
        chain = []
        while self.parent[x] != x:
            chain.append(x)
            x = self.parent[x]
        root = x
        acc = 1  # cumulative sign from node to root, compressed as we return
        for y in reversed(chain):
            acc *= self.sign[y]
            self.parent[y] = root
            self.sign[y] = acc
        return root, acc if chain else 1

    def union(self, x: int, y: int, s: int) -> None:
        """Impose value(x) = s * value(y)."""
        rx, sx = self.find(x)
        ry, sy = self.find(y)
        if rx == ry:
            if sx != s * sy:
                self.zero[rx] = True
            return
        rel = sx * s * sy  # value(rx) = rel * value(ry), and symmetrically
        # keep the smaller index as root for deterministic generators
        if rx < ry:
            self.parent[ry] = rx
            self.sign[ry] = rel
            if self.zero[ry]:
                self.zero[rx] = True
        else:
            self.parent[rx] = ry
            self.sign[rx] = rel
            if self.zero[rx]:
                self.zero[ry] = True


def _sl2_lift(c: int, d: int) -> Mat2:
    """Some (a, b; c, d) in SL_2(Z); requires gcd(c, d) = 1."""
    g, x, y = xgcd(d, c)
    if g != 1:
        raise ValueError(f"({c}, {d}) does not lift to SL_2(Z)")
    return ((x, -y), (c, d))


def _cusps_equivalent(p: tuple[int, int], q: tuple[int, int], level: int) -> bool:
    """Gamma_0(N)-equivalence of cusps u1/v1, u2/v2 in lowest terms
    (Cremona's criterion: s1 v2 == s2 v1 mod gcd(v1 v2, N))."""
    u1, v1 = p
    u2, v2 = q
    s1 = xgcd(u1, v1)[1]
    s2 = xgcd(u2, v2)[1]
    return (s1 * v2 - s2 * v1) % gcd(level, v1 * v2) == 0


class MSPresentation:
    """Presentation of the plus quotient of weight-k modular symbols."""

    def __init__(self, level: int, weight: int):
        check_level(level)
        check_weight(weight)
        self.level = level
        self.weight = weight
        self.degree = weight - 2
        self.p1 = p1_space(level)
        self.n_p1 = len(self.p1)
        self.ncols = (weight - 1) * self.n_p1
        self._lift_cache: list[Mat2 | None] = [None] * self.n_p1
        self._build_quotient()
        self._build_cuspidal()

    # -- construction ------------------------------------------------------

    def _bottom_rep(self, j: int) -> tuple[int, int]:
        c, d = self.p1[j]
        if self.level == 1:
            return (0, 1)
        return (c, d)

    def _lift(self, j: int) -> Mat2:
        m = self._lift_cache[j]
        if m is None:
            m = _sl2_lift(*self._bottom_rep(j))
            self._lift_cache[j] = m
        return m

    def _build_quotient(self) -> None:
        n_p1, deg = self.n_p1, self.degree
        uf = _SignedUnionFind(self.ncols)

        for j in range(n_p1):
            c, d = self.p1[j]
            j_sigma = self.p1.index(d, -c)
            j_star = self.p1.index(-c, d)
            for i in range(deg + 1):
                t = i * n_p1 + j
                # x . sigma = (-1)^i [X^(deg-i) Y^i, (d:-c)]
                sign_sigma = -1 if i % 2 else 1
                # relation x + x.sigma = 0  =>  x = -(x.sigma)
                uf.union(t, (deg - i) * n_p1 + j_sigma, -sign_sigma)
                # star: x = (-1)^i [X^i Y^(deg-i), (-c:d)]
                uf.union(t, i * n_p1 + j_star, sign_sigma)

        roots = sorted({uf.find(t)[0] for t in range(self.ncols)})
        live_roots = [r for r in roots if not uf.zero[r]]
        col_of_root = {r: idx for idx, r in enumerate(live_roots)}
        width = len(live_roots)
        fold: list[tuple[int, int] | None] = []
        for t in range(self.ncols):
            r, s = uf.find(t)
            fold.append(None if uf.zero[r] else (col_of_root[r], s))

        ech = Echelonizer(width)
        for j in range(n_p1):
            c, d = self.p1[j]
            j_tau = self.p1.index(d, -c - d)
            j_tau2 = self.p1.index(-c - d, c)
            for i in range(deg + 1):
                row = [0] * width
                for sym, coeff in self._three_term(i * n_p1 + j, i, j_tau, j_tau2):
                    if fold[sym] is not None:
                        col, s = fold[sym]
                        row[col] += s * coeff
                if any(row):
                    ech.add(row)

        pivots = ech.pivots()
        pivot_set = set(pivots)
        free_cols = [c for c in range(width) if c not in pivot_set]
        reduced = ech.reduced_rows()
        den = lcm(*(row[pc] for row, pc in zip(reduced, pivots)))
        self._fold = fold
        self._free_cols = free_cols
        self._pivot_rows = [
            (pc, [(gi, -row[f] * (den // row[pc])) for gi, f in enumerate(free_cols) if row[f]])
            for row, pc in zip(reduced, pivots)
        ]
        self._den = den
        self.generators = [live_roots[c] for c in free_cols]  # root symbol per generator
        self.dimension = len(free_cols)

    def _three_term(self, t: int, i: int, j_tau: int, j_tau2: int):
        """Terms of x + x.tau + x.tau^2 for the monomial symbol t."""
        yield t, 1
        for poly, jj in ((TAU, j_tau), (TAU2, j_tau2)):
            for dx, coeff in enumerate(expand_monomial(i, self.degree, poly)):
                if coeff:
                    yield dx * self.n_p1 + jj, coeff

    def _build_cuspidal(self) -> None:
        deg = self.degree
        cusp_reps: list[tuple[int, int]] = []

        def cusp_class(pair: tuple[int, int]) -> int:
            num, den = pair
            g = gcd(abs(num), abs(den))
            if g > 1:
                num, den = num // g, den // g
            if den < 0:
                num, den = -num, -den
            for idx, rep in enumerate(cusp_reps):
                if _cusps_equivalent(rep, (num, den), self.level) or _cusps_equivalent(
                    rep, (-num, den), self.level
                ):
                    return idx
            cusp_reps.append((num, den))
            return len(cusp_reps) - 1

        rows: dict[int, list[int]] = {}
        for gen_idx, root in enumerate(self.generators):
            i, j = divmod(root, self.n_p1)
            (a, b), (c, d) = self._lift(j)
            if i == deg:
                cls = cusp_class((a, c))
                rows.setdefault(cls, [0] * self.dimension)[gen_idx] += 1
            if i == 0:
                cls = cusp_class((b, d))
                rows.setdefault(cls, [0] * self.dimension)[gen_idx] -= 1

        boundary = [rows[idx] for idx in sorted(rows)]
        self.cusp_count = len(cusp_reps)
        self.cuspidal_basis = [tuple(v) for v in kernel_basis(boundary, width=self.dimension)]
        self.cuspidal_dimension = len(self.cuspidal_basis)
        expected = cusp_dim(self.level, self.weight)
        if self.cuspidal_dimension != expected:
            raise EngineError(
                f"cuspidal plus-subspace at ({self.level}, {self.weight}) has dimension "
                f"{self.cuspidal_dimension}, dimension formula gives {expected}"
            )

    # -- quotient coordinates ----------------------------------------------

    def raw_to_quotient(self, raw: dict) -> list[Fraction]:
        """A combination {Manin symbol: coefficient} in generator coordinates:
        fold the symbols into live columns, add the integer row of each
        non-zero pivot column, and divide by the common denominator once."""
        acc = [0] * (self.dimension + len(self._pivot_rows))
        fold = self._fold
        for t, val in raw.items():
            if val and fold[t] is not None:
                col, s = fold[t]
                acc[col] += s * val
        out = [acc[c] * self._den for c in self._free_cols]
        for pc, row in self._pivot_rows:
            a = acc[pc]
            if a:
                for gi, e in row:
                    out[gi] += a * e
        return [Fraction(x, self._den) for x in out]

    # -- matrix action and Hecke operators -----------------------------------

    def act_symbol_raw(self, t: int, delta: Mat2) -> dict[int, int]:
        """delta . (symbol t) as an integer combination of Manin symbols."""
        if mat_det(delta) <= 0:
            raise ValueError("action requires positive determinant")
        i, j = divmod(t, self.n_p1)
        (a, b), (c, d) = self._lift(j)
        g_inv: Mat2 = ((d, -b), (-c, a))
        transport = mat_mul2(g_inv, mat_adjugate(delta))
        to_pair = (delta[0][0] * a + delta[0][1] * c, delta[1][0] * a + delta[1][1] * c)
        from_pair = (delta[0][0] * b + delta[0][1] * d, delta[1][0] * b + delta[1][1] * d)
        raw: dict[int, int] = {}
        for deg_x, bottom, coeff in act_path(transport, i, self.degree, from_pair, to_pair):
            col = deg_x * self.n_p1 + self.p1.index(bottom[0], bottom[1])
            raw[col] = raw.get(col, 0) + coeff
        return raw


def hecke_cosets(n: int, level: int) -> list[tuple[int, int, int]]:
    """Upper-triangular coset data (a, b, d) with ad = n, 0 <= b < d and
    gcd(a, N) = 1, defining T_n = sum of (a, b; 0, d) actions."""
    if n < 1:
        raise ValueError("Hecke index must be >= 1")
    out = []
    for a in range(1, n + 1):
        if n % a == 0 and gcd(a, level) == 1:
            d = n // a
            out.extend((a, b, d) for b in range(d))
    return out


@lru_cache(maxsize=64)
def build_presentation(level: int, weight: int) -> MSPresentation:
    """Cached presentation of the plus quotient for (N, k)."""
    return MSPresentation(level, weight)
