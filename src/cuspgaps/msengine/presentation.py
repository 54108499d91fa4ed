"""Finite presentation of weight-k modular symbols for Gamma_0(N).

Manin symbols are pairs (X^i Y^(k-2-i), (c:d)) indexed by
t = i * |P^1| + p1_index.  Each class (c:d) is lifted once, on building,
to an SL_2(Z) matrix with bottom row (c, d); at level 1 the one class (0:1)
lifts to the identity.  The presentation quotients the free module on
these symbols by the standard two-term and three-term relations

    x + x.sigma = 0,   x + x.tau + x.tau^2 = 0,

together with the star identification x = x.iota (the plus quotient; the
star involution acts by [P, (c:d)] -> (-1)^i [P, (-c:d)] for even weight).
sigma and iota are commuting involutions of the symbols up to sign, so the
two-term and star relations tie each symbol x exactly to its orbit
{x, x.sigma, x.iota, x.sigma.iota} under <sigma, iota>.  One pass in
symbol order folds each orbit into one live column, headed by its least
symbol, or to zero when the relations force x = -x; it leaves one fold
table that sends each Manin symbol to (live column, sign), or to None if
the symbol is zero.  The three-term relations are imposed at one P^1
class per orbit {j, j.tau, j.tau^2}: tau^3 = I, so the relation of
[P|tau, j.tau] is that of [P, j], and as P runs over the polynomials of
degree k-2 so does P|tau; the classes j.tau and j.tau^2 add no relation,
and the row space, hence its integral RREF, is the one every class
gives.  The relations are eliminated by exact integer echelon
reduction, skipping each row that the folds made a multiple of a row
already added; each pivot column is stored as an integer row over the
free columns (the generators), scaled by one common denominator D
(the `denominator` attribute), the lcm of the leads of the primitive
integer RREF rows.  Reducing a combination of symbols into the quotient
therefore sums integers only: raw_to_quotient takes the combination as
unexpanded pieces per P^1 class, sums each class as one packed integer
and returns the integer vector D*v of the generator coordinates v, and
callers divide by D only where a rational value leaves the engine.  The
cuspidal subspace is the kernel of the boundary map to cusp classes
(cusps taken modulo Gamma_0(N) and negation, which is what the star
quotient sees).  The cusp of a lift's g(oo) depends only on its P^1
class, so the cusp classes are orbits on P^1 too, read off the same
lookup table.  The kernel is kept as primitive integer vectors.  Its
dimension must equal dim S_k(Gamma_0(N)); a mismatch raises EngineError
since it would mean a presentation convention bug.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import mul

from ..arith import xgcd
from ..errors import EngineError
from ..invariants import check_index, check_level, check_weight, cusp_dim
from ..linalg import Echelonizer, kernel_basis, make_primitive
from .action import (
    Mat2,
    Piece,
    act_path,
    digit_width,
    expand_monomial,
    mat_adjugate,
    mat_det,
    mat_mul2,
    pack,
    unpack,
)
from .p1 import P1, p1_space

TAU: Mat2 = ((0, -1), (1, -1))
TAU2: Mat2 = ((-1, 1), (-1, 0))


def _sl2_lift(c: int, d: int) -> Mat2:
    """Some (a, b; c, d) in SL_2(Z); requires gcd(c, d) = 1."""
    g, x, y = xgcd(d, c)
    if g != 1:
        raise ValueError(f"({c}, {d}) does not lift to SL_2(Z)")
    return ((x, -y), (c, d))


def _cusp_classes(p1: P1) -> list[int]:
    """The cusp class of g_j(oo) for each class j of P^1, labelled by the
    least j in it.  With g_j = (a, b; c, d), the cusp a/c depends only on
    j = (c:d), and the cusps modulo Gamma_0(N) and negation are the orbits
    of (c:d) -> (c:c+d) and (c:d) -> (-c:d); g_j(0) = g_j S(oo) is the
    cusp of the class (d:-c)."""
    cusp = [-1] * len(p1)
    for j in range(len(p1)):
        if cusp[j] < 0:
            cusp[j] = j
            stack = [j]
            while stack:
                c, d = p1[stack.pop()]
                for y in (p1.index(c, c + d), p1.index(-c, d)):
                    if cusp[y] < 0:
                        cusp[y] = j
                        stack.append(y)
    return cusp


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
        self._lifts = [_sl2_lift(c, d) for c, d in self.p1]
        self._build_quotient()
        self._build_cuspidal()

    # -- construction ------------------------------------------------------

    def _build_quotient(self) -> None:
        n_p1, deg = self.n_p1, self.degree
        sigma = [self.p1.index(d, -c) for c, d in self.p1]
        iota = [self.p1.index(-c, d) for c, d in self.p1]

        # sigma and iota commute, so the symbols tied to x by the two-term
        # and star relations are its orbit {x, x.sigma, x.iota, x.sigma.iota},
        # on which value(y) = sign * value(x); each orbit is folded when its
        # least symbol, its root, is met, and is zero when one symbol is
        # reached with both signs
        fold: list[tuple[int, int] | None] = [None] * self.ncols
        live_roots: list[int] = []
        for t in range(self.ncols):
            i, j = divmod(t, n_p1)
            s = -1 if i % 2 else 1
            # x + x.sigma = 0 with x.sigma = (-1)^i [X^(deg-i) Y^i, (d:-c)],
            # and x = x.iota = (-1)^i [X^i Y^(deg-i), (-c:d)]
            orbit = {
                (t, 1),
                ((deg - i) * n_p1 + sigma[j], -s),
                (i * n_p1 + iota[j], s),
                ((deg - i) * n_p1 + iota[sigma[j]], -1),
            }
            symbols = {sym for sym, _ in orbit}
            if min(symbols) == t and len(symbols) == len(orbit):
                for sym, sign in orbit:
                    fold[sym] = (len(live_roots), sign)
                live_roots.append(t)
        width = len(live_roots)

        # the three-term relations of one class per tau-orbit, its least;
        # a row whose primitive form was added before is a multiple of that
        # row, so dependent, and is skipped.  The folds make many such rows,
        # mostly the row of X^(deg-i) at another class: 40 of 118 at (19, 16)
        ech = Echelonizer()
        added = set()
        # X^i Y^(deg-i) under tau and tau^2, which depend on i alone
        images = [(expand_monomial(i, deg, TAU), expand_monomial(i, deg, TAU2))
                  for i in range(deg + 1)]
        seen = [False] * n_p1
        for j in range(n_p1):
            if seen[j]:
                continue
            c, d = self.p1[j]
            j_tau = self.p1.index(d, -c - d)
            j_tau2 = self.p1.index(-c - d, c)
            seen[j] = seen[j_tau] = seen[j_tau2] = True
            for i, (by_tau, by_tau2) in enumerate(images):
                row = [0] * width
                for sym, coeff in self._three_term(i * n_p1 + j, by_tau, j_tau, by_tau2, j_tau2):
                    if fold[sym] is not None:
                        col, s = fold[sym]
                        row[col] += s * coeff
                key = tuple(make_primitive(row))
                if any(key) and key not in added:
                    added.add(key)
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
        self.denominator = den
        # the bit length of the largest entry of a live column's row
        self._row_bits = max([den.bit_length()]
                             + [abs(e).bit_length() for _, row in self._pivot_rows for _, e in row])
        self._packed: dict[int, list[int]] = {}
        self.generators = [live_roots[c] for c in free_cols]  # root symbol per generator
        self.dimension = len(free_cols)

    def _three_term(self, t: int, by_tau: list[int], j_tau: int, by_tau2: list[int], j_tau2: int):
        """Terms of x + x.tau + x.tau^2 for the monomial symbol t, given the
        expansions of its monomial under tau and tau^2 and its class's images."""
        yield t, 1
        for coeffs, jj in ((by_tau, j_tau), (by_tau2, j_tau2)):
            for dx, coeff in enumerate(coeffs):
                if coeff:
                    yield dx * self.n_p1 + jj, coeff

    def _build_cuspidal(self) -> None:
        p1 = self.p1
        cusp = _cusp_classes(p1)
        rows: dict[int, list[int]] = {}
        for gen_idx, root in enumerate(self.generators):
            i, j = divmod(root, self.n_p1)
            c, d = p1[j]
            # the boundary of [X^i Y^(k-2-i), g_j] is [g_j(oo)] if i = k-2,
            # minus [g_j(0)] if i = 0
            if i == self.degree:
                rows.setdefault(cusp[j], [0] * self.dimension)[gen_idx] += 1
            if i == 0:
                rows.setdefault(cusp[p1.index(d, -c)], [0] * self.dimension)[gen_idx] -= 1

        boundary = list(rows.values())
        self.cuspidal_basis = [tuple(v) for v in kernel_basis(boundary, width=self.dimension)]
        self.cuspidal_dimension = len(self.cuspidal_basis)
        expected = cusp_dim(self.level, self.weight)
        if self.cuspidal_dimension != expected:
            raise EngineError(
                f"cuspidal plus-subspace at ({self.level}, {self.weight}) has dimension "
                f"{self.cuspidal_dimension}, dimension formula gives {expected}"
            )

    # -- quotient coordinates ----------------------------------------------

    def raw_to_quotient(self, raw: dict[int, list[Piece]]) -> list[int]:
        """A sum of pieces {P^1 class: [(scale, i, m), ...]}, each piece the
        polynomial scale * X^i Y^(k-2-i) | m at its class, in generator
        coordinates scaled by the denominator D: the integer vector D*v.

        Each class's pieces are summed as one packed integer at X = 2^s,
        Y = 1, with one width for the whole sum: s = E + bitlen(sum |scale|)
        + 1, E the largest i bitlen(|a|+|b|) + (k-2-i) bitlen(|c|+|d|) of a
        piece, as each coefficient of a piece is at most 2^E in size (see
        the action module).  The k-1 digits of a class are the coefficients
        of its Manin symbols, one |P^1| apart, and each is folded into its
        live column as it is read.  The live columns then reach the
        generators by the same trick: each live column's integer row over
        the generators (D e_g for a free column, the stored row for a pivot
        column) is packed at a width w that holds every output coordinate,
        |sum_c acc_c row_c| <= sum |acc| max |row entry|, and the rows,
        scaled by the column values and summed, are read once.  w is a
        power of two, at least 64, so that the packed rows are built for
        few widths and kept.  A generator [X^i Y^(k-2-i), j] given as
        {j: [(1, i, identity)]} maps to D times its unit vector."""
        deg, fold = self.degree, self._fold
        s = digit_width([piece for pieces in raw.values() for piece in pieces], deg)
        acc = [0] * (self.dimension + len(self._pivot_rows))
        for j, pieces in raw.items():
            for t, val in zip(range(j, self.ncols, self.n_p1), unpack(pack(pieces, deg, s), deg, s)):
                if val and fold[t] is not None:
                    col, sign = fold[t]
                    acc[col] += sign * val
        w = max(64, 1 << (sum(map(abs, acc)).bit_length() + self._row_bits).bit_length())
        return unpack(sum(map(mul, acc, self._packed_rows(w))), self.dimension - 1, w)

    def _packed_rows(self, w: int) -> list[int]:
        """The integer row over the generators of each live column, packed
        at width w (digit g at bit w*g), built once per width."""
        rows = self._packed.get(w)
        if rows is None:
            rows = [0] * (self.dimension + len(self._pivot_rows))
            for gi, c in enumerate(self._free_cols):
                rows[c] = self.denominator << w * gi
            for pc, row in self._pivot_rows:
                rows[pc] = sum(e << w * gi for gi, e in row)
            self._packed[w] = rows
        return rows

    # -- matrix action and Hecke operators -----------------------------------

    def act_symbol_raw(self, t: int, delta: Mat2, raw: dict[int, list[Piece]], scale: int) -> dict:
        """Add scale * (delta . symbol t) into the sum of pieces raw (see
        raw_to_quotient) and return it: each unimodular piece of the path
        is looked up in P^1 once and recorded unexpanded, as
        (signed scale, i, transport) under its class."""
        if mat_det(delta) <= 0:
            raise ValueError("action requires positive determinant")
        i, j = divmod(t, self.n_p1)
        (a, b), (c, d) = self._lifts[j]
        g_inv: Mat2 = ((d, -b), (-c, a))
        transport = mat_mul2(g_inv, mat_adjugate(delta))
        to_pair = (delta[0][0] * a + delta[0][1] * c, delta[1][0] * a + delta[1][1] * c)
        from_pair = (delta[0][0] * b + delta[0][1] * d, delta[1][0] * b + delta[1][1] * d)
        index = self.p1.index
        for (u, v), sign, m in act_path(transport, from_pair, to_pair):
            raw.setdefault(index(u, v), []).append((sign * scale, i, m))
        return raw


def hecke_cosets(n: int, level: int) -> list[tuple[int, int, int]]:
    """Upper-triangular coset data (a, b, d) with ad = n, 0 <= b < d and
    gcd(a, N) = 1, defining T_n = sum of (a, b; 0, d) actions."""
    check_index("Hecke index", n, 1)
    out = []
    for a in range(1, n + 1):
        if n % a == 0 and gcd(a, level) == 1:
            d = n // a
            out.extend((a, b, d) for b in range(d))
    return out


@lru_cache(maxsize=64, typed=True)
def build_presentation(level: int, weight: int) -> MSPresentation:
    """Cached presentation of the plus quotient for (N, k)."""
    return MSPresentation(level, weight)
