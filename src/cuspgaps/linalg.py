"""Exact linear algebra over the rationals.

Matrices are lists of row lists holding ints or Fractions.  The one
elimination is Echelonizer, an incremental row-echelon accumulator over Z,
behind span membership, reduced bases, kernels and solve_columns.  Its
reduced rows and kernel vectors are primitive integer vectors with positive
lead, each a multiple of the one over Q.  The two products, mat_mul and
mat_vec, clear each factor's denominators once and sum in integers, then
divide once per entry.  Nothing here touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import EngineError


def _strip_content(row: list[int]) -> list[int]:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def clear_denominators(rows) -> tuple[list[list[int]], int]:
    """(integer rows, den) with rows = integer rows / den, den the lcm of
    every entry's denominator."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def make_primitive(row) -> list[int]:
    """Scale a rational row to a primitive integer row with positive lead;
    the result is always a new list."""
    if all(type(x) is int for x in row):
        ints = list(row)
    else:
        (ints,), _ = clear_denominators([row])
    ints = _strip_content(ints)
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return ints


class Echelonizer:
    """Incremental integer row echelon form.

    Rows are reduced against the current pivots by exact cross-multiplication
    and stripped to primitive integer vectors, so entries stay bounded.
    """

    def __init__(self, width: int):
        self.width = width
        self.pivot_rows: dict[int, list[int]] = {}  # pivot column -> primitive row

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row) -> list[int]:
        """Reduce a row against the current echelon; returns the primitive
        remainder (all-zero if the row was in the span)."""
        work = make_primitive(list(row))
        for col in sorted(self.pivot_rows):
            if work[col] != 0:
                piv = self.pivot_rows[col]
                a, b = piv[col], work[col]
                work = _strip_content([a * x - b * y for x, y in zip(work, piv)])
        return make_primitive(work)

    def add(self, row) -> int | None:
        """Insert a row; returns its pivot column, or None if dependent."""
        work = self.reduce(row)
        for col, x in enumerate(work):
            if x != 0:
                self.pivot_rows[col] = work
                return col
        return None

    def contains(self, row) -> bool:
        return all(x == 0 for x in self.reduce(row))

    def pivots(self) -> list[int]:
        return sorted(self.pivot_rows)

    def reduced_rows(self) -> list[list[int]]:
        """Fully back-reduced rows, ordered by pivot: each is the primitive
        integer multiple, with positive lead, of its RREF row over Q."""
        cols = self.pivots()
        rows = [self.pivot_rows[c] for c in cols]
        for i in reversed(range(len(cols))):
            c, piv = cols[i], rows[i]
            lead = piv[c]
            for j in range(i):
                b = rows[j][c]
                if b:
                    rows[j] = _strip_content([lead * x - b * y for x, y in zip(rows[j], piv)])
        return rows


def rref(matrix) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form, rows as in Echelonizer.reduced_rows;
    returns (rows, pivot columns)."""
    ech = Echelonizer(len(matrix[0]) if matrix else 0)
    for row in matrix:
        ech.add(row)
    return ech.reduced_rows(), ech.pivots()


def kernel_basis(matrix, width: int) -> list[list[int]]:
    """Basis of the right kernel {x : A x = 0} of a matrix with `width`
    columns (given, as A may have no rows), one primitive integer vector
    with positive lead per free column of the RREF, in column order."""
    rows, pivots = rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(width) if c not in pivot_set):
        scale = lcm(*(row[pc] for row, pc in zip(rows, pivots) if row[fc]))
        vec = [0] * width
        vec[fc] = scale
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc] * (scale // row[pc])
        basis.append(make_primitive(vec))
    return basis


def mat_mul(a, b) -> list[list[Fraction]]:
    """a b as Fractions, summed in integers over one common denominator."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    a, da = clear_denominators(a)
    bt, db = clear_denominators(list(zip(*b)))
    den = da * db
    return [[Fraction(sum(map(mul, row, col)), den) for col in bt] for row in a]


def mat_vec(a, v) -> list[Fraction]:
    a, da = clear_denominators(a)
    (v,), dv = clear_denominators([v])
    den = da * dv
    return [Fraction(sum(map(mul, row, v)), den) for row in a]


def solve_columns(columns, images) -> list[list[Fraction]]:
    """The matrix A with A c_j = z_j for columns c_j in Q^n and images z_j,
    read off the integral RREF of the rows [c_j | z_j], whose row i is
    lead * [e_i | column i of A].  Raises EngineError unless the pivots are
    0..n-1: the c_j must span Q^n and one A must meet every image."""
    n = len(columns[0]) if columns else 0
    rows, pivots = rref([list(c) + list(z) for c, z in zip(columns, images, strict=True)])
    if pivots != list(range(n)):
        raise EngineError("matrix is singular")
    m = len(images[0]) if n else 0
    return [[Fraction(row[n + r], row[i]) for i, row in enumerate(rows)] for r in range(m)]


def mat_inverse(a) -> list[list[Fraction]]:
    """Inverse of a square rational matrix: the solve sending column j to e_j."""
    n = len(a)
    return solve_columns(list(zip(*a)), [[int(i == j) for j in range(n)] for i in range(n)])
