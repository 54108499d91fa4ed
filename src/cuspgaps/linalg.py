"""Exact linear algebra over the rationals.

Matrices are lists of row lists holding ints or Fractions.  The one
elimination is Echelonizer, an incremental row-echelon accumulator over Z,
behind rank, span membership, reduced bases, kernels and inverses.  Its
reduced rows and kernel vectors are primitive integer vectors with positive
lead, each a multiple of the one over Q.  Nothing here touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import EngineError


def _strip_content(row: list[int]) -> list[int]:
    """The integer row divided by the gcd of its entries."""
    g = 0
    for x in row:
        g = gcd(g, abs(x))
        if g == 1:
            return row
    return [x // g for x in row] if g > 1 else row


def make_primitive(row) -> list[int]:
    """Scale a rational row to a primitive integer row with positive lead."""
    den = 1
    for x in row:
        if isinstance(x, Fraction):
            den = den * x.denominator // gcd(den, x.denominator)
    ints = _strip_content([int(x * den) for x in row])
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


def _echelon(matrix) -> Echelonizer:
    ech = Echelonizer(len(matrix[0]) if matrix else 0)
    for row in matrix:
        ech.add(row)
    return ech


def rref(matrix) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form, rows as in Echelonizer.reduced_rows;
    returns (rows, pivot columns)."""
    ech = _echelon(matrix)
    return ech.reduced_rows(), ech.pivots()


def rank(matrix) -> int:
    return _echelon(matrix).rank


def kernel_basis(matrix, width: int | None = None) -> list[list[int]]:
    """Basis of the right kernel {x : A x = 0}, one primitive integer vector
    with positive lead per free column of the RREF, in column order."""
    if not matrix:
        if width is None:
            raise ValueError("kernel of an empty matrix needs an explicit width")
        return [[int(i == j) for i in range(width)] for j in range(width)]
    n = len(matrix[0])
    rows, pivots = rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(n) if c not in pivot_set):
        scale = lcm(*(row[pc] for row, pc in zip(rows, pivots) if row[fc]))
        vec = [0] * n
        vec[fc] = scale
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc] * (scale // row[pc])
        basis.append(make_primitive(vec))
    return basis


def mat_mul(a, b) -> list[list[Fraction]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    bt = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v) -> list[Fraction]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_inverse(a) -> list[list[Fraction]]:
    """Inverse of a square rational matrix, read off the integral RREF of
    [A | I]: row i of the inverse is row[n:] / row[i].  Raises EngineError
    if A is singular, i.e. if the pivots are not 0..n-1."""
    n = len(a)
    rows, pivots = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise EngineError("matrix is singular")
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(rows)]
