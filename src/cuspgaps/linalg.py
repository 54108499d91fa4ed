"""Exact linear algebra over the rationals.

Matrices are lists of row lists holding ints or Fractions.  The workhorse
is Echelonizer, an incremental row-echelon accumulator over Z (rows are
rescaled to primitive integer vectors as they are inserted), used for rank
certification, span membership, kernels and reduced bases.  Everything is
deterministic and exact; nothing here ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import EngineError


def _row_content(row) -> int:
    g = 0
    for x in row:
        g = gcd(g, abs(x))
        if g == 1:
            return 1
    return g


def make_primitive(row) -> list[int]:
    """Scale a rational row to a primitive integer row with positive lead."""
    den = 1
    for x in row:
        if isinstance(x, Fraction):
            den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in row]
    g = _row_content(ints)
    if g > 1:
        ints = [x // g for x in ints]
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
                work = [a * x - b * y for x, y in zip(work, piv)]
                g = _row_content(work)
                if g > 1:
                    work = [x // g for x in work]
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

    def reduced_rows(self) -> list[list[Fraction]]:
        """Fully back-reduced rows (RREF over Q), ordered by pivot."""
        cols = self.pivots()
        rows = [[Fraction(x) for x in self.pivot_rows[c]] for c in cols]
        for i in reversed(range(len(cols))):
            c = cols[i]
            lead = rows[i][c]
            rows[i] = [x / lead for x in rows[i]]
            for j in range(i):
                factor = rows[j][c]
                if factor != 0:
                    rows[j] = [x - factor * y for x, y in zip(rows[j], rows[i])]
        return rows


def rref(matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (rows, pivot columns)."""
    if not matrix:
        return [], []
    ech = Echelonizer(len(matrix[0]))
    for row in matrix:
        ech.add(row)
    return ech.reduced_rows(), ech.pivots()


def rank(matrix) -> int:
    if not matrix:
        return 0
    ech = Echelonizer(len(matrix[0]))
    for row in matrix:
        ech.add(row)
    return ech.rank


def kernel_basis(matrix, width: int | None = None) -> list[list[Fraction]]:
    """Basis of the right kernel {x : A x = 0}, via RREF back-substitution."""
    if not matrix:
        if width is None:
            raise ValueError("kernel of an empty matrix needs an explicit width")
        return [[Fraction(i == j) for i in range(width)] for j in range(width)]
    n = len(matrix[0])
    rows, pivots = rref(matrix)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def mat_mul(a, b) -> list[list[Fraction]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    bt = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v) -> list[Fraction]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def mat_inverse(a) -> list[list[Fraction]]:
    """Inverse of a square rational matrix by Gauss-Jordan elimination."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            raise EngineError("matrix is singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        lead = work[col][col]
        work[col] = [x / lead for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]
