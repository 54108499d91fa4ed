"""Exact linear algebra: echelon, rank, kernel, inverse."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cuspgaps.errors import EngineError
from cuspgaps.linalg import (
    Echelonizer,
    kernel_basis,
    make_primitive,
    mat_inverse,
    mat_mul,
    mat_vec,
    rank,
    rref,
)

small_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


def test_make_primitive():
    assert make_primitive([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]
    assert make_primitive([-2, 4, -6]) == [1, -2, 3]
    assert make_primitive([0, 0]) == [0, 0]


@given(small_matrix)
@settings(max_examples=200, deadline=None)
def test_kernel_annihilates(m):
    for v in kernel_basis(m):
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)


@given(small_matrix)
@settings(max_examples=200, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == len(m[0])


@given(small_matrix)
@settings(max_examples=100, deadline=None)
def test_rref_idempotent(m):
    rows, pivots = rref(m)
    rows2, pivots2 = rref([[x for x in r] for r in rows])
    assert pivots == pivots2
    assert rows == rows2


def test_inverse():
    a = [[2, 1], [1, 1]]
    inv = mat_inverse(a)
    assert mat_mul(a, inv) == [[1, 0], [0, 1]]


def test_echelonizer_contains():
    ech = Echelonizer(3)
    ech.add([1, 2, 3])
    ech.add([0, 1, 1])
    assert ech.contains([1, 3, 4])
    assert not ech.contains([0, 0, 1])
    assert ech.rank == 2


def test_mat_vec():
    assert mat_vec([[1, 2], [3, 4]], [1, 1]) == [3, 7]


sizes = st.integers(min_value=1, max_value=5)
small_int = st.integers(min_value=-9, max_value=9)
small_fraction = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def _matrix(entries, n, m):
    return st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n)


small_rational_matrix = st.one_of(
    small_matrix, st.tuples(sizes, sizes).flatmap(lambda nm: _matrix(small_fraction, *nm))
)
square_matrix = st.one_of(
    sizes.flatmap(lambda n: _matrix(small_int, n, n)),
    sizes.flatmap(lambda n: _matrix(small_fraction, n, n)),
)


def _rref_over_q(matrix):
    """Plain Gauss-Jordan over Q: the reference the integer rows must scale to."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    for c in range(len(rows[0])):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _primitive_positive_led(vec):
    lead = next(x for x in vec if x)
    return all(type(x) is int for x in vec) and gcd(*vec) == 1 and lead > 0


@given(small_rational_matrix)
@settings(max_examples=200, deadline=None)
def test_reduced_rows_are_primitive_integer_rref(m):
    ech = Echelonizer(len(m[0]))
    for row in m:
        ech.add(row)
    rows, pivots = ech.reduced_rows(), ech.pivots()
    q_rows, q_pivots = _rref_over_q(m)
    assert pivots == q_pivots
    for row, q_row, c in zip(rows, q_rows, pivots):
        assert _primitive_positive_led(row)
        assert next(i for i, x in enumerate(row) if x) == c
        assert all(row[other] == 0 for other in pivots if other != c)
        assert [Fraction(x, row[c]) for x in row] == q_row
    assert rref(m) == (rows, pivots)


@given(small_rational_matrix)
@settings(max_examples=200, deadline=None)
def test_kernel_vectors_are_primitive_integers(m):
    basis = kernel_basis(m)
    _, pivots = _rref_over_q(m)
    free = [c for c in range(len(m[0])) if c not in pivots]
    assert len(basis) == len(free)
    for v, fc in zip(basis, free):
        assert _primitive_positive_led(v)
        assert v[fc] != 0 and all(v[c] == 0 for c in free if c != fc)
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)


def test_kernel_of_empty_matrix_is_integer_identity():
    assert kernel_basis([], width=2) == [[1, 0], [0, 1]]


@given(square_matrix)
@settings(max_examples=200, deadline=None)
def test_inverse_is_a_left_inverse(a):
    assume(rank(a) == len(a))
    n = len(a)
    assert mat_mul(mat_inverse(a), a) == [[int(i == j) for j in range(n)] for i in range(n)]


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            _matrix(small_int, n, n + 1),
            st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
            st.integers(min_value=0, max_value=n),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_singular_inverse_raises(data):
    rows, coeffs, at = data
    dependent = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(rows) + 1)]
    with pytest.raises(EngineError, match="singular"):
        mat_inverse(rows[:at] + [dependent] + rows[at:])
