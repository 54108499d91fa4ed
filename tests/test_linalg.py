"""Exact linear algebra: echelon, rank, kernel, the column solve, inverse."""

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
    rref,
    solve_columns,
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
    for v in kernel_basis(m, len(m[0])):
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)


@given(small_matrix)
@settings(max_examples=200, deadline=None)
def test_rank_nullity(m):
    assert len(rref(m)[1]) + len(kernel_basis(m, len(m[0]))) == len(m[0])


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
    ech = Echelonizer()
    ech.add([1, 2, 3])
    ech.add([0, 1, 1])
    assert ech.contains([1, 3, 4])
    assert not ech.contains([0, 0, 1])
    assert ech.rank == 2


def test_mat_vec():
    assert mat_vec([[1, 2], [3, 4]], [1, 1]) == [3, 7]


def _plain_mat_mul(a, b):
    """The one-line Fraction sum the integer product replaced."""
    bt = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _plain_mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


_ints = st.integers(min_value=-10**6, max_value=10**6)
_fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


@st.composite
def _factors(draw):
    """(a, b, v) with a n x m, b m x l and v of length m, all entries drawn
    from one of: ints, Fractions, or both mixed; n, m, l may be 0."""
    entries = draw(st.sampled_from([_ints, _fractions, st.one_of(_ints, _fractions)]))
    n, m, width = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))

    def matrix(rows, cols):
        return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))

    return matrix(n, m), matrix(m, width), matrix(1, m)[0]


@given(_factors())
@settings(max_examples=300, deadline=None)
def test_products_equal_the_plain_fraction_sums(factors):
    a, b, v = factors
    product, image = mat_mul(a, b), mat_vec(a, v)
    assert product == _plain_mat_mul(a, b)
    assert image == _plain_mat_vec(a, v)
    assert all(type(x) is Fraction for row in product for x in row)
    assert all(type(x) is Fraction for x in image)


def test_mat_mul_shape_mismatch():
    with pytest.raises(ValueError, match="matrix shape mismatch"):
        mat_mul([[1, 2]], [[Fraction(1, 2), 3]])


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
    ech = Echelonizer()
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
    basis = kernel_basis(m, len(m[0]))
    _, pivots = _rref_over_q(m)
    free = [c for c in range(len(m[0])) if c not in pivots]
    assert len(basis) == len(free)
    for v, fc in zip(basis, free):
        assert _primitive_positive_led(v)
        assert v[fc] != 0 and all(v[c] == 0 for c in free if c != fc)
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)


def test_kernel_of_empty_matrix_is_integer_identity():
    assert kernel_basis([], 2) == [[1, 0], [0, 1]]


@given(square_matrix)
@settings(max_examples=200, deadline=None)
def test_inverse_is_a_left_inverse(a):
    assume(len(rref(a)[1]) == len(a))
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
    with pytest.raises(EngineError, match="^matrix is singular$"):
        mat_inverse(rows[:at] + [dependent] + rows[at:])


rational = st.one_of(small_int, small_fraction)


def _inverse_from_rref(a):
    """The read-off mat_inverse used before solve_columns: row i of the
    inverse is row[n:] / row[i] in the integral RREF of [A | I]."""
    n = len(a)
    rows, pivots = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    assert pivots == list(range(n))
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(rows)]


@given(
    st.tuples(sizes, sizes).flatmap(
        lambda nm: st.tuples(
            st.one_of(_matrix(small_int, nm[0], nm[0]), _matrix(small_fraction, nm[0], nm[0])),
            _matrix(rational, nm[0], nm[1]),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_solve_columns_meets_every_image(data):
    """On a random invertible integer or Fraction system, the solved A
    sends each column c_j exactly to its image z_j."""
    columns, images = data
    assume(len(rref(columns)[1]) == len(columns))
    a = solve_columns(columns, images)
    assert len(a) == len(images[0])
    for c, z in zip(columns, images):
        assert mat_vec(a, c) == z


@given(
    st.tuples(sizes, sizes, sizes).flatmap(
        lambda nml: st.tuples(
            st.one_of(_matrix(small_int, nml[0], nml[0]), _matrix(small_fraction, nml[0], nml[0])),
            _matrix(rational, nml[0], nml[1]),
            _matrix(rational, nml[0], nml[2]),
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_solve_columns_on_joined_images_stacks_the_separate_solves(data):
    """Solving for each column's two images side by side gives the two
    separate solves, one above the other, entry types included."""
    columns, first, second = data
    assume(len(rref(columns)[1]) == len(columns))
    joined = solve_columns(columns, [list(y) + list(z) for y, z in zip(first, second)])
    separate = solve_columns(columns, first) + solve_columns(columns, second)
    assert joined == separate
    assert [type(x) for row in joined for x in row] == [type(x) for row in separate for x in row]


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.one_of(_matrix(small_int, n, n + 1), _matrix(small_fraction, n, n + 1)),
            st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
            st.integers(min_value=0, max_value=n),
            _matrix(rational, n + 1, 2),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_solve_columns_rejects_dependent_columns(data):
    """n + 1 columns of Q^(n+1), one a combination of the others, do not
    fix A, whatever the images."""
    columns, coeffs, at, images = data
    dependent = [sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(len(columns) + 1)]
    with pytest.raises(EngineError, match="^matrix is singular$"):
        solve_columns(columns[:at] + [dependent] + columns[at:], images)


@given(square_matrix)
@settings(max_examples=200, deadline=None)
def test_inverse_matches_the_rref_read_off(a):
    assume(len(rref(a)[1]) == len(a))
    assert mat_inverse(a) == _inverse_from_rref(a)
