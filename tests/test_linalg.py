"""Exact linear algebra: echelon, rank, kernel, inverse."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cuspgaps.linalg import (
    Echelonizer,
    identity,
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
    assert mat_mul(a, inv) == identity(2)


def test_echelonizer_contains():
    ech = Echelonizer(3)
    ech.add([1, 2, 3])
    ech.add([0, 1, 1])
    assert ech.contains([1, 3, 4])
    assert not ech.contains([0, 0, 1])
    assert ech.rank == 2


def test_mat_vec():
    assert mat_vec([[1, 2], [3, 4]], [1, 1]) == [3, 7]
