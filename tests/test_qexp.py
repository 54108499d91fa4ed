"""QExpansion coefficients and precision bookkeeping."""

from fractions import Fraction

import pytest

from cuspgaps.qexp import QExpansion


def test_order_and_zero():
    f = QExpansion((0, 0, 3, 1), 12, 1)
    assert f.order() == 3
    assert not f.is_zero()
    z = QExpansion((0, 0), 12, 1)
    assert z.order() is None and z.is_zero()


def test_coefficient_bounds():
    f = QExpansion((5, 7), 4, 2)
    assert f.coefficient(1) == 5 and f.coefficient(2) == 7
    with pytest.raises(ValueError):
        f.coefficient(3)
    with pytest.raises(ValueError):
        f.coefficient(0)


def test_truncate_and_agrees():
    f = QExpansion((1, 2, 3, 4), 2, 11)
    t = f.truncate(2)
    assert t.coeffs == (1, 2) == f.coeffs[: t.precision]
    assert (t.weight, t.level) == (f.weight, f.level)
    with pytest.raises(ValueError):
        t.truncate(5)


@pytest.mark.parametrize("precision", [-1, -4, 2.5, 2.0, True, "2", None])
def test_truncate_rejects_what_is_not_a_precision(precision):
    """A precision must be an integer >= 0: a negative one used to slice
    from the end (truncate(-1) kept the first B - 1 coefficients), and a
    float or string raised a bare TypeError from the slice."""
    f = QExpansion((1, 2, 3, 4), 2, 11)
    with pytest.raises(ValueError, match="precision must be an integer >= 0"):
        f.truncate(precision)
    assert f.truncate(0).coeffs == ()


def test_fraction_coefficients():
    f = QExpansion((Fraction(1, 2), 1), 2, 1)
    assert f.coefficient(1) == Fraction(1, 2)
    assert f.order() == 1

