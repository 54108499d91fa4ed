"""Gap data and the verification reports."""

import pytest

from cuspgaps.gaps import (
    gap_data,
    verify_gap_dimension_bound,
    verify_order_bound,
    verify_reference_examples,
    verify_vanishing_analogue,
    verify_weight2_nonweierstrass,
)
from cuspgaps.heckeops import build_operator_stack, old_new_split
from cuspgaps.invariants import master_inequality_lhs, sturm_bound, vanishing_order_bound
from cuspgaps.msengine import qexpansion_basis


def test_gap_data_sharp_example():
    data = gap_data(19, 16)
    assert data.dimension == 24
    assert 25 in data.pivots
    assert data.w_dim == 1


def test_gap_data_stability_under_precision():
    """gap_data reads the basis at the Sturm bound + 10; 15 more
    coefficients move no pivot."""
    bound = sturm_bound(11, 2)
    pivots = qexpansion_basis(11, 2, bound + 10).pivots
    assert qexpansion_basis(11, 2, bound + 25).pivots == pivots == gap_data(11, 2).pivots


def test_gap_data_json_shape():
    d = gap_data(5, 12).as_dict()
    assert set(d) == {"level", "weight", "dim", "pivots", "wdim"}


def test_verify_order_bound_small():
    report = verify_order_bound(1, 12, 5)
    assert report.passed
    names = {c.name for c in report.checks}
    assert {
        "normalized_v_p_zero",
        "hypothesis_v_p_after_atkin_lehner",
        "order_bound",
        "s_dimension",
        "s_meets_gap_space_trivially",
    } <= names
    payload = report.as_dict()
    assert set(payload) >= {"triple", "dims", "pivots", "wdim", "bounds", "checks"}
    assert all(set(c) >= {"name", "pass", "witness"} for c in payload["checks"])


def test_verify_gap_dimension_bound_small():
    report = verify_gap_dimension_bound(1, 12, 5)
    assert report.passed
    assert report.wdim == 0


def test_verify_vanishing_analogue():
    assert verify_vanishing_analogue(2, 6, 7).passed
    assert verify_vanishing_analogue(4, 4, 5).passed  # S_4(20) has no gap forms
    with pytest.raises(ValueError):
        verify_vanishing_analogue(1, 12, 5)  # dim S_12(1) = 1 != 0


def test_verify_vanishing_analogue_weight14():
    assert verify_vanishing_analogue(1, 14, 17).passed


def test_verify_ogg_examples():
    r = verify_weight2_nonweierstrass(2, 11)
    assert r.passed and r.wdim == 0
    r = verify_weight2_nonweierstrass(1, 37)
    assert r.passed and r.wdim == 0


def test_verify_ogg_guards():
    with pytest.raises(ValueError):
        verify_weight2_nonweierstrass(11, 7)  # genus 1
    with pytest.raises(ValueError):
        verify_weight2_nonweierstrass(2, 2)  # p | N
    with pytest.raises(ValueError):
        verify_weight2_nonweierstrass(1, 4)  # not prime


@pytest.mark.parametrize("entry", [
    lambda n, k, p: old_new_split(n, k, p, None),
    build_operator_stack,
    vanishing_order_bound,
    master_inequality_lhs,
    verify_order_bound,
    verify_gap_dimension_bound,
    verify_vanishing_analogue,
], ids=["old_new_split", "build_operator_stack", "vanishing_order_bound", "master_inequality_lhs",
        "verify_order_bound", "verify_gap_dimension_bound", "verify_vanishing_analogue"])
@pytest.mark.parametrize("triple,message", [
    ((0, 12, 5), "level must be a positive integer, got 0"),
    ((1, 11, 5), "weight must be an even integer >= 2, got 11"),
    ((1, 12, 3), "p = 3 must be >= 5"),
    ((10, 12, 5), "p = 5 must not divide the level 10"),
    ((1, 12, 9), "p must be prime, got 9"),
], ids=["level", "odd-weight", "p=3", "p|N", "non-prime"])
def test_every_triple_entry_point_rejects_a_bad_triple(entry, triple, message):
    """Each (N, k, p) entry point of the order bound refuses a bad level,
    an odd weight, p = 3, p dividing N and a non-prime p, word for word."""
    with pytest.raises(ValueError) as info:
        entry(*triple)
    assert str(info.value) == message


@pytest.mark.slow
def test_verify_gap_dimension_bound_sharp_cases():
    r = verify_gap_dimension_bound(1, 16, 19)
    assert r.passed and r.wdim == 1
    assert r.checks[0].witness["sharp"] is True
    r = verify_gap_dimension_bound(2, 12, 23)
    assert r.passed and r.wdim == 2
    assert r.checks[0].witness["sharp"] is True
    r = verify_gap_dimension_bound(1, 28, 29)
    assert r.passed and r.wdim == 0
    assert r.checks[0].witness["sharp"] is False


@pytest.mark.slow
def test_reference_examples_structure():
    reports = verify_reference_examples()
    assert len(reports) == 3
    assert all(r.passed for r in reports)
    # the weight-28 example carries the dimension discrepancy flag
    last = reports[2]
    flag = next(c for c in last.checks if c.name == "stated_lower_dimension_matches_formula")
    assert flag.informational and not flag.passed
    assert flag.witness["computed"] == 2 and flag.witness["stated"] == 3
