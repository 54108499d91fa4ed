"""Acceptance suite: one criterion per test, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The heavy engine computations are cached in-process, so criteria
sharing a space do not pay for it twice.
"""

import hashlib
import io
import time
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from cuspgaps import invariants as inv
from cuspgaps.cli import main
from cuspgaps.gaps import gap_data, verify_order_bound, verify_reference_examples
from cuspgaps.heckeops import apply_Up, apply_Vp, build_operator_stack
from cuspgaps.invariants import ScanConfig, scan_triples
from cuspgaps.linalg import mat_mul
from cuspgaps.msengine import hecke_matrices_from_symbols, hecke_stability_certificate, qexpansion_basis

from oracles import EtaProduct, eta_expand, tau, victor_miller_basis


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_dimension_reproductions():
    checks = [
        (19, 16, 24),
        (1, 16, 1),
        (46, 12, 64),
        (2, 12, 2),
        (29, 28, 67),
    ]
    for level, weight, expected in checks:
        t0 = time.time()
        got = inv.cusp_dim(level, weight)
        elapsed = time.time() - t0
        assert got == expected, (level, weight, got, expected)
        assert elapsed < 1.0
    lists = {k: inv.vanishing_levels(k) for k in (4, 6, 8, 10, 14)}
    expected_lists = {4: (1, 2, 3, 4), 6: (1, 2), 8: (1,), 10: (1,), 14: (1,)}
    _report(
        "1",
        lists == expected_lists,
        f"dimensions {[c[2] for c in checks]} and vanishing lists reproduced exactly",
    )


@pytest.mark.slow
def test_criterion_2_gap_reproductions():
    t0 = time.time()
    d19 = gap_data(19, 16)
    t19 = time.time() - t0
    ok19 = d19.dimension == 24 and 25 in d19.pivots and d19.w_dim == 1 and t19 <= 300

    t0 = time.time()
    d46 = gap_data(46, 12)
    t46 = time.time() - t0
    ok46 = (
        d46.dimension == 64
        and 67 in d46.pivots
        and 68 in d46.pivots
        and d46.w_dim == 2
        and t46 <= 1800
    )

    t0 = time.time()
    d29 = gap_data(29, 28)
    t29 = time.time() - t0
    ok29 = d29.dimension == 67 and d29.w_dim == 0 and max(d29.pivots) <= 67 and t29 <= 1800

    _report(
        "2",
        ok19 and ok46 and ok29,
        f"(19,16) pivot25/wdim1 in {t19:.1f}s; (46,12) pivots 67,68/wdim2 in {t46:.1f}s; "
        f"(29,28) wdim0 in {t29:.1f}s",
    )


def test_criterion_3_inequality_atlas():
    t0 = time.time()
    total = 0
    violations = 0
    certificates = Counter()
    for rep in scan_triples(ScanConfig(kmin=4, kmax=24, nmax=300, pmax=199)):
        total += 1
        certificates[rep.certificate] += 1
        if not (rep.inequality_holds and rep.identity_holds and rep.certificate_matches_master):
            violations += 1
    elapsed = time.time() - t0
    expected_certificates = {
        inv.CERT_INDEX: 95667,
        inv.CERT_ALPHA3: 12819,
        inv.CERT_ALPHA2: 11625,
        inv.CERT_EPS2: 5759,
        inv.CERT_EPS3: 3021,
        inv.CERT_MASTER: 2088,
        inv.CERT_EPS23: 220,
    }
    _report(
        "3",
        total == 131199 and certificates == expected_certificates and violations == 0 and elapsed <= 120,
        f"{total} triples, {violations} violations, certificates {dict(certificates)}, "
        f"identity exact everywhere, {elapsed:.1f}s",
    )


def _operator_identity_suite(level: int, weight: int, p: int) -> str:
    stack = build_operator_stack(level, weight, p)
    d = stack.ambient.dimension
    w = [list(r) for r in stack.atkin_lehner]
    assert mat_mul(w, w) == [[int(i == j) for j in range(d)] for i in range(d)], "W_p^2 != 1"
    for g in stack.lower.rows:
        assert apply_Up(apply_Vp(g, p), p).coeffs == g.coeffs, "U_p V_p != 1"
        traced = stack.trace_expansion(g)
        assert all(x == (p + 1) * y for x, y in zip(traced.coeffs, g.coeffs)), "Tr != (p+1) on level-N forms"
    assert len(stack.s_basis) == d - stack.lower.dimension, "dim S wrong"
    report = verify_order_bound(level, weight, p)
    assert report.passed, f"order-bound report failed: {report.as_dict()}"
    bound = inv.vanishing_order_bound(level, weight, p)
    max_ord = report.bounds["maxOrderOnS"]
    assert Fraction(max_ord) <= bound <= Fraction(d)
    return f"({level},{weight},{p}): dim {d}, dim S {len(stack.s_basis)}, max ord {max_ord} <= {bound} <= {d}"


@pytest.mark.slow
def test_criterion_4_operator_suite_small():
    details = [_operator_identity_suite(1, 12, 5), _operator_identity_suite(2, 4, 7)]
    _report("4a", True, "; ".join(details))


@pytest.mark.slow
def test_criterion_4_operator_suite_extended():
    detail = _operator_identity_suite(1, 16, 19)
    _report("4b (extended)", True, detail)


def _theorem_report_sha256(level: int, weight: int, p: int) -> str:
    """sha256 of `cuspgaps verify theorem N k p` without its trailing
    newline, as `printf %s "$(...)"` hashes it; the stack is already built."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["verify", "theorem", str(level), str(weight), str(p)]) == 0
    return hashlib.sha256(out.getvalue().rstrip("\n").encode()).hexdigest()


@pytest.mark.slow
def test_criterion_4_operator_suite_heavy():
    detail = _operator_identity_suite(2, 12, 23)
    assert _theorem_report_sha256(2, 12, 23) == (
        "6d3b2ad6f3c75d16c0989c8d0d5a97c12db789847de82a39a28f27d9972916ef"
    )
    _report("4c (extended)", True, detail)


@pytest.mark.slow
def test_criterion_4_operator_suite_heaviest():
    detail = _operator_identity_suite(1, 28, 29)
    assert _theorem_report_sha256(1, 28, 29) == (
        "723528fada32e9f626a46cacf429b71f0a128f0fd722f9b648b82eae80328d72"
    )
    _report("4d (extended)", True, detail)


@pytest.mark.slow
def test_criterion_5_oracle_equivalence():
    for k in (12, 16, 18, 20, 22, 26, 28):
        engine = qexpansion_basis(1, k, 100)
        oracle = victor_miller_basis(k, 100)
        assert len(engine.rows) == len(oracle), k
        for row, ref in zip(engine.rows, oracle):
            assert row.coeffs == ref.coeffs, k
    ns = range(1, 51)
    assert hecke_matrices_from_symbols(qexpansion_basis(1, 12, 100), ns) == [((tau(n),),) for n in ns]
    eta11 = eta_expand(EtaProduct(((1, 2), (11, 2))), 20)
    b11 = qexpansion_basis(11, 2, 20)
    assert b11.rows[0].coeffs == eta11.coeffs
    _report("5", True, "Victor-Miller k=12..28 at B=100, tau(n) n<=50, level-11 eta product")


@pytest.mark.slow
def test_criterion_6_hecke_stability_everywhere():
    spaces = [
        (1, 12, 30),
        (1, 16, 100),
        (1, 28, 100),
        (11, 2, 20),
        (5, 12, 40),
        (14, 4, 63),
        (19, 16, 37),
        (46, 12, 83),
        (29, 28, 81),
    ]
    for level, weight, precision in spaces:
        basis = qexpansion_basis(level, weight, precision)
        hecke_stability_certificate(basis)  # raises EngineError on failure
    _report("6", True, f"coefficient rule T_m, m <= 5, stable on {len(spaces)} spaces")


@pytest.mark.slow
def test_criterion_7_discrepancy_detection():
    reports = verify_reference_examples()
    assert all(r.passed for r in reports)
    weight28 = reports[2]
    flag = next(c for c in weight28.checks if c.name == "stated_lower_dimension_matches_formula")
    substantive = {c.name: c.passed for c in weight28.checks if not c.informational}
    ok = (
        flag.informational
        and not flag.passed
        and flag.witness["computed"] == 2
        and flag.witness["stated"] == 3
        and weight28.dims["ambient"] == 67
        and weight28.wdim == 0
        and all(substantive.values())
    )
    _report(
        "7",
        ok,
        "weight-28 example: formula dim 2 != stated 3 flagged; dim 67 and wdim 0 confirmed",
    )
