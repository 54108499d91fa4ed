"""The theorem sweep: every order-bound and gap-dimension report over a box.

The box is N <= 40, even 4 <= k <= 28 and primes 5 <= p < 80 with p not
dividing N, cut at dim S_k(Gamma_0(pN)) <= 12 (69 triples) for the quick
test and at <= 24 (165 triples) for the slow one.  Each test asserts that
every report passes, and pins one sha256 over the sorted report JSON, so a
change that moves a single valuation, pivot or bound fails here.  Both
digests were taken with the two-elimination stack (one transport per
operator and one solve per operator) that the joint transport and the
joint W_p/Tr solve replaced; they held unchanged across that change.

The paper's two corollaries are pinned the same way, each cut at
dim S_k(Gamma_0(pN)) <= 12: Ogg's weight-2 statement over the 15 genus-0
levels and the primes p < 60 not dividing N (94 triples), and the
vanishing analogue over vanishing_levels(k), even 4 <= k <= 28 and primes
5 <= p < 80 (48 triples).  Weight 2 and weight 4 have no Merel symbols,
so these reach the coset-by-coset series path of the cuspidal kernel
vectors, which the theorem sweep meets only at weight 4.  Both corollary
digests were taken with the binomial monomial expansion and one dict per
coset action, and held when the Kronecker expansion and the shared
accumulator replaced them.
"""

import hashlib
import json

import pytest

from cuspgaps.arith import is_prime
from cuspgaps.gaps import (
    verify_gap_dimension_bound,
    verify_order_bound,
    verify_vanishing_analogue,
    verify_weight2_nonweierstrass,
)
from cuspgaps.invariants import cusp_dim, genus, vanishing_levels


def _box(max_dim: int) -> list[tuple[int, int, int]]:
    return [
        (level, weight, p)
        for level in range(1, 41)
        for weight in range(4, 29, 2)
        for p in range(5, 80)
        if is_prime(p) and level % p and cusp_dim(p * level, weight) <= max_dim
    ]


def _pinned(reports: list) -> tuple[list, str]:
    """The reports that failed, and one sha256 over the sorted report JSON."""
    failed = [r.triple | {"kind": r.kind} for r in reports if not r.passed]
    lines = sorted(json.dumps(r.as_dict(), sort_keys=True) for r in reports)
    return failed, hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _sweep(max_dim: int) -> tuple[int, list, str]:
    triples = _box(max_dim)
    return len(triples), *_pinned(
        [verify(*t) for t in triples for verify in (verify_order_bound, verify_gap_dimension_bound)]
    )


def test_theorem_sweep_to_dimension_12():
    count, failed, digest = _sweep(12)
    assert count == 69
    assert failed == []
    assert digest == "f0460a4f74f9fd41a0d3c17744e102e3520ef1b6c3108c3d83321dcc27ec9c96"


@pytest.mark.slow
def test_theorem_sweep_to_dimension_24():
    count, failed, digest = _sweep(24)
    assert count == 165
    assert failed == []
    assert digest == "6950e978496844e09aeaa05d82280d37e5c3b45d1949a0cdec719b69316d1402"


def test_weight2_corollary_sweep_to_dimension_12():
    pairs = [
        (level, p)
        for level in range(1, 26)
        if genus(level) == 0
        for p in range(2, 60)
        if is_prime(p) and level % p and cusp_dim(p * level, 2) <= 12
    ]
    assert len({level for level, _ in pairs}) == 15
    assert len(pairs) == 94
    failed, digest = _pinned([verify_weight2_nonweierstrass(*pair) for pair in pairs])
    assert failed == []
    assert digest == "71f715fc04cfce928b8e4b619935170f89708b862e44a8fdbf43825d71e20f34"


def test_vanishing_corollary_sweep_to_dimension_12():
    triples = [
        (level, weight, p)
        for weight in range(4, 29, 2)
        for level in vanishing_levels(weight)
        for p in range(5, 80)
        if is_prime(p) and level % p and cusp_dim(p * level, weight) <= 12
    ]
    assert len(triples) == 48
    failed, digest = _pinned([verify_vanishing_analogue(*t) for t in triples])
    assert failed == []
    assert digest == "e54edfe9de2a7a6c1d405bfa9f88ff94fb9ab1f0e3a819a93a84e800d671b7fe"
