"""The theorem sweep: every order-bound and gap-dimension report over a box.

The box is N <= 40, even 4 <= k <= 28 and primes 5 <= p < 80 with p not
dividing N, cut at dim S_k(Gamma_0(pN)) <= 12 (69 triples) for the quick
test and at <= 24 (165 triples) for the slow one.  Each test asserts that
every report passes, and pins one sha256 over the sorted report JSON, so a
change that moves a single valuation, pivot or bound fails here.  Both
digests were taken with the two-elimination stack (one transport per
operator and one solve per operator) that the joint transport and the
joint W_p/Tr solve replaced; they held unchanged across that change.
"""

import hashlib
import json

import pytest

from cuspgaps.arith import is_prime
from cuspgaps.gaps import verify_gap_dimension_bound, verify_order_bound
from cuspgaps.invariants import cusp_dim


def _box(max_dim: int) -> list[tuple[int, int, int]]:
    return [
        (level, weight, p)
        for level in range(1, 41)
        for weight in range(4, 29, 2)
        for p in range(5, 80)
        if is_prime(p) and level % p and cusp_dim(p * level, weight) <= max_dim
    ]


def _sweep(max_dim: int) -> tuple[int, list, str]:
    triples = _box(max_dim)
    reports = [verify(*t) for t in triples for verify in (verify_order_bound, verify_gap_dimension_bound)]
    failed = [r.triple | {"kind": r.kind} for r in reports if not r.passed]
    lines = sorted(json.dumps(r.as_dict(), sort_keys=True) for r in reports)
    return len(triples), failed, hashlib.sha256("\n".join(lines).encode()).hexdigest()


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
