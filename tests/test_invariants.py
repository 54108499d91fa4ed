"""Closed-form invariants against independent brute-force oracles."""

import dataclasses
import hashlib
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cuspgaps import arith
from cuspgaps import invariants as inv
from cuspgaps.arith import divisors, is_prime, kronecker_minus3, kronecker_minus4, primes_up_to
from cuspgaps.errors import EngineError

from oracles import victor_miller_basis


# -- brute-force oracles -------------------------------------------------------

def brute_p1_size(n: int) -> int:
    """Count P^1(Z/nZ) classes by minimizing over unit scalings."""
    if n == 1:
        return 1
    units = [t for t in range(1, n) if gcd(t, n) == 1]
    classes = set()
    for u in range(n):
        for v in range(n):
            if gcd(gcd(u, v), n) == 1:
                classes.add(min(((t * u) % n, (t * v) % n) for t in units))
    return len(classes)


def brute_eps2(n: int) -> int:
    """Elliptic points of order 2 = roots of x^2 + 1 mod N (N not div by 4)."""
    if n % 4 == 0:
        return 0
    return sum(1 for x in range(n) if (x * x + 1) % n == 0)


def brute_eps3(n: int) -> int:
    if n % 9 == 0:
        return 0
    return sum(1 for x in range(n) if (x * x + x + 1) % n == 0)


def brute_cusp_count(n: int) -> int:
    """Cluster fractions a/c (and infinity) under Gamma_0(n)-equivalence."""

    def equiv(p, q):
        u1, v1 = p
        u2, v2 = q
        s1 = _inv_mod(u1, v1)
        s2 = _inv_mod(u2, v2)
        m = gcd(n, v1 * v2) or n
        return (s1 * v2 - s2 * v1) % m == 0

    def _inv_mod(u, v):
        if v == 0:
            return 1
        g, x = 1, 0
        a, b = u % v, v
        x0, x1 = 1, 0
        while b:
            q, r = divmod(a, b)
            a, b = b, r
            x0, x1 = x1, x0 - q * x1
        return x0

    reps = [(1, 0)]
    for v in range(1, n + 1):
        for u in range(n):
            if gcd(u, v) == 1:
                if not any(equiv((u, v), r) for r in reps):
                    reps.append((u, v))
    return len(reps)


# -- index, elliptic counts, cusps, genus -------------------------------------

def test_index_examples():
    assert inv.index(1) == 1
    assert inv.index(46) == 72
    assert inv.index(46) == brute_p1_size(46)
    assert inv.index(19) == 20 == (19 + 1) * inv.index(1)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9, 12, 18, 25, 29, 36, 46])
def test_index_brute(n):
    assert inv.index(n) == brute_p1_size(n)


def test_eps2_eps3_examples():
    assert inv.eps2(4) == 0
    assert inv.eps2(29) == 2
    assert inv.eps3(29) == 0
    assert inv.eps3(19) == 2


def test_kronecker_conventions_at_2():
    assert kronecker_minus4(2) == 0
    assert kronecker_minus3(2) == -1


@pytest.mark.parametrize("n", range(1, 200))
def test_elliptic_counts_brute(n):
    assert inv.eps2(n) == brute_eps2(n)
    assert inv.eps3(n) == brute_eps3(n)


def test_cusp_count_examples():
    assert inv.eps_inf(1) == 1
    assert inv.eps_inf(46) == 4
    assert inv.eps_inf(19) == 2 == 2 * inv.eps_inf(1)


@pytest.mark.parametrize("n", [2, 4, 8, 11, 12, 16, 18, 22, 27, 36, 45, 46])
def test_cusp_count_brute(n):
    assert inv.eps_inf(n) == brute_cusp_count(n)


def test_level_raising_relations():
    for n in range(1, 101):
        for p in (2, 3, 5, 7, 11, 13):
            if n % p:
                assert inv.eps_inf(p * n) == 2 * inv.eps_inf(n)
                assert inv.index(p * n) == (p + 1) * inv.index(n)


def test_genus_examples():
    assert inv.genus(1) == 0
    assert inv.genus(19) == 1
    assert inv.genus(46) == 5


def test_genus_integral_nonnegative_to_10000():
    for n in range(1, 10001):
        g = inv.genus(n)
        assert isinstance(g, int) and g >= 0


@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=200),
)
@settings(max_examples=300, deadline=None)
def test_multiplicativity(a, b):
    if gcd(a, b) != 1:
        return
    for f in (inv.index, inv.eps2, inv.eps3, inv.eps_inf):
        assert f(a * b) == f(a) * f(b)


# -- dimensions ---------------------------------------------------------------

def test_dim_examples():
    assert inv.cusp_dim(19, 16) == 24
    assert inv.cusp_dim(46, 12) == 64
    assert inv.cusp_dim(29, 28) == 67
    assert inv.cusp_dim(4, 4) == 0
    assert inv.cusp_dim(1, 16) == 1
    assert inv.cusp_dim(2, 12) == 2
    assert inv.cusp_dim(1, 28) == 2 == len(victor_miller_basis(28, 10))


def test_dim_weight2_is_genus():
    for n in (1, 11, 19, 22, 37, 46):
        assert inv.cusp_dim(n, 2) == inv.genus(n)


def test_dim_rejects_bad_weights():
    with pytest.raises(ValueError):
        inv.cusp_dim(5, 3)
    with pytest.raises(ValueError):
        inv.cusp_dim(5, 0)
    with pytest.raises(ValueError):
        inv.cusp_dim(5, -4)


@pytest.mark.parametrize("bound", [inv.sturm_bound, inv.valence_bound])
@pytest.mark.parametrize("weight", [2.5, 3, 7, 0, -4, True])
def test_bounds_reject_bad_weights(bound, weight):
    """The Sturm and valence bounds are defined for even weights >= 2 only,
    so a non-integer, odd, small or boolean weight is refused, not rounded."""
    with pytest.raises(ValueError, match=r"^weight must be an even integer >= 2, got "):
        bound(5, weight)


def test_new_space_nonnegative():
    for n in (1, 2, 3, 5, 7, 11):
        for k in (4, 6, 12, 16):
            for p in (5, 7, 13, 19):
                if n % p:
                    assert inv.cusp_dim(p * n, k) - 2 * inv.cusp_dim(n, k) >= 0


# -- alpha table ----------------------------------------------------------------

def test_alpha_table():
    for n in (1, 4, 5, 29):
        assert inv.alpha_pair(n, 24) == (0, 0)
    assert inv.alpha_pair(1, 286) == (1, 1)
    assert inv.alpha_pair(4, 14) == (0, 0)  # eps2(4) = eps3(4) = 0
    assert inv.alpha_pair(1, 2) == (1, 2)
    assert inv.alpha_pair(1, 4) == (0, 1)
    assert inv.alpha_pair(1, 6) == (1, 0)
    assert inv.alpha_pair(1, 8) == (0, 2)
    for big_k in (7, 4.0, -2, 0):
        with pytest.raises(ValueError):
            inv.alpha_pair(1, big_k)


def test_alpha_invariants():
    for n in range(1, 60):
        e2, e3 = inv.eps2(n), inv.eps3(n)
        for big_k in range(2, 26, 2):
            a2, a3 = inv.alpha_pair(n, big_k)
            assert a2 in (0, e2)
            assert a3 in (0, e3, 2 * e3)


# -- the order bound and the master inequality ----------------------------------

def test_order_bound_examples():
    assert inv.vanishing_order_bound(1, 16, 19) == 23
    assert inv.vanishing_order_bound(1, 12, 5) == 4


def test_master_lhs_example():
    assert inv.master_inequality_lhs(1, 16, 19) == 2


def test_bound_below_dimension_on_samples():
    for n, k, p in [(1, 16, 19), (2, 12, 23), (1, 28, 29), (3, 4, 11), (10, 6, 13)]:
        assert inv.vanishing_order_bound(n, k, p) <= inv.cusp_dim(p * n, k)


def test_reduction_identity_random_triples():
    """dim - bound = master - 1, exactly, on 1000 deterministic triples."""
    import random

    rng = random.Random(20260810)
    primes = [p for p in primes_up_to(400) if p >= 5]
    count = 0
    while count < 1000:
        n = rng.randint(1, 400)
        k = 2 * rng.randint(2, 15)
        p = rng.choice([q for q in primes if q >= k + 1])
        if n % p == 0:
            continue
        lhs = inv.master_inequality_lhs(n, k, p)
        bound = inv.vanishing_order_bound(n, k, p)
        dim = inv.cusp_dim(p * n, k)
        assert Fraction(dim) - bound == lhs - 1
        count += 1


def test_classify_examples():
    r = inv.classify_triple(1, 16, 19)
    assert r.quadrant == "alpha2!=0,alpha3!=0"
    assert r.big_weight_mod12 == 10
    assert r.certificate == inv.CERT_MASTER

    r = inv.classify_triple(5, 4, 7)
    assert r.big_weight == 22 and r.big_weight_mod12 == 10
    assert inv.eps2(5) == 2 and inv.eps3(5) == 0
    assert r.quadrant == "alpha2!=0,alpha3=0"

    with pytest.raises(ValueError):
        inv.classify_triple(1, 12, 5)  # p < k+1 not admissible for the case analysis
    with pytest.raises(ValueError):
        inv.classify_triple(5, 4, 5)  # p | N


@pytest.mark.parametrize("weight, message", [
    (None, "weight must be an even integer >= 2, got None"),
    ("12", "weight must be an even integer >= 2, got '12'"),
    (4.0, "weight must be an even integer >= 2, got 4.0"),
    (True, "weight must be an even integer >= 2, got True"),
    (2, "case classification requires even weight >= 4"),
])
def test_classify_triple_checks_the_weight_type_first(weight, message):
    """A weight that is not an even int fails check_weight before the
    weight >= 4 comparison can raise a bare TypeError."""
    with pytest.raises(ValueError) as excinfo:
        inv.classify_triple(1, weight, 13)
    assert str(excinfo.value) == message


def test_classify_total_and_exact_on_box():
    """Every admissible triple lands in a case whose reduced certificate
    equals the master LHS exactly and is >= 1."""
    for k in (4, 6, 8, 10, 12):
        for n in range(1, 40):
            for p in (qq for qq in (5, 7, 11, 13, 17, 19, 23) if qq >= max(5, k + 1)):
                if n % p == 0:
                    continue
                r = inv.classify_triple(n, k, p)
                assert r.certificate_matches_master
                assert r.certificate_lhs >= 1
                assert r.identity_holds


def fraction_case_analysis(n: int, k: int, p: int) -> dict:
    """The case analysis summed term by term in Fractions, from the closed
    forms of the order bound and the master LHS."""
    big_k = (k - 1) * p + 1
    e2n, e3n = inv.eps2(n), inv.eps3(n)
    a2, a3 = {
        2: (e2n, 2 * e3n),
        4: (0, e3n),
        6: (e2n, 0),
        8: (0, 2 * e3n),
        10: (e2n, e3n),
        0: (0, 0),
    }[big_k % 12]
    bound = (
        Fraction(big_k * inv.index(n), 12)
        - Fraction(a2, 2)
        - Fraction(a3, 3)
        - inv.eps_inf(n)
        + 1
    )
    master = (
        Fraction((k - 2) * inv.index(n), 12)
        + (k // 4 - Fraction(k - 1, 4)) * inv.eps2(p * n)
        + (k // 3 - Fraction(k - 1, 3)) * inv.eps3(p * n)
        + Fraction(a2, 2)
        + Fraction(a3, 3)
    )
    index_cert = Fraction((k - 2) * inv.index(n), 12)
    modulus = None
    if a2 == 0 and a3 == 0:
        quadrant = "alpha2=0,alpha3=0"
        if e2n == 0 and e3n == 0:
            cert, cert_lhs = inv.CERT_INDEX, index_cert
        elif e2n != 0 and e3n == 0:
            modulus = 4
            if k % 4 == 0:
                cert, cert_lhs = inv.CERT_EPS2, index_cert + Fraction(e2n, 2)
            else:
                cert, cert_lhs = inv.CERT_INDEX, index_cert
        elif e2n == 0 and e3n != 0:
            modulus = 3
            if k % 3 == 0:
                cert, cert_lhs = inv.CERT_EPS3, index_cert + Fraction(2 * e3n, 3)
            else:
                cert, cert_lhs = inv.CERT_INDEX, index_cert
        else:
            modulus = 12
            km = k % 12
            if km == 2:
                cert, cert_lhs = inv.CERT_INDEX, index_cert
            elif km == 6:
                cert, cert_lhs = inv.CERT_EPS3, index_cert + Fraction(2 * e3n, 3)
            elif km == 8:
                cert, cert_lhs = inv.CERT_EPS2, index_cert + Fraction(e2n, 2)
            else:
                cert = inv.CERT_EPS23
                cert_lhs = index_cert + Fraction(e2n, 2) + Fraction(2 * e3n, 3)
    elif a2 != 0 and a3 == 0:
        quadrant = "alpha2!=0,alpha3=0"
        modulus = 12 if e3n != 0 else None
        cert, cert_lhs = inv.CERT_ALPHA2, master
    elif a2 == 0 and a3 != 0:
        quadrant = "alpha2=0,alpha3!=0"
        modulus = 12 if e2n != 0 else None
        cert, cert_lhs = inv.CERT_ALPHA3, master
    else:
        quadrant = "alpha2!=0,alpha3!=0"
        modulus = 12
        cert, cert_lhs = inv.CERT_MASTER, master
    dim = inv.cusp_dim(p * n, k)
    return {
        "level": n,
        "weight": k,
        "prime": p,
        "big_weight": big_k,
        "big_weight_mod12": big_k % 12,
        "alpha2": a2,
        "alpha3": a3,
        "quadrant": quadrant,
        "congruence_modulus": modulus,
        "weight_residue": None if modulus is None else k % modulus,
        "prime_residue": None if modulus is None else p % modulus,
        "certificate": cert,
        "certificate_lhs": cert_lhs,
        "master_lhs": master,
        "dim_upper": dim,
        "order_bound": bound,
        "inequality_holds": master >= 1,
        "certificate_matches_master": cert_lhs == master,
        "identity_holds": dim - bound == master - 1,
    }


PRIMES_TO_2000 = [q for q in primes_up_to(2000) if q >= 5]


@st.composite
def admissible_triples(draw):
    k = draw(st.integers(2, 100)) * 2
    p = draw(st.sampled_from([q for q in PRIMES_TO_2000 if q >= k + 1]))
    n = draw(st.integers(1, 5000).filter(lambda m: m % p != 0))
    return n, k, p


@settings(max_examples=300, deadline=None)
@given(admissible_triples())
def test_case_analysis_matches_fraction_reference(triple):
    n, k, p = triple
    want = fraction_case_analysis(n, k, p)
    assert inv.master_inequality_lhs(n, k, p) == want["master_lhs"]
    assert inv.vanishing_order_bound(n, k, p) == want["order_bound"]
    report = inv.classify_triple(n, k, p)
    for field in dataclasses.fields(report):
        got = getattr(report, field.name)
        assert got == want[field.name], field.name
        assert type(got) is type(want[field.name]), field.name


@st.composite
def same_residue_triples(draw):
    """(N, k, p, p') admissible on both sides with p == p' mod 12."""
    k = draw(st.integers(2, 100)) * 2
    r = draw(st.sampled_from([1, 5, 7, 11]))
    primes = [q for q in PRIMES_TO_2000 if q >= k + 1 and q % 12 == r]
    p = draw(st.sampled_from(primes))
    q = draw(st.sampled_from(primes))
    n = draw(st.integers(1, 5000).filter(lambda m: m % p and m % q))
    return n, k, p, q


RESIDUE_SHARED = ("master_lhs", "certificate", "certificate_lhs", "quadrant", "alpha2", "alpha3")


@settings(max_examples=300, deadline=None)
@given(same_residue_triples())
def test_case_analysis_depends_on_p_mod_12(triple):
    n, k, p, q = triple
    a, b = inv.classify_triple(n, k, p), inv.classify_triple(n, k, q)
    for name in RESIDUE_SHARED:
        assert getattr(a, name) == getattr(b, name), name


@settings(max_examples=300, deadline=None)
@given(admissible_triples())
def test_residue_core_master_matches_direct_formula(triple):
    """The core's 12 * master, from eps2(N), eps3(N) and p mod 12, equals
    the master formula evaluated on the factored level pN."""
    n, k, p = triple
    big_k = (k - 1) * p + 1
    a2, a3 = inv.alpha_pair(n, big_k)
    direct = (
        (k - 2) * inv.index(n)
        + (12 * (k // 4) - 3 * (k - 1)) * inv.eps2(p * n)
        + (12 * (k // 3) - 4 * (k - 1)) * inv.eps3(p * n)
        + 6 * a2
        + 4 * a3
    )
    assert inv._residue_core(n, k, p % 12)[2] == direct


def test_fast_built_report_is_a_frozen_dataclass():
    fast = inv.classify_triple(5, 12, 13)
    fields = {f.name: getattr(fast, f.name) for f in dataclasses.fields(fast)}
    slow = inv.CaseReport(**fields)
    assert fast == slow and hash(fast) == hash(slow)
    assert vars(fast) == vars(slow)
    moved = dataclasses.replace(fast, dim_upper=fast.dim_upper + 1)
    assert moved.dim_upper == fast.dim_upper + 1 and moved != fast
    assert dataclasses.replace(moved, dim_upper=fast.dim_upper) == fast
    with pytest.raises(dataclasses.FrozenInstanceError):
        fast.master_lhs = Fraction(0)


def test_verified_is_the_scan_verdict():
    """`verified` is the conjunction that the scan and the atlas count as a
    pass, and stays out of as_dict, so `scan --json` is unchanged."""
    rep = inv.classify_triple(5, 12, 13)
    assert rep.verified is True
    assert "verified" not in rep.as_dict()
    for name in ("inequality_holds", "identity_holds", "certificate_matches_master"):
        assert dataclasses.replace(rep, **{name: False}).verified is False


def euler_phi(n: int) -> int:
    """Euler's totient by its definition, the reference for eps_inf."""
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def test_eps_inf_is_the_divisor_sum():
    for n in range(1, 3001):
        want = sum(euler_phi(gcd(d, n // d)) for d in divisors(n))
        assert inv.eps_inf(n) == want, n


def prime_power_phi(p: int, j: int) -> int:
    """phi(p^j) by counting the residues mod p^j that p does not divide."""
    return p ** j - (p ** (j - 1) if j else 0)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(primes_up_to(49)), st.integers(0, 12), st.integers(1, 200))
def test_eps_inf_is_the_divisor_sum_at_high_prime_powers(p, e, m):
    """The closed-form cusp factor of p^e against sum_{d|N} phi(gcd(d, N/d))
    at N = p^e m, far past the n <= 3000 of the exhaustive test.  The
    divisors are p^i d' with d' | m, and phi(gcd) splits over p^j and the
    part prime to p, so no trial division runs up to sqrt(N)."""
    assume(m % p)
    n = p ** e * m
    want = sum(
        prime_power_phi(p, min(i, e - i)) * euler_phi(gcd(d, m // d))
        for i in range(e + 1)
        for d in divisors(m)
    )
    assert inv.eps_inf(n) == want


def test_dimension_terms_are_pinned_over_the_default_box():
    """(g - 1, eps2, eps3, eps_inf) for every level up to 60,000, which
    covers every pN of the default scan box (<= 300 * 199), byte for byte
    as the generator sum over e + 1 cusp terms gave them."""
    terms = inv._dimension_terms.__wrapped__
    got = repr([terms(n) for n in range(1, 60001)])
    assert hashlib.sha256(got.encode()).hexdigest() == (
        "0411425d777094635dd87ab656917b734a962f25d4ca93879f97457ad67cee24"
    )


def test_residue_cache_is_per_residue_class(monkeypatch):
    """The core is not cached: a scan evaluates it once per (N, k, p mod 12)
    present, at most four residues per (N, k), and dim S_k(pN) is not
    cached either."""
    calls = Counter()
    core = inv._residue_core

    def counting(level, weight, r):
        calls[level, weight, r] += 1
        return core(level, weight, r)

    monkeypatch.setattr(inv, "_residue_core", counting)
    reports = list(inv.scan_triples(inv.ScanConfig(kmin=4, kmax=8, nmax=30, pmax=97)))
    assert set(calls) == {(r.level, r.weight, r.prime % 12) for r in reports}
    assert set(calls.values()) == {1}
    assert max(Counter((n, k) for n, k, _ in calls).values()) <= 4
    assert len(calls) <= 4 * 30 * 3 < len(reports)
    assert not hasattr(core, "cache_info")
    assert not hasattr(inv.cusp_dim, "cache_info")


def test_scan_leaves_no_per_pn_cache_entries(cold_level_caches):
    """A scan caches the dimension terms of each level it touches, N and pN,
    once; index sees the levels N <= nmax only, and the cached factorize
    none at all."""
    config = inv.ScanConfig(kmax=8, nmax=60, pmax=97)
    reports = list(inv.scan_triples(config))
    levels = set(range(1, config.nmax + 1)) | {r.prime * r.level for r in reports}
    terms = inv._dimension_terms.cache_info()
    assert terms.currsize == terms.misses == len(levels)
    assert arith.factorize.cache_info().currsize == 0
    assert inv.index.cache_info().currsize == config.nmax
    # the entries are the levels N <= nmax: looking them all up adds none
    for n in range(1, config.nmax + 1):
        inv.index(n)
    assert inv.index.cache_info().currsize == config.nmax


def test_scan_validates_when_called():
    with pytest.raises(ValueError):
        inv.scan_triples(inv.ScanConfig(kmin=3))


def test_scan_builds_no_triple_list():
    """The first report of the default box comes without materialising its
    131,199 triples."""
    tracemalloc.start()
    try:
        next(inv.scan_triples(inv.ScanConfig()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="CPython 3.10 keeps a split instance dict only while keys arrive in the "
    "class's first insertion order; a scan-built report, filled out of __init__'s "
    "field order, gets a larger combined dict there",
)
def test_scan_reports_keep_the_compact_instance_dict():
    """A scan-built report's instance dict is as small as the one the
    dataclass __init__ fills, for the first report of a weight and a later
    one, and smaller than a plain dict of the same fields: it keeps the
    class's shared keys.  A dict cloned from the core's combined one would
    cost CaseReport its shared keys, so __init__-built reports would grow
    with it and only the plain dict tells them apart."""
    reports = inv.scan_triples(inv.ScanConfig(kmin=12, kmax=12, nmax=30, pmax=97))
    first = next(reports)
    *_, later = reports
    for rep in (first, later):
        values = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}
        built = inv.CaseReport(**values)
        assert sys.getsizeof(vars(rep)) == sys.getsizeof(vars(built)) < sys.getsizeof(values)


@pytest.mark.parametrize("field", [{"kmin": 4.0}, {"pmax": 11.0}, {"nmax": True}])
def test_scan_config_rejects_non_int_fields(field):
    """The config is the scan's only gate, so it rejects floats and bools
    as check_level does, before any triple is generated."""
    with pytest.raises(ValueError, match=next(iter(field))):
        inv.scan_triples(inv.ScanConfig(**field))


@st.composite
def small_boxes(draw):
    kmin = draw(st.integers(2, 12)) * 2
    kmax = kmin + 2 * draw(st.integers(0, 3))
    nmax, pmax = draw(st.integers(1, 40)), draw(st.integers(5, 80))
    return inv.ScanConfig(kmin=kmin, kmax=kmax, nmax=nmax, pmax=pmax)


@settings(max_examples=60, deadline=None)
@given(small_boxes())
def test_scan_agrees_with_classify_triple(box):
    """Both entry points go through one evaluator: the scan of a box is
    classify_triple over its admissible triples in (k, N, p) order, field
    for field and type for type, and each dim_upper is cusp_dim(pN, k)."""
    scanned = list(inv.scan_triples(box))
    want = [
        inv.classify_triple(n, k, p)
        for k in range(box.kmin, box.kmax + 1, 2)
        for n in range(1, box.nmax + 1)
        for p in primes_up_to(box.pmax)
        if p >= max(5, k + 1) and n % p
    ]
    assert len(scanned) == len(want)
    for got, ref in zip(scanned, want):
        assert vars(got) == vars(ref)
        assert [type(v) for v in vars(got).values()] == [type(v) for v in vars(ref).values()]
        assert got.dim_upper == inv.cusp_dim(got.prime * got.level, got.weight)


def test_scan_validates_no_triple(monkeypatch):
    """Only the config is validated: no triple of a scan goes through
    check_admissible_prime or is_prime."""
    calls = []

    def counting(fn):
        return lambda *args: calls.append(fn.__name__) or fn(*args)

    monkeypatch.setattr(inv, "check_admissible_prime", counting(inv.check_admissible_prime))
    monkeypatch.setattr(inv, "is_prime", counting(inv.is_prime))
    total = sum(1 for _ in inv.scan_triples(inv.ScanConfig(kmin=4, kmax=8, nmax=30, pmax=97)))
    assert total > 0 and calls == []
    inv.classify_triple(5, 12, 13)
    assert calls == ["check_admissible_prime", "is_prime"]


@pytest.fixture
def cold_level_caches():
    """Empty per-level caches, emptied again after the test patched them."""
    caches = (inv._dimension_terms, inv.index, arith.factorize)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_scan_keeps_the_dimension_guards(monkeypatch, cold_level_caches):
    """The genus and dim S_k(pN) EngineErrors still guard every pN a scan
    touches, with the triples unchecked."""
    box = inv.ScanConfig(kmin=12, kmax=12, nmax=1, pmax=13)
    # four order-2 elliptic points at 13, not 1 + (-4/13) = 2, make 12 g = -6
    # there; the residue core reads the character only at p mod 12 = 1
    monkeypatch.setattr(inv, "kronecker_minus4", lambda p: 3 if p == 13 else kronecker_minus4(p))
    with pytest.raises(EngineError, match="^genus formula gave non-integral or negative value -1/2 at level 13$"):
        list(inv.scan_triples(box))
    monkeypatch.setattr(inv, "_dimension_terms", lambda level: (-1, 0, 0, 0))
    with pytest.raises(EngineError, match=r"^dimension formula gave -11 < 0 at \(13, 12\)$"):
        list(inv.scan_triples(box))


def test_cusp_dim_guards_a_negative_dimension(monkeypatch):
    """g - 1 = -1 with no elliptic points or cusps gives dim S_4 = -3."""
    monkeypatch.setattr(inv, "_dimension_terms", lambda level: (-1, 0, 0, 0))
    with pytest.raises(EngineError, match=r"^dimension formula gave -3 < 0 at \(1, 4\)$"):
        inv.cusp_dim(1, 4)


def test_genus_reads_the_dimension_terms():
    """The per-level tuple is the only cache of the genus and the elliptic
    and cusp counts; index, cached apart, is read off the same tuple."""
    assert inv.genus(46) == inv._dimension_terms(46)[0] + 1 == 5
    assert inv._dimension_terms(46)[1:] == (inv.eps2(46), inv.eps3(46), inv.eps_inf(46))
    for name in ("genus", "eps2", "eps3", "eps_inf"):
        assert not hasattr(getattr(inv, name), "cache_info"), name
    assert hasattr(inv.index, "cache_info")


def test_index_reads_the_dimension_terms(monkeypatch, cold_level_caches):
    """I(N) = 12(g - 1) + 3 eps2 + 4 eps3 + 6 eps_inf, from the one tuple:
    no factorization is taken but the uncached one behind the terms."""

    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(arith, "factorize", refuse)
    monkeypatch.setattr(inv, "factorize", refuse, raising=False)
    assert [inv.index(n) for n in (1, 2, 12, 46, 300, 1000)] == [1, 3, 24, 72, 720, 1800]


# -- vanishing levels -----------------------------------------------------------

def test_vanishing_levels():
    assert inv.vanishing_levels(4) == (1, 2, 3, 4)
    assert inv.vanishing_levels(6) == (1, 2)
    assert inv.vanishing_levels(8) == (1,)
    assert inv.vanishing_levels(10) == (1,)
    assert inv.vanishing_levels(14) == (1,)
    assert inv.vanishing_levels(12) == ()


def test_admissibility_guards():
    with pytest.raises(ValueError):
        inv.vanishing_order_bound(1, 16, 4)
    with pytest.raises(ValueError):
        inv.vanishing_order_bound(5, 16, 5)
    with pytest.raises(ValueError):
        inv.check_level(0)
    assert is_prime(2) and not is_prime(1)
