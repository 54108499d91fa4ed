"""Closed-form invariants against independent brute-force oracles."""

import dataclasses
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspgaps import invariants as inv
from cuspgaps.arith import divisors, euler_phi, is_prime, kronecker_minus3, kronecker_minus4, primes_up_to
from cuspgaps.oracles import victor_miller_basis


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
    with pytest.raises(ValueError):
        inv.alpha_pair(1, 7)


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


def test_eps_inf_is_the_divisor_sum():
    for n in range(1, 3001):
        want = sum(euler_phi(gcd(d, n // d)) for d in divisors(n))
        assert inv.eps_inf(n) == want, n


def test_residue_cache_is_per_residue_class():
    """A scan fills the core once per (N, k, p mod 12), at most four
    residues per (N, k), and dim S_k(pN) is not cached."""
    inv._residue_core.cache_clear()
    config = inv.ScanConfig(kmin=4, kmax=8, nmax=30, pmax=97)
    total = sum(1 for _ in inv.scan_triples(config))
    info = inv._residue_core.cache_info()
    assert info.misses == info.currsize <= 4 * 30 * 3 < total
    assert not hasattr(inv.cusp_dim, "cache_info")


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
