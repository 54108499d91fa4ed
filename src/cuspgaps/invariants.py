"""Closed-form invariants of Gamma_0(N) and the exact inequality case analysis.

Everything here is a pure function of its integer arguments, computed in
exact arithmetic (integers and Fractions, never floats).  Levels are plain
positive ints and weights are plain positive even ints; ``check_level`` and
``check_weight`` enforce the contracts at every public entry point, and
``check_triple`` validates (N, k, p) at each entry point of the order bound.
The per-level terms of the dimension formula, (g - 1, eps2, eps3, eps_inf),
are computed in one pass over one uncached factorization and cached as one
tuple per level, ``_dimension_terms``; eps2, eps3, eps_inf and genus read
it, and so does ``index``, by the genus formula
I = 12(g - 1) + 3 eps2 + 4 eps3 + 6 eps_inf.  A scan reads the terms of each
pN once, so it leaves no other per-pN entry behind: ``index`` sees the
levels N only, and nothing here calls the cached ``factorize``.

The case analysis of (N, k, p) is carried in integer twelfths and, but for
the term K I(N) of the order bound (K = (k-1)p + 1), depends on p only
through r = p mod 12: K mod 12 = ((k-1) r + 1) mod 12 selects the alpha
pair, and since the elliptic counts are multiplicative over coprime levels,
eps2(pN) = eps2(N) (1 + (-4/p)) and eps3(pN) = eps3(N) (1 + (-3/p)), where
(-4/.) and (-3/.) are characters mod 4 and mod 3.  One uncached core,
``_residue_core(N, k, r)``, evaluates the master LHS, the alpha pair, the
quadrant and the reduced certificate of a residue class; a scan evaluates it
once per (N, k, p mod 12) and keeps it only while it classifies that
(N, k).  One evaluator, ``_classify_level(N, k, primes)``, builds every
CaseReport: per triple only the order bound and dim S_k(pN) remain, and the
dimension is read from the terms of pN's own factorization, so the
reduction identity checks the residue formula.  A report costs only those
fields: its instance dict takes the per-triple values as item stores and
the core's fields as one merge of a dict built once per residue class.  The
evaluator trusts its arguments:
``classify_triple`` validates its one triple, and ``scan_triples``
validates its ScanConfig once and generates only admissible triples, none
of them checked one by one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterator

from .arith import is_prime, kronecker_minus3, kronecker_minus4, primes_up_to, trial_factor
from .errors import EngineError


def check_level(n) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"level must be a positive integer, got {n!r}")
    return n


def check_index(name: str, n, least: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")
    return n


def check_weight(k) -> int:
    if not isinstance(k, int) or isinstance(k, bool) or k < 2 or k % 2 != 0:
        raise ValueError(f"weight must be an even integer >= 2, got {k!r}")
    return k


def check_odd_prime(level: int, p) -> int:
    """Validate a prime p >= 5 coprime to the level (enough for the bound
    formulas; (k-1)p + 1 stays even)."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")
    if level % p == 0:
        raise ValueError(f"p = {p} must not divide the level {level}")
    if p < 5:
        raise ValueError(f"p = {p} must be >= 5")
    return p


def check_triple(level, weight, p) -> None:
    """Validate (N, k, p) at an entry point of the p-adic order bound: a
    positive level, an even weight >= 2 and a prime p >= 5 not dividing N."""
    check_level(level)
    check_weight(weight)
    check_odd_prime(level, p)


def check_admissible_prime(level: int, weight: int, p) -> int:
    """Validate the prime used by the case analysis: p prime, p coprime to
    the level, and p >= max(5, weight+1)."""
    check_odd_prime(level, p)
    if p < max(5, weight + 1):
        raise ValueError(f"p = {p} must be >= max(5, k+1) = {max(5, weight + 1)}")
    return p


@lru_cache(maxsize=None)
def _dimension_terms(level: int) -> tuple[int, int, int, int]:
    """(g - 1, eps2, eps3, eps_inf) of X_0(N), the level's terms in the
    dimension formula, from one uncached factorization:

        I = N prod (1 + 1/p),  eps2 = prod (1 + (-4/p)) unless 4 | N,
        eps3 = prod (1 + (-3/p)) unless 9 | N,
        eps_inf = sum_{d|N} phi(gcd(d, N/d)) = prod_{p^e || N} c(p^e),
        c(p^(2m+1)) = 2 p^m,  c(p^(2m)) = p^m + p^(m-1)  (m >= 1),

    and the genus g = I/12 - eps_inf/2 - eps2/4 - eps3/3 + 1."""
    i, ei = level, 1
    e2 = 0 if level % 4 == 0 else 1
    e3 = 0 if level % 9 == 0 else 1
    for p, e in trial_factor(level):
        i = i // p * (p + 1)
        e2 *= 1 + kronecker_minus4(p)
        e3 *= 1 + kronecker_minus3(p)
        m, odd = divmod(e, 2)
        ei *= 2 * p ** m if odd else p ** m + p ** (m - 1)
    g12 = i - 6 * ei - 3 * e2 - 4 * e3 + 12
    if g12 % 12 or g12 < 0:
        raise EngineError(
            f"genus formula gave non-integral or negative value {Fraction(g12, 12)} at level {level}"
        )
    return g12 // 12 - 1, e2, e3, ei


def eps2(level: int) -> int:
    """Number of elliptic points of order 2 on X_0(N)."""
    return _dimension_terms(check_level(level))[1]


def eps3(level: int) -> int:
    """Number of elliptic points of order 3 on X_0(N)."""
    return _dimension_terms(check_level(level))[2]


def eps_inf(level: int) -> int:
    """Number of cusps of X_0(N)."""
    return _dimension_terms(check_level(level))[3]


def genus(level: int) -> int:
    """Genus of X_0(N)."""
    return _dimension_terms(check_level(level))[0] + 1


@lru_cache(maxsize=None)
def index(level: int) -> int:
    """Index [SL_2(Z) : Gamma_0(N)] = N * prod_{p|N} (1 + 1/p), read off the
    dimension terms by the genus formula, I = 12(g - 1) + 3 eps2 + 4 eps3
    + 6 eps_inf; exact, as _dimension_terms builds g from I and certifies
    that 12 divides the difference."""
    g1, e2, e3, ei = _dimension_terms(check_level(level))
    return 12 * g1 + 3 * e2 + 4 * e3 + 6 * ei


def cusp_dim(level: int, weight: int) -> int:
    """dim S_k(Gamma_0(N)) for even k >= 2 (k = 2 gives the genus)."""
    check_level(level)
    check_weight(weight)
    g1, e2, e3, ei = _dimension_terms(level)
    if weight == 2:
        return g1 + 1
    d = (weight - 1) * g1 + (weight // 4) * e2 + (weight // 3) * e3 + (weight // 2 - 1) * ei
    if d < 0:
        raise EngineError(f"dimension formula gave {d} < 0 at ({level}, {weight})")
    return d


def sturm_bound(level: int, weight: int) -> int:
    """Coefficient count determining a cusp form: floor(k*I(N)/12) + 1."""
    check_level(level)
    check_weight(weight)
    return weight * index(level) // 12 + 1


def check_precision(level: int, weight: int, precision) -> None:
    """Validate a truncation precision of S_k(N): an int, at least the
    Sturm bound, so that it determines every form."""
    if not isinstance(precision, int) or isinstance(precision, bool):
        raise ValueError(f"precision must be an integer, got {precision!r}")
    bound = sturm_bound(level, weight)
    if precision < bound:
        raise ValueError(f"precision {precision} is below the Sturm bound {bound}")


def valence_bound(level: int, weight: int) -> int:
    """Maximal possible ord_infinity of a non-zero form: floor(k*I(N)/12)."""
    check_level(level)
    check_weight(weight)
    return weight * index(level) // 12


# (alpha2/eps2(N), alpha3/eps3(N)) for each residue of K mod 12
_ALPHA_MULTIPLES = {0: (0, 0), 2: (1, 2), 4: (0, 1), 6: (1, 0), 8: (0, 2), 10: (1, 1)}


def alpha_pair(level: int, big_weight: int) -> tuple[int, int]:
    """Forced zero counts (alpha2, alpha3) at the elliptic points for forms
    of even weight K, selected by K mod 12."""
    check_level(level)
    check_index("big weight", big_weight, 2)
    if big_weight % 2 != 0:
        raise ValueError(f"alpha_pair is defined for even weights, got {big_weight}")
    m2, m3 = _ALPHA_MULTIPLES[big_weight % 12]
    _, e2, e3, _ = _dimension_terms(level)
    return m2 * e2, m3 * e3


# Reduced-inequality certificates used by the case analysis.  Each label
# names the exact expression that certifies "master >= 1" in its case; in
# every case the reduced expression is equal to the master LHS once the
# case's congruence conditions are taken into account.
CERT_INDEX = "index"
CERT_EPS2 = "index+eps2/2"
CERT_EPS3 = "index+2eps3/3"
CERT_EPS23 = "index+eps2/2+2eps3/3"
CERT_ALPHA2 = "alpha2"
CERT_ALPHA3 = "alpha3"
CERT_MASTER = "full"

# the alpha2 = alpha3 = 0 certificate by (keeps eps2/2?, keeps 2eps3/3?)
_INDEX_CERTIFICATES = {
    (False, False): CERT_INDEX,
    (True, False): CERT_EPS2,
    (False, True): CERT_EPS3,
    (True, True): CERT_EPS23,
}
# the modulus of its congruences on (k, p) by (eps2(N) > 0, eps3(N) > 0)
_INDEX_MODULI = {(False, False): None, (True, False): 4, (False, True): 3, (True, True): 12}


@dataclass(frozen=True)
class CaseReport:
    level: int
    weight: int
    prime: int
    big_weight: int
    big_weight_mod12: int
    alpha2: int
    alpha3: int
    quadrant: str
    congruence_modulus: int | None
    weight_residue: int | None
    prime_residue: int | None
    certificate: str
    certificate_lhs: Fraction
    master_lhs: Fraction
    dim_upper: int
    order_bound: Fraction
    inequality_holds: bool
    certificate_matches_master: bool
    identity_holds: bool

    @property
    def verified(self) -> bool:
        """The scan verdict: the inequality holds, the reduction identity
        holds, and the reduced certificate agrees with the master LHS."""
        return self.inequality_holds and self.identity_holds and self.certificate_matches_master

    def as_dict(self) -> dict:
        return {
            "level": self.level,
            "weight": self.weight,
            "prime": self.prime,
            "bigWeight": self.big_weight,
            "bigWeightMod12": self.big_weight_mod12,
            "alpha2": self.alpha2,
            "alpha3": self.alpha3,
            "quadrant": self.quadrant,
            "congruenceModulus": self.congruence_modulus,
            "weightResidue": self.weight_residue,
            "primeResidue": self.prime_residue,
            "certificate": self.certificate,
            "certificateLhs": str(self.certificate_lhs),
            "masterLhs": str(self.master_lhs),
            "dimUpper": self.dim_upper,
            "orderBound": str(self.order_bound),
            "inequalityHolds": self.inequality_holds,
            "certificateMatchesMaster": self.certificate_matches_master,
            "identityHolds": self.identity_holds,
        }

    def csv_row(self) -> str:
        """The report as a row of `cuspgaps scan --csv`, under CSV_HEADER."""
        return (
            f"{self.weight},{self.level},{self.prime},{self.big_weight_mod12},"
            f"{self.alpha2},{self.alpha3},{self.quadrant},{self.certificate},"
            f"{self.certificate_lhs},{self.master_lhs},{self.dim_upper},"
            f"{self.order_bound},{self.identity_holds},{self.inequality_holds}"
        )


CSV_HEADER = (
    "k,N,p,bigWeightMod12,alpha2,alpha3,quadrant,certificate,"
    "certificateLhs,masterLhs,dim,orderBound,identityHolds,inequalityHolds"
)


def _residue_core(level: int, weight: int, r: int) -> tuple[int, int, int, dict]:
    """The case analysis of every (N, k, p) with p == r mod 12, p >= 5 prime
    to N: (I(N), tail12, 12 * master LHS, the CaseReport fields that depend
    on p only through p mod 12, by name and in field order).
    With K = (k-1)p + 1 every term is a multiple of 1/12:

        12 master = (k-2) I(N) + (12[k/4] - 3(k-1)) eps2(pN)
                    + (12[k/3] - 4(k-1)) eps3(pN) + 6 alpha2 + 4 alpha3
        12 bound  = K I(N) - tail12,  tail12 = 6 alpha2 + 4 alpha3 + 12 eps_inf(N) - 12

    The quadrant is (alpha2 == 0?, alpha3 == 0?).  Where both vanish,
    K is 0 mod 4 if eps2(N) > 0 and 0 mod 3 if eps3(N) > 0, so
    eps2(pN) = 2 eps2(N) when k == 0 mod 4 (then p == 1 mod 4) and 0
    otherwise, and likewise eps3(pN) with k, p mod 3; the certificate keeps
    the index term and the elliptic terms that survive.
    """
    k = weight
    i, (_, e2n, e3n, ein) = index(level), _dimension_terms(level)
    # (-4/.) and (-3/.) are characters mod 4 and mod 3, so r stands for p
    e2p, e3p = e2n * (1 + kronecker_minus4(r)), e3n * (1 + kronecker_minus3(r))
    big_k12 = ((k - 1) * r + 1) % 12
    m2, m3 = _ALPHA_MULTIPLES[big_k12]
    a2, a3 = m2 * e2n, m3 * e3n
    master12 = (
        (k - 2) * i
        + (12 * (k // 4) - 3 * (k - 1)) * e2p
        + (12 * (k // 3) - 4 * (k - 1)) * e3p
        + 6 * a2
        + 4 * a3
    )
    master = Fraction(master12, 12)

    if a2 == 0 and a3 == 0:
        quadrant = "alpha2=0,alpha3=0"
        modulus = _INDEX_MODULI[e2n != 0, e3n != 0]
        keep2, keep3 = e2n != 0 and k % 4 == 0, e3n != 0 and k % 3 == 0
        cert = _INDEX_CERTIFICATES[keep2, keep3]
        cert12 = (k - 2) * i + (6 * e2n if keep2 else 0) + (8 * e3n if keep3 else 0)
        cert_lhs = Fraction(cert12, 12)
    else:
        cert12, cert_lhs = master12, master
        if a3 == 0:
            quadrant, cert, modulus = "alpha2!=0,alpha3=0", CERT_ALPHA2, 12 if e3n != 0 else None
        elif a2 == 0:
            quadrant, cert, modulus = "alpha2=0,alpha3!=0", CERT_ALPHA3, 12 if e2n != 0 else None
        else:
            quadrant, cert, modulus = "alpha2!=0,alpha3!=0", CERT_MASTER, 12

    # every modulus divides 12, so r % modulus == p % modulus
    fields = dict(
        big_weight_mod12=big_k12, alpha2=a2, alpha3=a3, quadrant=quadrant, congruence_modulus=modulus,
        weight_residue=None if modulus is None else k % modulus,
        prime_residue=None if modulus is None else r % modulus,
        certificate=cert, certificate_lhs=cert_lhs, master_lhs=master,
        inequality_holds=master12 >= 12, certificate_matches_master=cert12 == master12,
    )
    return i, 6 * a2 + 4 * a3 + 12 * ein - 12, master12, fields


def vanishing_order_bound(level: int, weight: int, p: int) -> Fraction:
    """Sharp upper bound for ord_infinity(f), valid for f in S_k(pN) with
    v_p(f) = 0 and v_p(f|W_p) >= 1 - k/2 (Ahlgren--Masri--Rouse):

        ((k-1)p+1)/12 * I(N) - alpha2/2 - alpha3/3 - eps_inf(N) + 1
    """
    check_triple(level, weight, p)
    i, tail12, _, _ = _residue_core(level, weight, p % 12)
    return Fraction(((weight - 1) * p + 1) * i - tail12, 12)


def master_inequality_lhs(level: int, weight: int, p: int) -> Fraction:
    """Exact left-hand side of the master inequality whose value >= 1 is
    equivalent to vanishing_order_bound <= dim S_k(pN):

        (k-2)/12 I(N) + ([k/4] - (k-1)/4) eps2(pN)
                      + ([k/3] - (k-1)/3) eps3(pN) + alpha2/2 + alpha3/3
    """
    check_triple(level, weight, p)
    return Fraction(_residue_core(level, weight, p % 12)[2], 12)


def _classify_level(level: int, weight: int, primes) -> Iterator[CaseReport]:
    """The CaseReport of (N, k, p) for each p in primes, in their order: the
    only place a report is built.  The caller has validated N, k >= 4 and
    every p as admissible.

    The residue core is evaluated once per p mod 12 present and held only
    for this call; per p remain K, 12 * the order bound and dim S_k(pN), the
    latter from the terms of pN's own factorization, never from the core's
    (1 + (-4/r)) shortcut.  Each report's instance dict is filled directly,
    which skips the frozen __init__'s object.__setattr__ per field: four item
    stores, one update from the core's field dict, three more stores.  The
    dict is no longer empty when it is updated, so CPython merges key by key
    into the class's compact shared-key form; into an empty one it would
    clone the core's combined dict, larger and lost to the shared keys."""
    k = weight
    i = index(level)
    cores = {}
    for r in {p % 12 for p in primes}:
        _, tail12, master12, fields = _residue_core(level, k, r)
        cores[r] = tail12, master12 - 12, fields
    c1, c2, c3, ci = k - 1, k // 4, k // 3, k // 2 - 1
    new = object.__new__
    for p in primes:
        tail12, margin12, core_fields = cores[p % 12]
        big_k = c1 * p + 1
        bound12 = big_k * i - tail12
        g1, e2, e3, ei = _dimension_terms(p * level)
        d = c1 * g1 + c2 * e2 + c3 * e3 + ci * ei
        if d < 0:
            raise EngineError(f"dimension formula gave {d} < 0 at ({p * level}, {k})")
        report = new(CaseReport)
        f = report.__dict__
        f["level"] = level
        f["weight"] = k
        f["prime"] = p
        f["big_weight"] = big_k
        f.update(core_fields)
        f["dim_upper"] = d
        f["order_bound"] = Fraction(bound12, 12)
        f["identity_holds"] = 12 * d - bound12 == margin12
        yield report


def classify_triple(level: int, weight: int, p: int) -> CaseReport:
    """Classify (N, k, p) into the case analysis quadrants, pick the reduced
    inequality certifying master >= 1, and evaluate everything exactly, in
    integer twelfths, through the residue core of p mod 12."""
    check_level(level)
    check_weight(weight)
    if weight < 4:
        raise ValueError("case classification requires even weight >= 4")
    check_admissible_prime(level, weight, p)
    return next(_classify_level(level, weight, (p,)))


def vanishing_levels(weight: int) -> tuple[int, ...]:
    """All levels N with dim S_k(N) = 0 for even k >= 4.

    The dimension is eventually positive and grows with N, so the search
    stops once 20 consecutive levels past the last zero have positive
    dimension.
    """
    check_weight(weight)
    if weight < 4:
        raise ValueError("vanishing_levels requires weight >= 4")
    out = []
    n = 1
    consecutive_positive = 0
    while consecutive_positive < 20:
        if cusp_dim(n, weight) == 0:
            out.append(n)
            consecutive_positive = 0
        else:
            consecutive_positive += 1
        n += 1
    return tuple(out)


@dataclass(frozen=True)
class ScanConfig:
    kmin: int = 4
    kmax: int = 24
    nmax: int = 300
    pmax: int = 199

    def validate(self) -> "ScanConfig":
        """The scan's only gate: its triples are admissible by construction
        and are not validated one by one."""
        for field in fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"scan {field.name} must be an integer, got {value!r}")
        if self.kmin % 2 or self.kmax % 2 or self.kmin < 4 or self.kmax < self.kmin:
            raise ValueError("scan requires even 4 <= kmin <= kmax")
        if self.nmax < 1 or self.pmax < 5:
            raise ValueError("scan requires nmax >= 1 and pmax >= 5")
        return self


def scan_triples(config: ScanConfig) -> Iterator[CaseReport]:
    """Classify every admissible (N, k, p) in the configured ranges,
    lazily and in deterministic (k, N, p) order.  The configuration is
    validated when this is called, not at the first report."""
    config.validate()
    primes = primes_up_to(config.pmax)
    weights = range(config.kmin, config.kmax + 1, 2)
    by_weight = ((k, [p for p in primes if p >= max(5, k + 1)]) for k in weights)
    return chain.from_iterable(
        _classify_level(n, k, [p for p in above if n % p])
        for k, above in by_weight
        for n in range(1, config.nmax + 1)
    )
