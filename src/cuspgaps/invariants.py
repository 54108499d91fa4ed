"""Closed-form invariants of Gamma_0(N) and the exact inequality case analysis.

Everything here is a pure function of its integer arguments, computed in
exact arithmetic (integers and Fractions, never floats).  Levels are plain
positive ints and weights are plain positive even ints; ``check_level`` and
``check_weight`` enforce the contracts.

The case analysis of (N, k, p) is carried in integer twelfths and, but for
the term K I(N) of the order bound (K = (k-1)p + 1), depends on p only
through r = p mod 12: K mod 12 = ((k-1) r + 1) mod 12 selects the alpha
pair, and since the elliptic counts are multiplicative over coprime levels,
eps2(pN) = eps2(N) (1 + (-4/p)) and eps3(pN) = eps3(N) (1 + (-3/p)), where
(-4/.) and (-3/.) are characters mod 4 and mod 3.  One cached core,
``_residue_core(N, k, r)``, evaluates the master LHS, the alpha pair, the
quadrant and the reduced certificate once per residue class.  Per triple
only the order bound and dim S_k(pN) remain; the dimension formula factors
pN afresh, so the reduction identity checks the residue formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .arith import factorize, is_prime, kronecker_minus3, kronecker_minus4, primes_up_to
from .errors import EngineError


def check_level(n) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"level must be a positive integer, got {n!r}")
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


def check_admissible_prime(level: int, weight: int, p) -> int:
    """Validate the prime used by the case analysis: p prime, p coprime to
    the level, and p >= max(5, weight+1)."""
    check_odd_prime(level, p)
    if p < max(5, weight + 1):
        raise ValueError(f"p = {p} must be >= max(5, k+1) = {max(5, weight + 1)}")
    return p


@lru_cache(maxsize=None)
def index(level: int) -> int:
    """Index [SL_2(Z) : Gamma_0(N)] = N * prod_{p|N} (1 + 1/p)."""
    check_level(level)
    out = level
    for p, _ in factorize(level):
        out = out // p * (p + 1)
    return out


@lru_cache(maxsize=None)
def eps2(level: int) -> int:
    """Number of elliptic points of order 2 on X_0(N)."""
    check_level(level)
    if level % 4 == 0:
        return 0
    out = 1
    for p, _ in factorize(level):
        out *= 1 + kronecker_minus4(p)
    return out


@lru_cache(maxsize=None)
def eps3(level: int) -> int:
    """Number of elliptic points of order 3 on X_0(N)."""
    check_level(level)
    if level % 9 == 0:
        return 0
    out = 1
    for p, _ in factorize(level):
        out *= 1 + kronecker_minus3(p)
    return out


@lru_cache(maxsize=None)
def eps_inf(level: int) -> int:
    """Number of cusps of X_0(N): sum over d|N of phi(gcd(d, N/d)), which is
    multiplicative, so prod over p^e || N of sum_{i=0..e} phi(p^min(i, e-i))."""
    check_level(level)
    out = 1
    for p, e in factorize(level):
        out *= sum((p - 1) * p ** (min(i, e - i) - 1) if 0 < i < e else 1 for i in range(e + 1))
    return out


@lru_cache(maxsize=None)
def genus(level: int) -> int:
    """Genus of X_0(N) via I/12 - eps_inf/2 - eps2/4 - eps3/3 + 1."""
    g12 = index(level) - 6 * eps_inf(level) - 3 * eps2(level) - 4 * eps3(level) + 12
    if g12 % 12 or g12 < 0:
        raise EngineError(
            f"genus formula gave non-integral or negative value {Fraction(g12, 12)} at level {level}"
        )
    return g12 // 12


@dataclass(frozen=True)
class LevelInvariants:
    level: int
    index: int
    eps2: int
    eps3: int
    eps_inf: int
    genus: int

    @classmethod
    def compute(cls, level: int) -> "LevelInvariants":
        check_level(level)
        return cls(level, index(level), eps2(level), eps3(level), eps_inf(level), genus(level))

    def as_dict(self) -> dict:
        return {
            "level": self.level,
            "index": self.index,
            "eps2": self.eps2,
            "eps3": self.eps3,
            "epsInf": self.eps_inf,
            "genus": self.genus,
        }


def cusp_dim(level: int, weight: int) -> int:
    """dim S_k(Gamma_0(N)) for even k >= 2 (k = 2 gives the genus)."""
    check_level(level)
    check_weight(weight)
    if weight == 2:
        return genus(level)
    d = (
        (weight - 1) * (genus(level) - 1)
        + (weight // 4) * eps2(level)
        + (weight // 3) * eps3(level)
        + (weight // 2 - 1) * eps_inf(level)
    )
    if d < 0:
        raise EngineError(f"dimension formula gave {d} < 0 at ({level}, {weight})")
    return d


def sturm_bound(level: int, weight: int) -> int:
    """Coefficient count determining a cusp form: floor(k*I(N)/12) + 1."""
    return weight * index(level) // 12 + 1


def valence_bound(level: int, weight: int) -> int:
    """Maximal possible ord_infinity of a non-zero form: floor(k*I(N)/12)."""
    return weight * index(level) // 12


# (alpha2/eps2(N), alpha3/eps3(N)) for each residue of K mod 12
_ALPHA_MULTIPLES = {0: (0, 0), 2: (1, 2), 4: (0, 1), 6: (1, 0), 8: (0, 2), 10: (1, 1)}


def alpha_pair(level: int, big_weight: int) -> tuple[int, int]:
    """Forced zero counts (alpha2, alpha3) at the elliptic points for forms
    of even weight K, selected by K mod 12."""
    check_level(level)
    if big_weight % 2 != 0:
        raise ValueError(f"alpha_pair is defined for even weights, got {big_weight}")
    m2, m3 = _ALPHA_MULTIPLES[big_weight % 12]
    return m2 * eps2(level), m3 * eps3(level)


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

    @classmethod
    def _build(cls, shared: tuple, **fields) -> "CaseReport":
        """The report with the _RESIDUE_FIELDS in shared and the given
        fields, filled by one update of the instance dict rather than the
        frozen __init__'s one object.__setattr__ per field.  Pairs, unlike a
        dict, keep the instance dict in the class's compact shared-key form."""
        report = object.__new__(cls)
        report.__dict__.update(zip(_RESIDUE_FIELDS, shared), **fields)
        return report

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


# the CaseReport fields that depend on p only through p mod 12
_RESIDUE_FIELDS = (
    "big_weight_mod12", "alpha2", "alpha3", "quadrant", "congruence_modulus", "weight_residue",
    "prime_residue", "certificate", "certificate_lhs", "master_lhs", "inequality_holds",
    "certificate_matches_master",
)


@lru_cache(maxsize=None)
def _residue_core(level: int, weight: int, r: int) -> tuple[int, int, int, tuple]:
    """The case analysis of every (N, k, p) with p == r mod 12, p >= 5 prime
    to N: (I(N), tail12, 12 * master LHS, the values of _RESIDUE_FIELDS).
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
    i, e2n, e3n = index(level), eps2(level), eps3(level)
    # (-4/.) and (-3/.) are characters mod 4 and mod 3, so r stands for p
    e2p, e3p = e2n * (1 + kronecker_minus4(r)), e3n * (1 + kronecker_minus3(r))
    big_k12 = ((k - 1) * r + 1) % 12
    a2, a3 = alpha_pair(level, big_k12)
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
    residues = (None, None) if modulus is None else (k % modulus, r % modulus)
    shared = (big_k12, a2, a3, quadrant, modulus, *residues, cert, cert_lhs, master,
              master12 >= 12, cert12 == master12)
    return i, 6 * a2 + 4 * a3 + 12 * eps_inf(level) - 12, master12, shared


def vanishing_order_bound(level: int, weight: int, p: int) -> Fraction:
    """Sharp upper bound for ord_infinity(f), valid for f in S_k(pN) with
    v_p(f) = 0 and v_p(f|W_p) >= 1 - k/2 (Ahlgren--Masri--Rouse):

        ((k-1)p+1)/12 * I(N) - alpha2/2 - alpha3/3 - eps_inf(N) + 1
    """
    check_level(level)
    check_weight(weight)
    check_odd_prime(level, p)
    i, tail12, _, _ = _residue_core(level, weight, p % 12)
    return Fraction(((weight - 1) * p + 1) * i - tail12, 12)


def master_inequality_lhs(level: int, weight: int, p: int) -> Fraction:
    """Exact left-hand side of the master inequality whose value >= 1 is
    equivalent to vanishing_order_bound <= dim S_k(pN):

        (k-2)/12 I(N) + ([k/4] - (k-1)/4) eps2(pN)
                      + ([k/3] - (k-1)/3) eps3(pN) + alpha2/2 + alpha3/3
    """
    check_level(level)
    check_weight(weight)
    check_odd_prime(level, p)
    return Fraction(_residue_core(level, weight, p % 12)[2], 12)


def classify_triple(level: int, weight: int, p: int) -> CaseReport:
    """Classify (N, k, p) into the case analysis quadrants, pick the reduced
    inequality certifying master >= 1, and evaluate everything exactly, in
    integer twelfths, through the residue core of p mod 12."""
    check_level(level)
    if weight < 4:
        raise ValueError("case classification requires even weight >= 4")
    check_weight(weight)
    check_admissible_prime(level, weight, p)

    i, tail12, master12, shared = _residue_core(level, weight, p % 12)
    big_k = (weight - 1) * p + 1
    bound12 = big_k * i - tail12
    dim_upper = cusp_dim(p * level, weight)
    return CaseReport._build(
        shared,
        level=level,
        weight=weight,
        prime=p,
        big_weight=big_k,
        dim_upper=dim_upper,
        order_bound=Fraction(bound12, 12),
        identity_holds=12 * dim_upper - bound12 == master12 - 12,
    )


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
    return (
        classify_triple(n, k, p)
        for k in range(config.kmin, config.kmax + 1, 2)
        for n in range(1, config.nmax + 1)
        for p in primes
        if p >= max(5, k + 1) and n % p != 0
    )
