"""Integral echelon q-expansion bases of S_k(Gamma_0(N)) from modular symbols.

The coefficient sequences n -> L(T_n x) over Manin-symbol generators x and
functionals L that kill the Eisenstein part of the quotient are exactly the
q-expansions of rational cusp forms; accumulating them until their rank
equals dim S_k and echelonizing yields the canonical integral basis with
strictly increasing pivots.

The Eisenstein-killing functionals are the rows of (T_l - (1 + l^(k-1)))^r
on the quotient, where l is the smallest prime not dividing N and r is the
dimension of the Eisenstein part: on Gamma_0(N) with trivial character the
Eisenstein T_l-eigenvalues are +-(1 + l^(k-1)), and no cuspidal eigenvalue
can collide with them (Deligne's bound is strictly smaller), so this power
annihilates exactly the Eisenstein part.  Rank certificates guard the
construction at run time and fail loudly on levels whose Eisenstein systems
are more exotic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ..arith import smallest_prime_not_dividing
from ..errors import EngineError, NotInSpanError
from ..invariants import sturm_bound, valence_bound
from ..linalg import Echelonizer, make_primitive, mat_mul, rank
from ..qexp import QExpansion
from .presentation import MSPresentation, build_presentation, hecke_cosets


@dataclass(frozen=True)
class SpaceBasis:
    """Integral echelon basis: rows are primitive integer q-expansions with
    strictly increasing leading exponents (pivots) and positive leads."""

    level: int
    weight: int
    precision: int
    rows: tuple[QExpansion, ...]
    pivots: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def coordinates(self, f: QExpansion) -> tuple[Fraction, ...]:
        """Exact coordinates of f in this basis; raises NotInSpanError if f
        does not agree with the span on all jointly known coefficients."""
        upto = min(f.precision, self.precision)
        if self.pivots and upto < self.pivots[-1]:
            raise ValueError(
                f"need precision >= {self.pivots[-1]} to take coordinates, got {f.precision}"
            )
        coords = tuple(
            Fraction(f.coefficient(c), row.coefficient(c)) for c, row in zip(self.pivots, self.rows)
        )
        for n in range(1, upto + 1):
            combo = sum(y * row.coefficient(n) for y, row in zip(coords, self.rows))
            if combo != f.coefficient(n):
                raise NotInSpanError(
                    f"q^{n} coefficient mismatch: span gives {combo}, form has {f.coefficient(n)}"
                )
        return coords

    def linear_combination(self, coords) -> QExpansion:
        out = [Fraction(0)] * self.precision
        for y, row in zip(coords, self.rows):
            if y:
                for idx, c in enumerate(row.coeffs):
                    if c:
                        out[idx] += y * c
        return QExpansion(tuple(out), self.weight, self.level)


def _hecke_image_quotient(pres: MSPresentation, t: int, n: int) -> list[Fraction]:
    """T_n applied to the Manin symbol t, in generator coordinates."""
    raw: dict[int, int] = {}
    for a, b, d in hecke_cosets(n, pres.level):
        for col, cf in pres.act_symbol_raw(t, ((a, b), (0, d))).items():
            raw[col] = raw.get(col, 0) + cf
    return pres.raw_to_quotient(raw)


def ambient_hecke_matrix(pres: MSPresentation, n: int) -> list[list[Fraction]]:
    """Matrix of T_n on the full plus quotient (columns are images of the
    generators)."""
    m = pres.dimension
    cols = [_hecke_image_quotient(pres, pres.generators[j], n) for j in range(m)]
    return [[cols[j][i] for j in range(m)] for i in range(m)]


def cuspidal_functionals(pres: MSPresentation) -> list[list[int]]:
    """Integer-scaled functionals on the quotient killing the Eisenstein
    part and restricting to a basis of the cuspidal dual."""
    m, d = pres.dimension, pres.cuspidal_dimension
    if d == 0:
        return []
    if m == d:
        return [[int(i == j) for j in range(m)] for i in range(d)]
    ell = smallest_prime_not_dividing(pres.level)
    lam = 1 + ell ** (pres.weight - 1)
    a = ambient_hecke_matrix(pres, ell)
    r = m - d

    def shifted(sign: int) -> list[list[Fraction]]:
        return [
            [x + (sign * lam if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(a)
        ]

    h = shifted(-1)
    power = h
    for _ in range(r - 1):
        power = mat_mul(power, h)
    if rank(power) != d:
        # fold in the -(1 + l^(k-1)) eigenvalue (quadratic-character Eisenstein
        # series, only possible when the level has a square factor)
        h = mat_mul(shifted(-1), shifted(1))
        power = h
        for _ in range(r - 1):
            power = mat_mul(power, h)
        if rank(power) != d:
            raise EngineError(
                f"cannot isolate the cuspidal dual at ({pres.level}, {pres.weight}): "
                "unsupported Eisenstein eigenvalue structure"
            )
    # pick d independent rows, deterministically
    ech = Echelonizer(m)
    funcs = []
    for row in power:
        if ech.add(row) is not None:
            funcs.append(make_primitive(row))
            if len(funcs) == d:
                break
    # the functionals must restrict to a basis of the cuspidal subspace's dual
    gram = [[sum(f * c for f, c in zip(func, cvec)) for cvec in pres.cuspidal_basis] for func in funcs]
    if rank(gram) != d:
        raise EngineError(
            f"cuspidal functionals are degenerate at ({pres.level}, {pres.weight})"
        )
    return funcs


def _series_block(pres: MSPresentation, t: int, precision: int, functionals) -> list[list]:
    """All functional series n -> L_i(T_n x_t) for n = 1..precision, sharing
    one Hecke-image computation per n."""
    rows = [[0] * precision for _ in functionals]
    for n in range(1, precision + 1):
        vec = _hecke_image_quotient(pres, t, n)
        for i, func in enumerate(functionals):
            rows[i][n - 1] = sum(l * v for l, v in zip(func, vec) if l and v)
    return rows


@lru_cache(maxsize=64)
def qexpansion_basis(level: int, weight: int, precision: int) -> SpaceBasis:
    """Canonical integral echelon basis of S_k(Gamma_0(N)) to the given
    precision (which must be at least the Sturm bound)."""
    bound = sturm_bound(level, weight)
    if precision < bound:
        raise ValueError(f"precision {precision} is below the Sturm bound {bound}")
    pres = build_presentation(level, weight)
    d = pres.cuspidal_dimension
    if d == 0:
        return SpaceBasis(level, weight, precision, (), ())
    functionals = cuspidal_functionals(pres)
    ech = Echelonizer(precision)
    for t in pres.generators:
        block = _series_block(pres, t, precision, functionals)
        for row in block:
            ech.add(row)
        if ech.rank == d:
            break
    if ech.rank != d:
        raise EngineError(
            f"series rank stalled at {ech.rank} < {d} for ({level}, {weight}); "
            "this indicates an engine bug"
        )
    rows = []
    pivots = []
    for reduced in ech.reduced_rows():
        ints = make_primitive(reduced)
        pivot = next(i for i, x in enumerate(ints) if x) + 1
        pivots.append(pivot)
        rows.append(QExpansion(tuple(ints), weight, level))
    vb = valence_bound(level, weight)
    if list(pivots) != sorted(set(pivots)) or (pivots and pivots[-1] > vb):
        raise EngineError(
            f"echelon pivots {pivots} violate the valence bound {vb} at ({level}, {weight})"
        )
    basis = SpaceBasis(level, weight, precision, tuple(rows), tuple(pivots))
    hecke_stability_certificate(basis)
    return basis


def hecke_stability_certificate(basis: SpaceBasis, through: int = 5) -> None:
    """Certify that the spanned coefficient space is stable under the
    coefficient-side Hecke rule

        a_n(T_m f) = sum over e | gcd(n, m), gcd(e, N) = 1 of
                     e^(k-1) a_(n m / e^2)(f)

    for 2 <= m <= through.  Raises EngineError on failure."""
    if not basis.rows:
        return
    from math import gcd

    k, n_level = basis.weight, basis.level
    for m in range(2, through + 1):
        prec = basis.precision // m
        if prec < 1:
            continue
        ech = Echelonizer(prec)
        for row in basis.rows:
            ech.add(list(row.coeffs[:prec]))
        for row in basis.rows:
            image = []
            for n in range(1, prec + 1):
                total = 0
                for e in range(1, gcd(n, m) + 1):
                    if n % e == 0 and m % e == 0 and gcd(e, n_level) == 1:
                        total += e ** (k - 1) * row.coefficient(n * m // (e * e))
                image.append(total)
            if not ech.contains(image):
                raise EngineError(
                    f"Hecke stability certificate failed for T_{m} at "
                    f"({basis.level}, {basis.weight})"
                )


def hecke_operator_cuspidal(level: int, weight: int, n: int) -> list[list[Fraction]]:
    """Exact matrix of T_n on the cuspidal plus-subspace (in the basis of
    the presentation's cuspidal kernel vectors)."""
    pres = build_presentation(level, weight)
    solver = _cuspidal_solver(level, weight)
    cols = [solver(pres.hecke_vector(v, n)) for v in pres.cuspidal_basis]
    d = pres.cuspidal_dimension
    return [[cols[j][i] for j in range(d)] for i in range(d)]


@lru_cache(maxsize=None)
def _cuspidal_solver(level: int, weight: int):
    """Returns a function solving C y = w for w in the cuspidal subspace,
    where C's columns are the cuspidal basis vectors."""
    from ..linalg import mat_inverse

    pres = build_presentation(level, weight)
    d = pres.cuspidal_dimension
    basis = pres.cuspidal_basis
    ech = Echelonizer(pres.dimension)
    chosen_rows: list[int] = []
    for i in range(pres.dimension):
        if ech.add([basis[j][i] for j in range(d)] + [0] * (pres.dimension - d)) is not None:
            chosen_rows.append(i)
            if len(chosen_rows) == d:
                break
    square = [[basis[j][i] for j in range(d)] for i in chosen_rows]
    inv = mat_inverse(square)

    def solve(w) -> list[Fraction]:
        y = [sum(inv[i][j] * w[chosen_rows[j]] for j in range(d)) for i in range(d)]
        # consistency: w must equal C y everywhere
        for i in range(pres.dimension):
            if sum(basis[j][i] * y[j] for j in range(d)) != w[i]:
                raise EngineError("vector is not in the cuspidal subspace")
        return y

    return solve
