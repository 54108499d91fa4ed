"""Integral echelon q-expansion bases of S_k(Gamma_0(N)) from modular symbols.

If x lies in the cuspidal subspace of the plus quotient, T -> (T x)_i is a
functional on the cuspidal Hecke algebra for every coordinate i, and the
dual of that algebra is S_k(Q) via T -> a_1(T f) (Merel, "Universal Fourier
expansions of modular forms"; Stein, GSM 79, ch. 8-9).  So each series
n -> (T_n x)_i is the q-expansion of a rational cusp form, and these
functionals span the dual as x runs over the cuspidal subspace and i over d
coordinates that determine a cuspidal vector.  Accumulating the series
until their rank equals d = dim S_k and echelonizing yields the canonical
integral basis with strictly increasing pivots; a rank certificate, the
pivot/valence check and a Hecke stability certificate guard the result.

The same series carry any T_n to the echelon basis: the Hecke algebra is
commutative, so T_n f_(x,i) = f_(T_n x, i), whose m-th coefficient is
(T_n T_m x)_i.  Only the first `precision` coefficients of each series are
ever needed, so no operator asks for more than the basis already has.  The
series pass (_independent_series) runs once per (level, weight,
precision), and the basis and the transport both read it.

The coefficient-side Hecke rule a_n(T_m f), for any m, is here too
(coefficient_image): the stability certificate uses it, and so do the
operator stack's cross-checks and its reference operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from ..arith import divisors
from ..errors import EngineError, NotInSpanError
from ..invariants import sturm_bound, valence_bound
from ..linalg import Echelonizer, make_primitive, mat_mul
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


def _hecke_image_quotient(pres: MSPresentation, x: dict, n: int) -> list[Fraction]:
    """T_n applied to the combination x = {Manin symbol: coefficient}, in
    generator coordinates: the coset images are summed as raw symbols and
    reduced into the quotient once."""
    raw: dict = {}
    for a, b, d in hecke_cosets(n, pres.level):
        for t, c in x.items():
            for col, cf in pres.act_symbol_raw(t, ((a, b), (0, d))).items():
                raw[col] = raw.get(col, 0) + c * cf
    return pres.raw_to_quotient(raw)


def _combination(pres: MSPresentation, vec) -> dict:
    """A vector in generator coordinates as {Manin symbol: coefficient}."""
    return {t: c for t, c in zip(pres.generators, vec) if c}


def cuspidal_functionals(pres: MSPresentation) -> list[int]:
    """Indices of d generator coordinates on which the cuspidal basis is
    independent (d = dim S_k): a cuspidal vector is determined by them."""
    d = pres.cuspidal_dimension
    ech = Echelonizer(d)
    chosen: list[int] = []
    for i in range(pres.dimension):
        if len(chosen) == d:
            break
        if ech.add([v[i] for v in pres.cuspidal_basis]) is not None:
            chosen.append(i)
    return chosen


def _cuspidal_elements(pres: MSPresentation):
    """Cuspidal elements as symbol combinations.  First Merel's symbols
    X^i Y^(k-2-i) {0, oo} for even 0 < i < k-2: their boundary vanishes and
    each coset needs one continued fraction (odd i vanish in the plus
    quotient).  Then the cuspidal kernel basis, which k = 2 and 4 need."""
    origin = pres.p1.index(0, 1)
    for i in range(2, pres.degree, 2):
        yield {i * pres.n_p1 + origin: 1}
    for vec in pres.cuspidal_basis:
        yield _combination(pres, vec)


@lru_cache(maxsize=16)
def _independent_series(level: int, weight: int, precision: int):
    """The one series pass of a space: add the series m -> (T_m x)_i for
    m = 1..precision to an echelon until its rank is d = dim S_k, x running
    over the cuspidal elements and i over cuspidal_functionals.  Returns
    the reduced echelon rows and, for each x used, its Hecke images T_m x
    and the positions (among the chosen coordinates) of the series that
    raised the rank.  qexpansion_basis reads the rows, _series_frame the
    images."""
    pres = build_presentation(level, weight)
    d = pres.cuspidal_dimension
    coords = cuspidal_functionals(pres)
    ech = Echelonizer(precision)
    used = []
    for x in _cuspidal_elements(pres):
        images = [_hecke_image_quotient(pres, x, m) for m in range(1, precision + 1)]
        raised = []
        for r, i in enumerate(coords):
            if ech.add([w[i] for w in images]) is not None:
                raised.append(r)
                if ech.rank == d:
                    break
        if raised:
            used.append((images, raised))
        if ech.rank == d:
            return ech.reduced_rows(), used
    raise EngineError(
        f"series rank stalled at {ech.rank} < {d} for ({level}, {weight}); "
        "this indicates an engine bug"
    )


@lru_cache(maxsize=64)
def qexpansion_basis(level: int, weight: int, precision: int) -> SpaceBasis:
    """Canonical integral echelon basis of S_k(Gamma_0(N)) to the given
    precision (which must be at least the Sturm bound)."""
    bound = sturm_bound(level, weight)
    if precision < bound:
        raise ValueError(f"precision {precision} is below the Sturm bound {bound}")
    if build_presentation(level, weight).cuspidal_dimension == 0:
        return SpaceBasis(level, weight, precision, (), ())
    rows = []
    pivots = []
    for reduced in _independent_series(level, weight, precision)[0]:
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


def coefficient_image(f: QExpansion, m: int) -> list:
    """a_n(T_m f) for n = 1..floor(B/m), the coefficients the truncation
    determines, by the coefficient-side Hecke rule

        a_n(T_m f) = sum over e | gcd(n, m), gcd(e, N) = 1 of
                     e^(k-1) a_(n m / e^2)(f).

    For a prime m dividing the level this is U_m."""
    return [
        sum(
            e ** (f.weight - 1) * f.coefficient(n * m // (e * e))
            for e in divisors(gcd(n, m))
            if gcd(e, f.level) == 1
        )
        for n in range(1, f.precision // m + 1)
    ]


def hecke_stability_certificate(basis: SpaceBasis) -> None:
    """Certify that the spanned coefficient space is stable under the
    coefficient-side Hecke rule (coefficient_image) for T_2, ..., T_5.
    Raises EngineError on failure."""
    if not basis.rows:
        return
    for m in range(2, 6):
        prec = basis.precision // m
        if prec < 1:
            continue
        ech = Echelonizer(prec)
        for row in basis.rows:
            ech.add(list(row.coeffs[:prec]))
        for row in basis.rows:
            if not ech.contains(coefficient_image(row, m)):
                raise EngineError(
                    f"Hecke stability certificate failed for T_{m} at "
                    f"({basis.level}, {basis.weight})"
                )


def hecke_operator_cuspidal(level: int, weight: int, n: int) -> list[list[Fraction]]:
    """Exact matrix of T_n on the cuspidal plus-subspace, in the basis of
    the presentation's primitive integer cuspidal vectors."""
    pres = build_presentation(level, weight)
    solver = _cuspidal_solver(level, weight)
    cols = [solver(w) for w in _cuspidal_images(pres, n)]
    d = pres.cuspidal_dimension
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def _cuspidal_images(pres: MSPresentation, n: int) -> list[list[Fraction]]:
    """T_n of each cuspidal basis vector, in generator coordinates."""
    return [_hecke_image_quotient(pres, _combination(pres, v), n) for v in pres.cuspidal_basis]


def hecke_matrix_from_symbols(basis: SpaceBasis, n: int) -> list[list[Fraction]]:
    """T_n on the coordinates of an echelon basis of S_k(Gamma_0(N)),
    transported from the modular symbols at the basis's own precision.

    A series f(m) = (T_m x)_i of a cuspidal x has T_n f(m) = (T_n T_m x)_i.
    With T_m x = sum_j y_j v_j solved over the cuspidal basis vectors v_j,
    that is sum_j y_j (T_n v_j)_i, so T_n is applied only to the d basis
    vectors.  `coordinates` certifies that each T_n f lies in the span on
    every known coefficient, and T_n = (T_n f coordinates)
    (f coordinates)^-1 over the independent series of _series_frame.
    """
    level, weight = basis.level, basis.weight
    if basis.dimension == 0:
        return []
    series, f_inverse = _series_frame(basis)
    pres = build_presentation(level, weight)
    images = _cuspidal_images(pres, n)
    moved = [[w[i] for w in images] for i in cuspidal_functionals(pres)]
    tf_cols = []
    for r, solved in series:
        tf = [sum(a * y for a, y in zip(moved[r], ys)) for ys in solved]
        tf_cols.append(basis.coordinates(QExpansion(tuple(tf), weight, level)))
    return mat_mul(list(zip(*tf_cols)), f_inverse)


@lru_cache(maxsize=16)
def _series_frame(basis: SpaceBasis):
    """The independent series f(m) = (T_m x)_i of the basis's own series
    pass (_independent_series), each as (position of i among the chosen
    coordinates, the solved images T_m x for m = 1..precision), and the
    inverse of the matrix whose columns are their coordinates in the
    basis.  Every operator transported to the basis shares them."""
    from ..linalg import mat_inverse

    level, weight = basis.level, basis.weight
    solve = _cuspidal_solver(level, weight)
    coords = cuspidal_functionals(build_presentation(level, weight))
    series, f_cols = [], []
    for images, raised in _independent_series(level, weight, basis.precision)[1]:
        solved = [solve(w) for w in images]
        for r in raised:
            series.append((r, solved))
            f = QExpansion(tuple(w[coords[r]] for w in images), weight, level)
            f_cols.append(basis.coordinates(f))
    return series, mat_inverse(list(zip(*f_cols)))


@lru_cache(maxsize=64)
def _cuspidal_solver(level: int, weight: int):
    """Returns a function solving C y = w for w in the cuspidal subspace,
    where C's columns are the cuspidal basis vectors."""
    from ..linalg import mat_inverse

    pres = build_presentation(level, weight)
    d = pres.cuspidal_dimension
    basis = pres.cuspidal_basis
    chosen = cuspidal_functionals(pres)
    inv = mat_inverse([[basis[j][i] for j in range(d)] for i in chosen])

    def solve(w) -> list[Fraction]:
        y = [sum(inv[i][j] * w[chosen[j]] for j in range(d)) for i in range(d)]
        # consistency: w must equal C y everywhere
        for i in range(pres.dimension):
            if sum(basis[j][i] * y[j] for j in range(d)) != w[i]:
                raise EngineError("vector is not in the cuspidal subspace")
        return y

    return solve
