"""Integral echelon q-expansion bases of S_k(Gamma_0(N)) from modular symbols.

If x lies in the cuspidal subspace of the plus quotient, T -> (T x)_i is a
functional on the cuspidal Hecke algebra for every coordinate i, and the
dual of that algebra is S_k(Q) via T -> a_1(T f) (Merel, "Universal Fourier
expansions of modular forms"; Stein, GSM 79, ch. 8-9).  So each series
n -> (T_n x)_i is the q-expansion of a rational cusp form, and these
functionals span the dual as x runs over the cuspidal subspace and i over d
coordinates that determine a cuspidal vector.  Accumulating the series
until their rank equals d = dim S_k and echelonizing yields the canonical
integral basis with strictly increasing pivots (d = 0 included: the pass
then stops before its first series); a rank certificate, the echelon
contract (echelon_basis) and a Hecke stability certificate guard it.
The pass records each series that raised the rank as one pair
(images, i): the Hecke images T_m x it was read off, and the coordinate i.

The same series carry any T_n to the echelon basis: the Hecke algebra is
commutative, so T_n f_(x,i) = f_(T_n x, i), whose m-th coefficient is
(T_n T_m x)_i.  T_n is linear on generator coordinates, so that is
sum_g (T_m x)_g (T_n gen_g)_i: the only new Hecke images are T_n of the
presentation's generators.  Only the first `precision` coefficients of
each series are ever needed, so no operator asks for more than the basis
already has.  One integral RREF of the rows [f | T_n1 f | T_n2 f ...]
carries all the T_n asked for to the echelon basis, as its first block is
the basis itself; the pivots and first blocks are certified once, span
membership and the coefficient rule on the floor(B/n) coefficients of
each T_n b_j that the basis determines once per n.  The series pass
(_independent_series) runs once per (level, weight, precision): the basis
echelonizes its rows, and the transport stacks one row per recorded pair,
exactly the series that raised the rank.

Everything from the coset action to the echelon is integer arithmetic.
Hecke images are the presentation's integer vectors D*v over its
denominator D, so each series is D times a rational series and has the
same primitive echelon row; the transport stacks D^2 [f | T_n f ...], and
coordinates clear the basis leads once and certify span membership in
integers.  Fractions are built only for the coordinates and operator
entries that leave the engine.

Merel's symbols x = X^i Y^(k-2-i) {0, oo} = [X^i Y^(k-2-i), (0:1)] share
their coset work across m.  The lift of (0:1) is the identity, so
(a, b; 0, d) . x = (X^i Y^(k-2-i) | (d, -b; 0, a)) {b/d, oo}: the path and
the bottom rows of its unimodular pieces M do not depend on a, and each
piece expands as ((dM_00 - bM_10) X + (dM_01 - bM_11) Y)^i times
a^(k-2-i) (M_10 X + M_11 Y)^(k-2-i).  So (a, b; 0, d) . x is
a^(k-2-i) (1, b; 0, d) . x term by term, and with one reduced coset sum
S_d = D sum_(0 <= b < d) (1, b; 0, d) . x per d,

    D T_m x = sum over a | m, gcd(a, N) = 1 of a^(k-2-i) S_(m/a).

Two more identities shrink each S_d.  First, with g = gcd(b, d),
(1, b; 0, d) . x = g^i (1, b/g; 0, d/g) . x term by term on the Manin
symbols: X^i Y^(k-2-i) | (d, -b; 0, 1) is g^i X^i Y^(k-2-i) |
(d/g, -b/g; 0, 1), and {b/d, oo} = {(b/g)/(d/g), oo}, as b/d and
(b/g)/(d/g) have one continued fraction.  So with R_d = D sum (1, b; 0, d) . x over
the 0 <= b < d prime to d,

    S_d = sum over g | d of g^i R_(d/g).

Second, for d >= 3 the b prime to d pair off as b and d - b, and both
give the same vector in the plus quotient:
(1, d - b; 0, d) = (1, 1; 0, 1) (1, -b; 0, d) and
(1, -b; 0, d) = eta (1, b; 0, d) eta with eta = (-1, 0; 0, 1).  eta fixes
x, as i and k are even; Gamma_0(N) acts trivially on the quotient, and
eta acts trivially on the plus quotient.  So R_d is twice the sum over
0 < b < d/2 prime to d, while R_1 and R_2 take their one residue
b = d - 1.  (The Manin symbols of b and d - b differ; only their reduced
vectors agree.)  Each Merel element thus costs 2 + sum_(3 <= d <= B)
phi(d)/2 coset actions, where the sum over all b took B(B+1)/2 and T_m
coset by coset sum_(m <= B) sigma(m): 217, 703 and 1135 at B = 37.
Kernel vectors and the generators have other lifts, and a single coset
is not well defined on the quotient, so they take T_m coset by coset.

The coefficient-side Hecke rule a_n(T_m f), for any m, is here too
(coefficient_image): the stability certificate and the transport's
cross-check use it, and so does the operator stack's reference operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm

from ..arith import divisors
from ..errors import EngineError, NotInSpanError
from ..invariants import check_index, check_precision, cusp_dim, valence_bound
from ..linalg import Echelonizer, clear_denominators, mat_mul, mat_vec, rref
from ..qexp import QExpansion
from .presentation import MSPresentation, build_presentation, hecke_cosets


@dataclass(frozen=True)
class SpaceBasis:
    """Integral echelon basis: rows are primitive integer q-expansions with
    strictly increasing leading exponents (pivots) and positive leads; its
    gap_rows span the gap space W_k(N).  echelon_basis builds it certified."""

    level: int
    weight: int
    precision: int
    rows: tuple[QExpansion, ...]
    pivots: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @property
    def gap_rows(self) -> tuple[QExpansion, ...]:
        """The rows whose pivot exceeds the dimension: their span is exactly
        the forms vanishing at infinity to order greater than the dimension."""
        return tuple(row for row, c in zip(self.rows, self.pivots) if c > len(self.rows))

    def coordinates(self, f: QExpansion) -> tuple[Fraction, ...]:
        """Exact coordinates of f in this basis; raises NotInSpanError if f
        does not agree with the span on all jointly known coefficients."""
        upto = min(f.precision, self.precision)
        if self.pivots and upto < self.pivots[-1]:
            raise ValueError(
                f"need precision >= {self.pivots[-1]} to take coordinates, got {f.precision}"
            )
        (series,), den = clear_denominators([f.coeffs[:upto]])
        return self._scaled_coordinates(series, den)

    def _scaled_coordinates(self, series: list[int], den: int) -> tuple[Fraction, ...]:
        """Coordinates of the series a_n = s_n / den, n = 1..len(series), for
        integers s_n = series[n-1] reaching the last pivot.  With L the lcm
        of the pivot leads, coordinate j is Y_j / (L den) for the integer
        Y_j = s_(c_j) L / lead_j at pivot c_j, and span membership is
        certified as sum_j Y_j b_j(n) = L s_n in integers for every n."""
        leads = [row.coeffs[c - 1] for c, row in zip(self.pivots, self.rows)]
        scale = lcm(*leads)
        ys = [series[c - 1] * (scale // lead) for c, lead in zip(self.pivots, leads)]
        columns = zip(*(row.coeffs for row in self.rows)) if self.rows else repeat(())
        for n, (target, column) in enumerate(zip(series, columns), 1):
            combo = sum(y * b for y, b in zip(ys, column))
            if combo != scale * target:
                raise NotInSpanError(
                    f"q^{n} coefficient mismatch: span gives {Fraction(combo, scale * den)}, "
                    f"form has {Fraction(target, den)}"
                )
        return tuple(Fraction(y, scale * den) for y in ys)

    def linear_combination(self, coords) -> QExpansion:
        """sum_j coords[j] b_j, with Fraction coefficients: the one-column
        case of linear_combinations, whose empty coordinate matrix (the
        zero space) has no column and gives the zero expansion."""
        combos = self.linear_combinations([[c] for c in coords])
        return combos[0] if combos else QExpansion((Fraction(0),) * self.precision, self.weight, self.level)

    def linear_combinations(self, coords) -> list[QExpansion]:
        """sum_j coords[j][r] b_j for each column r of the coordinate matrix
        coords (one row per basis row), by one product."""
        columns = [[row.coeffs[n] for row in self.rows] for n in range(self.precision)]
        return [QExpansion(tuple(c), self.weight, self.level) for c in zip(*mat_mul(columns, coords))]


def _coset_image(pres: MSPresentation, x: dict, cosets) -> list[int]:
    """The sum of (a, b; 0, d) . x over the coset data (a, b, d), for the
    integer combination x = {Manin symbol: coefficient}, in generator
    coordinates scaled by the presentation's denominator D.  Every coset
    image goes unexpanded into one sum of pieces (scale, i, transport) per
    P^1 class; raw_to_quotient then sums each class as one packed integer
    at X = 2^s, Y = 1, with s = E + bitlen(sum |scale|) + 1 for E the
    largest i bitlen(|a|+|b|) + (k-2-i) bitlen(|c|+|d|) of a transport, so
    that every coefficient of a piece is at most 2^E and every summed
    coefficient fits a signed s-bit digit, and folds its k-1 digits
    straight into the quotient."""
    raw: dict = {}
    for a, b, d in cosets:
        for t, c in x.items():
            pres.act_symbol_raw(t, ((a, b), (0, d)), raw, c)
    return pres.raw_to_quotient(raw)


def _hecke_image_quotient(pres: MSPresentation, x: dict, n: int) -> list[int]:
    """T_n x, scaled by D, over the cosets of hecke_cosets."""
    return _coset_image(pres, x, hecke_cosets(n, pres.level))


def _merel_images(pres: MSPresentation, x: dict, i: int, precision: int) -> list[list[int]]:
    """D T_m x for m = 1..precision and Merel's symbol
    x = [X^i Y^(k-2-i), (0:1)], whose lift is the identity (see the module
    docstring).  One reduced sum per d, R_d = D sum (1, b; 0, d) . x over
    the b prime to d, is taken over b = d - 1 for d <= 2 and as twice the
    sum over 0 < b < d/2 for d >= 3; then S_d = sum over g | d of
    g^i R_(d/g) and T_m x = sum over a | m, gcd(a, N) = 1 of
    a^(k-2-i) S_(m/a), summed in integers."""
    reduced = []
    for d in range(1, precision + 1):
        if d <= 2:
            reduced.append(_coset_image(pres, x, ((1, d - 1, d),)))
        else:
            half = _coset_image(pres, x, ((1, b, d) for b in range(1, (d + 1) // 2) if gcd(b, d) == 1))
            reduced.append([2 * v for v in half])
    sums = [_divisor_sum(pres.dimension, reduced, d, i, 1) for d in range(1, precision + 1)]
    return [_divisor_sum(pres.dimension, sums, m, pres.degree - i, pres.level)
            for m in range(1, precision + 1)]


def _divisor_sum(width: int, vectors: list[list[int]], m: int, e: int, level: int) -> list[int]:
    """sum over a | m, gcd(a, level) = 1 of a^e vectors[m/a - 1]."""
    acc = [0] * width
    for a in divisors(m):
        if gcd(a, level) == 1:
            w = a**e
            acc = [u + w * s for u, s in zip(acc, vectors[m // a - 1])]
    return acc


def cuspidal_functionals(pres: MSPresentation) -> list[int]:
    """Indices of d generator coordinates on which the cuspidal basis is
    independent (d = dim S_k): a cuspidal vector is determined by them."""
    d = pres.cuspidal_dimension
    ech = Echelonizer()
    chosen: list[int] = []
    for i in range(pres.dimension):
        if len(chosen) == d:
            break
        if ech.add([v[i] for v in pres.cuspidal_basis]) is not None:
            chosen.append(i)
    return chosen


def _element_images(pres: MSPresentation, precision: int):
    """The images D T_m x, m = 1..precision, of each cuspidal element x in
    turn.  First Merel's symbols X^i Y^(k-2-i) {0, oo} for even
    0 < i < k-2, through _merel_images: their boundary vanishes and each
    coset needs one continued fraction (odd i vanish in the plus quotient).
    Then the cuspidal kernel basis, which k = 2 and 4 need, coset by coset."""
    origin = pres.p1.index(0, 1)
    for i in range(2, pres.degree, 2):
        yield _merel_images(pres, {i * pres.n_p1 + origin: 1}, i, precision)
    for vec in pres.cuspidal_basis:
        x = {t: c for t, c in zip(pres.generators, vec) if c}
        yield [_hecke_image_quotient(pres, x, m) for m in range(1, precision + 1)]


@lru_cache(maxsize=16, typed=True)
def _independent_series(level: int, weight: int, precision: int):
    """The one series pass of a space: add the series m -> (T_m x)_i for
    m = 1..precision to an echelon until its rank is d = dim S_k, x running
    over the cuspidal elements of _element_images and i over
    cuspidal_functionals.  Returns the reduced echelon rows, as primitive
    integer vectors, and the series that raised the rank, in the order
    they were added, each as a pair (images, i): the integer vectors
    D T_m x, m = 1..precision, and the coordinate read.  Each series is D
    times the rational one and has the same primitive echelon row.
    qexpansion_basis reads the rows; hecke_matrices_from_symbols stacks
    one row per pair."""
    pres = build_presentation(level, weight)
    d = pres.cuspidal_dimension
    coords = cuspidal_functionals(pres)
    elements = _element_images(pres, precision)
    ech = Echelonizer()
    series = []
    while ech.rank < d:
        images = next(elements, None)
        if images is None:
            raise EngineError(
                f"series rank stalled at {ech.rank} < {d} for ({level}, {weight}); "
                "this indicates an engine bug"
            )
        for i in coords:
            if ech.add([w[i] for w in images]) is not None:
                series.append((images, i))
                if ech.rank == d:
                    break
    return ech.reduced_rows(), series


def echelon_basis(level: int, weight: int, precision: int, rows) -> SpaceBasis:
    """The SpaceBasis of integer coefficient rows of the given precision,
    certified to have the shape of the canonical integral echelon basis of
    S_k(Gamma_0(N)), which Sturm's bound fixes: every row non-zero and
    primitive, with positive lead and zero in the other rows' pivot
    columns; strictly increasing pivots; d = dim S_k rows; and the last
    pivot at most the valence bound.  The engine and the cache build every
    basis here; raises EngineError on the first clause that fails."""
    forms = tuple(QExpansion(tuple(r), weight, level) for r in rows)
    pivots = [f.order() for f in forms]
    at = f"at ({level}, {weight})"
    if None in pivots:
        raise EngineError(f"echelon row {pivots.index(None) + 1} is identically zero {at}")
    if any(a >= b for a, b in zip(pivots, pivots[1:])):
        raise EngineError(f"echelon pivots {pivots} are not strictly increasing {at}")
    for i, (f, pivot) in enumerate(zip(forms, pivots), 1):
        if f.coeffs[pivot - 1] < 0:
            raise EngineError(f"echelon row {i} has a negative lead {at}")
        if gcd(*f.coeffs) != 1:
            raise EngineError(f"echelon row {i} is not primitive {at}")
        if any(f.coeffs[q - 1] for q in pivots if q != pivot):
            raise EngineError(f"echelon row {i} is non-zero in another row's pivot column {at}")
    d, vb = cusp_dim(level, weight), valence_bound(level, weight)
    if len(forms) != d:
        raise EngineError(f"echelon basis has {len(forms)} rows but dim S_k is {d} {at}")
    if pivots and pivots[-1] > vb:
        raise EngineError(f"echelon pivots {pivots} violate the valence bound {vb} {at}")
    return SpaceBasis(level, weight, precision, forms, tuple(pivots))


@lru_cache(maxsize=64, typed=True)
def qexpansion_basis(level: int, weight: int, precision: int) -> SpaceBasis:
    """Canonical integral echelon basis of S_k(Gamma_0(N)) to the given
    precision (an int, at least the Sturm bound), certified Hecke stable."""
    check_precision(level, weight, precision)
    basis = echelon_basis(level, weight, precision, _independent_series(level, weight, precision)[0])
    hecke_stability_certificate(basis)
    return basis


def coefficient_image(f: QExpansion, m: int) -> list:
    """a_n(T_m f) for n = 1..floor(B/m), the coefficients the truncation
    determines, by the coefficient-side Hecke rule

        a_n(T_m f) = sum over e | gcd(n, m), gcd(e, N) = 1 of
                     e^(k-1) a_(n m / e^2)(f).

    For a prime m dividing the level this is U_m."""
    check_index("Hecke index", m, 1)
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
    for m in range(2, 6):
        prec = basis.precision // m
        if prec < 1:
            continue
        ech = Echelonizer()
        for row in basis.rows:
            ech.add(list(row.coeffs[:prec]))
        for row in basis.rows:
            if not ech.contains(coefficient_image(row, m)):
                raise EngineError(
                    f"Hecke stability certificate failed for T_{m} at "
                    f"({basis.level}, {basis.weight})"
                )


def _generator_images(pres: MSPresentation, n: int) -> list[list[int]]:
    """T_n of each generator of the presentation, in generator coordinates
    scaled by the presentation's denominator D."""
    return [_hecke_image_quotient(pres, {t: 1}, n) for t in pres.generators]


def hecke_matrices_from_symbols(basis: SpaceBasis, ns) -> list[tuple]:
    """T_n for each n in the sequence ns, as a tuple of Fraction rows on the
    coordinates of an echelon basis of S_k(Gamma_0(N)), transported from
    the modular symbols at the basis's own precision by one elimination.

    A series f(m) = (T_m x)_i of a cuspidal x has T_n f(m) = (T_n T_m x)_i
    = sum_g (T_m x)_g (T_n gen_g)_i, as T_n is linear on the generator
    coordinates; so T_n is applied only to the generators.  Both kinds of
    image are integer vectors scaled by the presentation's denominator D,
    so each stacked row is D^2 [f | T_n1 f | T_n2 f ...] in integers, one
    per pair (images, i) that the series pass recorded, in its order: the
    first block is D (T_m x)_i and the others sum_g (T_m x)_g (T_n gen_g)_i,
    m = 1..B.  As these d series are independent, the integral RREF of
    the rows has row j = lambda_j [b_j | T_n1 b_j | ...] for basis row
    b_j, so each T_n b_j is read off its block.  The RREF's pivots must be
    the basis pivots and its first blocks integer multiples of the basis
    rows; each T_n block must start with lambda_j a_m(T_n b_j),
    m = 1..floor(B/n), by the coefficient rule (coefficient_image); and the
    integer core of `coordinates` certifies that each T_n b_j lies in the
    span on every known coefficient.  Any failure raises EngineError.
    """
    level, weight, prec = basis.level, basis.weight, basis.precision
    pres = build_presentation(level, weight)
    den = pres.denominator
    gens = [_generator_images(pres, n) for n in ns]
    stacked = []
    for images, i in _independent_series(level, weight, prec)[1]:
        tn_gen_i = [[g[i] for g in gen] for gen in gens]
        stacked.append([den * w[i] for w in images]
                       + [sum(a * y for a, y in zip(col, w)) for col in tn_gen_i for w in images])
    rows, pivots = rref(stacked)
    if [c + 1 for c in pivots] != list(basis.pivots):
        raise EngineError(f"the series' RREF pivots are not the basis pivots at ({level}, {weight})")
    cols = [[] for _ in ns]
    for j, (row, b, c) in enumerate(zip(rows, basis.rows, pivots)):
        scale, rest = divmod(row[c], b.coeffs[c])
        if rest or row[:prec] != [scale * x for x in b.coeffs]:
            raise EngineError(f"basis row {j + 1} is not the series' echelon row at ({level}, {weight})")
        for t, (n, ncols) in enumerate(zip(ns, cols), 1):
            image = row[t * prec : (t + 1) * prec]
            known = coefficient_image(b, n)
            if image[: len(known)] != [scale * a for a in known]:
                raise EngineError(f"T_{n} from symbols disagrees with the coefficients of basis row {j + 1}")
            ncols.append(basis._scaled_coordinates(image, scale))
    return [tuple(tuple(col[i] for col in ncols) for i in range(basis.dimension)) for ncols in cols]


@lru_cache(maxsize=64)
def _cuspidal_solver(level: int, weight: int):
    """Returns a function solving C y = w for w in the cuspidal subspace,
    where C's columns are the cuspidal basis vectors; it checks w = C y on
    every generator coordinate."""
    # No program path calls this; it is held only by the cold-state cache
    # list in bench/selftest.py, as bench/layers.py holds heckeops.mat_inverse.
    from ..linalg import mat_inverse  # imported per call, so a patch of linalg.mat_inverse is seen

    pres = build_presentation(level, weight)
    chosen = cuspidal_functionals(pres)
    c = [[v[i] for v in pres.cuspidal_basis] for i in range(pres.dimension)]
    inv = mat_inverse([c[i] for i in chosen])

    def solve(w) -> list[Fraction]:
        y = mat_vec(inv, [w[i] for i in chosen])
        if mat_vec(c, y) != list(w):
            raise EngineError("vector is not in the cuspidal subspace")
        return y

    return solve
