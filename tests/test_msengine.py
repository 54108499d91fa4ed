"""Modular symbols engine: P^1, presentations, the action, Hecke, bases."""

import dataclasses
from fractions import Fraction
from itertools import islice
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspgaps.errors import EngineError, NotInSpanError
from cuspgaps.invariants import cusp_dim, sturm_bound, valence_bound
from cuspgaps.msengine import (
    build_presentation,
    coefficient_image,
    hecke_cosets,
    hecke_matrices_from_symbols,
    p1_space,
    qexpansion_basis,
)
from cuspgaps.msengine.action import mat_mul2
from cuspgaps.msengine.p1 import P1
from cuspgaps.qexp import QExpansion

from oracles import EtaProduct, delta_expansion, eta_expand, tau, victor_miller_basis


# -- P^1 ------------------------------------------------------------------------

def test_p1_sizes():
    from cuspgaps.invariants import index

    assert len(p1_space(1)) == 1
    assert len(p1_space(46)) == 72 == index(46)
    for n in (2, 5, 12, 19, 29):
        assert len(p1_space(n)) == index(n)


def test_p1_level1_is_one_class():
    """P^1(Z/1Z) takes the general path: every pair is (0, 0) mod 1 and
    normalizes to (0, 1), whose SL_2(Z) lift is the identity."""
    assert list(p1_space(1)) == [(0, 1)]
    p1 = p1_space(1)
    for u, v in [(0, 0), (0, 1), (1, 0), (3, -7), (12, 5)]:
        assert p1.index(u, v) == 0
    assert build_presentation(1, 12)._lifts == [((1, 0), (0, 1))]


def test_p1_proportional_pairs():
    p1 = p1_space(5)
    assert p1.index(2, 3) == p1.index(4, 6)


def test_p1_rejects_non_points():
    p1 = p1_space(6)
    with pytest.raises(ValueError):
        p1.normalize(2, 4)  # gcd(2, 4, 6) = 2


@pytest.mark.parametrize("level", [True, 0, -3, 2.5, "7"])
def test_p1_rejects_bad_levels(level):
    """P1 and p1_space validate the level as every other entry point does,
    even after P^1(Z/1Z) is cached (True == 1 as a cache key)."""
    p1_space(1)
    for build in (P1, p1_space):
        with pytest.raises(ValueError, match="level must be a positive integer"):
            build(level)


def _least_pairs(level):
    """Brute-force reference: the least pair in lexicographic order of each
    orbit of points (u, v) mod N under the units, keyed by every point."""
    units = [s for s in range(level) if gcd(s, level) == 1]
    least = {}
    for u in range(level):
        for v in range(level):
            if gcd(gcd(u, v), level) == 1:
                least[u, v] = min((s * u % level, s * v % level) for s in units)
    return least


@pytest.mark.parametrize("level", range(1, 61))
def test_p1_table_matches_normalize(level):
    """The representatives are the sorted least pairs of the unit orbits,
    and index and normalize agree with a brute-force orbit search on every
    pair mod N, for any integer lift of the pair; a non-point raises the
    same ValueError from both.  At level 1 the one pair (0, 0) is written
    (0, 1)."""
    p1 = P1(level)
    least = _least_pairs(level)
    reps = [(c % level, d % level) for c, d in p1]
    assert reps == sorted(set(least.values()))
    for u in range(level):
        for v in range(level):
            if (u, v) in least:
                want = reps.index(least[u, v])
                assert p1.index(u, v) == p1.index(u - 3 * level, v + level) == want
                assert p1.normalize(u + level, v) == p1[want]
            else:
                message = f"({u}, {v}) is not a point of P^1(Z/{level})"
                for call in (p1.normalize, p1.index):
                    with pytest.raises(ValueError) as err:
                        call(u + level, v - 2 * level)
                    assert str(err.value) == message


@given(st.integers(min_value=2, max_value=40), st.data())
@settings(max_examples=150, deadline=None)
def test_p1_normalize_orbit_constant(n, data):
    pairs = [
        (u, v) for u in range(n) for v in range(n) if gcd(gcd(u, v), n) == 1
    ]
    u, v = data.draw(st.sampled_from(pairs))
    units = [t for t in range(1, n) if gcd(t, n) == 1]
    t = data.draw(st.sampled_from(units))
    p1 = p1_space(n)
    assert p1.normalize(u, v) == p1.normalize((t * u) % n, (t * v) % n)


# -- presentations ----------------------------------------------------------------

def test_presentation_dimensions():
    assert build_presentation(1, 12).cuspidal_dimension == 1
    assert build_presentation(19, 16).cuspidal_dimension == 24
    assert build_presentation(11, 2).cuspidal_dimension == 1


@pytest.mark.parametrize("level,weight", [(1, 22), (2, 8), (6, 4), (7, 6), (10, 4), (13, 2), (15, 2), (16, 4), (18, 2), (23, 2)])
def test_presentation_dim_matches_formula(level, weight):
    # the constructor hard-asserts cuspidal dim == cusp_dim; building is the test
    pres = build_presentation(level, weight)
    assert pres.cuspidal_dimension == cusp_dim(level, weight)


RELATION_SPACES = [(1, 12), (3, 6), (14, 4), (49, 2), (98, 2), (19, 16)]


def _relations(pres, t):
    """The raw combinations x + x.sigma, x - x.iota and x + x.tau + x.tau^2
    of the Manin symbol t = [X^i Y^(k-2-i), (c:d)]."""
    from cuspgaps.msengine.action import expand_monomial
    from cuspgaps.msengine.presentation import TAU, TAU2

    n, deg = pres.n_p1, pres.degree
    i, j = divmod(t, n)
    c, d = pres.p1[j]
    sign = -1 if i % 2 else 1

    def combo(*terms):
        raw = {}
        for sym, coeff in terms:
            raw[sym] = raw.get(sym, 0) + coeff
        return raw

    tau_terms = [(t, 1)]
    for poly, (u, v) in ((TAU, (d, -c - d)), (TAU2, (-c - d, c))):
        for dx, coeff in enumerate(expand_monomial(i, deg, poly)):
            tau_terms.append((dx * n + pres.p1.index(u, v), coeff))
    return [
        combo((t, 1), ((deg - i) * n + pres.p1.index(d, -c), sign)),
        combo((t, 1), (i * n + pres.p1.index(-c, d), -sign)),
        combo(*tau_terms),
    ]


def _live(pres, raw):
    """A raw combination folded into live columns, zeros dropped."""
    out = {}
    for t, val in raw.items():
        if pres._fold[t] is not None:
            col, sign = pres._fold[t]
            out[col] = out.get(col, 0) + sign * val
    return {col: val for col, val in out.items() if val}


@given(st.integers(1, 60), st.sampled_from([2, 4, 6, 8, 10, 12]))
@settings(max_examples=25, deadline=None)
def test_fold_satisfies_the_two_term_and_star_relations(level, weight):
    """The <sigma, iota> orbit fold satisfies x = -x.sigma and x = x.iota
    on every Manin symbol, with nothing left in the live columns."""
    pres = build_presentation(level, weight)
    for t in range(pres.ncols):
        two_term, star, _ = _relations(pres, t)
        assert _live(pres, two_term) == {} and _live(pres, star) == {}, t


def _cusps_equivalent(p, q, level):
    """Gamma_0(N)-equivalence of cusps u1/v1, u2/v2 in lowest terms
    (Cremona's criterion: s1 v2 == s2 v1 mod gcd(v1 v2, N))."""
    from cuspgaps.arith import xgcd

    (u1, v1), (u2, v2) = p, q
    s1 = xgcd(u1, v1)[1]
    s2 = xgcd(u2, v2)[1]
    return (s1 * v2 - s2 * v1) % gcd(level, v1 * v2) == 0


@pytest.mark.parametrize("level", range(1, 201))
def test_cusp_orbits_match_cremonas_criterion(level):
    """The cusp classes read off P^1 as orbits are the classes of the cusps
    g_j(oo) = a/c modulo Gamma_0(N) and negation, by Cremona's criterion."""
    from cuspgaps.msengine.presentation import _cusp_classes, _sl2_lift

    p1 = p1_space(level)
    labels = _cusp_classes(p1)
    reps = []  # one cusp a/c per class found by the criterion
    criterion = []
    for c, d in p1:
        (a, _), _ = _sl2_lift(c, d)
        g = gcd(a, c)
        cusp = (a // g, c // g)
        for idx, rep in enumerate(reps):
            if _cusps_equivalent(rep, cusp, level) or _cusps_equivalent(rep, (-cusp[0], cusp[1]), level):
                criterion.append(idx)
                break
        else:
            criterion.append(len(reps))
            reps.append(cusp)
    pairs = set(zip(labels, criterion))
    assert len(pairs) == len(set(labels)) == len(reps)


PRESENTATION_DIGEST = "7d8ac145cc344cbb85c881a0f9f39424759b9bea4a6f0d31b765342d04d2f941"


def test_presentation_tables_are_pinned():
    """The P^1 representatives, lifts, fold, pivot rows, denominator,
    generators and cuspidal basis of every (N, k), N <= 30 and
    k in {2, 4, 6, 12}, hash to the digest the union-find and Stein
    normalizer builds gave."""
    import hashlib

    from cuspgaps.msengine.presentation import MSPresentation

    h = hashlib.sha256()
    for level in range(1, 31):
        for weight in (2, 4, 6, 12):
            p = MSPresentation(level, weight)
            h.update(repr((
                list(p.p1), p._lifts, p._fold, p._free_cols, p._pivot_rows,
                p.denominator, p.generators, p.cuspidal_basis,
            )).encode())
    assert h.hexdigest() == PRESENTATION_DIGEST


def _all_class_quotient(pres):
    """Reference for the tau-orbit reduction: the three-term relation of
    every Manin symbol, at every P^1 class, folded and echelonized.
    Returns (_pivot_rows, denominator, generators) as _build_quotient
    stores them."""
    from math import lcm

    from cuspgaps.linalg import Echelonizer

    roots = {}  # live column -> its least symbol
    for t, f in enumerate(pres._fold):
        if f is not None:
            roots.setdefault(f[0], t)
    width = len(roots)
    ech = Echelonizer()
    for t in range(pres.ncols):
        row = [0] * width
        for col, val in _live(pres, _relations(pres, t)[2]).items():
            row[col] = val
        if any(row):
            ech.add(row)
    pivots, reduced = ech.pivots(), ech.reduced_rows()
    free = [c for c in range(width) if c not in set(pivots)]
    den = lcm(*(row[pc] for row, pc in zip(reduced, pivots)))
    pivot_rows = [
        (pc, [(gi, -row[f] * (den // row[pc])) for gi, f in enumerate(free) if row[f]])
        for row, pc in zip(reduced, pivots)
    ]
    return pivot_rows, den, [roots[c] for c in free]


@given(st.integers(1, 60), st.sampled_from([2, 4, 6, 8, 12]))
@settings(max_examples=20, deadline=None)
def test_one_class_per_tau_orbit_gives_the_all_class_quotient(level, weight):
    """Imposing the three-term relations at one P^1 class per tau-orbit
    gives the same pivot rows, denominator and generators as imposing them
    at every class."""
    pres = build_presentation(level, weight)
    assert _all_class_quotient(pres) == (pres._pivot_rows, pres.denominator, pres.generators)


def test_quotient_echelonizes_one_class_per_tau_orbit(monkeypatch):
    """At (19, 16) the 20 classes of P^1 form 8 tau-orbits (two of them
    fixed points), so 8 * 15 = 120 three-term rows are formed, not 300;
    two of them fold to zero and 40 are multiples of rows added before, so
    78 reach the echelon, not 294."""
    from cuspgaps.linalg import Echelonizer
    from cuspgaps.msengine import presentation

    added = []

    class Counting(Echelonizer):
        def add(self, row):
            added.append(row)
            return super().add(row)

    monkeypatch.setattr(presentation, "Echelonizer", Counting)
    presentation.MSPresentation(19, 16)
    assert len(added) == 78


@pytest.mark.parametrize(
    "spaces",
    [RELATION_SPACES] + [[(level, weight) for level in range(1, 61)] for weight in (2, 4, 6)],
    ids=["relation-spaces", "k2-N60", "k4-N60", "k6-N60"],
)
def test_skipping_repeated_relation_rows_changes_no_field(spaces, monkeypatch):
    """_build_quotient skips a three-term row whose primitive form it has
    added before.  With that skip defeated (every row gets a fresh key),
    every row reaches the echelon, and the fold, free columns, pivot rows,
    denominator and generators come out the same."""
    from itertools import count

    from cuspgaps.linalg import Echelonizer
    from cuspgaps.msengine import presentation

    added = []

    class Counting(Echelonizer):
        def add(self, row):
            added.append(row)
            return super().add(row)

    def fields(pres):
        return pres._fold, pres._free_cols, pres._pivot_rows, pres.denominator, pres.generators

    monkeypatch.setattr(presentation, "Echelonizer", Counting)
    skipping = [fields(presentation.MSPresentation(*space)) for space in spaces]
    skipping_rows = len(added)
    fresh = count(1)
    monkeypatch.setattr(presentation, "make_primitive", lambda row: [next(fresh)])
    added.clear()
    assert [fields(presentation.MSPresentation(*space)) for space in spaces] == skipping
    assert len(added) > skipping_rows


IDENTITY = ((1, 0), (0, 1))


def _as_pieces(pres, raw):
    """A combination {Manin symbol: coefficient} as the sum of pieces that
    raw_to_quotient reads: [X^i Y^(k-2-i), j] with coefficient c is the
    piece (c, i, identity) at class j."""
    out = {}
    for t, c in raw.items():
        i, j = divmod(t, pres.n_p1)
        out.setdefault(j, []).append((c, i, IDENTITY))
    return out


def _summed_expansions(pieces, deg):
    """sum of scale * expand_monomial(i, deg, m) over the pieces, by
    X-degree: the pieces expanded one by one."""
    from cuspgaps.msengine.action import expand_monomial

    out = [0] * (deg + 1)
    for scale, i, m in pieces:
        for x, coeff in enumerate(expand_monomial(i, deg, m)):
            out[x] += scale * coeff
    return out


def _symbols(pres, raw):
    """A sum of pieces {class: [(scale, i, m), ...]} expanded piece by
    piece into {Manin symbol: coefficient}, zeros dropped."""
    out = {}
    for j, pieces in raw.items():
        for x, coeff in enumerate(_summed_expansions(pieces, pres.degree)):
            if coeff:
                out[x * pres.n_p1 + j] = coeff
    return out


def _dict_to_quotient(pres, raw):
    """Reference reduction of {Manin symbol: coefficient}, symbol by
    symbol: fold each into its live column, then add the integer row of
    each non-zero pivot column, giving D*v."""
    acc = [0] * (pres.dimension + len(pres._pivot_rows))
    for t, val in raw.items():
        if pres._fold[t] is not None:
            col, sign = pres._fold[t]
            acc[col] += sign * val
    out = [acc[c] * pres.denominator for c in pres._free_cols]
    for pc, row in pres._pivot_rows:
        for gi, e in row:
            out[gi] += acc[pc] * e
    return out


def _relation_pieces(pres, t):
    """The relations of _relations(pres, t) as sums of pieces, the
    three-term one with the transports tau and tau^2 unexpanded."""
    from cuspgaps.msengine.presentation import TAU, TAU2

    two_term, star, _ = _relations(pres, t)
    i, j = divmod(t, pres.n_p1)
    c, d = pres.p1[j]
    three_term = {}
    for m, jj in ((IDENTITY, j), (TAU, pres.p1.index(d, -c - d)), (TAU2, pres.p1.index(-c - d, c))):
        three_term.setdefault(jj, []).append((1, i, m))
    return [_as_pieces(pres, two_term), _as_pieces(pres, star), three_term]


@pytest.mark.parametrize("level,weight", RELATION_SPACES)
def test_quotient_kills_every_relation(level, weight):
    """raw_to_quotient vanishes on the two-term, star and three-term
    relation of every Manin symbol, given as packed sums of pieces whose
    expansion is that relation symbol by symbol, and sends each generator
    to D times its unit vector, D the presentation's denominator."""
    pres = build_presentation(level, weight)
    den = pres.denominator
    assert type(den) is int and den >= 1
    zero = [0] * pres.dimension
    for t in range(pres.ncols):
        for raw, pieces in zip(_relations(pres, t), _relation_pieces(pres, t)):
            assert _symbols(pres, pieces) == {u: c for u, c in raw.items() if c}, (t, raw)
            assert pres.raw_to_quotient(pieces) == zero, (t, raw)
            assert _dict_to_quotient(pres, raw) == zero, (t, raw)
    for gi, t in enumerate(pres.generators):
        unit = [den * int(gj == gi) for gj in range(pres.dimension)]
        assert pres.raw_to_quotient(_as_pieces(pres, {t: 1})) == unit


def _fraction_quotient(pres, raw):
    """Reference reduction in Fractions: each symbol folds to +-1 times a
    live column, a free column is its generator's unit vector, and a pivot
    column is its stored integer row divided by D."""
    gen_of = {col: gi for gi, col in enumerate(pres._free_cols)}
    pivot_row = dict(pres._pivot_rows)
    out = [Fraction(0)] * pres.dimension
    for t, val in raw.items():
        if pres._fold[t] is None:
            continue
        col, sign = pres._fold[t]
        if col in gen_of:
            out[gen_of[col]] += sign * val
        else:
            for gi, e in pivot_row[col]:
                out[gi] += Fraction(sign * val * e, pres.denominator)
    return out


@given(st.sampled_from(RELATION_SPACES), st.data())
@settings(max_examples=60, deadline=None)
def test_quotient_is_the_fraction_fold_scaled_by_d(space, data):
    """On random sums of pieces (random classes, monomials, transports and
    scales, several per class), raw_to_quotient returns integers that,
    divided by D, are the Fraction reduction of their expansion symbol by
    symbol; so do random combinations of Manin symbols."""
    pres = build_presentation(*space)
    symbol = st.integers(0, pres.ncols - 1)
    raw = data.draw(st.dictionaries(symbol, st.integers(-50, 50), max_size=12))
    got = pres.raw_to_quotient(_as_pieces(pres, raw))
    assert all(type(x) is int for x in got)
    assert [Fraction(x, pres.denominator) for x in got] == _fraction_quotient(pres, raw)
    entries = st.integers(-40, 40)
    piece = st.tuples(st.integers(-50, 50), st.integers(0, pres.degree),
                      st.tuples(st.tuples(entries, entries), st.tuples(entries, entries)))
    pieces = data.draw(st.dictionaries(st.integers(0, pres.n_p1 - 1), st.lists(piece, max_size=6), max_size=6))
    got = pres.raw_to_quotient(pieces)
    assert [Fraction(x, pres.denominator) for x in got] == _fraction_quotient(pres, _symbols(pres, pieces))


@pytest.mark.parametrize("level,weight", RELATION_SPACES + [(11, 2), (5, 12), (36, 4)])
def test_cuspidal_basis_is_primitive_integral(level, weight):
    """The cuspidal kernel vectors are primitive integer vectors with a
    positive lead, so every combination the engine reduces is integral."""
    for v in build_presentation(level, weight).cuspidal_basis:
        assert all(type(x) is int for x in v)
        assert gcd(*v) == 1
        assert next(x for x in v if x) > 0


# -- the action -------------------------------------------------------------------

def _binomial_expansion(i, deg, m):
    """Reference for expand_monomial: the binomial expansions of
    (aX + bY)^i and (cX + dY)^(deg-i), by X-degree, convolved."""
    (a, b), (c, d) = m
    first = [comb(i, j) * a**j * b ** (i - j) for j in range(i + 1)]
    second = [comb(deg - i, j) * c**j * d ** (deg - i - j) for j in range(deg - i + 1)]
    out = [0] * (deg + 1)
    for j1, x in enumerate(first):
        for j2, y in enumerate(second):
            out[j1 + j2] += x * y
    return out


wide = st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40))


@given(
    st.integers(0, 26).flatmap(lambda deg: st.tuples(st.just(deg), st.integers(0, deg))),
    st.tuples(st.tuples(wide, wide), st.tuples(wide, wide)),
)
@example(degree_i=(0, 0), m=((0, 0), (0, 0)))
@example(degree_i=(26, 13), m=((0, 0), (2**40, -(2**40))))
@example(degree_i=(26, 26), m=((-(2**40), 2**40 - 1), (0, 1)))
@example(degree_i=(14, 3), m=((1, -1), (-1, 0)))
@settings(max_examples=300, deadline=None)
def test_expand_monomial_is_the_binomial_convolution(degree_i, m):
    """The Kronecker substitution decodes exactly the coefficients that the
    binomial expansion gives, for zero, negative and 41-bit entries."""
    from cuspgaps.msengine.action import expand_monomial

    deg, i = degree_i
    assert expand_monomial(i, deg, m) == _binomial_expansion(i, deg, m)


wide_piece = st.integers(0, 26).flatmap(lambda deg: st.tuples(
    st.just(deg),
    st.lists(st.tuples(st.one_of(st.integers(-3, 3), wide), st.integers(0, deg),
                       st.tuples(st.tuples(wide, wide), st.tuples(wide, wide))), max_size=40),
))
TOP = 2**40 - 1  # bit length 40, so TOP^n is within a factor (1 - 2^-40)^n of 2^(40 n)


@given(wide_piece)
@example(deg_pieces=(10, []))
@example(deg_pieces=(0, [(5, 0, ((3, 4), (-7, 2))), (-2, 0, ((0, 0), (9, -9)))]))
@example(deg_pieces=(26, [(-(2**20 - 1), 26, ((TOP, 0), (0, 1)))]))
@example(deg_pieces=(26, [(2**19, 0, ((1, 0), (0, TOP))), (2**19 - 1, 0, ((1, 0), (0, -TOP)))]))
@example(deg_pieces=(12, [(0, 3, ((2**40, 1), (1, 2**40)))] + [(3, 12, ((1, 1), (1, 1)))] * 30))
@settings(max_examples=300, deadline=None)
def test_packed_sum_is_the_sum_of_expansions(deg_pieces):
    """Pieces (scale, i, m) packed at the width digit_width picks and read
    back give exactly the sum of scale * expand_monomial(i, deg, m), for
    degrees up to 26, entries up to 2^40 in size, zero and negative scales
    and many pieces per class; an empty list reads as zeros, and k = 2
    pieces (degree 0) add as plain scaled constants.  The TOP examples sum
    to a digit of (2^20 - 1) TOP^26 in size, -(TOP X)^26 at X^26 and
    (TOP Y)^26 at X^0, within a factor (1 - 2^-20)(1 - 2^-40)^26 of the
    2^(s-1) that the width bound allows."""
    from cuspgaps.msengine.action import digit_width, pack, unpack

    deg, pieces = deg_pieces
    s = digit_width(pieces, deg)
    assert unpack(pack(pieces, deg, s), deg, s) == _summed_expansions(pieces, deg)


def test_one_bit_short_of_the_width_bound_misreads():
    """The width bound is needed: seven copies of -(TOP X)^26 sum to an
    X^26 digit of -7 TOP^26, above 2^(s-2) in size, which a width of s - 1
    misreads; at s it is read exactly."""
    from cuspgaps.msengine.action import digit_width, pack, unpack

    deg, pieces = 26, [(-1, 26, ((TOP, 0), (0, 1)))] * 7
    s = digit_width(pieces, deg)
    assert s == 26 * 40 + 3 + 1
    want = [0] * 26 + [-7 * TOP**26]
    assert abs(want[-1]) > 2 ** (s - 2)
    assert unpack(pack(pieces, deg, s), deg, s) == want == _summed_expansions(pieces, deg)
    assert unpack(pack(pieces, deg, s - 1), deg, s - 1) != want


def _unimodular_path_matrices(num, den):
    """SL_2(Z) matrices M_0..M_r with {inf, num/den} = sum_j M_j {0, inf},
    from the continued-fraction convergents of num/den (den > 0)."""
    mats = []
    p_prev2, q_prev2 = 0, 1  # convergent p_{-2}/q_{-2}
    p_prev, q_prev = 1, 0  # convergent p_{-1}/q_{-1} = infinity
    x, y = num, den
    j = 0
    while y != 0:
        a = x // y
        x, y = y, x - a * y
        p, q = a * p_prev + p_prev2, a * q_prev + q_prev2
        s = 1 if j % 2 else -1  # (-1)^(j-1)
        mats.append(((p, s * p_prev), (q, s * q_prev)))
        p_prev2, q_prev2 = p_prev, q_prev
        p_prev, q_prev = p, q
        j += 1
    return mats


def _dict_act(pres, t, delta, scale=1):
    """Reference for act_symbol_raw: scale * (delta . symbol t) as
    {Manin symbol: coefficient}, each unimodular piece M of the path
    composed with the transport by mat_mul2, expanded by expand_monomial
    and written coefficient by coefficient (the route the packed sums
    replaced)."""
    from cuspgaps.msengine.action import expand_monomial, mat_adjugate

    i, j = divmod(t, pres.n_p1)
    (a, b), (c, d) = pres._lifts[j]
    transport = mat_mul2(((d, -b), (-c, a)), mat_adjugate(delta))
    (p, q), (r, u) = delta
    out = {}
    for (num, den), sign in (((p * a + q * c, r * a + u * c), 1), ((p * b + q * d, r * b + u * d), -1)):
        if den == 0:
            continue
        if den < 0:
            num, den = -num, -den
        g = gcd(num, den)
        for m in _unimodular_path_matrices(num // g, den // g):
            jj = pres.p1.index(m[1][0], m[1][1])
            for x, coeff in enumerate(expand_monomial(i, pres.degree, mat_mul2(transport, m))):
                sym = x * pres.n_p1 + jj
                out[sym] = out.get(sym, 0) + sign * scale * coeff
    return {sym: coeff for sym, coeff in out.items() if coeff}


def _act(pres, vec, delta):
    """delta . (integer vector in generator coordinates), in generator
    coordinates scaled by D: the images of the generators under
    act_symbol_raw, gathered into one sum of pieces and reduced once by
    raw_to_quotient.  Checks on the way that the pieces expand, symbol by
    symbol, to the dict route's images, and reduce as they do."""
    raw, want = {}, {}
    for t, val in zip(pres.generators, vec):
        if val:
            pres.act_symbol_raw(t, delta, raw, val)
            for sym, coeff in _dict_act(pres, t, delta, val).items():
                want[sym] = want.get(sym, 0) + coeff
    want = {sym: coeff for sym, coeff in want.items() if coeff}
    assert _symbols(pres, raw) == want
    out = pres.raw_to_quotient(raw)
    assert out == _dict_to_quotient(pres, want)
    return out


small = st.integers(-12, 12)


@given(st.sampled_from(RELATION_SPACES + [(30, 6), (46, 2)]), st.data())
@settings(max_examples=80, deadline=None)
def test_act_symbol_raw_accumulates_into_the_callers_dict(space, data):
    """act_symbol_raw(t, delta, raw, scale) adds scale * (delta . t) into
    the caller's sum of pieces raw and returns raw itself: symbol by
    symbol, the expansion grows by scale times the dict route's image."""
    from hypothesis import assume

    pres = build_presentation(*space)
    t = data.draw(st.integers(0, pres.ncols - 1), label="t")
    delta = data.draw(st.tuples(st.tuples(small, small), st.tuples(small, small)), label="delta")
    assume(delta[0][0] * delta[1][1] - delta[0][1] * delta[1][0] > 0)
    scale = data.draw(st.integers(-7, 7), label="scale")
    before = data.draw(st.dictionaries(st.integers(0, pres.ncols - 1), st.integers(-9, 9), max_size=10))
    raw = _as_pieces(pres, before)
    merged = dict(before)
    for sym, coeff in _dict_act(pres, t, delta).items():
        merged[sym] = merged.get(sym, 0) + scale * coeff
    assert pres.act_symbol_raw(t, delta, raw, scale) is raw
    assert _symbols(pres, raw) == {sym: coeff for sym, coeff in merged.items() if coeff}


def test_act_identity():
    pres = build_presentation(5, 12)
    ident = ((1, 0), (0, 1))
    for v in pres.cuspidal_basis:
        assert _act(pres, v, ident) == [pres.denominator * x for x in v]


entry = st.integers(min_value=-3, max_value=3)
mat2 = st.tuples(st.tuples(entry, entry), st.tuples(entry, entry))


def _gamma0_element(level, words):
    """A word in the generators (1,1;0,1) and (1,0;N,1) of Gamma_0(N)."""
    t = ((1, 1), (0, 1))
    ell = ((1, 0), (level, 1))
    out = ((1, 0), (0, 1))
    for w in words:
        out = mat_mul2(out, t if w else ell)
    return out


@given(mat2, st.lists(st.booleans(), max_size=6))
@settings(max_examples=60, deadline=None)
def test_act_composition_with_group_element(d1, words):
    """Composition act(act(x, d), g) == act(x, g d) holds in quotient
    coordinates whenever the outer matrix g lies in Gamma_0(N): only then
    does conjugation preserve the relation subspace.  (For a general outer
    matrix only full coset sums, i.e. Hecke operators, are well defined on
    the quotient.)"""
    from hypothesis import assume

    assume(d1[0][0] * d1[1][1] - d1[0][1] * d1[1][0] > 0)
    pres = build_presentation(3, 6)
    g = _gamma0_element(3, words)
    x = pres.cuspidal_basis[0]
    lhs = _act(pres, _act(pres, x, d1), g)
    rhs = _act(pres, x, mat_mul2(g, d1))
    assert lhs == [pres.denominator * y for y in rhs]


@given(st.lists(st.booleans(), max_size=8))
@settings(max_examples=40, deadline=None)
def test_act_group_invariance(words):
    """Gamma_0(N) acts trivially on the quotient."""
    pres = build_presentation(6, 4)
    g = _gamma0_element(6, words)
    for v in pres.cuspidal_basis:
        assert _act(pres, v, g) == [pres.denominator * x for x in v]


def test_act_scalar_matrices():
    """t * identity acts by t^(k-2) (the adjugate polynomial transport)."""
    pres = build_presentation(5, 6)
    v = pres.cuspidal_basis[0]
    out = _act(pres, v, ((3, 0), (0, 3)))
    assert out == [pres.denominator * 3 ** (6 - 2) * x for x in v]


def test_hecke_cosets_shape():
    assert hecke_cosets(1, 7) == [(1, 0, 1)]
    cosets = hecke_cosets(6, 5)
    assert len(cosets) == 12  # sigma_1(6) = 12, no divisor shares a factor with 5
    cosets_u5 = hecke_cosets(5, 5)
    assert cosets_u5 == [(1, b, 5) for b in range(5)]  # U_5: only a = 1 allowed


@pytest.mark.parametrize("level,weight,precision", [(1, 12, 20), (10, 8, 20), (19, 16, 37)])
def test_merel_images_are_the_hecke_images(level, weight, precision):
    """The shared coset sums give T_m x = _hecke_image_quotient(x, m) for
    every Merel symbol x = [X^i Y^(k-2-i), (0:1)], even 0 < i < k-2, and
    m <= B, also where the level excludes some a from T_m (N = 10 excludes
    2 and 5); _element_images yields these first, in the order of i."""
    from cuspgaps.msengine import basis as basis_mod

    pres = build_presentation(level, weight)
    origin = pres.p1.index(0, 1)
    assert pres._lifts[origin] == ((1, 0), (0, 1))
    exponents = range(2, weight - 2, 2)
    elements = basis_mod._element_images(pres, precision)
    merel = list(islice(elements, len(exponents)))
    assert len(merel) == len(exponents)
    for i, images in zip(exponents, merel):
        x = {i * pres.n_p1 + origin: 1}
        assert images == [basis_mod._hecke_image_quotient(pres, x, m) for m in range(1, precision + 1)]


def _merel_symbol(pres, i):
    """The Manin symbol [X^i Y^(k-2-i), (0:1)], whose lift is the identity."""
    return i * pres.n_p1 + pres.p1.index(0, 1)


@given(
    level=st.integers(min_value=1, max_value=30),
    weight=st.sampled_from(range(6, 17, 2)),
    precision=st.integers(min_value=1, max_value=25),
    slot=st.integers(min_value=0, max_value=5),
)
@example(level=10, weight=8, precision=25, slot=1)
@example(level=30, weight=16, precision=12, slot=0)
@settings(max_examples=60, deadline=None)
def test_merel_images_take_the_gcd_and_reflection_identities(level, weight, precision, slot):
    """_merel_images, which sums only the b prime to d, b < d/2, doubles
    that sum and scales R_(d/g) by g^i, gives T_m x coset by coset for the
    Merel symbol x of the slot-th even 0 < i < k-2 (cyclically) and every
    m <= B, also where gcd(a, N) > 1 drops some a from T_m (N = 10 and 30
    drop 2, 3 or 5).  Dropping the factor 2 breaks it from B = 3, and
    dropping g^i from B = 2 (S_2 = R_2 + 2^i R_1), wherever R_1 or the
    reflected R_d does not vanish."""
    from cuspgaps.msengine import basis as basis_mod

    pres = build_presentation(level, weight)
    exponents = range(2, weight - 2, 2)
    i = exponents[slot % len(exponents)]
    x = {_merel_symbol(pres, i): 1}
    want = [basis_mod._hecke_image_quotient(pres, x, m) for m in range(1, precision + 1)]
    assert basis_mod._merel_images(pres, x, i, precision) == want


@pytest.mark.parametrize("level,weight", [(1, 12), (10, 8), (19, 16), (30, 6)])
def test_act_symbol_raw_gcd_identity(level, weight):
    """(1, g b; 0, g d) . x = g^i (1, b; 0, d) . x symbol by symbol, for a
    Merel symbol x = [X^i Y^(k-2-i), (0:1)]: the polynomial transport
    carries g^i and the path {g b / g d, oo} is {b/d, oo}.  Both sides are
    act_symbol_raw's pieces expanded per Manin symbol, and the reduced side
    is the dict route's image."""
    pres = build_presentation(level, weight)
    for i in range(2, weight - 2, 2):
        t = _merel_symbol(pres, i)
        for d in range(1, 13):
            for b in range(d):
                g = gcd(b, d)
                reduced = _symbols(pres, pres.act_symbol_raw(t, ((1, b // g), (0, d // g)), {}, 1))
                assert reduced == _dict_act(pres, t, ((1, b // g), (0, d // g))), (i, b, d)
                assert _symbols(pres, pres.act_symbol_raw(t, ((1, b), (0, d)), {}, 1)) == {
                    sym: g**i * c for sym, c in reduced.items()
                }, (i, b, d)


@pytest.mark.parametrize("level,weight", [(1, 12), (10, 8), (19, 16), (30, 6), (23, 12)])
def test_reflection_identity_holds_in_the_plus_quotient(level, weight):
    """(1, b; 0, d) . x and (1, d - b; 0, d) . x reduce to one vector of
    the plus quotient for a Merel symbol x and b prime to d >= 3, since
    (1, d - b; 0, d) = (1, 1; 0, 1) eta (1, b; 0, d) eta with
    eta = (-1, 0; 0, 1) fixing x; their Manin symbols differ, and the
    dict route reduces them to the same vector."""
    pres = build_presentation(level, weight)
    raw_differs = False
    for i in range(2, weight - 2, 2):
        t = _merel_symbol(pres, i)
        for d in range(3, 20):
            for b in range(1, d):
                if gcd(b, d) == 1:
                    left = pres.act_symbol_raw(t, ((1, b), (0, d)), {}, 1)
                    right = pres.act_symbol_raw(t, ((1, d - b), (0, d)), {}, 1)
                    left_symbols, right_symbols = _symbols(pres, left), _symbols(pres, right)
                    raw_differs |= left_symbols != right_symbols
                    reduced = pres.raw_to_quotient(left)
                    assert reduced == pres.raw_to_quotient(right), (i, b, d)
                    assert reduced == _dict_to_quotient(pres, left_symbols), (i, b, d)
                    assert reduced == _dict_to_quotient(pres, right_symbols), (i, b, d)
    assert raw_differs


def test_series_pass_acts_once_per_coset_sum(monkeypatch):
    """At (19, 16, 37) one Merel symbol reaches rank 24, and its images
    take one action per (1, b; 0, d) with d <= 37, b prime to d and, for
    d >= 3, 0 < b < d/2: 2 + sum_(3 <= d <= 37) phi(d)/2 = 217, where
    every b < d took 37 * 38 / 2 = 703 and T_1, ..., T_37 coset by coset
    took 1135."""
    from cuspgaps.msengine import basis as basis_mod
    from cuspgaps.msengine.presentation import MSPresentation

    calls = []
    real = MSPresentation.act_symbol_raw
    monkeypatch.setattr(MSPresentation, "act_symbol_raw", lambda *a: calls.append(a) or real(*a))
    basis_mod._independent_series.__wrapped__(19, 16, 37)
    phi = [sum(gcd(b, d) == 1 for b in range(d)) for d in range(3, 38)]
    assert len(calls) == 2 + sum(phi) // 2 == 217


# -- Hecke eigenvalues and relations ------------------------------------------------

def test_t2_on_level1_weight12_is_tau2():
    assert hecke_matrices_from_symbols(qexpansion_basis(1, 12, 30), (2,)) == [((-24,),)]


def test_tn_matches_tau_small():
    ns = range(1, 21)
    assert hecke_matrices_from_symbols(qexpansion_basis(1, 12, 30), ns) == [((tau(n),),) for n in ns]


def test_hecke_multiplicativity_matrices():
    from cuspgaps.linalg import mat_mul

    b = qexpansion_basis(19, 16, sturm_bound(19, 16))
    t2, t3, t6 = ([list(row) for row in t] for t in hecke_matrices_from_symbols(b, (2, 3, 6)))
    assert mat_mul(t2, t3) == t6
    assert mat_mul(t3, t2) == t6


# -- q-expansion bases ---------------------------------------------------------------

def test_basis_level1_weight12_is_delta():
    b = qexpansion_basis(1, 12, 30)
    assert b.dimension == 1 and b.pivots == (1,)
    assert b.rows[0].coeffs == delta_expansion(30).coeffs


def test_basis_empty_space():
    b = qexpansion_basis(4, 4, 20)
    assert b.dimension == 0 and b.rows == () and b.pivots == ()


@pytest.mark.parametrize("level,weight", [(4, 4), (1, 10)])
def test_zero_space_takes_the_general_path(level, weight):
    """With d = 0 the series pass stops before its first series, and the
    basis, the transport and the stability certificate run their general
    code on the empty basis."""
    from cuspgaps.msengine.basis import _independent_series, hecke_stability_certificate

    precision = sturm_bound(level, weight) + 10
    assert _independent_series.__wrapped__(level, weight, precision) == ([], [])
    b = qexpansion_basis(level, weight, precision)
    assert b.dimension == 0
    assert hecke_matrices_from_symbols(b, (2, 3)) == [(), ()]
    hecke_stability_certificate(b)


def test_series_pass_rejects_a_stalled_rank(monkeypatch):
    """If the cuspidal elements' images run out before the series reach
    rank d, the series pass raises instead of returning a short basis."""
    from cuspgaps.msengine import basis as basis_mod

    monkeypatch.setattr(basis_mod, "_element_images", lambda pres, precision: iter(()))
    with pytest.raises(EngineError, match="series rank stalled"):
        basis_mod._independent_series.__wrapped__(13, 12, 15)


RECORD_SPACES = [(1, 12), (11, 2), (14, 4), (13, 12), (19, 16), (49, 4), (22, 2), (10, 8)]


@pytest.mark.parametrize("level,weight", RECORD_SPACES)
def test_series_record_is_one_pair_per_basis_row(level, weight):
    """The series pass records one (images, i) pair per series that raised
    the rank: d pairs, each i a chosen coordinate, each images the B
    vectors D T_m x; the RREF of the recorded series is the basis."""
    from cuspgaps.linalg import rref
    from cuspgaps.msengine import basis as basis_mod

    precision = sturm_bound(level, weight) + 10
    coords = basis_mod.cuspidal_functionals(build_presentation(level, weight))
    series = basis_mod._independent_series(level, weight, precision)[1]
    assert len(series) == cusp_dim(level, weight)
    assert all(i in coords and len(images) == precision for images, i in series)
    rows = rref([[w[i] for w in images] for images, i in series])[0]
    assert rows == [list(row.coeffs) for row in qexpansion_basis(level, weight, precision).rows]


def test_transport_reads_no_coordinates_of_its_own(monkeypatch):
    """With the series pass warm, the transport stacks the recorded pairs
    and never calls cuspidal_functionals."""
    from cuspgaps.msengine import basis as basis_mod

    b = qexpansion_basis(19, 16, 37)
    basis_mod._independent_series(19, 16, 37)
    calls = []
    real = basis_mod.cuspidal_functionals
    monkeypatch.setattr(basis_mod, "cuspidal_functionals", lambda pres: calls.append(pres) or real(pres))
    hecke_matrices_from_symbols(b, (2, 3))
    assert calls == []


ORDER_SPACES = [(1, 12), (11, 2), (14, 4), (5, 12), (10, 8), (22, 2), (6, 6), (7, 6), (3, 10), (15, 4)]


@given(st.sampled_from(ORDER_SPACES), st.integers(0, 8), st.data())
@settings(max_examples=25, deadline=None)
def test_basis_does_not_depend_on_the_series_order(space, extra, data):
    """The canonical RREF of a span does not depend on the series that
    spanned it: with the cuspidal elements and the chosen coordinates in
    any order, the basis and the transported T_2, T_3 are unchanged."""
    from cuspgaps.msengine import basis as basis_mod

    level, weight = space
    precision = sturm_bound(level, weight) + extra
    real_elements, real_coords = basis_mod._element_images, basis_mod.cuspidal_functionals
    basis_mod._independent_series.cache_clear()
    try:
        want = qexpansion_basis.__wrapped__(level, weight, precision)
        want_ops = hecke_matrices_from_symbols(want, (2, 3))
        pres = build_presentation(level, weight)
        elements = data.draw(st.permutations(list(real_elements(pres, precision))))
        coords = data.draw(st.permutations(real_coords(pres)))
        basis_mod._independent_series.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(basis_mod, "_element_images", lambda pres, precision: iter(elements))
            mp.setattr(basis_mod, "cuspidal_functionals", lambda pres: list(coords))
            got = qexpansion_basis.__wrapped__(level, weight, precision)
            got_ops = hecke_matrices_from_symbols(got, (2, 3))
    finally:
        basis_mod._independent_series.cache_clear()
    assert got == want
    assert got_ops == want_ops


def test_basis_level11_weight2_is_eta_product():
    b = qexpansion_basis(11, 2, 20)
    f = eta_expand(EtaProduct(((1, 2), (11, 2))), 20)
    assert b.dimension == 1
    assert b.rows[0].coeffs == f.coeffs


def test_basis_level49_weight2_is_49a():
    """49a has CM by Q(sqrt(-7)): a_p = 0 for p = 3, 5, 6 mod 7.  Level 49
    has Eisenstein series with quadratic character on the T_l side."""
    b = qexpansion_basis(49, 2, 30)
    assert b.rows[0].coeffs == (
        1, 1, 0, -1, 0, 0, 0, -3, -3, 0, 4, 0, 0, 0, 0, -1, 0, -3, 0, 0, 0, 4, 8, 0, -5, 0, 0, 0, 2, 0,
    )


@pytest.mark.parametrize("level,weight,ell", [(49, 2, 2), (49, 2, 3), (49, 2, 5), (98, 2, 3), (19, 16, 2)])
def test_symbol_hecke_trace_matches_coefficient_side(level, weight, ell):
    """T_ell on cuspidal modular symbols and T_ell on q-expansions are the
    same operator, so their traces agree."""
    from cuspgaps.heckeops import hecke_matrix_on_basis

    basis = qexpansion_basis(level, weight, 60)
    (symbols,) = hecke_matrices_from_symbols(basis, (ell,))
    coefficients = hecke_matrix_on_basis(basis, ell)
    assert sum(symbols[i][i] for i in range(len(symbols))) == sum(
        coefficients[i][i] for i in range(len(coefficients))
    )


@pytest.mark.parametrize("level,weight", [(13, 12), (14, 4)])
def test_transport_reuses_the_series_pass(level, weight, monkeypatch):
    """T_n is carried to a basis over the series pass that built it, so the
    only new Hecke images are T_n of the presentation's generators, each
    once, n by n: no series image T_m x is recomputed."""
    from cuspgaps.msengine import basis as basis_mod

    b = qexpansion_basis.__wrapped__(level, weight, sturm_bound(level, weight))
    assert b.dimension == cusp_dim(level, weight)
    calls = []
    real = basis_mod._hecke_image_quotient
    monkeypatch.setattr(basis_mod, "_hecke_image_quotient", lambda *a: calls.append(a) or real(*a))
    hecke_matrices_from_symbols(b, (2, 3))
    pres = basis_mod.build_presentation(level, weight)
    assert [(x, n) for _, x, n in calls] == [({t: 1}, n) for n in (2, 3) for t in pres.generators]


@given(
    st.integers(min_value=1, max_value=30),
    st.sampled_from([2, 4, 6, 8, 10, 12]),
    st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_joint_transport_is_the_transports_one_by_one(level, weight, ns):
    """One elimination over [f | T_n1 f | T_n2 f ...] at the Sturm bound
    gives, n by n, what the transport of each T_n alone gives: the RREF
    over Q is unique, and each block divides out the scale of its row."""
    b = qexpansion_basis(level, weight, sturm_bound(level, weight))
    assert hecke_matrices_from_symbols(b, ns) == [hecke_matrices_from_symbols(b, (n,))[0] for n in ns]


def _with_rows(basis, rows):
    return dataclasses.replace(
        basis,
        rows=tuple(QExpansion(tuple(r), basis.weight, basis.level) for r in rows),
        pivots=tuple(next(i for i, x in enumerate(r) if x) + 1 for r in rows),
    )


TRANSPORT_REFUSALS = {
    "combined": r"basis row 1 is not the series' echelon row at \(13, 12\)",
    "dropped": r"the series' RREF pivots are not the basis pivots at \(13, 12\)",
}


@pytest.mark.parametrize("corruption", ["combined", "dropped"])
def test_transport_rejects_a_basis_that_is_not_the_series_echelon(corruption):
    """T_n is read off the RREF of [f | T_n f] over the series that built
    the basis, so the transport refuses rows other than that RREF's first
    half: row 1 + row 2 keeps every pivot, a dropped row loses one."""
    b = qexpansion_basis(13, 12, sturm_bound(13, 12))
    rows = [list(r.coeffs) for r in b.rows]
    if corruption == "combined":
        rows[0] = [x + y for x, y in zip(rows[0], rows[1])]
    else:
        rows.pop()
    with pytest.raises(EngineError, match=TRANSPORT_REFUSALS[corruption]):
        hecke_matrices_from_symbols(_with_rows(b, rows), (2,))


def test_transport_rejects_a_wrong_row_under_a_zero_operator():
    """49a has CM by Q(sqrt(-7)), so T_3 = 0 on S_2(Gamma_0(49)): its image
    lies in any span and `coordinates` cannot see a wrong basis row.  The
    check that each RREF row starts with a multiple of its basis row does."""
    b = qexpansion_basis(49, 2, sturm_bound(49, 2))
    assert hecke_matrices_from_symbols(b, (3,)) == [((0,),)]
    wrong = list(b.rows[0].coeffs)
    wrong[1] += 1
    with pytest.raises(EngineError, match="not the series' echelon row"):
        hecke_matrices_from_symbols(_with_rows(b, [wrong]), (3,))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_coefficient_image_on_delta(m):
    """Delta is a normalised eigenform, so a_n(T_m Delta) = tau(m) tau(n);
    composite m exercises the sum over e | gcd(n, m)."""
    image = coefficient_image(delta_expansion(60), m)
    assert image == [tau(m) * tau(n) for n in range(1, 60 // m + 1)]


def test_basis_rejects_low_precision():
    with pytest.raises(ValueError):
        qexpansion_basis(11, 2, 2)  # sturm bound is 3


@pytest.mark.parametrize("precision", [20.0, True, "20"])
def test_basis_rejects_a_precision_that_is_not_an_int(precision):
    with pytest.raises(ValueError, match="precision must be an integer"):
        qexpansion_basis(1, 12, precision)


def test_basis_pivots_within_valence_bound():
    for level, weight in [(1, 12), (5, 12), (11, 2), (14, 4), (17, 14), (49, 4), (98, 2)]:
        b = qexpansion_basis(level, weight, sturm_bound(level, weight) + 10)
        assert b.dimension == cusp_dim(level, weight)
        assert list(b.pivots) == sorted(set(b.pivots))
        if b.pivots:
            assert b.pivots[-1] <= valence_bound(level, weight)


def _patch_series_rows(monkeypatch, change):
    """Hand qexpansion_basis the series pass's reduced rows after change."""
    from cuspgaps.msengine import basis as basis_mod

    real = basis_mod._independent_series
    monkeypatch.setattr(basis_mod, "_independent_series",
                        lambda *args: (change(real(*args)[0]), real(*args)[1]))
    return basis_mod.qexpansion_basis.__wrapped__


def test_basis_certifies_the_valence_bound(monkeypatch):
    """q Delta, the series row shifted one place, has its pivot at 2, past
    the valence bound 1 of S_12(Gamma_0(1))."""
    build = _patch_series_rows(monkeypatch, lambda rows: [[0] + rows[0][:-1]])
    with pytest.raises(EngineError, match=r"^echelon pivots \[2\] violate the valence bound 1 at \(1, 12\)$"):
        build(1, 12, 20)


def test_basis_certifies_hecke_stability(monkeypatch):
    """One wrong a_5 of the level-11 row keeps its pivot, but a_10(T_2 f)
    = a_20 + 2 a_5 no longer equals a_2 a_10: T_2 f leaves the span."""
    build = _patch_series_rows(monkeypatch, lambda rows: [row[:4] + [row[4] + 1] + row[5:] for row in rows])
    with pytest.raises(EngineError, match=r"^Hecke stability certificate failed for T_2 at \(11, 2\)$"):
        build(11, 2, 20)


def test_presentation_certifies_the_cuspidal_dimension(monkeypatch):
    """The boundary kernel is checked against the dimension formula."""
    from cuspgaps.msengine import presentation as pres_mod

    monkeypatch.setattr(pres_mod, "cusp_dim", lambda level, weight: 2)
    with pytest.raises(EngineError, match=r"^cuspidal plus-subspace at \(11, 2\) has dimension 1, "
                                          r"dimension formula gives 2$"):
        pres_mod.MSPresentation(11, 2)


def test_basis_extension_determinism():
    small = qexpansion_basis(1, 12, 30)
    large = qexpansion_basis(1, 12, 60)
    assert small.pivots == large.pivots
    for r_small, r_large in zip(small.rows, large.rows):
        assert r_large.coeffs[:30] == r_small.coeffs

    small11 = qexpansion_basis(11, 2, 20)
    large11 = qexpansion_basis(11, 2, 45)
    assert small11.pivots == large11.pivots
    for r_small, r_large in zip(small11.rows, large11.rows):
        assert r_large.coeffs[:20] == r_small.coeffs


def test_victor_miller_equivalence_quick():
    for k in (12, 18):
        engine = qexpansion_basis(1, k, 40)
        oracle = victor_miller_basis(k, 40)
        assert len(engine.rows) == len(oracle)
        for a, b in zip(engine.rows, oracle):
            assert a.coeffs == b.coeffs


def test_coordinates_roundtrip():
    b = qexpansion_basis(5, 12, 40)
    f = b.linear_combination([1, -2, 3, 0, 5])
    coords = b.coordinates(f)
    assert list(coords) == [1, -2, 3, 0, 5]


def test_linear_combination_of_an_empty_basis():
    """d = 0: the empty combination is the zero expansion, in Fractions."""
    f = qexpansion_basis(4, 4, 20).linear_combination([])
    assert f.coeffs == (0,) * 20
    assert all(type(c) is Fraction for c in f.coeffs)


def test_linear_combinations_are_the_columns_combined():
    """One product gives, column by column, what linear_combination gives;
    no column gives no expansion, also on the zero space."""
    b = qexpansion_basis(5, 12, 40)
    columns = [[1, -2, 3, 0, 5], [Fraction(1, 3), 0, 0, 0, 0], [0] * 5]
    assert b.linear_combinations([list(r) for r in zip(*columns)]) == [b.linear_combination(c) for c in columns]
    assert b.linear_combinations([[] for _ in range(5)]) == []
    assert qexpansion_basis(4, 4, 20).linear_combinations([]) == []


def test_cuspidal_solver_checks_membership():
    """At (11, 2) the cuspidal subspace is spanned by (0, 1) in the two
    generator coordinates; (1, 0) lies outside it."""
    from cuspgaps.msengine.basis import _cuspidal_solver

    solve = _cuspidal_solver(11, 2)
    assert solve([0, 1]) == [1]
    with pytest.raises(EngineError, match="not in the cuspidal subspace"):
        solve([1, 0])


@pytest.mark.parametrize("n", [0, -1, True, 2.0, "2"])
def test_hecke_index_must_be_a_positive_int(n):
    """A bool, a float or n < 1 is a caller mistake, not T_1 or a TypeError."""
    with pytest.raises(ValueError, match="Hecke index must be an integer >= 1"):
        hecke_cosets(n, 11)
    with pytest.raises(ValueError, match="Hecke index must be an integer >= 1"):
        hecke_matrices_from_symbols(qexpansion_basis(11, 2, 3), (2, n))


@pytest.mark.parametrize("n", [0, -1, True, 2.0, "2"])
def test_coefficient_side_hecke_index_must_be_a_positive_int(n):
    """The coefficient rule and the operator it defines reject a bool, a
    float or n < 1 too, instead of T_1, a ZeroDivisionError or a TypeError."""
    from cuspgaps.heckeops import hecke_matrix_on_basis

    b = qexpansion_basis(11, 2, 20)
    with pytest.raises(ValueError, match="Hecke index must be an integer >= 1"):
        coefficient_image(b.rows[0], n)
    with pytest.raises(ValueError, match="Hecke index must be an integer >= 1"):
        hecke_matrix_on_basis(b, n)


def test_coordinates_rejects_foreign_vector():
    b = qexpansion_basis(5, 12, 40)
    bad = QExpansion(tuple([1] * 40), 12, 5)
    with pytest.raises(NotInSpanError):
        b.coordinates(bad)


def _fraction_coordinates(basis, f):
    """The coordinates algorithm in Fractions, kept as the reference: each
    coordinate is a_c(f) / lead at its pivot c, and the span is re-summed
    in Fractions on every jointly known coefficient."""
    coords = tuple(
        Fraction(f.coefficient(c), row.coefficient(c)) for c, row in zip(basis.pivots, basis.rows)
    )
    for n in range(1, min(f.precision, basis.precision) + 1):
        combo = sum(y * row.coefficient(n) for y, row in zip(coords, basis.rows))
        if combo != f.coefficient(n):
            raise NotInSpanError(
                f"q^{n} coefficient mismatch: span gives {combo}, form has {f.coefficient(n)}"
            )
    return coords


COORDINATE_SPACES = [(5, 12, 40), (11, 2, 12), (19, 16, 37), (1, 24, 10)]


@given(st.sampled_from(COORDINATE_SPACES), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_coordinates_match_the_fraction_reference(space, integral, data):
    """The integer coordinates equal the Fraction reference on random span
    members, with integer or Fraction combination coefficients and at any
    precision that reaches the last pivot; a perturbed coefficient raises
    NotInSpanError with the reference's text."""
    b = qexpansion_basis(*space)
    entry = st.integers(-10**6, 10**6) if integral else st.fractions(max_denominator=10**4)
    ys = data.draw(st.lists(entry, min_size=b.dimension, max_size=b.dimension))
    coeffs = tuple(sum(y * row.coeffs[i] for y, row in zip(ys, b.rows)) for i in range(b.precision))
    assert all(type(c) is int for c in coeffs) == integral or not any(ys)
    # beyond the basis precision nothing is known, so those coefficients are free
    prec = data.draw(st.integers(b.pivots[-1], b.precision + 3))
    unknown = max(0, prec - b.precision)
    extra = data.draw(st.lists(entry, min_size=unknown, max_size=unknown))
    f = QExpansion(coeffs[:prec] + tuple(extra), b.weight, b.level)
    got = b.coordinates(f)
    assert got == _fraction_coordinates(b, f) == tuple(ys)
    assert all(type(y) is Fraction for y in got)

    # a change at a pivot only moves the coordinates; elsewhere it leaves the span
    n = data.draw(st.sampled_from([m for m in range(1, b.precision + 1) if m not in b.pivots]))
    bump = data.draw(entry.filter(bool))
    bad = QExpansion(coeffs[: n - 1] + (coeffs[n - 1] + bump,) + coeffs[n:], b.weight, b.level)
    with pytest.raises(NotInSpanError) as want:
        _fraction_coordinates(b, bad)
    with pytest.raises(NotInSpanError) as err:
        b.coordinates(bad)
    assert str(err.value) == str(want.value)


def test_coordinates_of_the_zero_space():
    """With d = 0 the only member is 0, whose coordinates are (); anything
    else fails at its first non-zero coefficient, as in the reference."""
    b = qexpansion_basis(1, 4, 6)
    assert b.dimension == 0
    assert b.coordinates(QExpansion((0,) * 6, 4, 1)) == ()
    assert b.coordinates(QExpansion((Fraction(0),) * 9, 4, 1)) == ()
    bad = QExpansion((0, 0, Fraction(-3, 7), 1, 0, 0), 4, 1)
    with pytest.raises(NotInSpanError) as want:
        _fraction_coordinates(b, bad)
    with pytest.raises(NotInSpanError) as err:
        b.coordinates(bad)
    message = "q^3 coefficient mismatch: span gives 0, form has -3/7"
    assert str(err.value) == str(want.value) == message
