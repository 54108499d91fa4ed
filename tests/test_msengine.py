"""Modular symbols engine: P^1, presentations, the action, Hecke, bases."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspgaps.invariants import cusp_dim, sturm_bound, valence_bound
from cuspgaps.msengine import (
    build_presentation,
    coefficient_image,
    hecke_cosets,
    hecke_matrix_from_symbols,
    hecke_operator_cuspidal,
    p1_enumerate,
    p1_space,
    qexpansion_basis,
)
from cuspgaps.msengine.action import mat_mul2
from cuspgaps.oracles import delta_expansion, eta_expand, EtaProduct, tau, victor_miller_basis


# -- P^1 ------------------------------------------------------------------------

def test_p1_sizes():
    from cuspgaps.invariants import index

    assert len(p1_enumerate(1)) == 1
    assert len(p1_enumerate(46)) == 72 == index(46)
    for n in (2, 5, 12, 19, 29):
        assert len(p1_enumerate(n)) == index(n)


def test_p1_proportional_pairs():
    p1 = p1_space(5)
    assert p1.index(2, 3) == p1.index(4, 6)


def test_p1_rejects_non_points():
    p1 = p1_space(6)
    with pytest.raises(ValueError):
        p1.normalize(2, 4)  # gcd(2, 4, 6) = 2


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


@pytest.mark.parametrize("level,weight", RELATION_SPACES)
def test_quotient_kills_every_relation(level, weight):
    """raw_to_quotient vanishes on the two-term, star and three-term
    relation of every Manin symbol, and sends each generator to its unit
    vector."""
    pres = build_presentation(level, weight)
    zero = [0] * pres.dimension
    for t in range(pres.ncols):
        for raw in _relations(pres, t):
            assert pres.raw_to_quotient(raw) == zero, (t, raw)
    for gi, t in enumerate(pres.generators):
        assert pres.raw_to_quotient({t: 1}) == [int(gj == gi) for gj in range(pres.dimension)]


@pytest.mark.parametrize("level,weight", RELATION_SPACES + [(11, 2), (5, 12), (36, 4)])
def test_cuspidal_basis_is_primitive_integral(level, weight):
    """The cuspidal kernel vectors are primitive integer vectors with a
    positive lead, so every combination the engine reduces is integral."""
    for v in build_presentation(level, weight).cuspidal_basis:
        assert all(type(x) is int for x in v)
        assert gcd(*v) == 1
        assert next(x for x in v if x) > 0


# -- the action -------------------------------------------------------------------

def _act(pres, vec, delta):
    """delta . (vector in generator coordinates), in generator coordinates:
    the raw images of the generators under act_symbol_raw, summed and
    reduced once by raw_to_quotient."""
    raw = {}
    for t, val in zip(pres.generators, vec):
        if val:
            for col, c in pres.act_symbol_raw(t, delta).items():
                raw[col] = raw.get(col, 0) + val * c
    return pres.raw_to_quotient(raw)


def test_act_identity():
    pres = build_presentation(5, 12)
    ident = ((1, 0), (0, 1))
    for v in pres.cuspidal_basis:
        assert _act(pres, v, ident) == list(v)


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
    assert lhs == rhs


@given(st.lists(st.booleans(), max_size=8))
@settings(max_examples=40, deadline=None)
def test_act_group_invariance(words):
    """Gamma_0(N) acts trivially on the quotient."""
    pres = build_presentation(6, 4)
    g = _gamma0_element(6, words)
    for v in pres.cuspidal_basis:
        assert _act(pres, v, g) == list(v)


def test_act_scalar_matrices():
    """t * identity acts by t^(k-2) (the adjugate polynomial transport)."""
    pres = build_presentation(5, 6)
    v = pres.cuspidal_basis[0]
    out = _act(pres, v, ((3, 0), (0, 3)))
    assert out == [3 ** (6 - 2) * x for x in v]


def test_hecke_cosets_shape():
    assert hecke_cosets(1, 7) == [(1, 0, 1)]
    cosets = hecke_cosets(6, 5)
    assert len(cosets) == 12  # sigma_1(6) = 12, no divisor shares a factor with 5
    cosets_u5 = hecke_cosets(5, 5)
    assert cosets_u5 == [(1, b, 5) for b in range(5)]  # U_5: only a = 1 allowed


# -- Hecke eigenvalues and relations ------------------------------------------------

def test_t2_on_level1_weight12_is_tau2():
    m = hecke_operator_cuspidal(1, 12, 2)
    assert m == [[-24]]


def test_tn_matches_tau_small():
    for n in range(1, 21):
        assert hecke_operator_cuspidal(1, 12, n) == [[tau(n)]]


def test_hecke_multiplicativity_matrices():
    t2 = hecke_operator_cuspidal(19, 16, 2)
    t3 = hecke_operator_cuspidal(19, 16, 3)
    t6 = hecke_operator_cuspidal(19, 16, 6)
    from cuspgaps.linalg import mat_mul

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

    symbols = hecke_operator_cuspidal(level, weight, ell)
    coefficients = hecke_matrix_on_basis(qexpansion_basis(level, weight, 60), ell).matrix
    assert sum(symbols[i][i] for i in range(len(symbols))) == sum(
        coefficients[i][i] for i in range(len(coefficients))
    )


@pytest.mark.parametrize("level,weight", [(13, 12), (14, 4)])
def test_transport_reuses_the_series_pass(level, weight, monkeypatch):
    """T_n is carried to a basis over the series pass that built it, so the
    only new Hecke images are T_n of the presentation's generators, each
    once: no series image T_m x is recomputed."""
    from cuspgaps.msengine import basis as basis_mod

    basis_mod._series_frame.cache_clear()
    b = qexpansion_basis.__wrapped__(level, weight, sturm_bound(level, weight))
    assert b.dimension == cusp_dim(level, weight)
    calls = []
    real = basis_mod._hecke_image_quotient
    monkeypatch.setattr(basis_mod, "_hecke_image_quotient", lambda *a: calls.append(a) or real(*a))
    hecke_matrix_from_symbols(b, 2)
    pres = basis_mod.build_presentation(level, weight)
    assert [(x, n) for _, x, n in calls] == [({t: 1}, 2) for t in pres.generators]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_coefficient_image_on_delta(m):
    """Delta is a normalised eigenform, so a_n(T_m Delta) = tau(m) tau(n);
    composite m exercises the sum over e | gcd(n, m)."""
    image = coefficient_image(delta_expansion(60), m)
    assert image == [tau(m) * tau(n) for n in range(1, 60 // m + 1)]


def test_basis_rejects_low_precision():
    with pytest.raises(ValueError):
        qexpansion_basis(11, 2, 2)  # sturm bound is 3


def test_basis_pivots_within_valence_bound():
    for level, weight in [(1, 12), (5, 12), (11, 2), (14, 4), (17, 14), (49, 4), (98, 2)]:
        b = qexpansion_basis(level, weight, sturm_bound(level, weight) + 10)
        assert b.dimension == cusp_dim(level, weight)
        assert list(b.pivots) == sorted(set(b.pivots))
        if b.pivots:
            assert b.pivots[-1] <= valence_bound(level, weight)


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


def test_coordinates_rejects_foreign_vector():
    from cuspgaps.errors import NotInSpanError
    from cuspgaps.qexp import QExpansion

    b = qexpansion_basis(5, 12, 40)
    bad = QExpansion(tuple([1] * 40), 12, 5)
    with pytest.raises(NotInSpanError):
        b.coordinates(bad)
