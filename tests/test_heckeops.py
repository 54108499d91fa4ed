"""U_p, V_p, old/new splits, Atkin-Lehner, trace, the subspace S, and v_p."""

import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cuspgaps
from cuspgaps import heckeops
from cuspgaps.errors import AssemblyError, EngineError
from cuspgaps.heckeops import (
    apply_Up,
    apply_Vp,
    atkin_lehner,
    build_operator_stack,
    coefficient_valuation,
    hecke_matrix_on_basis,
    normalize_p,
    old_new_split,
    required_ambient_precision,
    up_matrix,
)
from cuspgaps.invariants import cusp_dim, sturm_bound, valence_bound
from cuspgaps.linalg import Echelonizer, mat_inverse, mat_mul, rank
from cuspgaps.msengine import hecke_matrix_from_symbols, qexpansion_basis
from cuspgaps.oracles import delta_expansion
from cuspgaps.qexp import QExpansion

series = st.lists(st.integers(min_value=-30, max_value=30), min_size=6, max_size=40)


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


# -- U_p and V_p ------------------------------------------------------------------

def test_up_monomial():
    f = QExpansion((0, 0, 0, 0, 1, 0, 0, 0, 0, 0), 12, 1)  # q^5
    assert apply_Up(f, 5).coeffs == (1, 0)


@given(series, st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=150, deadline=None)
def test_up_vp_inverse(coeffs, p):
    f = QExpansion(tuple(coeffs), 4, 1)
    assert apply_Up(apply_Vp(f, p), p).coeffs == f.coeffs


@given(series, st.sampled_from([2, 3, 5]))
@settings(max_examples=100, deadline=None)
def test_vp_order_and_precision(coeffs, p):
    f = QExpansion(tuple(coeffs), 4, 1)
    vf = apply_Vp(f, p)
    assert vf.precision == p * f.precision
    if f.order() is not None:
        assert vf.order() == p * f.order()


def test_up_precision_guard():
    with pytest.raises(ValueError):
        apply_Up(QExpansion((1, 2), 4, 1), 3)


def test_u2_delta():
    assert apply_Up(delta_expansion(20), 2).coefficient(1) == -24


def test_v5_delta_in_level5_span():
    basis = qexpansion_basis(5, 12, 60)
    v5d = apply_Vp(delta_expansion(12), 5)
    coords = basis.coordinates(v5d)  # raises NotInSpanError on failure
    assert any(c != 0 for c in coords)


# -- valuations ---------------------------------------------------------------------

def test_valuation_example():
    f = QExpansion((5, 25), 2, 1)
    assert coefficient_valuation(f, 5) == 1
    assert normalize_p(f, 5).coeffs == (1, 5)


def test_valuation_zero_series():
    assert coefficient_valuation(QExpansion((0, 0), 2, 1), 5) == math.inf
    with pytest.raises(ValueError):
        normalize_p(QExpansion((0, 0), 2, 1), 5)


@given(series, st.sampled_from([2, 3, 5]))
@settings(max_examples=150, deadline=None)
def test_normalize_p_properties(coeffs, p):
    f = QExpansion(tuple(coeffs), 6, 1)
    if f.is_zero():
        return
    g = normalize_p(f, p)
    assert coefficient_valuation(g, p) == 0
    assert all(isinstance(c, int) for c in g.coeffs)


def test_valuation_ultrametric():
    f = QExpansion((Fraction(1, 5), 1), 2, 1)
    g = QExpansion((Fraction(-1, 5), 25), 2, 1)
    vf, vg = coefficient_valuation(f, 5), coefficient_valuation(g, 5)
    assert coefficient_valuation(f + g, 5) >= min(vf, vg)
    assert coefficient_valuation(5 * f, 5) == vf + 1


# -- operator stack at (1, 12, 5) ----------------------------------------------------

@pytest.fixture(scope="module")
def stack5():
    return build_operator_stack(1, 12, 5)


def test_split_dimensions(stack5):
    assert stack5.split.old_dimension == 2
    assert stack5.split.new_dimension == 3
    assert len(stack5.s_basis) == 4  # dim S = 5 - 1


def test_atkin_lehner_involution(stack5):
    w = [list(r) for r in stack5.atkin_lehner.matrix]
    assert mat_mul(w, w) == _identity(5)


def test_atkin_lehner_eigenvalues(stack5):
    w = [list(r) for r in stack5.atkin_lehner.matrix]
    d = len(w)
    w_minus = [[w[i][j] - (1 if i == j else 0) for j in range(d)] for i in range(d)]
    w_plus = [[w[i][j] + (1 if i == j else 0) for j in range(d)] for i in range(d)]
    assert rank(w_minus) + rank(w_plus) == d  # eigenvalues are all +-1


def test_atkin_lehner_old_block(stack5):
    """On the old pair (Delta, V_5 Delta): W(Delta) = 5^6 V_5 Delta and
    W(V_5 Delta) = 5^-6 Delta."""
    amb = stack5.ambient
    delta = delta_expansion(amb.precision)
    w_delta = amb.linear_combination(stack5.atkin_lehner.apply(amb.coordinates(delta)))
    v5_delta = apply_Vp(delta_expansion(amb.precision), 5)
    assert w_delta.agrees_with(5**6 * v5_delta)
    w_v5 = amb.linear_combination(stack5.atkin_lehner.apply(amb.coordinates(v5_delta)))
    assert (5**6 * w_v5).agrees_with(delta)


def test_trace_on_lower_forms(stack5):
    """Tr(Delta seen in S_12(Gamma_0(5))) = 6 Delta."""
    delta = delta_expansion(stack5.ambient.precision)
    traced = stack5.trace_expansion(delta)
    assert traced.agrees_with(6 * delta)
    assert traced.level == 1


@pytest.mark.parametrize("level,weight,p", [(1, 12, 5), (1, 24, 5), (3, 6, 5), (2, 4, 7)])
def test_trace_rank_and_new_block(level, weight, p):
    """The identities the stack implies but no longer checks at run time:
    rank Tr = dim S_k(N), Tr kills the new block, Tr = p + 1 on each old
    pair, and W_p C = Z column by column."""
    stack = build_operator_stack(level, weight, p)
    split, tr, w = stack.split, stack.trace, stack.atkin_lehner
    assert rank([list(r) for r in tr.matrix]) == cusp_dim(level, weight)
    half = p ** (weight // 2)
    for cg, cvg in split.old_pairs:
        assert tr.apply(cg) == [(p + 1) * x for x in cg]
        assert w.apply(cg) == [half * x for x in cvg]
        assert w.apply(cvg) == [Fraction(x, half) for x in cg]
    for v in split.new_vectors:
        assert all(x == 0 for x in tr.apply(v))
        assert w.apply(v) == [-Fraction(p, half) * x for x in stack.up.apply(v)]


def test_kernel_of_trace_maps_onto_s(stack5):
    """f -> f|W_p carries ker(Tr) bijectively onto S."""
    from cuspgaps.linalg import kernel_basis

    tr = [list(r) for r in stack5.trace.matrix]
    ker = kernel_basis(tr)
    assert len(ker) == len(stack5.s_basis)
    ech = Echelonizer(stack5.ambient.dimension)
    for v in stack5.s_basis:
        ech.add(list(v))
    s_rank = ech.rank
    for v in ker:
        image = stack5.atkin_lehner.apply(v)
        assert ech.add(list(image)) is None  # lands inside S
    assert s_rank == len(stack5.s_basis)


def test_up_squared_on_new_block(stack5):
    """U_p^2 = p^(k-2) on the p-new subspace."""
    u = [list(r) for r in stack5.up.matrix]
    u2 = mat_mul(u, u)
    for v in stack5.split.new_vectors:
        image = [sum(u2[i][j] * v[j] for j in range(len(v))) for i in range(len(v))]
        assert image == [5**10 * x for x in v]


def test_w_commutes_with_hecke(stack5):
    """W_p T_ell = T_ell W_p for primes ell coprime to p, ell <= 20.

    The stack's ambient precision only pins T_ell for small ell, so the
    operators for larger ell are read off a higher-precision build of the
    same canonical basis (same coordinates)."""
    big = qexpansion_basis(5, 12, 21 * 6)
    w = [list(r) for r in stack5.atkin_lehner.matrix]
    for ell in (2, 3, 7, 11, 13, 17, 19):
        t = [list(r) for r in hecke_matrix_on_basis(big, ell).matrix]
        assert mat_mul(w, t) == mat_mul(t, w), f"W does not commute with T_{ell}"


def test_s_basis_hypotheses(stack5):
    for f in stack5.s_basis_expansions():
        assert coefficient_valuation(f, 5) == 0
        coords = stack5.ambient.coordinates(f)
        fw = stack5.ambient.linear_combination(stack5.atkin_lehner.apply(coords))
        assert coefficient_valuation(fw, 5) >= 1 - 12 // 2
        assert f.order() is not None and f.order() <= 4  # sharp bound at (1,12,5)


# -- a split with an empty lower space ------------------------------------------------

def test_stack_2_4_7():
    stack = build_operator_stack(2, 4, 7)
    assert stack.lower.dimension == 0
    assert stack.split.old_dimension == 0
    assert stack.split.new_dimension == 4
    assert len(stack.s_basis) == 4
    u = [list(r) for r in stack.up.matrix]
    assert mat_mul(u, u) == [[49 * x for x in row] for row in _identity(4)]
    w = [list(r) for r in stack.atkin_lehner.matrix]
    assert mat_mul(w, w) == _identity(4)


def test_split_galois_conjugate_old_pair():
    """At (1, 24, 5) the old space comes from the two Galois-conjugate
    eigenforms of level 1, weight 24."""
    stack = build_operator_stack(1, 24, 5)
    split = stack.split
    assert split.old_dimension == 4
    assert split.new_dimension == 7
    u = [list(r) for r in split.up.matrix]
    u2 = mat_mul(u, u)
    for v in split.new_vectors:
        image = [sum(u2[i][j] * v[j] for j in range(len(v))) for i in range(len(v))]
        assert image == [5**22 * x for x in v]


def test_stack_does_not_import_sympy():
    code = (
        "import sys\n"
        "from cuspgaps.heckeops import build_operator_stack\n"
        "build_operator_stack(1, 12, 5)\n"
        "print('sympy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cuspgaps.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_old_new_split_requires_matching_ambient():
    basis = qexpansion_basis(5, 12, 40)
    with pytest.raises(ValueError):
        old_new_split(1, 12, 7, basis)  # ambient is for p = 5, not 7


# -- U_p and T_ell from the symbols, at Sturm precision --------------------------------

def _long_basis(level, weight, p):
    """The ambient basis at p*(valence + 1), where every U_p image is pinned
    by its own coefficients a_(pn)."""
    return qexpansion_basis(p * level, weight, p * (valence_bound(p * level, weight) + 1))


def _coefficient_side_up(level, weight, p):
    big = _long_basis(level, weight, p)
    cols = [big.coordinates(apply_Up(row, p)) for row in big.rows]
    return tuple(tuple(col[i] for col in cols) for i in range(big.dimension))


def test_up_matrix_from_symbols_matches_coefficient_side():
    """(2, 4, 7) takes its series from pres.cuspidal_basis vectors."""
    for level, weight, p in [(1, 12, 5), (2, 4, 7), (1, 24, 5), (3, 6, 5), (1, 12, 13)]:
        sturm = qexpansion_basis(p * level, weight, required_ambient_precision(level, weight, p))
        assert sturm.precision == sturm_bound(p * level, weight)
        assert up_matrix(sturm, p).matrix == _coefficient_side_up(level, weight, p), (level, weight, p)


@pytest.mark.parametrize("level,weight", [(5, 12), (14, 4), (11, 2), (13, 12), (49, 2), (98, 2)])
def test_symbol_hecke_matrix_matches_coefficient_side(level, weight):
    """Composite n = 4 and 6, and n sharing a prime with the level, take the
    same route through the generator images as prime n."""
    small = qexpansion_basis(level, weight, sturm_bound(level, weight))
    big = qexpansion_basis(level, weight, 6 * (valence_bound(level, weight) + 1))
    for n in (2, 3, 4, 6):
        want = [list(r) for r in hecke_matrix_on_basis(big, n).matrix]
        assert hecke_matrix_from_symbols(small, n) == want, n


def test_up_matrix_cross_check_catches_a_wrong_transport(monkeypatch):
    ambient = qexpansion_basis(5, 12, sturm_bound(5, 12))
    true = hecke_matrix_from_symbols(ambient, 5)
    monkeypatch.setattr(heckeops, "hecke_matrix_from_symbols",
                        lambda basis, n: [[2 * x for x in row] for row in true])
    with pytest.raises(EngineError):
        up_matrix(ambient, 5)


def test_up_matrix_catches_a_wrong_generator_image(monkeypatch):
    """One wrong entry (T_5 gen_g)_i, on a coordinate i the series read and
    a generator g that the first series image T_1 x = x involves, changes
    a_1 of a transported series; the transport's certificates refuse it."""
    from cuspgaps.msengine import basis as basis_mod

    ambient = qexpansion_basis(5, 12, sturm_bound(5, 12))
    pres = basis_mod.build_presentation(5, 12)
    i = basis_mod.cuspidal_functionals(pres)[0]
    x = basis_mod._independent_series(5, 12, ambient.precision)[1][0][0][0]
    g = next(j for j, c in enumerate(x) if c)
    real = basis_mod._generator_images

    def perturbed(pres, n):
        images = real(pres, n)
        images[g][i] += 1
        return images

    monkeypatch.setattr(basis_mod, "_generator_images", perturbed)
    with pytest.raises(EngineError):
        up_matrix(ambient, 5)


def test_up_matrix_needs_p_dividing_the_level():
    with pytest.raises(ValueError):
        up_matrix(qexpansion_basis(5, 12, 7), 7)


@pytest.mark.parametrize("level,weight,p", [(1, 12, 5), (2, 4, 7), (1, 24, 5)])
def test_sturm_precision_fixes_valuations_and_pivots(level, weight, p):
    """v_p of every S form and of its W_p image, and the echelon pivots of S,
    read the same at the Sturm bound as over p*(valence + 1) coefficients."""
    stack = build_operator_stack(level, weight, p)
    big = _long_basis(level, weight, p)
    assert big.precision > stack.ambient.precision
    for v in stack.s_basis:
        w_v = stack.atkin_lehner.apply(v)
        for coords in (v, w_v):
            short = stack.ambient.linear_combination(coords)
            long = big.linear_combination(coords)
            assert coefficient_valuation(short, p) == coefficient_valuation(long, p)
    pivots = []
    for basis in (stack.ambient, big):
        ech = Echelonizer(basis.precision)
        for v in stack.s_basis:
            ech.add(list(basis.linear_combination(v).coeffs))
        pivots.append(ech.pivots())
    assert pivots[0] == pivots[1]


def test_atkin_lehner_rejects_mismatched_old_pairs():
    """Pairing g_1 with V_p g_2 and g_2 with V_p g_1 keeps the old span, so
    U_p still respects old/new and the assembled W_p is still an
    involution, but it no longer commutes with T_2."""
    split = build_operator_stack(1, 24, 5).split
    (g1, vg1), (g2, vg2) = split.old_pairs
    crossed = dataclasses.replace(split, old_pairs=((g1, vg2), (g2, vg1)))
    with pytest.raises(AssemblyError, match="does not commute with T_2"):
        atkin_lehner(crossed)


@pytest.mark.parametrize("perturb,message", [("new", "leaves the old span"), ("pair", "U_5 V_5 g != g")])
def test_split_certifies_up_on_the_old_pairs(monkeypatch, perturb, message):
    """At (1, 24, 5), with phi_1 and phi_2 the rows of C^-1 dual to g_1 and
    V_p g_1: U_p + n phi_1 sends g_1 to U_p g_1 + n for a new vector n, and
    U_p + g_1 phi_2 sends V_p g_1 to 2 g_1.  The split rejects both."""
    split = build_operator_stack(1, 24, 5).split
    (g1, vg1), (g2, vg2) = split.old_pairs
    phi = mat_inverse([list(row) for row in zip(g1, vg1, g2, vg2, *split.new_vectors)])
    col, row = (split.new_vectors[0], phi[0]) if perturb == "new" else (g1, phi[1])
    u = split.up.matrix
    wrong = tuple(tuple(x + c * y for x, y in zip(u_row, row)) for u_row, c in zip(u, col))
    monkeypatch.setattr(heckeops, "up_matrix", lambda ambient, p: heckeops.OperatorMatrix("U_5", wrong))
    with pytest.raises(EngineError, match=message):
        old_new_split(1, 24, 5, split.ambient)
