"""U_p, V_p, old/new splits, Atkin-Lehner, trace, the subspace S, and v_p."""

import dataclasses
import math
import os
import re
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
    trace_matrix,
    up_matrix,
)
from cuspgaps.invariants import cusp_dim, sturm_bound, valence_bound
from cuspgaps.linalg import Echelonizer, kernel_basis, mat_inverse, mat_mul, mat_vec, rref, solve_columns
from cuspgaps.msengine import build_presentation, coefficient_image, hecke_matrices_from_symbols, qexpansion_basis
from cuspgaps.qexp import QExpansion

from oracles import delta_expansion

series = st.lists(st.integers(min_value=-30, max_value=30), min_size=6, max_size=40)


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _rank(m) -> int:
    return len(rref(m)[1])


def _agrees(f: QExpansion, g: QExpansion, scale=1) -> bool:
    """a_n(f) = scale * a_n(g) on every coefficient both know."""
    return all(x == scale * y for x, y in zip(f.coeffs, g.coeffs))


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


def test_up_reports_the_level_it_lands_on():
    """U_2 Delta lies on Gamma_0(2), so the coefficient rule takes T_2 on it
    as U_2: a_n(U_2 U_2 Delta) = a_(4n)(Delta).  With level 1 it took the
    T_2 rule, a_(4n) + 2^11 a_(n/2) (35328 in place of 84480 at n = 2)."""
    delta = delta_expansion(40)
    u2 = apply_Up(delta, 2)
    assert u2.level == 2
    assert apply_Up(u2, 2).level == 2
    assert apply_Up(apply_Up(QExpansion((1, 2, 3, 4, 5, 6), 4, 6), 3), 2).level == 6
    assert coefficient_image(u2, 2) == [delta.coefficient(4 * n) for n in range(1, 11)]
    assert coefficient_image(u2, 2)[:2] == [-1472, 84480]


def test_v5_delta_in_level5_span():
    basis = qexpansion_basis(5, 12, 60)
    v5d = apply_Vp(delta_expansion(12), 5)
    coords = basis.coordinates(v5d)  # raises NotInSpanError on failure
    assert any(c != 0 for c in coords)


# -- valuations ---------------------------------------------------------------------

def test_valuation_example():
    f = QExpansion((5, 25), 2, 1)
    assert coefficient_valuation(f, 5) == 1
    assert normalize_p(f).coeffs == (1, 5)


@pytest.mark.parametrize("p", [1, 0, -1, True, False, 5.0, "5"])
def test_valuation_rejects_a_bad_prime(p):
    """n % 1 == 0 for every n, so p = 1 (and -1, True) would never leave the
    valuation loop; p is refused before it."""
    with pytest.raises(ValueError, match="p must be an integer >= 2"):
        coefficient_valuation(QExpansion((5, 25), 2, 1), p)


def test_valuation_zero_series():
    assert coefficient_valuation(QExpansion((0, 0), 2, 1), 5) == math.inf
    with pytest.raises(ValueError):
        normalize_p(QExpansion((0, 0), 2, 1))


@given(series, st.sampled_from([2, 3, 5]))
@settings(max_examples=150, deadline=None)
def test_normalize_p_properties(coeffs, p):
    f = QExpansion(tuple(coeffs), 6, 1)
    if f.is_zero():
        return
    g = normalize_p(f)
    assert coefficient_valuation(g, p) == 0
    assert all(isinstance(c, int) for c in g.coeffs)


@given(st.lists(st.fractions(max_denominator=200), max_size=12), st.sampled_from([2, 3, 5]))
@settings(max_examples=150, deadline=None)
def test_valuation_is_the_least_coefficient_valuation(coeffs, p):
    """The content form, v_p of the cleared numerators' gcd less v_p of the
    common denominator, is the least v_p(a_n) over the non-zero a_n."""
    def v(n: int) -> int:
        return 0 if n % p else 1 + v(n // p)

    want = min((v(c.numerator) - v(c.denominator) for c in coeffs if c), default=math.inf)
    assert coefficient_valuation(QExpansion(tuple(coeffs), 2, 1), p) == want


def test_valuation_ultrametric():
    f = QExpansion((Fraction(1, 5), 1), 2, 1)
    g = QExpansion((Fraction(-1, 5), 25), 2, 1)
    vf, vg = coefficient_valuation(f, 5), coefficient_valuation(g, 5)
    f_plus_g = QExpansion(tuple(x + y for x, y in zip(f.coeffs, g.coeffs)), 2, 1)
    assert coefficient_valuation(f_plus_g, 5) >= min(vf, vg)
    assert coefficient_valuation(QExpansion(tuple(5 * x for x in f.coeffs), 2, 1), 5) == vf + 1


# -- operator stack at (1, 12, 5) ----------------------------------------------------

@pytest.fixture(scope="module")
def stack5():
    return build_operator_stack(1, 12, 5)


def test_split_dimensions(stack5):
    assert len(stack5.old_pairs) == 1
    assert len(stack5.new_vectors) == 3
    assert len(stack5.s_basis) == 4  # dim S = 5 - 1


def test_atkin_lehner_involution(stack5):
    w = [list(r) for r in stack5.atkin_lehner]
    assert mat_mul(w, w) == _identity(5)


def test_atkin_lehner_eigenvalues(stack5):
    w = [list(r) for r in stack5.atkin_lehner]
    d = len(w)
    w_minus = [[w[i][j] - (1 if i == j else 0) for j in range(d)] for i in range(d)]
    w_plus = [[w[i][j] + (1 if i == j else 0) for j in range(d)] for i in range(d)]
    assert _rank(w_minus) + _rank(w_plus) == d  # eigenvalues are all +-1


def test_atkin_lehner_old_block(stack5):
    """On the old pair (Delta, V_5 Delta): W(Delta) = 5^6 V_5 Delta and
    W(V_5 Delta) = 5^-6 Delta."""
    amb = stack5.ambient
    delta = delta_expansion(amb.precision)
    w_delta = amb.linear_combination(mat_vec(stack5.atkin_lehner, amb.coordinates(delta)))
    v5_delta = apply_Vp(delta_expansion(amb.precision), 5)
    assert _agrees(w_delta, v5_delta, 5**6)
    w_v5 = amb.linear_combination(mat_vec(stack5.atkin_lehner, amb.coordinates(v5_delta)))
    assert _agrees(delta, w_v5, 5**6)


def test_trace_on_lower_forms(stack5):
    """Tr(Delta seen in S_12(Gamma_0(5))) = 6 Delta."""
    delta = delta_expansion(stack5.ambient.precision)
    traced = stack5.trace_expansion(delta)
    assert _agrees(traced, delta, 6)
    assert traced.level == 1


@pytest.mark.parametrize("level,weight,p", [(1, 12, 5), (1, 24, 5), (3, 6, 5), (2, 4, 7)])
def test_trace_rank_and_new_block(level, weight, p):
    """The identities the stack implies but no longer checks at run time:
    rank Tr = dim S_k(N), Tr kills the new block, Tr = p + 1 on each old
    pair, and W_p C = Z column by column."""
    stack = build_operator_stack(level, weight, p)
    tr, w = trace_matrix(stack), stack.atkin_lehner
    assert _rank([list(r) for r in tr]) == cusp_dim(level, weight)
    half = p ** (weight // 2)
    for cg, cvg in stack.old_pairs:
        assert mat_vec(tr, cg) == [(p + 1) * x for x in cg]
        assert mat_vec(w, cg) == [half * x for x in cvg]
        assert mat_vec(w, cvg) == [Fraction(x, half) for x in cg]
    for v in stack.new_vectors:
        assert all(x == 0 for x in mat_vec(tr, v))
        assert mat_vec(w, v) == [-Fraction(p, half) * x for x in mat_vec(stack.up, v)]


def test_kernel_of_trace_maps_onto_s(stack5):
    """f -> f|W_p carries ker(Tr) bijectively onto S."""
    tr = [list(r) for r in trace_matrix(stack5)]
    ker = kernel_basis(tr, len(tr))
    assert len(ker) == len(stack5.s_basis)
    ech = Echelonizer()
    for v in stack5.s_basis:
        ech.add(list(v))
    s_rank = ech.rank
    for v in ker:
        image = mat_vec(stack5.atkin_lehner, v)
        assert ech.add(list(image)) is None  # lands inside S
    assert s_rank == len(stack5.s_basis)


def test_up_squared_on_new_block(stack5):
    """U_p^2 = p^(k-2) on the p-new subspace."""
    u = [list(r) for r in stack5.up]
    u2 = mat_mul(u, u)
    for v in stack5.new_vectors:
        image = [sum(u2[i][j] * v[j] for j in range(len(v))) for i in range(len(v))]
        assert image == [5**10 * x for x in v]


def test_w_commutes_with_hecke(stack5):
    """W_p T_ell = T_ell W_p for primes ell coprime to p, ell <= 20.

    The stack's ambient precision only pins T_ell for small ell, so the
    operators for larger ell are read off a higher-precision build of the
    same canonical basis (same coordinates)."""
    big = qexpansion_basis(5, 12, 21 * 6)
    w = [list(r) for r in stack5.atkin_lehner]
    for ell in (2, 3, 7, 11, 13, 17, 19):
        t = [list(r) for r in hecke_matrix_on_basis(big, ell)]
        assert mat_mul(w, t) == mat_mul(t, w), f"W does not commute with T_{ell}"


def test_s_basis_hypotheses(stack5):
    for f in map(normalize_p, stack5.ambient.linear_combinations(list(zip(*stack5.s_basis)))):
        assert coefficient_valuation(f, 5) == 0
        coords = stack5.ambient.coordinates(f)
        fw = stack5.ambient.linear_combination(mat_vec(stack5.atkin_lehner, coords))
        assert coefficient_valuation(fw, 5) >= 1 - 12 // 2
        assert f.order() is not None and f.order() <= 4  # sharp bound at (1,12,5)


# -- a split with an empty lower space ------------------------------------------------

def test_stack_2_4_7():
    stack = build_operator_stack(2, 4, 7)
    assert stack.lower.dimension == 0
    assert stack.old_pairs == ()
    assert len(stack.new_vectors) == 4
    assert len(stack.s_basis) == 4
    u = [list(r) for r in stack.up]
    assert mat_mul(u, u) == [[49 * x for x in row] for row in _identity(4)]
    w = [list(r) for r in stack.atkin_lehner]
    assert mat_mul(w, w) == _identity(4)


def test_split_galois_conjugate_old_pair():
    """At (1, 24, 5) the old space comes from the two Galois-conjugate
    eigenforms of level 1, weight 24."""
    stack = build_operator_stack(1, 24, 5)
    assert len(stack.old_pairs) == 2
    assert len(stack.new_vectors) == 7
    u = [list(r) for r in stack.up]
    u2 = mat_mul(u, u)
    for v in stack.new_vectors:
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
        assert up_matrix(sturm, p) == _coefficient_side_up(level, weight, p), (level, weight, p)


@pytest.mark.parametrize("level,weight", [(5, 12), (14, 4), (11, 2), (13, 12), (49, 2), (98, 2)])
def test_symbol_hecke_matrix_matches_coefficient_side(level, weight):
    """Composite n = 4 and 6, and n sharing a prime with the level, take the
    same route through the generator images as prime n."""
    small = qexpansion_basis(level, weight, sturm_bound(level, weight))
    big = qexpansion_basis(level, weight, 6 * (valence_bound(level, weight) + 1))
    ns = (2, 3, 4, 6)
    assert hecke_matrices_from_symbols(small, ns) == [hecke_matrix_on_basis(big, n) for n in ns]


def test_transport_cross_check_catches_doubled_generator_images(monkeypatch):
    """Doubling every T_5 gen_g doubles each T_5 b_j, which stays in the
    span and keeps every pivot; only the coefficient rule a_n(U_5 f) =
    a_(5n)(f), checked inside the transport, refuses it."""
    from cuspgaps.msengine import basis as basis_mod

    ambient = qexpansion_basis(5, 12, sturm_bound(5, 12))
    real = basis_mod._generator_images
    monkeypatch.setattr(basis_mod, "_generator_images",
                        lambda pres, n: [[2 * x for x in row] for row in real(pres, n)])
    with pytest.raises(EngineError, match="disagrees with the coefficients"):
        hecke_matrices_from_symbols(ambient, (5,))
    with pytest.raises(EngineError, match="disagrees with the coefficients"):
        up_matrix(ambient, 5)


def _perturb_a_generator_image(monkeypatch, ambient, only=None):
    """Make one entry (T_n gen_g)_i wrong, for every n or for n = only, on a
    coordinate i the series read and a generator g that the first series
    image T_1 x = x involves: that changes a_1 of a transported series."""
    from cuspgaps.msengine import basis as basis_mod

    pres = basis_mod.build_presentation(ambient.level, ambient.weight)
    i = basis_mod.cuspidal_functionals(pres)[0]
    x = basis_mod._independent_series(ambient.level, ambient.weight, ambient.precision)[1][0][0][0]
    g = next(j for j, c in enumerate(x) if c)
    real = basis_mod._generator_images

    def perturbed(pres, n):
        images = real(pres, n)
        if only in (None, n):
            images[g][i] += 1
        return images

    monkeypatch.setattr(basis_mod, "_generator_images", perturbed)


def test_up_matrix_catches_a_wrong_generator_image(monkeypatch):
    """The transport's certificates refuse one wrong entry of T_5 gen_g."""
    ambient = qexpansion_basis(5, 12, sturm_bound(5, 12))
    _perturb_a_generator_image(monkeypatch, ambient)
    with pytest.raises(EngineError, match="T_5 from symbols disagrees with the coefficients of basis row 1"):
        up_matrix(ambient, 5)


def test_joint_transport_catches_a_wrong_image_under_its_second_index(monkeypatch):
    """The stack transports U_5 and T_2 together at (1, 12, 5).  One wrong
    entry of T_2 gen_g alone leaves U_5 untouched and is refused by the
    coefficient rule of T_2."""
    ambient = qexpansion_basis(5, 12, sturm_bound(5, 12))
    u = up_matrix(ambient, 5)
    _perturb_a_generator_image(monkeypatch, ambient, only=2)
    assert hecke_matrices_from_symbols(ambient, (5,)) == [u]
    with pytest.raises(EngineError, match="T_2 from symbols disagrees with the coefficients of basis row 1"):
        hecke_matrices_from_symbols(ambient, (5, 2))


@pytest.mark.parametrize("p", [0, -2, True, 2.0])
def test_coefficient_operators_reject_a_bad_index(p):
    """U_0 divided by zero, U_-2 returned an empty expansion, V_0 and V_-2
    indexed out of range, and True acted as U_1 and V_1."""
    f = QExpansion((1, 2, 3, 4), 4, 1)
    with pytest.raises(ValueError, match="p must be an integer >= 1"):
        apply_Up(f, p)
    with pytest.raises(ValueError, match="p must be an integer >= 1"):
        apply_Vp(f, p)


@pytest.mark.parametrize("p", [1, True, 0, 5.0])
def test_up_matrix_rejects_a_bad_prime(p):
    """p = 1 (or True) divides every level, so it would return T_1 as U_1."""
    with pytest.raises(ValueError, match="p must be an integer >= 2"):
        up_matrix(qexpansion_basis(5, 12, 40), p)


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
        w_v = mat_vec(stack.atkin_lehner, v)
        for coords in (v, w_v):
            short = stack.ambient.linear_combination(coords)
            long = big.linear_combination(coords)
            assert coefficient_valuation(short, p) == coefficient_valuation(long, p)
    pivots = []
    for basis in (stack.ambient, big):
        ech = Echelonizer()
        for v in stack.s_basis:
            ech.add(list(basis.linear_combination(v).coeffs))
        pivots.append(ech.pivots())
    assert pivots[0] == pivots[1]


def test_atkin_lehner_rejects_mismatched_old_pairs():
    """Pairing g_1 with V_p g_2 and g_2 with V_p g_1 keeps the old span, so
    U_p still respects old/new and the assembled W_p is still an
    involution, but it no longer commutes with T_2."""
    split = build_operator_stack(1, 24, 5)
    (g1, vg1), (g2, vg2) = split.old_pairs
    crossed = dataclasses.replace(split, old_pairs=((g1, vg2), (g2, vg1)))
    with pytest.raises(AssemblyError, match="^Atkin-Lehner assembly failed: W_5 does not commute with T_2$"):
        atkin_lehner(crossed)


def test_atkin_lehner_solve_rejects_dependent_columns():
    """With the first new vector repeated in place of the others, the
    split's columns no longer span S_24(Gamma_0(5)), and the one solve for
    W_p refuses them."""
    split = build_operator_stack(1, 24, 5)
    repeated = (split.new_vectors[0],) * len(split.new_vectors)
    with pytest.raises(EngineError, match="^matrix is singular$"):
        atkin_lehner(dataclasses.replace(split, new_vectors=repeated))


def _patch_up(monkeypatch, wrong):
    """Make the split's joint transport hand back `wrong` as U_p, and the
    true T_ell beside it."""
    real = heckeops.hecke_matrices_from_symbols
    monkeypatch.setattr(heckeops, "hecke_matrices_from_symbols", lambda basis, ns: [wrong] + real(basis, ns)[1:])


def _up_changed_on(split, *changes):
    """U_p + sum of image_delta phi_c over (column c, image_delta), where
    phi_c is the row of C^-1 dual to c among the split's certified columns
    C: U_p changed on c alone, by image_delta."""
    columns = split.columns
    phi = mat_inverse([list(row) for row in zip(*columns)])
    u = [list(row) for row in split.up]
    for column, delta in changes:
        dual = phi[columns.index(column)]
        u = [[x + d * y for x, y in zip(u_row, dual)] for u_row, d in zip(u, delta)]
    return tuple(tuple(row) for row in u)


@pytest.mark.parametrize("perturb,message", [("new", "leaves the old span"), ("pair", "U_5 V_5 g != g")])
def test_split_certifies_up_on_the_old_pairs(monkeypatch, perturb, message):
    """At (1, 24, 5), with phi_1 and phi_2 the rows of C^-1 dual to g_1 and
    V_p g_1: U_p + n phi_1 sends g_1 to U_p g_1 + n for a new vector n, and
    U_p + g_1 phi_2 sends V_p g_1 to 2 g_1.  The split rejects both, with
    U_p handed to it by the joint transport."""
    split = build_operator_stack(1, 24, 5)
    (g1, vg1), _ = split.old_pairs
    change = (g1, split.new_vectors[0]) if perturb == "new" else (vg1, g1)
    _patch_up(monkeypatch, _up_changed_on(split, change))
    with pytest.raises(EngineError, match=message):
        old_new_split(1, 24, 5, split.ambient)


def test_split_certifies_the_oldforms_are_independent(monkeypatch):
    """A level-1 basis whose two rows are one form gives two equal old
    pairs; the split refuses them before it transports anything."""
    real = heckeops.qexpansion_basis

    def doubled(level, weight, precision):
        basis = real(level, weight, precision)
        return dataclasses.replace(basis, rows=basis.rows[:1] * 2, pivots=basis.pivots[:1] * 2)

    ambient = build_operator_stack(1, 24, 5).ambient
    monkeypatch.setattr(heckeops, "qexpansion_basis", doubled)
    with pytest.raises(EngineError, match="^oldform vectors are dependent$"):
        old_new_split(1, 24, 5, ambient)


def _eigen_kernels(split):
    """The eigenspaces U_p = r and U_p = -r, r = p^(k/2-1), each its own
    kernel_basis: ker(U_p - r) and ker(U_p + r)."""
    r, u = split.prime ** (split.weight // 2 - 1), split.up
    shifted = ([[x - sign * r * (i == j) for j, x in enumerate(row)] for i, row in enumerate(u)] for sign in (1, -1))
    return [kernel_basis(m, width=len(u)) for m in shifted]


def _with_eigenvector_new_basis(split):
    """The split with its new vectors replaced by U_p eigenvectors, the
    kernels of U_p - r and U_p + r, which span the same block."""
    return dataclasses.replace(split, new_vectors=tuple(tuple(v) for kernel in _eigen_kernels(split) for v in kernel))


def test_split_certifies_the_new_dimension(monkeypatch):
    """Moving the U_p eigenvalue of one eigenvector n in the new block from
    r to r + 1 keeps every old-pair certificate but drops n from
    ker(U_p^2 - r^2): 6 new vectors where 11 - 2*2 = 7 are due."""
    split = _with_eigenvector_new_basis(build_operator_stack(1, 24, 5))
    n = split.new_vectors[0]
    _patch_up(monkeypatch, _up_changed_on(split, (n, n)))
    with pytest.raises(EngineError, match=re.escape("new space dimension 6 != 11 - 2*2")):
        old_new_split(1, 24, 5, split.ambient)


def test_split_certifies_old_plus_new_is_direct(monkeypatch):
    """U_p changed to send g_1 to r g_1, r = 5^11, puts g_1 in
    ker(U_p^2 - r^2); moving one new eigenvector's eigenvalue off r as
    above keeps the kernel dimension at 7 and U_p V_p g_1 = g_1.  Every
    earlier certificate passes, and the old and new vectors fail to span
    S_24(Gamma_0(5))."""
    split = _with_eigenvector_new_basis(build_operator_stack(1, 24, 5))
    (g1, _), _ = split.old_pairs
    n = split.new_vectors[0]
    r = 5**11
    to_r = [r * x - y for x, y in zip(g1, mat_vec(split.up, g1))]
    _patch_up(monkeypatch, _up_changed_on(split, (g1, to_r), (n, n)))
    with pytest.raises(EngineError, match="^old \\+ new is not a direct sum$"):
        old_new_split(1, 24, 5, split.ambient)


@pytest.mark.parametrize("level,weight,p", [(1, 24, 5), (1, 12, 13)])
def test_stack_makes_one_transport_and_one_solve(monkeypatch, level, weight, p):
    """U_p and T_ell come from one transport, and W_p alone from one solve
    whose images are as wide as the ambient space."""
    calls = []
    for name in ("hecke_matrices_from_symbols", "solve_columns"):
        real = getattr(heckeops, name)
        monkeypatch.setattr(heckeops, name, lambda *a, _real=real, _name=name: calls.append((_name, a)) or _real(*a))
    stack = build_operator_stack.__wrapped__(level, weight, p)
    assert sorted(name for name, _ in calls) == ["hecke_matrices_from_symbols", "solve_columns"]
    (_, images), = [a for name, a in calls if name == "solve_columns"]
    assert {len(z) for z in images} == {stack.ambient.dimension}
    assert stack == build_operator_stack(level, weight, p)


# -- the stack against its dense formulas ----------------------------------------------

REFERENCE_STACKS = [(1, 12, 5), (2, 4, 7), (1, 24, 5), (3, 6, 5), (1, 12, 13)]


@pytest.mark.parametrize("level,weight,p", REFERENCE_STACKS)
def test_trace_is_one_plus_up_times_w(level, weight, p):
    """trace_matrix's 1 + p^(1-k/2) U_p W_p is exactly the Tr read off its
    own column images: g -> (p+1) g, V_p g -> V_p g + p^(1-k) U_p g, and
    v -> 0 on the new vectors."""
    stack = build_operator_stack(level, weight, p)
    images = []
    for cg, cvg in stack.old_pairs:
        ug = mat_vec(stack.up, cg)
        images += [[(p + 1) * x for x in cg], [x + Fraction(y, p ** (weight - 1)) for x, y in zip(cvg, ug)]]
    images += [[0] * len(v) for v in stack.new_vectors]
    want = solve_columns(stack.columns, images)
    assert [list(row) for row in trace_matrix(stack)] == want


@pytest.mark.parametrize("level,weight,p", REFERENCE_STACKS)
def test_new_vectors_span_the_up_squared_kernel(level, weight, p):
    """The new vectors, a basis of ker(U_p^2 - r^2), r = p^(k/2-1), span
    exactly ker(U_p - r) + ker(U_p + r), as x - r and x + r are coprime; and
    W_p solved with images -v and +v on the two eigenspaces is the stack's
    W_p, which takes -U_p / r on the whole block."""
    stack = build_operator_stack(level, weight, p)
    plus, minus = _eigen_kernels(stack)
    new = [list(v) for v in stack.new_vectors]
    assert len(new) == _rank(new) == _rank(plus + minus) == _rank(new + plus + minus) == len(plus) + len(minus)
    half = p ** (weight // 2)
    images = []
    for cg, cvg in stack.old_pairs:
        images += [[half * x for x in cvg], [Fraction(x, half) for x in cg]]
    images += [[-x for x in v] for v in plus] + minus
    columns = [c for pair in stack.old_pairs for c in pair] + plus + minus
    assert [list(row) for row in stack.atkin_lehner] == solve_columns(columns, images)


@pytest.mark.parametrize("build,warm,bad", [
    (build_presentation, (1, 12), [(True, 12), (1.0, 12), (1, 12.0)]),
    (qexpansion_basis, (1, 12, 20), [(True, 12, 20), (1.0, 12, 20), (1, 12.0, 20)]),
    (build_operator_stack, (1, 12, 5), [(True, 12, 5), (1.0, 12, 5), (1, 12.0, 5), (1, 12, 5.0)]),
])
def test_cached_builders_validate_bool_and_float_arguments(build, warm, bad):
    """A cached (1, 12, ...) does not answer for True or 1.0 in its place."""
    build(*warm)
    for args in bad:
        with pytest.raises(ValueError):
            build(*args)
