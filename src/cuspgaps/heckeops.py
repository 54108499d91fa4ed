"""The operator stack on q-expansions of S_k(Gamma_0(pN)).

V_p acts coefficientwise.  U_p and T_ell, for the least prime ell not
dividing pN, are computed once per stack, as matrices on the ambient
echelon basis, and they are read off the modular symbols: at level pN,
T_p is U_p, and one elimination over the series pass that built the basis
carries both to the echelon basis (hecke_matrices_from_symbols).  So the
ambient basis is needed only to the Sturm bound of S_k(pN), which by
Sturm's theorem also fixes every pivot and p-adic valuation the stack
reports.  The transport checks U_p against a_n(U_p f) = a_(pn)(f), and
T_ell against its coefficient rule, on the coefficients that are known.

The old/new split reads the p-new block off U_p as one kernel,
ker(U_p^2 - r^2), r = p^(k/2-1): on p-new forms U_p = -r w_p with
w_p = +-1, so U_p^2 = r^2 there; on an old pair {g, V_p g} the roots of U_p
have absolute value p^((k-1)/2) by Deligne's bound, so U_p^2 - r^2 is
invertible on the old span.  The split builds the level-N basis itself and
certifies, where each fact's data is made, that the oldform vectors are
independent, that U_p V_p g = g and U_p g stays in the old span on every
old pair, that the new block has dimension dim S_k(pN) - 2 dim S_k(N), and
that old + new is a direct sum.

W_p is read off its images on the old pairs (g, V_p g) and the new
vectors by one exact solve (linalg.solve_columns): it swaps g and V_p g
(with factors p^(k/2) and p^(-k/2)), and on the new block it is
W_p = -U_p / r, the Atkin-Lehner relation itself.  A q-expansion at
infinity does not determine the slash action of the defining matrix
directly, so this assembly is the computational route; it checks that W_p
commutes with the split's T_ell, and failure aborts.  S is the kernel of
f -> f|W_p + p^(1-k/2) f|U_p.  The trace map to level N,
Tr = 1 + p^(1-k/2) U_p W_p, is not part of the stack: trace_matrix forms
that product on demand.

The stack is one record: OperatorStack is the OldNewSplit (the two bases,
the old pairs, the new vectors, U_p and T_ell) with W_p and the kernel
basis of S added.  The operators are plain exact matrices: tuples of
Fraction rows on ambient coordinate columns, applied and multiplied by
linalg.mat_vec and mat_mul.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count

from .arith import is_prime
from .errors import AssemblyError, EngineError
from .invariants import check_index, check_triple, sturm_bound
from .linalg import (
    Echelonizer,
    clear_denominators,
    kernel_basis,
    make_primitive,
    mat_inverse,  # noqa: F401  unused here; bench/layers.py patches heckeops.mat_inverse by name
    mat_mul,
    mat_vec,
    solve_columns,
)
from .msengine import SpaceBasis, coefficient_image, hecke_matrices_from_symbols, qexpansion_basis
from .qexp import QExpansion

INFINITE_VALUATION = math.inf


# -- coefficient operators ---------------------------------------------------

def apply_Up(f: QExpansion, p: int) -> QExpansion:
    """U_p: a_n -> a_(pn); output precision floor(B/p), output level
    lcm(N, p), as U_p f lies on Gamma_0(pN) when p does not divide N.
    p must be an int >= 1."""
    check_index("p", p, 1)
    if f.precision < p:
        raise ValueError(f"U_{p} needs precision >= {p}, got {f.precision}")
    out = tuple(f.coefficient(p * n) for n in range(1, f.precision // p + 1))
    return QExpansion(out, f.weight, math.lcm(f.level, p))


def apply_Vp(f: QExpansion, p: int) -> QExpansion:
    """V_p: q -> q^p; output precision p*B.  p must be an int >= 1."""
    check_index("p", p, 1)
    out = [0] * (p * f.precision)
    for n in range(1, f.precision + 1):
        out[p * n - 1] = f.coefficient(n)
    return QExpansion(tuple(out), f.weight, f.level * p)


def coefficient_valuation(f: QExpansion, p: int):
    """v_p(f) = min over known coefficients of v_p(a_n); +inf for the zero
    truncation.  Computed over the finitely many known coefficients, which
    determines the true infimum once the precision reaches the Sturm bound
    of an ambient space containing f.  With a_n = s_n / D over the common
    denominator D, the minimum is v_p(gcd of the s_n) - v_p(D).  p must be
    an int >= 2."""
    check_index("p", p, 2)
    (numerators,), den = clear_denominators([f.coeffs])
    content = math.gcd(*numerators)
    return INFINITE_VALUATION if content == 0 else _int_valuation(content, p) - _int_valuation(den, p)


def _int_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def normalize_p(f: QExpansion) -> QExpansion:
    """Rescale f to primitive integer coefficients (so v_p(f) = 0 for every p)."""
    if f.is_zero():
        raise ValueError("cannot normalize the zero expansion")
    ints = make_primitive(list(f.coeffs))
    return QExpansion(tuple(ints), f.weight, f.level)


# -- operators in basis coordinates -------------------------------------------

def up_matrix(ambient: SpaceBasis, p: int) -> tuple:
    """U_p on the ambient basis of S_k(pN), where p divides the level: at
    such a level T_p is U_p on modular symbols, so the transport reads it
    off the symbols and checks it against a_n(U_p f) = a_(pn)(f).  The
    stack transports U_p together with T_ell in old_new_split."""
    check_index("p", p, 2)
    if ambient.level % p != 0:
        raise ValueError(f"U_{p} needs {p} to divide the level {ambient.level}")
    return hecke_matrices_from_symbols(ambient, (p,))[0]


def hecke_matrix_on_basis(basis: SpaceBasis, ell: int) -> tuple:
    """T_ell on basis coordinates via the coefficient rule
    (msengine.coefficient_image); the reference for the symbol side."""
    check_index("Hecke index", ell, 1)
    max_pivot = basis.pivots[-1] if basis.pivots else 0
    if basis.precision // ell < max_pivot:
        raise ValueError(f"T_{ell} needs precision >= {ell * max_pivot}")
    cols = [
        basis.coordinates(QExpansion(tuple(coefficient_image(row, ell)), basis.weight, basis.level))
        for row in basis.rows
    ]
    return tuple(zip(*cols))


# -- old/new decomposition ----------------------------------------------------

@dataclass(frozen=True)
class OldNewSplit:
    """Coordinates (in the ambient echelon basis of S_k(pN)) of the oldform
    span {g_i, V_p g_i} and of the p-new complement, with U_p and T_ell,
    ell the least prime not dividing pN, on the ambient basis."""

    level: int  # lower level N
    weight: int
    prime: int
    ambient: SpaceBasis
    lower: SpaceBasis
    old_pairs: tuple  # ((coords g_i, coords V_p g_i), ...)
    new_vectors: tuple  # a basis of ker(U_p^2 - r^2), where W_p = -U_p / r
    up: tuple
    ell: int
    hecke_ell: tuple  # T_ell

    @property
    def columns(self) -> list:
        """The certified ambient basis g_1, V_p g_1, ..., then the new vectors."""
        return [c for pair in self.old_pairs for c in pair] + list(self.new_vectors)


def old_new_split(level: int, weight: int, p: int, ambient: SpaceBasis) -> OldNewSplit:
    """Split S_k(pN) into the old span {g, V_p g} and the p-new block
    ker(U_p^2 - r^2), r = p^(k/2-1), on which W_p = -U_p / r.

    On p-new forms U_p = -r w_p with w_p = +-1, so U_p^2 = r^2 there, and on
    each old pair the roots of U_p have absolute value p^((k-1)/2)
    (Deligne), so U_p^2 - r^2 is invertible on the old span.  U_p and T_ell
    come from one transport.  The certificates are checked here and raise
    EngineError: the oldform vectors are independent; on every old pair
    U_p V_p g = g exactly and U_p g lies in the old span, which checks the
    transported U_p on the old block; the kernel has dimension
    dim S_k(pN) - 2 dim S_k(N); and old + new is a direct sum, so the old
    and new vectors span the ambient space.  The level-N basis is built
    here, at the ambient basis's precision.
    """
    check_triple(level, weight, p)
    big = ambient
    if big.level != p * level or big.weight != weight:
        raise ValueError("ambient basis does not match (p*N, k)")
    lower = qexpansion_basis(level, weight, big.precision)
    dim_pn = big.dimension

    old_pairs = []
    whole = Echelonizer()
    for g in lower.rows:
        cg = big.coordinates(g)
        cvg = big.coordinates(apply_Vp(g, p))
        old_pairs.append((tuple(cg), tuple(cvg)))
        if whole.add(list(cg)) is None or whole.add(list(cvg)) is None:
            raise EngineError("oldform vectors are dependent")

    ell = next(q for q in count(2) if is_prime(q) and big.level % q != 0)
    u, t = hecke_matrices_from_symbols(big, (p, ell))
    for i, (cg, cvg) in enumerate(old_pairs, 1):
        if mat_vec(u, cvg) != list(cg):
            raise EngineError(f"U_{p} V_{p} g != g on old pair {i}")
        if not whole.contains(mat_vec(u, cg)):
            raise EngineError(f"U_{p} g leaves the old span on old pair {i}")
    r2 = p ** (weight - 2)  # r^2, r = p^(k/2-1)
    shifted = [[x - r2 * (i == j) for j, x in enumerate(row)] for i, row in enumerate(mat_mul(u, u))]
    new_vectors = [tuple(v) for v in kernel_basis(shifted, width=dim_pn)]
    if len(new_vectors) != dim_pn - 2 * lower.dimension:
        raise EngineError(f"new space dimension {len(new_vectors)} != {dim_pn} - 2*{lower.dimension}")
    for v in new_vectors:
        if whole.add(list(v)) is None:
            raise EngineError("old + new is not a direct sum")
    return OldNewSplit(level, weight, p, big, lower, tuple(old_pairs), tuple(new_vectors), u, ell, t)


# -- Atkin-Lehner, trace, and the subspace S ----------------------------------

def atkin_lehner(split: OldNewSplit) -> tuple:
    """W_p on ambient coordinates, read off one solve over split.columns:
    W_p sends g to p^(k/2) V_p g, V_p g to p^(-k/2) g, and a new vector v
    to -U_p v / p^(k/2-1), all new images from one product with U_p.

    Aborts with AssemblyError("Atkin-Lehner assembly failed") if W_p does
    not commute with the split's T_ell, which would signal a wrong split.
    W_p^2 = 1 is not checked: it holds by construction of the images.
    """
    k, p = split.weight, split.prime
    half, r = p ** (k // 2), p ** (k // 2 - 1)
    images = []
    for cg, cvg in split.old_pairs:
        images += [[half * x for x in cvg], [Fraction(x, half) for x in cg]]
    images += [[-x / r for x in col] for col in zip(*mat_mul(split.up, list(zip(*split.new_vectors))))]
    w = tuple(tuple(row) for row in solve_columns(split.columns, images))
    if mat_mul(w, split.hecke_ell) != mat_mul(split.hecke_ell, w):
        raise AssemblyError(f"Atkin-Lehner assembly failed: W_{p} does not commute with T_{split.ell}")
    return w


def trace_matrix(stack: OperatorStack) -> tuple:
    """Tr = 1 + p^(1-k/2) U_p W_p on ambient coordinates, the trace to level N."""
    p, k = stack.prime, stack.weight
    scale = Fraction(p, p ** (k // 2))
    uw = mat_mul(stack.up, stack.atkin_lehner)
    return tuple(tuple(scale * x + (i == j) for j, x in enumerate(row)) for i, row in enumerate(uw))


def subspace_s_basis(split: OldNewSplit, w) -> tuple:
    """Exact kernel basis of f -> f|W_p + p^(1-k/2) f|U_p in ambient
    coordinates; its dimension must be dim S_k(pN) - dim S_k(N)."""
    k, p = split.weight, split.prime
    scale = Fraction(p, p ** (k // 2))
    mat = [[x + scale * y for x, y in zip(wr, ur)] for wr, ur in zip(w, split.up)]
    kernel = kernel_basis(mat, width=split.ambient.dimension)
    expected = split.ambient.dimension - split.lower.dimension
    if len(kernel) != expected:
        raise EngineError(f"dim S = {len(kernel)} != {expected}")
    return tuple(tuple(v) for v in kernel)


# -- the assembled stack -------------------------------------------------------

@dataclass(frozen=True)
class OperatorStack(OldNewSplit):
    """The split with W_p and the kernel basis of S, each a tuple of
    Fraction rows on ambient coordinates."""

    atkin_lehner: tuple
    s_basis: tuple

    def trace_expansion(self, f: QExpansion) -> QExpansion:
        """Tr(f) as a q-expansion, certified to lie in the level-N span."""
        coords = self.ambient.coordinates(f)
        image = self.ambient.linear_combination(mat_vec(trace_matrix(self), coords))
        self.lower.coordinates(image)
        return QExpansion(image.coeffs, self.weight, self.level)


def required_ambient_precision(level: int, weight: int, p: int) -> int:
    """The Sturm bound of S_k(pN).  U_p comes from the symbols, so no
    coefficient beyond the basis is read, and by Sturm's theorem the first
    sturm_bound(pN, k) coefficients fix the pivots and every p-adic
    valuation the stack reports."""
    return sturm_bound(p * level, weight)


@lru_cache(maxsize=16, typed=True)
def build_operator_stack(level: int, weight: int, p: int) -> OperatorStack:
    """Compute bases, the old/new split, U_p, W_p and S for (N, k, p).
    Each certificate runs once, in the stage that makes its data."""
    check_triple(level, weight, p)
    ambient = qexpansion_basis(p * level, weight, required_ambient_precision(level, weight, p))
    split = old_new_split(level, weight, p, ambient)
    w = atkin_lehner(split)
    return OperatorStack(**vars(split), atkin_lehner=w, s_basis=subspace_s_basis(split, w))
