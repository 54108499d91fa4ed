"""Matrix actions on modular symbol paths via unimodular decomposition.

A Manin symbol [X^i Y^(k-2-i), (c:d)] stands for the modular symbol
(P|g^-1){g0, g_inf} where g in SL_2(Z) has bottom row (c, d) and
(P|m)(X, Y) := P(aX + bY, cX + dY) for m = (a, b; c, d).  A matrix delta of
positive determinant acts on the left by

    delta . (Q{alpha, beta}) = (Q|adj(delta)) {delta alpha, delta beta},

and the resulting path is re-expressed in Manin symbols through the
continued-fraction (Manin trick) decomposition of each endpoint.  All
polynomial transport happens by composing 2x2 integer matrices first, so
every expansion is a single monomial substitution with integer output.

That substitution, (aX + bY)^i (cX + dY)^(deg-i), is one big-integer
product (Kronecker substitution): at X = 2^s, Y = 1 it is sum_j e_j 2^(sj)
over its coefficients e_j, and |e_j| <= M = (|a|+|b|)^i (|c|+|d|)^(deg-i).
With 2^(s-1) > M, adding 2^(s-1) to every digit puts each in [0, 2^s), so
the e_j are read off as plain s-bit pieces, without carries.
"""

from __future__ import annotations

import math

Mat2 = tuple[tuple[int, int], tuple[int, int]]


def mat_mul2(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_adjugate(m: Mat2) -> Mat2:
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


def mat_det(m: Mat2) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def expand_monomial(i: int, deg: int, m: Mat2) -> list[int]:
    """Coefficients (by X-degree 0..deg) of (aX+bY)^i (cX+dY)^(deg-i),
    i.e. of X^i Y^(deg-i) | m, as the s-bit digits of its value at
    X = 2^s, Y = 1 (see the module docstring)."""
    (a, b), (c, d) = m
    s = ((abs(a) + abs(b)) ** i * (abs(c) + abs(d)) ** (deg - i)).bit_length() + 1
    mask, half = (1 << s) - 1, 1 << (s - 1)
    v = ((a << s) + b) ** i * ((c << s) + d) ** (deg - i)
    v += half * ((1 << s * (deg + 1)) - 1) // mask  # 2^(s-1) on every digit
    out = []
    for _ in range(deg + 1):
        out.append((v & mask) - half)
        v >>= s
    return out


def unimodular_path_matrices(num: int, den: int) -> list[Mat2]:
    """SL_2(Z) matrices M_0..M_r with {inf, num/den} = sum_j M_j {0, inf},
    from the continued-fraction convergents of num/den (den > 0)."""
    mats: list[Mat2] = []
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


def act_path(
    poly_transport: Mat2,
    monomial_degree: int,
    weight_degree: int,
    endpoint_from: tuple[int, int],
    endpoint_to: tuple[int, int],
) -> list[tuple[tuple[int, int], int, list[int]]]:
    """Expand (P|poly_transport){from, to} over Manin symbols.

    Endpoints are projective integer pairs (num, den), den = 0 meaning the
    cusp at infinity.  Returns one triple (bottom row, sign, coefficients)
    per unimodular piece M of the path: the piece contributes
    sign * coefficients[x] to the symbol [X^x Y^(deg-x), bottom row of M]
    for x = 0..deg; callers reduce the bottom row into P^1(Z/NZ) once.
    """
    pieces: list[tuple[tuple[int, int], int, list[int]]] = []
    for (num, den), outer_sign in ((endpoint_to, 1), (endpoint_from, -1)):
        if den == 0:
            continue  # {inf, inf} contributes nothing
        if den < 0:
            num, den = -num, -den
        g = math.gcd(abs(num), den)
        if g > 1:
            num, den = num // g, den // g
        for m in unimodular_path_matrices(num, den):
            coeffs = expand_monomial(monomial_degree, weight_degree, mat_mul2(poly_transport, m))
            pieces.append(((m[1][0], m[1][1]), outer_sign, coeffs))
    return pieces
