"""Matrix actions on modular symbol paths via unimodular decomposition.

A Manin symbol [X^i Y^(k-2-i), (c:d)] stands for the modular symbol
(P|g^-1){g0, g_inf} where g in SL_2(Z) has bottom row (c, d) and
(P|m)(X, Y) := P(aX + bY, cX + dY) for m = (a, b; c, d).  A matrix delta of
positive determinant acts on the left by

    delta . (Q{alpha, beta}) = (Q|adj(delta)) {delta alpha, delta beta},

and the resulting path is re-expressed in Manin symbols through the
continued-fraction (Manin trick) decomposition of each endpoint.  All
polynomial transport happens by composing 2x2 integer matrices first, so
each unimodular piece of a path is one piece (scale, i, m): the polynomial
scale * X^i Y^(deg-i) | m at the P^1 class of the piece's bottom row.

Pieces are summed packed (Kronecker substitution): at X = 2^s, Y = 1,
scale * (aX + bY)^i (cX + dY)^(deg-i) is the big integer
scale * (a 2^s + b)^i (c 2^s + d)^(deg-i) = sum_x scale e_x 2^(sx) over its
coefficients e_x, so the pieces of one class add as integers and their
summed coefficients are the s-bit digits of the total, read once.  The
width s must hold every summed digit.  Each |e_x| is at most
(|a|+|b|)^i (|c|+|d|)^(deg-i) <= 2^E, where E is the largest
i bitlen(|a|+|b|) + (deg-i) bitlen(|c|+|d|) over the pieces (as
n < 2^bitlen(n)).  So every summed digit has absolute value at most
2^E sum |scale| < 2^(E + bitlen(sum |scale|)), and
s = E + bitlen(sum |scale|) + 1 (digit_width) keeps it in
(-2^(s-1), 2^(s-1)): adding 2^(s-1) to every digit puts each in
[0, 2^s), and unpack reads them off as plain s-bit pieces, without
carries.  One width serves every class of a sum.
"""

from __future__ import annotations

Mat2 = tuple[tuple[int, int], tuple[int, int]]
Piece = tuple[int, int, Mat2]  # (scale, i, m): scale * X^i Y^(deg-i) | m


def mat_mul2(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_adjugate(m: Mat2) -> Mat2:
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


def mat_det(m: Mat2) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def digit_width(pieces: list[Piece], deg: int) -> int:
    """The width s = E + bitlen(sum |scale|) + 1 that holds every digit of
    the pieces' sum (see the module docstring)."""
    e = max((i * (abs(a) + abs(b)).bit_length() + (deg - i) * (abs(c) + abs(d)).bit_length()
             for _, i, ((a, b), (c, d)) in pieces), default=0)
    return e + sum(abs(scale) for scale, _, _ in pieces).bit_length() + 1


def pack(pieces: list[Piece], deg: int, s: int) -> int:
    """The pieces' sum at X = 2^s, Y = 1."""
    return sum(scale * ((a << s) + b) ** i * ((c << s) + d) ** (deg - i)
               for scale, i, ((a, b), (c, d)) in pieces)


def unpack(v: int, deg: int, s: int) -> list[int]:
    """The deg + 1 signed s-bit digits of v, lowest first (by X-degree
    0..deg for a packed polynomial); each must lie in (-2^(s-1), 2^(s-1))."""
    mask, half = (1 << s) - 1, 1 << (s - 1)
    v += half * ((1 << s * (deg + 1)) - 1) // mask  # 2^(s-1) on every digit
    out = []
    for _ in range(deg + 1):
        out.append((v & mask) - half)
        v >>= s
    return out


def expand_monomial(i: int, deg: int, m: Mat2) -> list[int]:
    """Coefficients (by X-degree 0..deg) of (aX+bY)^i (cX+dY)^(deg-i),
    i.e. of X^i Y^(deg-i) | m: the one piece (1, i, m), packed and read."""
    piece = [(1, i, m)]
    s = digit_width(piece, deg)
    return unpack(pack(piece, deg, s), deg, s)


def act_path(
    poly_transport: Mat2,
    endpoint_from: tuple[int, int],
    endpoint_to: tuple[int, int],
) -> list[tuple[tuple[int, int], int, Mat2]]:
    """The unimodular pieces of (P|poly_transport){from, to}.

    Endpoints are projective integer pairs (num, den), den = 0 meaning the
    cusp at infinity.  {inf, num/den} = sum_j M_j {0, inf} over the SL_2(Z)
    matrices M_j = (p_j, e p_(j-1); q_j, e q_(j-1)), e = (-1)^(j-1), from
    the continued-fraction convergents p_j/q_j of num/den
    (p_(-1)/q_(-1) = 1/0, p_(-2)/q_(-2) = 0/1).  Returns one triple
    (bottom row, sign, transport) per piece: the piece contributes
    sign * (P|transport) at the bottom row of M_j, with transport =
    poly_transport M_j, whose columns are the images of the convergent
    vectors (p_j, q_j) and so follow their recurrence; callers reduce the
    bottom row into P^1(Z/NZ) once.  num/den need not be in lowest terms,
    as a common factor leaves the partial quotients unchanged.
    """
    (t00, t01), (t10, t11) = poly_transport
    pieces: list[tuple[tuple[int, int], int, Mat2]] = []
    for (num, den), outer_sign in ((endpoint_to, 1), (endpoint_from, -1)):
        if den == 0:
            continue  # {inf, inf} contributes nothing
        if den < 0:
            num, den = -num, -den
        # q_(j-2), q_(j-1), and the images of (p, q) at j-2 and j-1
        q2, q1 = 1, 0
        u2, v2, u1, v1 = t01, t11, t00, t10
        e = -1
        x, y = num, den
        while y:
            a, r = divmod(x, y)
            x, y = y, r
            q2, q1 = q1, a * q1 + q2
            u2, v2, u1, v1 = u1, v1, a * u1 + u2, a * v1 + v2
            pieces.append(((q1, e * q2), outer_sign, ((u1, e * u2), (v1, e * v2))))
            e = -e
    return pieces
