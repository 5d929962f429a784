"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's fast paths: sequences are iterated
term by term, matrix powers are repeated products, and reference reals come
from the decimal module at high precision.
"""

from decimal import Decimal, localcontext
from fractions import Fraction


def naive_sequence(a0, a1, p, q, n):
    """[a_0 .. a_n] by direct iteration of a_k = p*a_{k-1} - q*a_{k-2}."""
    seq = [a0, a1]
    for _ in range(max(0, n - 1)):
        seq.append(p * seq[-1] - q * seq[-2])
    return seq[: n + 1]


def naive_ut(p, q, n):
    """(U_0..U_n, T_0..T_n) by direct iteration."""
    return naive_sequence(0, 1, p, q, n), naive_sequence(1, 0, p, q, n)


def pair_doubling(p, q, n):
    """(U_n, U_{n+1}) for n >= 0 by the doubling rule U_{2k} = U_k(2U_{k+1} - pU_k),
    U_{2k+1} = U_{k+1}^2 - qU_k^2, walking the bits of n below the leading one
    from (U_1, U_2) = (1, p).  This was the library's engine for single
    evaluations; it is kept as an oracle that, unlike naive_ut, reaches large n.
    """
    if n == 0:
        return 0, 1
    u, v = 1, p
    for bit in bin(n)[3:]:
        u, v = u * (2 * v - p * u), v * v - q * u * u
        if bit == "1":
            u, v = v, p * v - q * u
    return u, v


def naive_fib(n):
    return naive_sequence(0, 1, 1, -1, max(n, 1))[n]


def mat_mul(m1, m2):
    a11, a12, a21, a22 = m1
    b11, b12, b21, b22 = m2
    return (
        a11 * b11 + a12 * b21,
        a11 * b12 + a12 * b22,
        a21 * b11 + a22 * b21,
        a21 * b12 + a22 * b22,
    )


def companion_tuple(p, q):
    return (0, 1, -q, p)


def frac_to_decimal(value, prec=60):
    f = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = prec
        return Decimal(f.numerator) / Decimal(f.denominator)


def sqrt_decimal(x, prec=60):
    with localcontext() as ctx:
        ctx.prec = prec
        return Decimal(x).sqrt()


def larger_root(p, q, prec=60):
    """Larger-modulus root of t^2 - p*t + q; needs p != 0 and p^2 - 4q > 0."""
    assert p != 0 and p * p - 4 * q > 0
    with localcontext() as ctx:
        ctx.prec = prec
        disc = Decimal(p * p - 4 * q).sqrt()
        return (Decimal(p) + disc) / 2 if p > 0 else (Decimal(p) - disc) / 2


def poly_mul(a, b):
    """Product of two coefficient lists (lowest degree first)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def poly_derivative(a):
    return [i * c for i, c in enumerate(a)][1:] or [0]


def inverse_derivative_polys(p, q, d):
    """P_0..P_d with (1/f)^(k) = P_k / f^{k+1} for f = t^2 - p*t + q.

    Differentiating P_{k-1}/f^k gives the integer-coefficient recurrence
    P_k = P'_{k-1}*f - k*P_{k-1}*f'.  The order-d Householder step is
    y + d*P_{d-1}(y)*f(y)/P_d(y), the derivative form that the library's
    power map is checked against.
    """
    f = [q, -p, 1]
    fp = [-p, 2]
    polys = [[1]]
    for k in range(1, d + 1):
        prev = polys[-1]
        term1 = poly_mul(poly_derivative(prev), f)
        term2 = poly_mul(prev, fp)
        width = max(len(term1), len(term2))
        term1 += [0] * (width - len(term1))
        term2 += [0] * (width - len(term2))
        polys.append([t1 - k * t2 for t1, t2 in zip(term1, term2)])
    return polys
