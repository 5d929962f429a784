"""Ratio sequences x_n = U_n / U_{n-1} and closed-form subsequence accelerations.

When the characteristic roots are real with distinct moduli, x_n converges to
the larger root, so pulling out a subsequence x_{g_n} along a fast-growing
index sequence g is a convergence acceleration.  The formulas here generate
x_{g_n} (and the underlying U, T values) recursively for any order-2 index
recurrence g_n = s*g_{n-1} - t*g_{n-2}, by splitting the companion power

    M^{g_n} = M^{s*g_{n-1}} * M^{-t*g_{n-2}}

into bilinear combinations of decimated basis sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .core import (
    LinRecSequence,
    RecurrenceParams,
    _basis_ut_raw,
    _check_index,
    _coprime_fraction,
    _pair,
    _reduced,
    basis_ut,
    companion_power,
    fibonacci,
)
from .errors import DegenerateRatio, InverseUnavailable


def ratio_x(
    params: RecurrenceParams, n: int, max_index: int | None = None
) -> Fraction:
    """The exact ratio U_n / U_{n-1}, reduced to lowest terms.

    Undefined (DegenerateRatio) when U_{n-1} = 0, which happens for
    degenerate coefficient choices such as p = 0.
    """
    u_prev, u_n = _ratio_pair(params, n, max_index)
    return _reduced(params.p, params.q)(u_n, u_prev)


def _ratio_pair(params: RecurrenceParams, n: int, max_index: int | None) -> tuple[int, int]:
    """(U_{n-1}, U_n), refusing n < 2 and a vanishing U_{n-1}."""
    if n < 2:
        raise ValueError(f"ratio index must be >= 2, got {n}")
    _check_index(n - 1, max_index)
    u_prev, u_n = _pair(params.p, params.q, n - 1)
    if u_prev == 0:
        raise DegenerateRatio(f"U_{n - 1} = 0, ratio x_{n} undefined")
    return u_prev, u_n


def general_ratio_y(
    seq: LinRecSequence, n: int, max_index: int | None = None
) -> Fraction:
    """Consecutive-term ratio a_n / a_{n-1} of an arbitrary sequence.

    Equal to the closed form (a1*x_n - a0*q) / (a0*x_n + a1 - a0*p) in the
    ratio x_n of the U basis; it is built as one Fraction from the terms
    a_n = a1*U_n - a0*q*U_{n-1} and a_{n-1} = a0*U_n + (a1 - a0*p)*U_{n-1}.
    """
    p, q = seq.params.p, seq.params.q
    a0, a1 = seq.a0, seq.a1
    u_prev, u_n = _ratio_pair(seq.params, n, max_index)
    a_n = a1 * u_n - a0 * q * u_prev
    a_prev = a0 * u_n + (a1 - a0 * p) * u_prev
    if a_prev == 0:
        raise DegenerateRatio(f"a_{n - 1} = 0, ratio a_{n}/a_{n - 1} undefined")
    # (a_n, a_{n-1}) is (U_n, U_{n-1}) times an integer matrix of determinant
    # det; when those U terms are coprime, every common factor of the pair
    # divides det, so gcds against the small det find it in linear time
    # (det = 0 degrades to the full gcd).
    if gcd(p, q) == 1:
        det = a1 * a1 - p * a0 * a1 + q * a0 * a0
        g = gcd(gcd(a_n, det), a_prev)
        return _coprime_fraction(a_n // g, a_prev // g)
    return Fraction(a_n, a_prev)


def shift_ratio(
    params: RecurrenceParams, x_n: Fraction, x_m1: Fraction
) -> Fraction:
    """x_{n+m} from x_n and x_{m+1}: (x_{m+1}*x_n - q) / (x_n + x_{m+1} - p)."""
    denom = x_n + x_m1 - params.p
    if denom == 0:
        raise DegenerateRatio("shift denominator x_n + x_{m+1} - p vanished")
    return (x_m1 * x_n - params.q) / denom


def double_ratio(params: RecurrenceParams, x_n: Fraction) -> Fraction:
    """x_{2n} from x_n: (2q*x_n - p*x_n^2) / (q - x_n^2)."""
    denom = params.q - x_n * x_n
    if denom == 0:
        raise DegenerateRatio("doubling denominator q - x_n^2 vanished")
    return (2 * params.q * x_n - params.p * x_n * x_n) / denom


def fibonacci_index_accel(
    params: RecurrenceParams, x_a: Fraction, x_b: Fraction
) -> Fraction:
    """Next ratio along Fibonacci-spaced indices.

    Given x_a = x_{F_{n-1}} and x_b = x_{F_{n-2}}, returns
    x_{F_n} = (q*x_a + q*x_b - p*x_a*x_b) / (q - x_a*x_b).
    """
    q, p = params.q, params.p
    denom = q - x_a * x_b
    if denom == 0:
        raise DegenerateRatio("Fibonacci-step denominator q - x_a*x_b vanished")
    return (q * x_a + q * x_b - p * x_a * x_b) / denom


@dataclass(frozen=True)
class IndexSequenceParams:
    """Order-2 index recurrence g = W(i, j, s, t): g_n = s*g_{n-1} - t*g_{n-2}.

    Every index this generates must be >= 2, since x_1 = U_1/U_0 divides by
    zero; violations are rejected when the indices are produced.
    """

    i: int
    j: int
    s: int
    t: int


class AccelerationEntry(NamedTuple):
    index: int
    u: Fraction
    t: Fraction
    x: Fraction


def _seed_entry(
    params: RecurrenceParams, idx: int, max_index: int | None
) -> AccelerationEntry:
    if idx < 2:
        raise ValueError(f"acceleration index {idx} is < 2")
    u, t = basis_ut(params, idx, max_index)
    return AccelerationEntry(idx, Fraction(u), Fraction(t), ratio_x(params, idx, max_index))


def accelerate_general(
    params: RecurrenceParams,
    g: IndexSequenceParams,
    count: int,
    max_index: int | None = None,
) -> list[AccelerationEntry]:
    """Ratios (and U, T values) along the index subsequence g.

    Entries 0 and 1 are evaluated directly at g_0 = i and g_1 = j.  For
    n >= 2, with M^s = [[a1, a2], [a3, a4]] and M^{-t} = [[b1, b2], [b3, b4]],
    the split M^{g_n} = M^{s*g_{n-1}} * M^{-t*g_{n-2}} yields

        U_{g_n} = a2*U'T'' + b2*T'U'' + (a1*b2 + a2*b4)*U'U''
        T_{g_n} = T'T'' + a1*U'T'' + b1*T'U'' + (a1*b1 + a2*b3)*U'U''

    where U', T' are the s-decimated basis values at g_{n-1} and U'', T''
    the (-t)-decimated ones at g_{n-2}.  The ratio x_{g_n} is assembled from
    the scaled variables x' = -q*U'/T', x'' = -q*U''/T'' as

        x_{g_n} = (q^2*a2*x' + q^2*b2*x'' - q*(a1*b2 + a2*b4)*x'*x'')
                  / (q^2 - q*a1*x' - q*b1*x'' + (a1*b1 + a2*b3)*x'*x'')
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    q = params.q
    if q == 0:
        raise InverseUnavailable("acceleration needs q != 0")
    if g.i < 2 or g.j < 2:
        raise ValueError(f"initial indices must be >= 2, got ({g.i}, {g.j})")

    entries = [_seed_entry(params, g.i, max_index)]
    if count >= 2:
        entries.append(_seed_entry(params, g.j, max_index))
    if count <= 2:
        return entries[:count]

    ms = companion_power(params, g.s, max_index)
    mt = companion_power(params, -g.t, max_index)
    a1, a2, a3, a4 = ms.e11, ms.e12, ms.e21, ms.e22
    b1, b2, b3, b4 = mt.e11, mt.e12, mt.e21, mt.e22
    # Decimated coefficients: trace and determinant of M^s resp. M^{-t}.
    ps, qs = a1 + a4, Fraction(q) ** g.s
    pt, qt = b1 + b4, Fraction(q) ** (-g.t)

    for n in range(2, count):
        idx = g.s * entries[n - 1].index - g.t * entries[n - 2].index
        if idx < 2:
            raise ValueError(f"generated index g_{n} = {idx} is < 2")
        _check_index(idx, max_index)

        u1, t1 = _basis_ut_raw(ps, qs, entries[n - 1].index)
        u2, t2 = _basis_ut_raw(pt, qt, entries[n - 2].index)
        if t1 == 0 or t2 == 0:
            raise DegenerateRatio(f"scaled ratio undefined while producing g_{n} = {idx}")
        u_idx = a2 * u1 * t2 + b2 * t1 * u2 + (a1 * b2 + a2 * b4) * u1 * u2
        t_idx = t1 * t2 + a1 * u1 * t2 + b1 * t1 * u2 + (a1 * b1 + a2 * b3) * u1 * u2

        xs = Fraction(-q) * u1 / t1
        xt = Fraction(-q) * u2 / t2
        num = q * q * a2 * xs + q * q * b2 * xt - q * (a1 * b2 + a2 * b4) * xs * xt
        den = q * q - q * a1 * xs - q * b1 * xt + (a1 * b1 + a2 * b3) * xs * xt
        if den == 0:
            raise DegenerateRatio(f"acceleration denominator vanished at g_{n} = {idx}")
        entries.append(AccelerationEntry(idx, Fraction(u_idx), Fraction(t_idx), num / den))
    return entries


def arithmetic_index_accel(
    params: RecurrenceParams,
    h: int,
    k: int,
    count: int,
    max_index: int | None = None,
) -> list[AccelerationEntry]:
    """Ratios along the arithmetic index progression g_n = k*n + h.

    Generated by the recurrence g = W(h, h+k, 2, 1), tracking (U, T) through
    the q^{-g_{n-2}}-scaled split M^{g_n} = M^{2*g_{n-1}} * M^{-g_{n-2}}:

        U_{g_n} = (q*U1^2*U2 + 2*T1*U1*T2 + p*U1^2*T2 - U2*T1^2) / q^{g_{n-2}}
        T_{g_n} = (T1^2*T2 + p*T1^2*U2 - q*T2*U1^2 + 2q*T1*U1*U2) / q^{g_{n-2}}

    with (U1, T1) at g_{n-1} and (U2, T2) at g_{n-2}, and the ratio follows

        x_{g_n} = (x1^2*x2 + 2q*x1 - p*x1^2 - q*x2)
                  / (q - p*x2 - x1^2 + 2*x1*x2).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    p, q = params.p, params.q
    if q == 0:
        raise InverseUnavailable("arithmetic-index acceleration needs q != 0")
    if h < 2:
        raise ValueError(f"start index h must be >= 2, got {h}")

    entries = []
    for n in range(count):
        idx = k * n + h
        if n < 2:
            entries.append(_seed_entry(params, idx, max_index))
            continue
        if idx < 2:
            raise ValueError(f"generated index g_{n} = {idx} is < 2")
        _check_index(idx, max_index)
        prev, prev2 = entries[n - 1], entries[n - 2]
        u1, t1, u2, t2 = prev.u, prev.t, prev2.u, prev2.t
        scale = Fraction(1, q ** prev2.index)
        u_idx = scale * (q * u1 * u1 * u2 + 2 * t1 * u1 * t2 + p * u1 * u1 * t2 - u2 * t1 * t1)
        t_idx = scale * (t1 * t1 * t2 + p * t1 * t1 * u2 - q * t2 * u1 * u1 + 2 * q * t1 * u1 * u2)
        x1, x2 = prev.x, prev2.x
        den = q - p * x2 - x1 * x1 + 2 * x1 * x2
        if den == 0:
            raise DegenerateRatio(f"arithmetic acceleration denominator vanished at g_{n} = {idx}")
        x_idx = (x1 * x1 * x2 + 2 * q * x1 - p * x1 * x1 - q * x2) / den
        entries.append(AccelerationEntry(idx, u_idx, t_idx, x_idx))
    return entries


def verify_nested_fibonacci_identity(n: int, max_index: int | None = None) -> bool:
    """Check F_{F_n} = F_{F_{n-1}}*F_{F_{n-2}-1} + F_{F_{n-1}-1}*F_{F_{n-2}} + F_{F_{n-1}}*F_{F_{n-2}}."""
    if n < 3:
        raise ValueError(f"identity defined for n >= 3, got {n}")
    fa, fb, fc = fibonacci(n, max_index), fibonacci(n - 1, max_index), fibonacci(n - 2, max_index)
    lhs = fibonacci(fa, max_index)
    rhs = (
        fibonacci(fb, max_index) * fibonacci(fc - 1, max_index)
        + fibonacci(fb - 1, max_index) * fibonacci(fc, max_index)
        + fibonacci(fb, max_index) * fibonacci(fc, max_index)
    )
    return lhs == rhs


def verify_fkn_identity(k: int, n: int, max_index: int | None = None) -> bool:
    """Check the cubic identity for F_{kn} in terms of F at indices k(n-1) and k(n-2).

    The n = 2 boundary reaches F_{-1} = 1 through the negative-index extension.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 2:
        raise ValueError(f"identity defined for n >= 2, got {n}")
    f1 = fibonacci(k * (n - 1), max_index)
    f1m = fibonacci(k * (n - 1) - 1, max_index)
    f2 = fibonacci(k * (n - 2), max_index)
    f2m = fibonacci(k * (n - 2) - 1, max_index)
    sign = -1 if (k * (n - 2)) % 2 else 1
    rhs = sign * (-f1 * f1 * f2 + 2 * f1 * f1m * f2m + f1 * f1 * f2m - f2 * f1m * f1m)
    return fibonacci(k * n, max_index) == rhs


def verify_cubic_fibonacci_identity(n: int, max_index: int | None = None) -> bool:
    """Check F_n = (-1)^n * (-F_{n-1}^2 F_{n-2} + 2 F_{n-1} F_{n-2} F_{n-3} + F_{n-1}^2 F_{n-3} - F_{n-2}^3)."""
    if n < 3:
        raise ValueError(f"identity defined for n >= 3, got {n}")
    f1, f2, f3 = fibonacci(n - 1, max_index), fibonacci(n - 2, max_index), fibonacci(n - 3, max_index)
    sign = -1 if n % 2 else 1
    rhs = sign * (-f1 * f1 * f2 + 2 * f1 * f2 * f3 + f1 * f1 * f3 - f2 * f2 * f2)
    return fibonacci(n, max_index) == rhs
