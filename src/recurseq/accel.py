"""Ratio sequences x_n = U_n / U_{n-1} and closed-form subsequence accelerations.

When the characteristic roots are real with distinct moduli, x_n converges to
the larger root, so pulling out a subsequence x_{g_n} along a fast-growing
index sequence g is a convergence acceleration.  The chains here generate
x_{g_n} (and the underlying U, T values) recursively for any order-2 index
recurrence g_n = s*g_{n-1} - t*g_{n-2}.  With alpha a root of t^2 - p*t + q,
alpha^g = T_g + U_g*alpha in Z[t]/(t^2 - p*t + q), and the recurrence is the
integer split

    alpha^{g_n} = (alpha^{g_{n-1}})^s * (alpha^{g_{n-2}})^{-t},

a negative power being a power of the conjugate over a power of q.  The
single-step ratio maps (shift, doubling, Fibonacci-index step) are
cross-multiplied integer formulas in the numerators and denominators of
their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .core import (
    LinRecSequence,
    RecurrenceParams,
    _check_index,
    _coprime_fraction,
    _pair,
    _reduced,
    _ring_mul,
    _ring_pow,
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
        raise _vanished(n)
    return u_prev, u_n


def _vanished(n: int) -> DegenerateRatio:
    """The error for x_n when U_{n-1} = 0."""
    return DegenerateRatio(f"U_{n - 1} = 0, ratio x_{n} undefined (denominator vanished at index {n})")


def _bounded_fraction(num: int, den: int, bound: int) -> Fraction:
    """Fraction(num, den), given that gcd(num, den) divides bound.

    The gcd is taken against bound, in time linear in the size of the pair
    when bound is small; bound = 0 (no bound known) is one full gcd.
    """
    g = gcd(gcd(bound, num), den)
    return _coprime_fraction(num // g, den // g)


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
    # a1^2 - p*a0*a1 + q*a0^2; when those U terms are coprime, every common
    # factor of the pair divides it.
    if gcd(p, q) == 1:
        return _bounded_fraction(a_n, a_prev, a1 * a1 - p * a0 * a1 + q * a0 * a0)
    return Fraction(a_n, a_prev)


def shift_ratio(
    params: RecurrenceParams, x_n: Fraction, x_m1: Fraction
) -> Fraction:
    """x_{n+m} from x_n and x_{m+1}: (x_{m+1}*x_n - q) / (x_n + x_{m+1} - p).

    For x_{m+1} = a/b the cross-multiplied pair is the integer matrix
    [[a, -q*b], [b, a - p*b]] applied to x_n = n/d, so its common factor
    divides the determinant a^2 - p*a*b + q*b^2 (for a ratio x_{m+1}, that
    is q^m) and one gcd against it finds the factor.
    """
    p, q = params.p, params.q
    n, d = x_n.as_integer_ratio()
    a, b = x_m1.as_integer_ratio()
    den = n * b + (a - p * b) * d
    if den == 0:
        raise DegenerateRatio("shift denominator x_n + x_{m+1} - p vanished")
    return _bounded_fraction(n * a - q * b * d, den, a * (a - p * b) + q * b * b)


def double_ratio(params: RecurrenceParams, x_n: Fraction) -> Fraction:
    """x_{2n} from x_n: (2q*x_n - p*x_n^2) / (q - x_n^2).

    For x_n = n/d the cross-multiplied pair (2q*n*d - p*n^2, q*d^2 - n^2) is
    two binary quadratic forms in coprime (n, d), so its common factor
    divides their resultant q^2*D (D = p^2 - 4q), and one gcd against q^2*D
    reduces it.
    """
    p, q = params.p, params.q
    n, d = x_n.as_integer_ratio()
    den = q * d * d - n * n
    if den == 0:
        raise DegenerateRatio("doubling denominator q - x_n^2 vanished")
    return _bounded_fraction((2 * q * d - p * n) * n, den, q * q * (p * p - 4 * q))


def fibonacci_index_accel(
    params: RecurrenceParams, x_a: Fraction, x_b: Fraction
) -> Fraction:
    """Next ratio along Fibonacci-spaced indices.

    Given x_a = x_{F_{n-1}} and x_b = x_{F_{n-2}}, returns
    x_{F_n} = (q*x_a + q*x_b - p*x_a*x_b) / (q - x_a*x_b).  With x_b = c/e
    the cross-multiplied pair is [[q*e - p*c, q*c], [-c, q*e]] applied to
    x_a, of determinant q*(c^2 - p*c*e + q*e^2), so one gcd against it
    reduces the result (as in shift_ratio).
    """
    q, p = params.q, params.p
    n, d = x_a.as_integer_ratio()
    c, e = x_b.as_integer_ratio()
    den = q * d * e - n * c
    if den == 0:
        raise DegenerateRatio("Fibonacci-step denominator q - x_a*x_b vanished")
    return _bounded_fraction(n * (q * e - p * c) + q * c * d, den, q * (c * (c - p * e) + q * e * e))


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
    _check_index(idx, max_index)
    u_prev, u = _ratio_pair(params, idx, max_index)
    # T_idx = U_{idx+1} - p*U_idx = -q*U_{idx-1}
    t = -params.q * u_prev
    return AccelerationEntry(idx, Fraction(u), Fraction(t), _reduced(params.p, params.q)(u, u_prev))


def accelerate_general(
    params: RecurrenceParams,
    g: IndexSequenceParams,
    count: int,
    max_index: int | None = None,
) -> list[AccelerationEntry]:
    """Ratios (and U, T values) along the index subsequence g.

    Entries 0 and 1 are evaluated directly at g_0 = i and g_1 = j.  Every
    entry carries alpha^{g_n} = T_{g_n} + U_{g_n}*alpha in Z[t]/(t^2 - p*t + q)
    (alpha a root of t^2 - p*t + q), and for n >= 2 the index recurrence
    g_n = s*g_{n-1} - t*g_{n-2} is the integer split

        alpha^{g_n} = (alpha^{g_{n-1}})^s * (alpha^{g_{n-2}})^{-t}.

    A negative power of alpha^g is the matching power of its conjugate
    beta^g = (T_g + p*U_g) - U_g*alpha, divided by q^g (alpha*beta = q); the
    product is divided exactly by q^{t*g_{n-2}} (and by q^{-s*g_{n-1}} when
    s < 0).  The ratio is x_{g_n} = U_{g_n} / U_{g_n - 1}, with
    U_{g_n - 1} = -T_{g_n} / q; DegenerateRatio is raised exactly when that
    vanishes, as in ratio_x.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    p, q = params.p, params.q
    if q == 0:
        raise InverseUnavailable("acceleration needs q != 0")
    if g.i < 2 or g.j < 2:
        raise ValueError(f"initial indices must be >= 2, got ({g.i}, {g.j})")

    entries = [_seed_entry(params, g.i, max_index)]
    if count >= 2:
        entries.append(_seed_entry(params, g.j, max_index))
    if count <= 2:
        return entries[:count]

    # The step exponents are held to the cap like the indices.
    _check_index(g.s, max_index)
    _check_index(g.t, max_index)
    frac = _reduced(p, q)
    # alpha^{g_{n-2}} and alpha^{g_{n-1}} as (T, U)
    power2, power1 = ((e.t.numerator, e.u.numerator) for e in entries)
    for n in range(2, count):
        g1, g2 = entries[n - 1].index, entries[n - 2].index
        idx = g.s * g1 - g.t * g2
        if idx < 2:
            raise ValueError(f"generated index g_{n} = {idx} is < 2")
        _check_index(idx, max_index)
        a, k1 = _scaled_power(p, q, power1, g.s)
        b, k2 = _scaled_power(p, q, power2, -g.t)
        t_idx, u_idx = _ring_mul(p, q, a, b)
        excess = k1 * g1 + k2 * g2  # the product is q^excess * alpha^{g_n}
        if excess:
            scale = q**excess
            t_idx, u_idx = t_idx // scale, u_idx // scale
        if t_idx == 0:
            raise _vanished(idx)
        power2, power1 = power1, (t_idx, u_idx)
        entries.append(AccelerationEntry(idx, Fraction(u_idx), Fraction(t_idx), frac(u_idx, -t_idx // q)))
    return entries


def _scaled_power(p: int, q: int, power: tuple[int, int], m: int) -> tuple[tuple[int, int], int]:
    """(alpha^g)^m for power = alpha^g and any integer m, as (q^{k*g} * alpha^{m*g}, k).

    k = 0 for m >= 0; for m < 0, k = -m and the element is the (-m)-th power
    of the conjugate beta^g = q^g * alpha^{-g}.
    """
    if m >= 0:
        return _ring_pow(p, q, power, m), 0
    t, u = power
    return _ring_pow(p, q, (t + p * u, -u), -m), -m


def arithmetic_index_accel(
    params: RecurrenceParams,
    h: int,
    k: int,
    count: int,
    max_index: int | None = None,
) -> list[AccelerationEntry]:
    """Ratios along the arithmetic index progression g_n = k*n + h.

    This is accelerate_general on g = W(h, h+k, 2, 1), so each step is
    alpha^{g_n} = (alpha^{g_{n-1}})^2 * beta^{g_{n-2}} / q^{g_{n-2}}.
    The entry at g_0 = h is evaluated before g_1 = h + k is refused for
    being < 2, so count = 1 never looks at h + k.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if params.q == 0:
        raise InverseUnavailable("arithmetic-index acceleration needs q != 0")
    if h < 2:
        raise ValueError(f"start index h must be >= 2, got {h}")
    if count > 1 and h + k >= 2:
        return accelerate_general(params, IndexSequenceParams(h, h + k, 2, 1), count, max_index)
    entries = [_seed_entry(params, h, max_index)]
    if count > 1:
        raise ValueError(f"acceleration index {h + k} is < 2")
    return entries


def _fib_pair(m: int) -> tuple[int, int]:
    """(F_{m-1}, F_m) for m >= 1, from one pair evaluation."""
    return _pair(1, -1, m - 1)


def verify_nested_fibonacci_identity(n: int, max_index: int | None = None) -> bool:
    """Check F_{F_n} = F_{F_{n-1}}*F_{F_{n-2}-1} + F_{F_{n-1}-1}*F_{F_{n-2}} + F_{F_{n-1}}*F_{F_{n-2}}."""
    if n < 3:
        raise ValueError(f"identity defined for n >= 3, got {n}")
    _check_index(n, max_index)
    fc, fb = _fib_pair(n - 1)
    lhs = fibonacci(fb + fc, max_index)
    # F_{n-1}, F_{n-2} <= F_n, which fibonacci() has held to the cap.
    b_prev, b = _fib_pair(fb)
    c_prev, c = _fib_pair(fc)
    return lhs == b * c_prev + b_prev * c + b * c


def verify_fkn_identity(k: int, n: int, max_index: int | None = None) -> bool:
    """Check the cubic identity for F_{kn} in terms of F at indices k(n-1) and k(n-2).

    The n = 2 boundary reaches F_{-1} = 1 through the negative-index extension.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 2:
        raise ValueError(f"identity defined for n >= 2, got {n}")
    _check_index(k * (n - 1), max_index)
    f1m, f1 = _fib_pair(k * (n - 1))
    f2m, f2 = _fib_pair(k * (n - 2)) if n > 2 else (1, 0)  # (F_{-1}, F_0)
    sign = -1 if (k * (n - 2)) % 2 else 1
    rhs = sign * (-f1 * f1 * f2 + 2 * f1 * f1m * f2m + f1 * f1 * f2m - f2 * f1m * f1m)
    return fibonacci(k * n, max_index) == rhs


def verify_cubic_fibonacci_identity(n: int, max_index: int | None = None) -> bool:
    """Check F_n = (-1)^n * (-F_{n-1}^2 F_{n-2} + 2 F_{n-1} F_{n-2} F_{n-3} + F_{n-1}^2 F_{n-3} - F_{n-2}^3)."""
    if n < 3:
        raise ValueError(f"identity defined for n >= 3, got {n}")
    _check_index(n - 1, max_index)
    f2, f1 = _fib_pair(n - 1)
    f3 = f1 - f2
    sign = -1 if n % 2 else 1
    rhs = sign * (-f1 * f1 * f2 + 2 * f1 * f2 * f3 + f1 * f1 * f3 - f2 * f2 * f2)
    return fibonacci(n, max_index) == rhs
