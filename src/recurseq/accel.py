"""Ratio sequences x_n = U_n / U_{n-1} and closed-form subsequence accelerations.

When the characteristic roots are real with distinct moduli, x_n converges to
the larger root, so pulling out a subsequence x_{g_n} along a fast-growing
index sequence g is a convergence acceleration.  The chains here generate
x_{g_n} (and the underlying U, T values) for any order-2 index recurrence
g_n = s*g_{n-1} - t*g_{n-2}.  With alpha a root of t^2 - p*t + q,
alpha^g = T_g + U_g*alpha in Z[t]/(t^2 - p*t + q), and the recurrence is the
integer split

    alpha^{g_n} = (alpha^{g_{n-1}})^s * (alpha^{g_{n-2}})^{-t}.

core's _power_chain steps it for every scheme here and for
cf.method_subsequence (the root-method chains W(1, 2, 1, -1) and
W(1, m, m, 0)): the split when it is a product of nonnegative powers
(t <= 0 <= s), otherwise alpha^{g_n} as one power of alpha, so no chain
builds an integer larger than its entries.  The single-step ratio maps
(shift, doubling, Fibonacci-index step) are one ring product each: the lift
of x_k is alpha^(k-1).  Every ratio is an element read back (core._readback)
and reduced against a norm bound, or as a power of alpha.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .core import (
    LinRecSequence,
    RecurrenceParams,
    _Value,
    _check_index,
    _lift,
    _norm,
    _power_bound,
    _power_chain,
    _readback,
    _ring_mul,
    _ring_pow,
    fibonacci,
)
from .errors import DegenerateRatio, InverseUnavailable
from .formatting import format_rational


def ratio_x(
    params: RecurrenceParams, n: int, max_index: int | None = None
) -> Fraction:
    """The exact ratio U_n / U_{n-1}, reduced to lowest terms: alpha^(n-1) read back.

    Undefined (DegenerateRatio) when U_{n-1} = 0, which happens for
    degenerate coefficient choices such as p = 0.
    """
    return _readback(params.p, _ratio_lift(params, n, max_index), 1, _power_bound(params.p, params.q))


def _ratio_lift(params: RecurrenceParams, n: int, max_index: int | None) -> tuple[int, int]:
    """alpha^(n-1), the lift of x_n, refusing n < 2 and a vanishing U_{n-1}."""
    if n < 2:
        raise ValueError(f"ratio index must be >= 2, got {format_rational(n)}")
    _check_index(n - 1, max_index)
    e = _ring_pow(params.p, params.q, (0, 1), n - 1)
    if e[1] == 0:
        raise _vanished(n)
    return e


def _vanished(n: int) -> DegenerateRatio:
    """The error for x_n when U_{n-1} = 0."""
    return DegenerateRatio(f"U_{n - 1} = 0, ratio x_{n} undefined (denominator vanished at index {n})")


def general_ratio_y(
    seq: LinRecSequence, n: int, max_index: int | None = None
) -> Fraction:
    """Consecutive-term ratio a_n / a_{n-1} of an arbitrary sequence.

    Equal to the closed form (a1*x_n - a0*q) / (a0*x_n + a1 - a0*p) in the
    ratio x_n of the U basis: the lift of x_n times the seed s = (a1 - p*a0) + a0*t
    reads back as a_n / a_{n-1}, its common factor bounded by N(s) = a1^2 -
    p*a0*a1 + q*a0^2 times the lift's (core._power_bound).
    """
    p, q = seq.params.p, seq.params.q
    seed = (seq.a1 - p * seq.a0, seq.a0)
    e = _ring_mul(p, q, _ratio_lift(seq.params, n, max_index), seed)
    if (y := _readback(p, e, bound=_norm(p, q, seed) * _power_bound(p, q))) is None:
        raise DegenerateRatio(f"a_{n - 1} = 0, ratio a_{n}/a_{n - 1} undefined")
    return y


def shift_ratio(
    params: RecurrenceParams, x_n: Fraction, x_m1: Fraction
) -> Fraction:
    """x_{n+m} from x_n and x_{m+1}: (x_{m+1}*x_n - q) / (x_n + x_{m+1} - p).

    The product of the lifts alpha^(n-1) and v = alpha^m, reduced against
    N(v) (for a ratio x_{m+1}, that is q^m).
    """
    p, q = params.p, params.q
    v = _lift(p, x_m1)
    if (x := _readback(p, _ring_mul(p, q, _lift(p, x_n), v), bound=_norm(p, q, v))) is None:
        raise DegenerateRatio("shift denominator x_n + x_{m+1} - p vanished")
    return x


def double_ratio(params: RecurrenceParams, x_n: Fraction) -> Fraction:
    """x_{2n} from x_n: (2q*x_n - p*x_n^2) / (q - x_n^2).

    The square of the lift alpha^(n-1) times t = alpha, reduced against q*D
    (D = p^2 - 4q): the square's common factor is made of primes of D, and
    the product by t adds a factor of N(t) = q.
    """
    p, q = params.p, params.q
    e = _ring_mul(p, q, _ring_pow(p, q, _lift(p, x_n), 2), (0, 1))
    if (x := _readback(p, e, bound=q * (p * p - 4 * q))) is None:
        raise DegenerateRatio("doubling denominator q - x_n^2 vanished")
    return x


def fibonacci_index_accel(
    params: RecurrenceParams, x_a: Fraction, x_b: Fraction
) -> Fraction:
    """Next ratio along Fibonacci-spaced indices.

    Given x_a = x_{F_{n-1}} and x_b = x_{F_{n-2}}, returns
    x_{F_n} = (q*x_a + q*x_b - p*x_a*x_b) / (q - x_a*x_b): the product of
    the lifts and t, alpha^(F_{n-1}-1) * v * alpha with v = alpha^(F_{n-2}-1),
    reduced against N(v*t) = q*N(v).
    """
    p, q = params.p, params.q
    v = _lift(p, x_b)
    e = _ring_mul(p, q, _ring_mul(p, q, _lift(p, x_a), v), (0, 1))
    if (x := _readback(p, e, bound=q * _norm(p, q, v))) is None:
        raise DegenerateRatio("Fibonacci-step denominator q - x_a*x_b vanished")
    return x


class IndexSequenceParams(_Value):
    """Order-2 index recurrence g = W(i, j, s, t): g_n = s*g_{n-1} - t*g_{n-2}.

    Every index this generates must be >= 2, since x_1 = U_1/U_0 divides by
    zero; violations are rejected when the indices are produced.
    """

    __slots__ = ("i", "j", "s", "t")

    def __init__(self, i: int, j: int, s: int, t: int):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)


AccelerationEntry = namedtuple("AccelerationEntry", "index u t x")
AccelerationEntry.__doc__ = """One entry of an acceleration: index g_n, U_{g_n}, T_{g_n} and x_{g_n}.

u and t are Fractions that wrap the integers U_{g_n} and T_{g_n}.  They are
a relic of a scaling by 1/q^index that is gone, and stay Fractions because
they are public fields.
"""


def accelerate_general(
    params: RecurrenceParams,
    g: IndexSequenceParams,
    count: int,
    max_index: int | None = None,
) -> list[AccelerationEntry]:
    """Ratios (and U, T values) along the index subsequence g.

    Every entry carries alpha^{g_n} = T_{g_n} + U_{g_n}*alpha in
    Z[t]/(t^2 - p*t + q) (alpha a root of t^2 - p*t + q), read off core's one
    chain engine: g_0 = i and g_1 = j are evaluated directly, and for n >= 2
    the index recurrence g_n = s*g_{n-1} - t*g_{n-2} is the integer split

        alpha^{g_n} = (alpha^{g_{n-1}})^s * (alpha^{g_{n-2}})^{-t}

    when that is a product of nonnegative powers (t <= 0 <= s); otherwise
    alpha^{g_n} is evaluated directly at g_n.  x_g reads back from alpha^(g-1) =
    alpha^g*beta/q = (U_g + p*T_g/q) - (T_g/q)*alpha, as in ratio_x, and
    DegenerateRatio is raised exactly when U_{g-1} = -T_g/q vanishes.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {format_rational(count)}")
    p, q = params.p, params.q
    if q == 0:
        raise InverseUnavailable("acceleration needs q != 0")
    if g.i < 2 or g.j < 2:
        raise ValueError(
            f"initial indices must be >= 2, got ({format_rational(g.i)}, {format_rational(g.j)})"
        )
    entries, bound = [], _power_bound(p, q)
    for idx, (t_idx, u_idx) in _power_chain(p, q, g.i, g.j, g.s, g.t, count, max_index):
        u_prev = -t_idx // q
        if (x := _readback(p, (u_idx - p * u_prev, u_prev), 1, bound)) is None:
            raise _vanished(idx)
        entries.append(AccelerationEntry(idx, Fraction(u_idx), Fraction(t_idx), x))
    return entries


def arithmetic_index_accel(
    params: RecurrenceParams,
    h: int,
    k: int,
    count: int,
    max_index: int | None = None,
) -> list[AccelerationEntry]:
    """Ratios along the arithmetic index progression g_n = k*n + h.

    This is accelerate_general on g = W(h, h+k, 2, 1).  Since t = 1 > 0,
    its split would need a power of the conjugate, so each entry is
    evaluated directly at g_n.  The entry at g_0 = h is evaluated before
    g_1 = h + k is refused for being < 2, so count = 1 never looks at h + k.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {format_rational(count)}")
    if params.q == 0:
        raise InverseUnavailable("arithmetic-index acceleration needs q != 0")
    if h < 2:
        raise ValueError(f"start index h must be >= 2, got {format_rational(h)}")
    if count > 1 and h + k < 2:
        accelerate_general(params, IndexSequenceParams(h, h, 2, 1), 1, max_index)
        raise ValueError(f"acceleration index {format_rational(h + k)} is < 2")
    return accelerate_general(params, IndexSequenceParams(h, h + k if count > 1 else h, 2, 1), count, max_index)


def _fib_pair(m: int) -> tuple[int, int]:
    """(F_{m-1}, F_m) for m >= 0: alpha^m = T_m + U_m*alpha for (1, -1), and T_m = F_{m-1}."""
    return _ring_pow(1, -1, (0, 1), m)


def verify_nested_fibonacci_identity(n: int, max_index: int | None = None) -> bool:
    """Check F_{F_n} = F_{F_{n-1}}*F_{F_{n-2}-1} + F_{F_{n-1}-1}*F_{F_{n-2}} + F_{F_{n-1}}*F_{F_{n-2}}."""
    if n < 3:
        raise ValueError(f"identity defined for n >= 3, got {format_rational(n)}")
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
        raise ValueError(f"k must be >= 1, got {format_rational(k)}")
    if n < 2:
        raise ValueError(f"identity defined for n >= 2, got {format_rational(n)}")
    _check_index(k * (n - 1), max_index)
    f1m, f1 = _fib_pair(k * (n - 1))
    f2m, f2 = _fib_pair(k * (n - 2))  # (F_{-1}, F_0) = (1, 0) at n = 2
    sign = -1 if (k * (n - 2)) % 2 else 1
    rhs = sign * (-f1 * f1 * f2 + 2 * f1 * f1m * f2m + f1 * f1 * f2m - f2 * f1m * f1m)
    return fibonacci(k * n, max_index) == rhs


def verify_cubic_fibonacci_identity(n: int, max_index: int | None = None) -> bool:
    """Check F_n = (-1)^n * (-F_{n-1}^2 F_{n-2} + 2 F_{n-1} F_{n-2} F_{n-3} + F_{n-1}^2 F_{n-3} - F_{n-2}^3)."""
    if n < 3:
        raise ValueError(f"identity defined for n >= 3, got {format_rational(n)}")
    _check_index(n - 1, max_index)
    f2, f1 = _fib_pair(n - 1)
    f3 = f1 - f2
    sign = -1 if n % 2 else 1
    rhs = sign * (-f1 * f1 * f2 + 2 * f1 * f2 * f3 + f1 * f1 * f3 - f2 * f2 * f2)
    return fibonacci(n, max_index) == rhs
