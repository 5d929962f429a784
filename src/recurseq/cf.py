"""Continued fractions with rational partial quotients and the period-2 quadratic form.

A finite or eventually periodic list of quotients a_i/b_i defines convergents

    C_n = p_n / q_n,    p_n = (a_n/b_n) p_{n-1} + p_{n-2},  q_n likewise,

which can equivalently be computed from three integer sequences (s, t, u)
so that C_n = s_n / (b_0 t_n).  The special period-2 fraction [b/a, b/c]
represents the larger-modulus real root of a*t^2 - b*t - c; its convergents
are ratios of the single recurrent sequence sigma = W(0, 1, b, -a*c):

    C_n = sigma_{n+2} / (a * sigma_{n+1}).

Striding through the convergents at indices F_{n+2}-1, 2^n - 1, or 3^n - 1
reproduces the secant, Newton, and Halley iterates for that root.  Those
indices are k_n - 1 along the exponent chains W(1, 2, 1, -1) (secant) and
W(1, m, m, 0) (power m), so method_subsequence reads the convergents off
core's chain engine, the one the ratio accelerations use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .core import _Value, _check_index, _pair, _power_chain, _reduced
from .errors import DegenerateConvergent, NonRealRoots
from .formatting import _quoted, format_rational
from .roots import _METHODS, _index_chain

_QUOTIENT_RE = re.compile(r"^(-?\d+)(?:/(-?\d+))?$")
_PERIOD_RE = re.compile(r"^period\s*=\s*(\d+)$")


def _ints(what: str, text: str, *numerals: str) -> tuple[int, ...]:
    """int() of each numeral matched in text.  A numeral past the interpreter's
    int-from-text digit guard is refused with text described by _quoted, not
    with the guard's own message."""
    try:
        return tuple(map(int, numerals))
    except ValueError:
        raise ValueError(f"{what} {_quoted(text)} has too many digits") from None


class RationalCF(_Value):
    """Partial quotients (a_i, b_i), optionally cycling over the last `period` entries."""

    __slots__ = ("quotients", "period")

    def __init__(self, quotients: tuple[tuple[int, int], ...], period: int | None = None):
        if not quotients:
            raise ValueError("a continued fraction needs at least one partial quotient")
        for i, (a, b) in enumerate(quotients):
            if a == 0 or b == 0:
                raise ValueError(
                    f"partial quotient {i} is {format_rational(a)}/{format_rational(b)}; zeros are not allowed"
                )
        if period is not None and not 1 <= period <= len(quotients):
            raise ValueError(f"period {format_rational(period)} out of range for {len(quotients)} quotients")
        object.__setattr__(self, "quotients", quotients)
        object.__setattr__(self, "period", period)

    def quotient(self, i: int) -> tuple[int, int]:
        """The i-th partial quotient, unrolling the periodic tail if present."""
        if i < 0:
            raise ValueError(f"quotient index must be >= 0, got {format_rational(i)}")
        if i < len(self.quotients):
            return self.quotients[i]
        if self.period is None:
            raise ValueError(
                f"quotient {format_rational(i)} requested but only {len(self.quotients)} exist and no period is set"
            )
        start = len(self.quotients) - self.period
        return self.quotients[start + (i - start) % self.period]

    @classmethod
    def parse(cls, text: str) -> "RationalCF":
        """Parse the text form `a0/b0, a1/b1, ... | period=k` (bare integers allowed)."""
        head, _, tail = text.partition("|")
        period = None
        if tail.strip():
            m = _PERIOD_RE.match(tail.strip())
            if not m:
                raise ValueError(f"malformed period suffix {_quoted(tail.strip())}")
            (period,) = _ints("period suffix", tail.strip(), m.group(1))
        quotients = []
        for token in head.split(","):
            token = token.strip()
            m = _QUOTIENT_RE.match(token)
            if not m:
                raise ValueError(f"malformed partial quotient {_quoted(token)}")
            quotients.append(_ints("partial quotient", token, m.group(1), m.group(2) or "1"))
        return cls(tuple(quotients), period)

    def __str__(self) -> str:
        body = ", ".join(f"{format_rational(a)}/{format_rational(b)}" for a, b in self.quotients)
        return body if self.period is None else f"{body} | period={self.period}"


@dataclass(frozen=True)
class ConvergentRecord:
    """One convergent; p/q fields come from the direct recursion, s/t/u from the integer one."""

    index: int
    value: Fraction
    p: Fraction | None = None
    q: Fraction | None = None
    s: int | None = None
    t: int | None = None
    u: int | None = None


def convergents_direct(cf: RationalCF, count: int) -> list[ConvergentRecord]:
    """First `count` convergents via the rational p/q recursion."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {format_rational(count)}")
    records = []
    p_prev2 = p_prev = q_prev2 = q_prev = None
    for n in range(count):
        a, b = cf.quotient(n)
        quot = Fraction(a, b)
        if n == 0:
            p, q = quot, Fraction(1)
        elif n == 1:
            p, q = records[0].p * quot + 1, quot
        else:
            p, q = quot * p_prev + p_prev2, quot * q_prev + q_prev2
        if q == 0:
            raise DegenerateConvergent(f"convergent denominator q_{n} = 0")
        records.append(ConvergentRecord(n, p / q, p=p, q=q))
        p_prev2, p_prev, q_prev2, q_prev = p_prev, p, q_prev, q
    return records


def convergents_integer(cf: RationalCF, count: int) -> list[ConvergentRecord]:
    """First `count` convergents via the integer (s, t, u) normalization.

    s_n = a_n s_{n-1} + b_n b_{n-1} s_{n-2} (t likewise), u_n = b_n u_{n-1},
    and C_n = s_n / (b_0 t_n); agrees entrywise with convergents_direct.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {format_rational(count)}")
    b0 = cf.quotient(0)[1]
    records = []
    s_prev2 = s_prev = t_prev2 = t_prev = None
    for n in range(count):
        a, b = cf.quotient(n)
        if n == 0:
            s, t, u = a, 1, 1
        elif n == 1:
            s = records[0].s * a + b0 * b
            t, u = a, b
        else:
            b_prev = cf.quotient(n - 1)[1]
            s = a * s_prev + b * b_prev * s_prev2
            t = a * t_prev + b * b_prev * t_prev2
            u = b * records[-1].u
        if t == 0:
            raise DegenerateConvergent(f"integer-form denominator t_{n} = 0")
        records.append(ConvergentRecord(n, Fraction(s, b0 * t), s=s, t=t, u=u))
        s_prev2, s_prev, t_prev2, t_prev = s_prev, s, t_prev, t
    return records


class PeriodicQuadCF(_Value):
    """The period-2 continued fraction [b/a, b/c] for a*t^2 - b*t - c (a, b, c nonzero).

    When b^2 + 4ac > 0 its value is the larger-modulus root of that quadratic.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        if a == 0 or b == 0 or c == 0:
            raise ValueError("a, b, c must all be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def to_rational_cf(self) -> RationalCF:
        return RationalCF(((self.b, self.a), (self.b, self.c)), period=2)

    def sigma(self, i: int, max_index: int | None = None) -> int:
        """sigma_i of sigma = W(0, 1, b, -a*c), in O(log i) products."""
        if i < 0:
            raise ValueError(f"sigma index must be >= 0, got {format_rational(i)}")
        _check_index(i, max_index)
        return _pair(self.b, -self.a * self.c, i)[0]


def quad_cf_convergent(
    qcf: PeriodicQuadCF, n: int, max_index: int | None = None
) -> Fraction:
    """C_n = sigma_{n+2} / (a * sigma_{n+1}).

    When gcd(b, a*c) = 1 the result needs no gcd: consecutive sigma terms are
    coprime, and sigma_m = b^(m-1) (mod a) is prime to a.
    """
    if n < 0:
        raise ValueError(f"convergent index must be >= 0, got {format_rational(n)}")
    _check_index(n + 1, max_index)
    denom, numer = _pair(qcf.b, -qcf.a * qcf.c, n + 1)
    if denom == 0:
        raise DegenerateConvergent(f"sigma_{n + 1} = 0, convergent C_{n} undefined")
    _check_index(n + 2, max_index)
    return _reduced(qcf.b, -qcf.a * qcf.c)(numer, qcf.a * denom)


def method_subsequence(
    qcf: PeriodicQuadCF,
    method: str,
    count: int,
    max_index: int | None = None,
) -> list[tuple[int, Fraction]]:
    """Convergent indices and values realizing a root-finding method's iterates.

    The n-th secant/Newton/Halley iterate for the larger-modulus root of
    a*t^2 - b*t - c (seeded from C_0, plus C_1 for secant) equals the
    convergent at index F_{n+2}-1, 2^n - 1, or 3^n - 1 respectively.

    The values are read off core's chain engine, which steps
    alpha^k = T_k + sigma_k*alpha in Z[t]/(t^2 - b*t - a*c) along the
    method's exponent chain from k = 1 (secant W(1, 2, 1, -1), power m
    W(1, m, m, 0); see roots): each is C_{k-1} = sigma_{k+1} / (a*sigma_k)
    with sigma_{k+1} = b*sigma_k + T_k, reduced as in quad_cf_convergent.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {format_rational(count)}")
    if method not in _METHODS:
        raise ValueError(f"unknown method {_quoted(method)}; expected secant, newton, or halley")
    disc = qcf.b * qcf.b + 4 * qcf.a * qcf.c
    if disc <= 0:
        raise NonRealRoots(
            f"b^2 + 4ac = {format_rational(disc)} <= 0: the continued fraction has no real target"
        )
    a, p, q = qcf.a, qcf.b, -qcf.a * qcf.c
    frac = _reduced(p, q)
    out = []
    for k, (t, sigma) in _power_chain(p, q, *_index_chain(_METHODS[method][0]), count, max_index):
        if sigma == 0:
            raise DegenerateConvergent(f"sigma_{k} = 0, convergent C_{k - 1} undefined")
        _check_index(k + 1, max_index)
        out.append((k - 1, frac(t + p * sigma, a * sigma)))
    return out
