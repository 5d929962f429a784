"""Exact text rendering of rationals: reduced fractions and correctly rounded decimals."""

from __future__ import annotations

import decimal
from fractions import Fraction

# Integers up to this many bits (3,700 digits) go through str().  str() is
# the faster of the two conversions up to about 30,000 bits, but CPython
# refuses str(int) past 4,300 digits (about 14,300 bits) by default, so the
# threshold sits safely below that guard.
_STR_BITS = 12_288

# Leaves of the divide-and-conquer conversion go to Decimal(int) directly.
_LEAF_BITS = 1024


def _int_text(n: int) -> str:
    """Decimal digits of n, never calling str() on an int past _STR_BITS.

    Larger values are split at a power of two, both halves converted to
    Decimal recursively and recombined there, as CPython 3.12's
    _pylong.int_to_decimal_string does: libmpdec multiplies subquadratically
    where str(int) is quadratic, and Decimal-to-text has no digit guard.
    """
    if n.bit_length() <= _STR_BITS:
        return str(n)
    two = decimal.Decimal(2)
    powers = {}

    def pow2(w: int) -> decimal.Decimal:
        result = powers.get(w)
        if result is None:
            if w <= _LEAF_BITS:
                result = two**w
            elif w - 1 in powers:
                result = powers[w - 1] * 2
            else:
                half = w >> 1
                result = pow2(half) * pow2(w - half)
            powers[w] = result
        return result

    def convert(m: int, w: int) -> decimal.Decimal:
        if w <= _LEAF_BITS:
            return decimal.Decimal(m)
        half = w >> 1
        hi = m >> half
        lo = m - (hi << half)
        return convert(lo, half) + convert(hi, w - half) * pow2(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        text = str(convert(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def format_rational(value) -> str:
    """Reduced `num/den` with positive denominator; integers print bare."""
    f = Fraction(value)
    if f.denominator == 1:
        return _int_text(f.numerator)
    return f"{_int_text(f.numerator)}/{_int_text(f.denominator)}"


def parse_rational(text: str) -> Fraction:
    """Inverse of format_rational; accepts `num` or `num/den`."""
    return Fraction(text.strip())


def format_decimal(value, digits: int) -> str:
    """Decimal expansion with `digits` fractional digits, rounded half-even.

    The rounding is done on integers (no floating point), so the result is
    the correctly rounded value of the exact input.
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {format_rational(digits)}")
    f = Fraction(value)
    negative = f < 0
    if negative:
        f = -f
    scale = 10**digits
    quot, rem = divmod(f.numerator * scale, f.denominator)
    double = 2 * rem
    if double > f.denominator or (double == f.denominator and quot % 2 == 1):
        quot += 1
    int_part, frac_part = divmod(quot, scale)
    sign = "-" if negative and quot != 0 else ""
    return f"{sign}{_int_text(int_part)}.{_int_text(frac_part).rjust(digits, '0')}"
