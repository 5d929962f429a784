"""Property tests for the shared ratio engine: the bounded reduction in core,
and the single-step maps that reach the same ring element by different routes.

Every single-step map lifts its ratios into Z[t]/(t^2 - p*t + q), takes one
product or power there and reads the result back.  Doubling x_n is the
Fibonacci-index step with both inputs x_n (both are w^2 * t), and a secant
step on a*t^2 - b*t - c is, after scaling by a, the shift map of
(p, q) = (b, -a*c) (both are the product of two lifts).
"""

from fractions import Fraction
from math import gcd, prod

from hypothesis import example, given
from hypothesis import strategies as st

from recurseq import (
    DegenerateRatio,
    DegenerateStep,
    QuadraticABC,
    RecurrenceParams,
    double_ratio,
    fibonacci_index_accel,
    secant_step,
    shift_ratio,
)
from recurseq.core import _bounded_fraction

PRIMES = (2, 3, 5, 7, 11, 13)

coeff = st.integers(-12, 12)
ratio = st.fractions(min_value=-50, max_value=50, max_denominator=60)
big = st.integers(-(10**40), 10**40)


def coprime(a: int, b: int) -> tuple[int, int]:
    g = gcd(a, b)
    return a // g, b // g


def same_fraction(value: Fraction, expected: Fraction) -> bool:
    return (value.numerator, value.denominator) == (expected.numerator, expected.denominator)


def outcome(fn, *args):
    """("ok", value) or the name of the exception the call raised."""
    try:
        return "ok", fn(*args)
    except (DegenerateRatio, DegenerateStep) as exc:
        return type(exc).__name__, None


class TestBoundedFraction:
    @given(
        num=big,
        den=big.filter(bool),
        exponents=st.lists(st.integers(0, 2), min_size=len(PRIMES), max_size=len(PRIMES)),
        extra=st.lists(st.integers(0, 12), min_size=len(PRIMES), max_size=len(PRIMES)),
        negative=st.booleans(),
    )
    @example(num=1, den=1, exponents=[1, 0, 0, 0, 0, 0], extra=[12, 0, 0, 0, 0, 0], negative=False)
    @example(num=0, den=7, exponents=[1, 1, 0, 0, 0, 0], extra=[5, 3, 0, 0, 0, 0], negative=True)
    def test_factor_from_the_bounds_primes(self, num, den, exponents, extra, negative):
        """A common factor of the bound's primes, raised past the bound, is removed."""
        num, den = coprime(num, den)
        used = [(p, e) for p, e in zip(PRIMES, exponents) if e]
        bound = prod(p**e for p, e in used) * (-1 if negative else 1)
        factor = prod(p ** (e * x) for (p, e), x in zip(used, extra))
        result = _bounded_fraction(num * factor, den * factor, bound)
        assert same_fraction(result, Fraction(num * factor, den * factor))

    @given(num=big, den=big.filter(bool))
    @example(num=0, den=-5)
    @example(num=6, den=-4)
    def test_bound_zero_is_one_full_gcd(self, num, den):
        assert same_fraction(_bounded_fraction(num, den, 0), Fraction(num, den))

    @given(num=big, den=big.filter(bool), bound=st.sampled_from([1, -1]))
    @example(num=3, den=-4, bound=-1)
    @example(num=0, den=-9, bound=1)
    def test_unit_bound_on_coprime_pairs(self, num, den, bound):
        num, den = coprime(num, den)
        assert same_fraction(_bounded_fraction(num, den, bound), Fraction(num, den))


class TestSameElementByTwoRoutes:
    @given(p=coeff, q=coeff, x=ratio)
    @example(p=1, q=-1, x=Fraction(2))
    @example(p=2, q=1, x=Fraction(1))  # q - x^2 = 0
    @example(p=0, q=4, x=Fraction(-2))
    @example(p=3, q=0, x=Fraction(0))
    def test_doubling_is_the_fibonacci_step_on_equal_inputs(self, p, q, x):
        params = RecurrenceParams(p, q)
        doubled = outcome(double_ratio, params, x)
        stepped = outcome(fibonacci_index_accel, params, x, x)
        assert doubled[0] == stepped[0] and doubled[0] in ("ok", "DegenerateRatio")
        if doubled[0] == "ok":
            assert same_fraction(doubled[1], stepped[1])

    @given(a=coeff.filter(bool), b=coeff, c=coeff, y1=ratio, y2=ratio)
    @example(a=1, b=1, c=1, y1=Fraction(2), y2=Fraction(1))
    @example(a=2, b=4, c=3, y1=Fraction(1), y2=Fraction(1))  # a*(y1 + y2) = b
    @example(a=-3, b=0, c=5, y1=Fraction(1, 3), y2=Fraction(-1, 3))
    @example(a=4, b=2, c=0, y1=Fraction(1, 4), y2=Fraction(3, 8))
    def test_scaled_secant_is_the_shift_map(self, a, b, c, y1, y2):
        f = QuadraticABC(a, b, c)
        secant = outcome(secant_step, f, y1, y2)
        shifted = outcome(shift_ratio, RecurrenceParams(b, -a * c), a * y1, a * y2)
        assert (secant[0], shifted[0]) in (("ok", "ok"), ("DegenerateStep", "DegenerateRatio"))
        if secant[0] == "ok":
            assert same_fraction(a * secant[1], shifted[1])
