"""Property tests for the shared ratio engine: the one power routine and the
one read-back in core, the bounded reduction under it, and the single-step
maps that reach the same ring element by different routes.

Every single-step map lifts its ratios into Z[t]/(t^2 - p*t + q), takes one
product or power there and reads the result back.  Doubling x_n is the
Fibonacci-index step with both inputs x_n (both are w^2 * t), and a secant
step on a*t^2 - b*t - c is, after scaling by a, the shift map of
(p, q) = (b, -a*c) (both are the product of two lifts).
"""

from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import recurseq
from recurseq import (
    DegenerateRatio,
    DegenerateStep,
    IndexSequenceParams,
    PeriodicQuadCF,
    QuadraticABC,
    RecurrenceParams,
    double_ratio,
    fibonacci_index_accel,
    secant_step,
    shift_ratio,
)
from recurseq.core import _bounded_fraction, _power_bound, _readback, _ring_mul, _ring_pow
from oracles import naive_ut, pair_doubling
from test_bigint_paths import COMMON_FACTOR_PAIRS

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


# Coefficients with gcd(p, q) = 1, and the special cases: q = 0, p = 0, the
# double roots of (2, 1) and (4, 4), and the complex roots of (2, 3).
SPECIAL_PAIRS = [(3, 0), (1, 0), (-1, 0), (0, 0), (0, 5), (0, -1), (0, 1), (2, 1), (4, 4), (2, 3)]
pairs = st.one_of(
    st.tuples(coeff, coeff).filter(lambda pq: gcd(*pq) == 1),
    st.sampled_from(COMMON_FACTOR_PAIRS + SPECIAL_PAIRS),
)
scales = st.sampled_from([1, 2, 3, -4, 6])


class TestReadback:
    """_readback(p, e, a, bound) is Fraction(e0 + p*e1, a*e1), or None when e1 = 0."""

    @given(p=coeff, q=coeff, e0=big, e1=big, a=scales)
    @example(p=1, q=-1, e0=5, e1=0, a=1)
    @example(p=2, q=2, e0=-4, e1=6, a=-4)
    @example(p=0, q=0, e0=0, e1=-3, a=6)
    def test_bound_zero_on_any_element(self, p, q, e0, e1, a):
        got = _readback(p, (e0, e1), a, 0)
        if e1 == 0:
            assert got is None
        else:
            assert same_fraction(got, Fraction(e0 + p * e1, a * e1))

    @given(pq=pairs, n=st.integers(0, 300))
    @example(pq=(2, 2), n=64)
    @example(pq=(4, 4), n=300)
    @example(pq=(0, 5), n=2)  # U_2 = 0
    @example(pq=(2, 3), n=300)
    @example(pq=(1, -1), n=0)  # alpha^0 = 1
    def test_power_of_alpha(self, pq, n):
        """alpha^n = T_n + U_n*alpha reads back as x_{n+1} = U_{n+1}/U_n."""
        p, q = pq
        us, _ = naive_ut(p, q, n + 1)
        got = _readback(p, _ring_pow(p, q, (0, 1), n), bound=_power_bound(p, q))
        if us[n] == 0:
            assert got is None
        else:
            assert same_fraction(got, Fraction(us[n + 1], us[n]))

    @given(a=scales, b=coeff, c=coeff, n=st.integers(0, 300))
    @example(a=6, b=3, c=1, n=200)  # gcd(b, a*c) = 3
    @example(a=-4, b=1, c=0, n=50)  # q = 0
    @example(a=2, b=0, c=1, n=2)  # b = 0: sigma_2 = 0
    @example(a=3, b=5, c=2, n=300)
    def test_power_of_alpha_over_a(self, a, b, c, n):
        """Over a, with every prime of a dividing q, as for [b/a, b/c]: (p, q) = (b, -a*c)."""
        p, q = b, -a * c
        us, _ = naive_ut(p, q, n + 1)
        got = _readback(p, _ring_pow(p, q, (0, 1), n), a, _power_bound(p, q))
        if us[n] == 0:
            assert got is None
        else:
            assert same_fraction(got, Fraction(us[n + 1], a * us[n]))


@pytest.mark.parametrize("count", [1, 6])
@pytest.mark.parametrize("module, run", [
    ("accel", lambda count: recurseq.accelerate_general(RecurrenceParams(1, -1), IndexSequenceParams(2, 3, 1, -1),
                                                         count)),
    ("cf", lambda count: recurseq.method_subsequence(PeriodicQuadCF(3, 5, 2), "secant", count)),
])
def test_power_bound_once_per_chain_call(monkeypatch, module, run, count):
    """A chain computes the Lucas bound (gcd(p, q)) once per call, not once per entry."""
    home = getattr(recurseq, module)
    calls = []
    original = home._power_bound
    monkeypatch.setattr(home, "_power_bound", lambda p, q: calls.append((p, q)) or original(p, q))
    assert len(run(count)) == count
    assert len(calls) == 1


class TestRingPow:
    @given(
        p=coeff,
        q=coeff,
        a=st.tuples(st.integers(-50, 50), st.integers(-50, 50)) | st.tuples(st.just(0), st.integers(-50, 50)),
        m=st.integers(0, 40),
    )
    @example(p=3, q=0, a=(0, 9), m=7)  # a0 = 0 and a1 != 1: the product by a1*t
    @example(p=-2, q=5, a=(4, 0), m=5)
    def test_matches_repeated_products(self, p, q, a, m):
        expected = (1, 0)
        for _ in range(m):
            expected = _ring_mul(p, q, expected, a)
        assert _ring_pow(p, q, a, m) == expected

    @settings(max_examples=25)
    @given(p=st.integers(-3, 3), q=st.integers(-3, 3), n=st.integers(0, 2 * 10**5))
    @example(p=1, q=-1, n=2 * 10**5)
    @example(p=2, q=1, n=2 * 10**5)  # double root: U_n = n
    @example(p=2, q=3, n=2 * 10**5 - 1)  # complex roots
    @example(p=0, q=3, n=99_999)
    @example(p=3, q=0, n=131_072)
    def test_alpha_power_matches_pair_doubling(self, p, q, n):
        """alpha^n = (T_n, U_n), against the former pair doubling, which reaches
        indices where naive iteration is too slow."""
        u, u_next = pair_doubling(p, q, n)
        assert _ring_pow(p, q, (0, 1), n) == (u_next - p * u, u)


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
