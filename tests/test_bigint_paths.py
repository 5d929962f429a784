"""Differential tests for the large-integer path: pair doubling, gcd-free
ratios and the decimal renderer, each against an independent reference."""

import functools
import importlib
import pkgutil
import random
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import recurseq
from recurseq import (
    DegenerateRatio,
    IndexCapExceeded,
    LinRecSequence,
    NonRealRoots,
    PeriodicQuadCF,
    QuadraticABC,
    RecurrenceParams,
    approximate_root,
    basis_ut,
    companion_power,
    fibonacci,
    format_decimal,
    format_rational,
    general_ratio_y,
    method_subsequence,
    ratio_x,
    term,
)
from recurseq.core import _basis_ut_raw, _coprime_fraction, _pair, _reduced
from recurseq.formatting import _STR_BITS, _int_text
from oracles import companion_tuple, mat_mul, naive_ut, sqrt_decimal

FIB = RecurrenceParams(1, -1)
COMMON_FACTOR_PAIRS = [(4, 2), (6, 3), (2, 2), (-4, 2), (6, -9), (0, 5)]

coeff = st.integers(-10, 10)
rational_coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def assert_reduced(value: Fraction, expected: Fraction) -> None:
    assert value == expected
    assert value.denominator > 0
    assert gcd(value.numerator, value.denominator) == 1
    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)


class TestPairDoubling:
    @given(p=coeff, q=coeff, n=st.integers(0, 300))
    @example(p=1, q=0, n=300)
    @example(p=0, q=1, n=300)
    @example(p=0, q=0, n=5)
    @example(p=-3, q=-7, n=300)
    def test_pair_matches_naive_iteration(self, p, q, n):
        us, ts = naive_ut(p, q, n + 1)
        assert _pair(p, q, n) == (us[n], us[n + 1])
        assert _basis_ut_raw(p, q, n) == (us[n], ts[n])
        assert basis_ut(RecurrenceParams(p, q), n) == (us[n], ts[n])

    @given(p=rational_coeff, q=rational_coeff, n=st.integers(0, 60))
    @example(p=Fraction(1, 2), q=Fraction(0), n=17)
    def test_rational_coefficients(self, p, q, n):
        us, ts = naive_ut(p, q, n + 1)
        assert _pair(p, q, n) == (us[n], us[n + 1])
        assert _basis_ut_raw(p, q, n) == (us[n], ts[n])

    @given(p=coeff, q=coeff, n=st.integers(0, 300))
    @example(p=0, q=0, n=0)
    @example(p=5, q=0, n=300)
    def test_companion_power_matches_repeated_products(self, p, q, n):
        expected = (1, 0, 0, 1)
        for _ in range(n):
            expected = mat_mul(expected, companion_tuple(p, q))
        m = companion_power(RecurrenceParams(p, q), n)
        assert (m.e11, m.e12, m.e21, m.e22) == expected


class TestCoprimeFraction:
    @given(a=st.integers(-10**30, 10**30), b=st.integers(-10**30, 10**30).filter(bool))
    @example(a=3, b=-4)
    @example(a=-3, b=-4)
    @example(a=1, b=1)
    def test_matches_fraction_on_coprime_pairs(self, a, b):
        g = gcd(a, b)
        num, den = a // g, b // g
        assert_reduced(_coprime_fraction(num, den), Fraction(num, den))

    @given(den=st.integers(-10**30, 10**30).filter(bool))
    @example(den=-1)
    def test_zero_numerator_is_zero_over_one(self, den):
        assert_reduced(_coprime_fraction(0, den), Fraction(0, den))

    def test_behaves_as_a_fraction(self):
        f = _coprime_fraction(-3, -8)
        assert type(f) is Fraction
        assert hash(f) == hash(Fraction(3, 8))
        assert f + Fraction(5, 8) == 1
        assert str(f) == "3/8"


class TestCommonFactorCoefficients:
    @pytest.mark.parametrize("p, q", COMMON_FACTOR_PAIRS)
    def test_shortcut_does_not_fire(self, p, q):
        assert gcd(p, q) > 1
        assert _reduced(p, q) is Fraction

    @pytest.mark.parametrize("p, q", COMMON_FACTOR_PAIRS + [(1, -1), (3, 2), (-5, 7)])
    def test_ratio_x_is_reduced(self, p, q):
        us, _ = naive_ut(p, q, 120)
        for n in range(2, 121):
            if us[n - 1] == 0:
                with pytest.raises(DegenerateRatio):
                    ratio_x(RecurrenceParams(p, q), n)
                continue
            assert_reduced(ratio_x(RecurrenceParams(p, q), n), Fraction(us[n], us[n - 1]))

    @given(p=coeff, q=coeff.filter(bool), n=st.integers(2, 200))
    @example(p=4, q=2, n=50)
    @example(p=6, q=3, n=51)
    @example(p=2, q=2, n=64)
    def test_ratio_x_matches_fraction(self, p, q, n):
        us, _ = naive_ut(p, q, n)
        if us[n - 1] == 0:
            return
        assert_reduced(ratio_x(RecurrenceParams(p, q), n), Fraction(us[n], us[n - 1]))

    @given(p=coeff, q=coeff.filter(bool), k=st.integers(1, 80))
    @example(p=4, q=2, k=40)
    @example(p=6, q=3, k=41)
    @example(p=2, q=2, k=1)
    @example(p=1, q=-1, k=1)
    def test_negative_companion_power(self, p, q, k):
        us, _ = naive_ut(p, q, k + 1)
        expected = (
            Fraction(us[k + 1], q**k),
            Fraction(-us[k], q**k),
            Fraction(us[k], q ** (k - 1)),
            Fraction(-us[k - 1], q ** (k - 1)),
        )
        params = RecurrenceParams(p, q)
        m = companion_power(params, -k)
        for entry, want in zip((m.e11, m.e12, m.e21, m.e22), expected):
            assert_reduced(entry, want)
        assert m @ companion_power(params, k) == companion_power(params, 0)


def closed_form_y(seq: LinRecSequence, n: int) -> Fraction:
    """a_n / a_{n-1} through (a1*x_n - a0*q) / (a0*x_n + a1 - a0*p), on Fractions."""
    p, q = seq.params.p, seq.params.q
    x_n = ratio_x(seq.params, n)
    denom = seq.a0 * x_n + seq.a1 - seq.a0 * p
    if denom == 0:
        raise DegenerateRatio(f"a_{n - 1} = 0")
    return (seq.a1 * x_n - seq.a0 * q) / denom


class TestGeneralRatio:
    @given(p=coeff, q=coeff, a0=st.integers(-20, 20), a1=st.integers(-20, 20), n=st.integers(2, 150))
    @example(p=1, q=-1, a0=1, a1=0, n=2)
    @example(p=0, q=1, a0=2, a1=3, n=3)
    @example(p=1, q=-1, a0=2, a1=4, n=60)  # every term even: det = 4
    @example(p=3, q=2, a0=1, a1=2, n=40)  # a_n = 2^n: det = 0
    @example(p=4, q=2, a0=1, a1=3, n=30)  # gcd(p, q) = 2
    def test_matches_closed_form(self, p, q, a0, a1, n):
        seq = LinRecSequence(a0, a1, RecurrenceParams(p, q))
        try:
            expected = closed_form_y(seq, n)
        except DegenerateRatio:
            with pytest.raises(DegenerateRatio):
                general_ratio_y(seq, n)
            return
        assert_reduced(general_ratio_y(seq, n), expected)

    def test_vanishing_u_prev(self):
        seq = LinRecSequence(2, 3, RecurrenceParams(0, 1))  # U_2 = 0
        with pytest.raises(DegenerateRatio, match="U_2 = 0"):
            general_ratio_y(seq, 3)

    def test_vanishing_previous_term(self):
        seq = LinRecSequence(1, 0, FIB)  # a_1 = 0
        with pytest.raises(DegenerateRatio, match="a_1 = 0"):
            general_ratio_y(seq, 2)


class TestIntText:
    @given(bits=st.integers(0, 4 * _STR_BITS), seed=st.integers(0, 2**32), negative=st.booleans())
    def test_matches_str(self, bits, seed, negative):
        n = random.Random(seed).getrandbits(bits)
        n = -n if negative else n
        assert _int_text(n) == str(n)

    @pytest.mark.parametrize("bits", [_STR_BITS - 1, _STR_BITS, _STR_BITS + 1, 3 * _STR_BITS + 7])
    def test_threshold_edges(self, bits):
        for n in (2**bits - 1, 2**bits, 2**bits + 1, 2 ** (bits - 1) + 12345):
            assert _int_text(n) == str(n)
            assert _int_text(-n) == str(-n)

    @pytest.mark.parametrize("k", [0, 1, 3699, 3700, 3701, 4300, 4301, 12000])
    def test_powers_of_ten_and_neighbours(self, k):
        for n in (10**k - 1, 10**k, 10**k + 1):
            assert _int_text(n) == str(n)
            assert _int_text(-n) == str(-n)


def decimal_text(n: int) -> str:
    return str(Decimal(n))


class TestRenderingUnderDefaultGuard:
    def test_fibonacci_100000_both_renderers(self, default_str_guard):
        f = fibonacci(10**5)
        digits = decimal_text(f)
        assert len(digits) > 20_000
        assert format_rational(f) == digits
        assert format_decimal(f, 10) == digits + "." + "0" * 10
        assert format_rational(-f) == "-" + digits

        x = ratio_x(FIB, 10**5)
        assert format_rational(x) == f"{decimal_text(x.numerator)}/{decimal_text(x.denominator)}"
        assert format_decimal(x, 5000).startswith("1.6180339887")

    def test_root_with_5000_digits(self, default_str_guard):
        text = approximate_root(QuadraticABC(1, 1, 1), "newton", 5000)
        whole, frac = text.split(".")
        assert whole == "1" and len(frac) == 5000
        with localcontext() as ctx:
            ctx.prec = 5100
            golden = (1 + sqrt_decimal(5, 5100)) / 2
            expected = golden.quantize(Decimal(1).scaleb(-5000), rounding=ROUND_HALF_EVEN)
            assert abs(Decimal(text) - expected) <= Decimal(1).scaleb(-5000)


class TestTypedErrorsUnderDefaultGuard:
    """Messages that carry a user-sized integer still raise their own type."""

    def test_index_cap(self, default_str_guard):
        with pytest.raises(IndexCapExceeded, match="exceeds the evaluation cap"):
            term(LinRecSequence(0, 1, FIB), 10**5000)
        with pytest.raises(IndexCapExceeded, match=f"cap {format_rational(10**5000)}$"):
            term(LinRecSequence(0, 1, FIB), 10**5000 + 1, max_index=10**5000)

    def test_non_real_root(self, default_str_guard):
        f = QuadraticABC(10**2200, 1, -(10**2200))
        with pytest.raises(NonRealRoots, match=format_rational(f.discriminant())):
            approximate_root(f, "newton", 5)

    def test_non_real_method_subsequence(self, default_str_guard):
        with pytest.raises(NonRealRoots, match="no real target"):
            method_subsequence(PeriodicQuadCF(10**2200, 1, -(10**2200)), "newton", 1)

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda n: recurseq.newton_index(n), "ratio index must be >= 2, got {}", id="newton_index"),
        pytest.param(lambda n: recurseq.halley_index(n), "ratio index must be >= 2, got {}", id="halley_index"),
        pytest.param(lambda n: recurseq.householder_index(n, 1), "ratio index must be >= 2, got {}",
                     id="householder_index-k"),
        pytest.param(lambda n: recurseq.householder_index(2, n), "Householder order must be >= 1, got {}",
                     id="householder_index-d"),
        pytest.param(lambda n: recurseq.householder_step(recurseq.QuadraticPQ(1, -1), 2, n),
                     "Householder order must be >= 1, got {}", id="householder_step"),
        pytest.param(lambda n: recurseq.secant_index_sequence(n), "count must be >= 1, got {}",
                     id="secant_index_sequence"),
        pytest.param(lambda n: approximate_root(QuadraticABC(1, 1, 1), "newton", n), "digits must be >= 1, got {}",
                     id="approximate_root-digits"),
        pytest.param(lambda n: approximate_root(QuadraticABC(1, 1, 1), "newton", 5, max_iterations=n),
                     "max_iterations must be >= 0, got {}", id="approximate_root-max_iterations"),
        pytest.param(lambda n: PeriodicQuadCF(1, 1, 1).sigma(n), "sigma index must be >= 0, got {}", id="sigma"),
        pytest.param(lambda n: recurseq.quad_cf_convergent(PeriodicQuadCF(1, 1, 1), n),
                     "convergent index must be >= 0, got {}", id="quad_cf_convergent"),
        pytest.param(lambda n: method_subsequence(PeriodicQuadCF(1, 1, 1), "newton", n), "count must be >= 1, got {}",
                     id="method_subsequence"),
        pytest.param(lambda n: recurseq.RationalCF(((1, 1),), period=1).quotient(n),
                     "quotient index must be >= 0, got {}", id="RationalCF.quotient"),
        pytest.param(lambda n: recurseq.convergents_direct(recurseq.RationalCF(((1, 1),)), n),
                     "count must be >= 1, got {}", id="convergents_direct"),
        pytest.param(lambda n: recurseq.convergents_integer(recurseq.RationalCF(((1, 1),)), n),
                     "count must be >= 1, got {}", id="convergents_integer"),
        pytest.param(lambda n: format_decimal(1, n), "digits must be >= 1, got {}", id="format_decimal"),
        pytest.param(lambda n: term(LinRecSequence(0, 1, FIB), n), "term index must be nonnegative, got {}",
                     id="term"),
        pytest.param(lambda n: recurseq.lucas_v(FIB, n), "Lucas index must be nonnegative, got {}", id="lucas_v"),
        pytest.param(lambda n: recurseq.decimated_params(FIB, n), "decimation step must be >= 1, got {}",
                     id="decimated_params"),
        pytest.param(lambda n: ratio_x(FIB, n), "ratio index must be >= 2, got {}", id="ratio_x"),
        pytest.param(lambda n: recurseq.accelerate_general(FIB, recurseq.IndexSequenceParams(2, 3, 1, 1), n),
                     "count must be >= 1, got {}", id="accelerate_general-count"),
        pytest.param(lambda n: recurseq.accelerate_general(FIB, recurseq.IndexSequenceParams(n, 3, 1, 1), 3),
                     "initial indices must be >= 2, got ({}, 3)", id="accelerate_general-seed"),
        pytest.param(lambda n: recurseq.accelerate_general(FIB, recurseq.IndexSequenceParams(2, 3, 0, -n // 2), 3,
                                                           max_index=-n),
                     "generated index g_2 = {} is < 2", id="accelerate_general-generated"),
        pytest.param(lambda n: recurseq.arithmetic_index_accel(FIB, 2, 1, n), "count must be >= 1, got {}",
                     id="arithmetic_index_accel-count"),
        pytest.param(lambda n: recurseq.arithmetic_index_accel(FIB, n, 1, 2), "start index h must be >= 2, got {}",
                     id="arithmetic_index_accel-h"),
        pytest.param(lambda n: recurseq.arithmetic_index_accel(FIB, 2, n - 2, 2), "acceleration index {} is < 2",
                     id="arithmetic_index_accel-step"),
        pytest.param(lambda n: recurseq.verify_nested_fibonacci_identity(n), "identity defined for n >= 3, got {}",
                     id="verify_nested_fibonacci_identity"),
        pytest.param(lambda n: recurseq.verify_fkn_identity(n, 2), "k must be >= 1, got {}", id="verify_fkn-k"),
        pytest.param(lambda n: recurseq.verify_fkn_identity(1, n), "identity defined for n >= 2, got {}",
                     id="verify_fkn-n"),
        pytest.param(lambda n: recurseq.verify_cubic_fibonacci_identity(n), "identity defined for n >= 3, got {}",
                     id="verify_cubic_fibonacci_identity"),
    ])
    def test_value_error_keeps_its_message(self, default_str_guard, call, message):
        """A refused integer past the guard is rendered in the message, not str()'d."""
        n = -(10**5000)
        with pytest.raises(ValueError) as info:
            call(n)
        assert str(info.value) == message.format(format_rational(n))


def test_no_module_holds_a_functools_cache():
    """No cache keyed by user input can grow: the package keeps no functools cache."""
    cached = []
    for info in pkgutil.iter_modules(recurseq.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"recurseq.{info.name}")
        for name, value in vars(module).items():
            own_class = isinstance(value, type) and value.__module__ == module.__name__
            members = vars(value).items() if own_class else [(name, value)]
            for member, obj in members:
                obj = getattr(obj, "__func__", obj)
                if hasattr(obj, "cache_info") or isinstance(obj, functools.cached_property):
                    cached.append(f"{info.name}.{member}")
    assert cached == []
