import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
import sympy

from recurseq import (
    DEFAULT_INDEX_CAP,
    DegenerateRatio,
    DegenerateStep,
    IndexCapExceeded,
    NonRealRoots,
    NoProgress,
    QuadraticABC,
    QuadraticPQ,
    RecurrenceParams,
    approximate_root,
    approximate_root_with_trace,
    format_decimal,
    halley_index,
    halley_step,
    householder_index,
    householder_step,
    newton_index,
    newton_step,
    ratio_x,
    roots,
    secant_index_sequence,
    secant_step,
)
from oracles import inverse_derivative_polys, naive_fib


GOLDEN = QuadraticABC(1, 1, 1)  # t^2 - t - 1


class TestSteps:
    def test_secant_examples(self):
        assert secant_step(GOLDEN, 2, 1) == Fraction(3, 2)
        assert secant_step(GOLDEN, Fraction(3, 2), 2) == Fraction(8, 5)
        assert secant_step(QuadraticABC(1, 0, 4), 3, 1) == Fraction(7, 4)

    def test_secant_is_the_true_secant_iteration(self):
        rng = random.Random(4321)
        for _ in range(50):
            f = QuadraticABC(rng.choice([1, 2, 3, -2]), rng.randint(-9, 9), rng.randint(-9, 9))
            y1 = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            y2 = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            if f(y1) == f(y2):
                continue
            expected = y1 - f(y1) * (y1 - y2) / (f(y1) - f(y2))
            assert secant_step(f, y1, y2) == expected

    def test_newton_examples(self):
        assert newton_step(GOLDEN, 1) == 2
        assert newton_step(GOLDEN, 2) == Fraction(5, 3)
        assert newton_step(QuadraticABC(1, 0, 4), 2) == 2

    def test_newton_critical_point(self):
        with pytest.raises(DegenerateStep):
            newton_step(QuadraticABC(1, 2, 3), 1)

    def test_halley_examples(self):
        assert halley_step(QuadraticPQ(1, -1), 1) == Fraction(3, 2)
        assert halley_step(QuadraticPQ(1, -1), Fraction(3, 2)) == Fraction(55, 34)
        assert halley_step(QuadraticPQ(0, -4), 2) == 2

    def test_householder_examples(self):
        pq = QuadraticPQ(1, -1)
        assert householder_step(pq, 1, 1) == 2
        assert householder_step(pq, 1, 2) == Fraction(3, 2)
        assert householder_step(pq, 1, 3) == Fraction(5, 3)

    def test_householder_specializes_to_newton_and_halley(self):
        rng = random.Random(8642)
        for _ in range(100):
            p, q = rng.randint(-9, 9), rng.randint(-9, 9)
            y = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            pq = QuadraticPQ(p, q)
            abc = QuadraticABC(1, p, -q)
            try:
                expected_newton = newton_step(abc, y)
                expected_halley = halley_step(pq, y)
            except DegenerateStep:
                continue
            assert householder_step(pq, y, 1) == expected_newton
            assert householder_step(pq, y, 2) == expected_halley

    def test_rational_roots_are_fixed_points(self):
        # f = t^2 - 3t + 2 = (t-1)(t-2), written as 1*t^2 - 3*t - (-2).
        abc = QuadraticABC(1, 3, -2)
        pq = QuadraticPQ(3, 2)
        for root in (1, 2):
            assert newton_step(abc, root) == root
            assert secant_step(abc, root, Fraction(root, 1) + 5) == root
            assert halley_step(pq, root) == root
            for d in range(1, 6):
                assert householder_step(pq, root, d) == root


class TestDerivativePolynomials:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_against_symbolic_differentiation(self, d):
        t, p, q = sympy.symbols("t p q")
        f = t**2 - p * t + q
        polys = inverse_derivative_polys(p, q, d)
        built = sum(sympy.Integer(1) * c * t**i for i, c in enumerate(polys[d]))
        expected = sympy.diff(1 / f, t, d)
        assert sympy.simplify(built / f ** (d + 1) - expected) == 0


class TestIndexMaps:
    def test_index_formulas(self):
        assert newton_index(2) == 3
        assert newton_index(3) == 5
        assert newton_index(9) == 17
        assert halley_index(2) == 4
        assert halley_index(4) == 10
        assert halley_index(halley_index(2)) == 10
        assert householder_index(2, 1) == 3
        assert householder_index(2, 3) == 5
        assert householder_index(5, 4) == 21

    def test_householder_order_zero_has_one_message(self, capsys):
        """The order is checked once: the index map, the step, the root and the CLI say the same."""
        from recurseq.cli import main

        message = "Householder order must be >= 1, got 0"
        calls = (lambda: householder_index(2, 0), lambda: householder_step(QuadraticPQ(1, -1), 2, 0),
                 lambda: approximate_root(GOLDEN, "householder", 5, order=0))
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message
        argv = ["root", "-a", "1", "-b", "1", "-c", "1", "--method", "householder", "--order", "0", "--digits", "5"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        with pytest.raises(ValueError, match="^ratio index must be >= 2, got 1$"):
            householder_index(1, 0)  # k is checked first
        with pytest.raises(ValueError, match="^householder method needs an order >= 1$"):
            approximate_root(GOLDEN, "householder", 5)

    def test_secant_index_sequence(self):
        assert secant_index_sequence(6) == [2, 3, 4, 6, 9, 14]
        assert secant_index_sequence(1) == [2]
        seq = secant_index_sequence(30)
        assert all(seq[i] == naive_fib(i + 2) + 1 for i in range(30))

    def test_step_equals_subsequence_member(self):
        rng = random.Random(1357)
        checked = 0
        while checked < 15:
            p, q = rng.randint(-9, 9), rng.randint(-9, 9)
            if q == 0 or p * p - 4 * q == 0:
                continue
            params = RecurrenceParams(p, q)
            abc = QuadraticABC(1, p, -q)
            pq = QuadraticPQ(p, q)
            for k in range(2, 30):
                try:
                    x_k = ratio_x(params, k)
                    assert newton_step(abc, x_k) == ratio_x(params, newton_index(k))
                    assert halley_step(pq, x_k) == ratio_x(params, halley_index(k))
                    for d in range(1, 6):
                        assert householder_step(pq, x_k, d) == ratio_x(
                            params, householder_index(k, d)
                        )
                except (DegenerateRatio, DegenerateStep):
                    continue
            checked += 1

    def test_secant_recurrence_on_index_chain(self):
        params = RecurrenceParams(2, -3)
        pq_form = QuadraticABC(1, 2, 3)
        indices = secant_index_sequence(9)
        xs = [ratio_x(params, i) for i in indices]
        for n in range(2, len(indices)):
            assert secant_step(pq_form, xs[n - 1], xs[n - 2]) == xs[n]


class TestApproximateRoot:
    def test_examples(self):
        assert approximate_root(GOLDEN, "newton", 10) == "1.6180339887"
        assert approximate_root(QuadraticABC(1, 0, 4), "newton", 5) == "2.00000"
        assert approximate_root(QuadraticABC(2, 2, 1), "halley", 8) == "1.36602540"

    def test_all_methods_agree_on_golden_ratio(self):
        expected = "1.61803398874989"
        for method, order in (("secant", None), ("newton", None), ("halley", None), ("householder", 4)):
            assert approximate_root(GOLDEN, method, 14, order=order) == expected

    def test_trace_iterates_are_fibonacci_ratios(self):
        _, iterates = approximate_root_with_trace(GOLDEN, "newton", 12)
        for step, value in enumerate(iterates):
            idx = 2**step + 1
            assert value == Fraction(naive_fib(idx), naive_fib(idx - 1))

    def test_non_real_roots_rejected(self):
        with pytest.raises(NonRealRoots):
            approximate_root(QuadraticABC(1, 1, -1), "newton", 5)

    def test_no_progress_when_cap_too_small(self):
        with pytest.raises(NoProgress):
            approximate_root(GOLDEN, "newton", 30, max_iterations=2)

    def test_seed_on_symmetry_axis_is_shifted(self):
        # b = 0 parks the canonical seed on the critical point; the run
        # still converges to the positive root.
        assert approximate_root(QuadraticABC(1, 0, 9), "halley", 6) == "3.000000"

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            approximate_root(GOLDEN, "bisection", 5)
        with pytest.raises(ValueError):
            approximate_root(GOLDEN, "newton", 0)
        with pytest.raises(ValueError):
            QuadraticABC(0, 1, 1)

    def test_long_unknown_method_is_described_by_length(self):
        with pytest.raises(ValueError) as info:
            approximate_root(GOLDEN, "x" * 5000, 5)
        assert str(info.value) == "unknown method of 5000 characters"
        with pytest.raises(ValueError) as info:
            approximate_root(GOLDEN, "x" * 100, 5)
        assert str(info.value) == f"unknown method '{'x' * 100}'"
        with pytest.raises(ValueError) as info:
            approximate_root(GOLDEN, None, 5)
        assert str(info.value) == "unknown method None"

    @pytest.mark.parametrize("digits", [10**7 + 1, 10**19])
    def test_digits_past_the_fixed_cap_refused_before_iterating(self, monkeypatch, digits):
        def unreachable(*args):
            raise AssertionError("the iteration started")

        monkeypatch.setattr(roots, "_iterate", unreachable)
        assert DEFAULT_INDEX_CAP == 10**7
        with pytest.raises(IndexCapExceeded) as info:
            approximate_root_with_trace(GOLDEN, "newton", digits)
        assert str(info.value) == f"digits must be <= 10000000, got {digits}"
        with pytest.raises(IndexCapExceeded):
            approximate_root(GOLDEN, "halley", digits, max_iterations=5)
        with pytest.raises(ValueError, match="digits must be >= 1"):
            approximate_root(GOLDEN, "newton", -digits)

    def test_rejects_negative_max_iterations(self):
        with pytest.raises(ValueError, match="max_iterations"):
            approximate_root_with_trace(GOLDEN, "newton", 5, max_iterations=-1)
        with pytest.raises(NoProgress):
            approximate_root(GOLDEN, "newton", 5, max_iterations=0)


class TestDecimalFormatting:
    def test_half_even_ties(self):
        assert format_decimal(Fraction(1, 8), 2) == "0.12"
        assert format_decimal(Fraction(3, 8), 2) == "0.38"
        assert format_decimal(Fraction(-1, 8), 2) == "-0.12"
        assert format_decimal(Fraction(5, 1), 3) == "5.000"

    def test_against_decimal_module(self):
        rng = random.Random(5555)
        for _ in range(100):
            num = rng.randint(-10**6, 10**6)
            den = rng.randint(1, 10**6)
            digits = rng.randint(1, 12)
            value = Fraction(num, den)
            with localcontext() as ctx:
                ctx.prec = 80
                expected = (Decimal(num) / Decimal(den)).quantize(Decimal(1).scaleb(-digits))
            got = format_decimal(value, digits)
            assert Decimal(got) == expected, (value, digits)

    def test_round_trip_precision(self):
        value = Fraction(naive_fib(40), naive_fib(39))
        rendered = format_decimal(value, 30)
        assert abs(Fraction(Decimal(rendered)) - value) <= Fraction(1, 2 * 10**30)
