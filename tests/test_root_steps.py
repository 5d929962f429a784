"""Differential tests for the root-method steps and the root iteration.

The library computes Newton, Halley and Householder steps as the power map
z -> z^m in Z[t]/(t^2 - p*t + q) and the secant step as the product z1*z2 in
the same ring.  Here each is checked against the direct rational formulas of the
methods (Householder through the derivative polynomials of 1/f), and the
whole iteration against a loop that stops on the plain difference test.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from recurseq import (
    DegenerateStep,
    NoProgress,
    QuadraticABC,
    QuadraticPQ,
    approximate_root_with_trace,
    format_decimal,
    halley_step,
    householder_step,
    newton_step,
    secant_step,
)
from oracles import inverse_derivative_polys


# -- reference formulas: the steps written directly over Fraction ----------------

def ref_secant(f, x1, x2):
    den = f.a * (x1 + x2) - f.b
    if den == 0:
        raise DegenerateStep("secant denominator a*(x1 + x2) - b vanished")
    return Fraction(f.a * x1 * x2 + f.c) / Fraction(den)


def ref_newton(f, y):
    den = 2 * f.a * y - f.b
    if den == 0:
        raise DegenerateStep("Newton step at the critical point 2a*y = b")
    return Fraction(f.a * y * y + f.c) / Fraction(den)


def ref_halley(f, y):
    den = 3 * y * y - 3 * f.p * y + f.p * f.p - f.q
    if den == 0:
        raise DegenerateStep("Halley denominator 3y^2 - 3py + p^2 - q vanished")
    return Fraction(y) + Fraction(f(y) * (f.p - 2 * y)) / Fraction(den)


def poly_eval(coeffs, y):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def ref_householder(f, y, d):
    polys = inverse_derivative_polys(f.p, f.q, d)
    den = poly_eval(polys[d], y)
    if den == 0:
        raise DegenerateStep(f"Householder order-{d} denominator vanished")
    num = d * poly_eval(polys[d - 1], y) * f(y)
    return Fraction(y) + Fraction(num) / Fraction(den)


def outcome(fn, *args):
    """(numerator, denominator) of the result, or the DegenerateStep message."""
    try:
        value = fn(*args)
    except DegenerateStep as exc:
        return ("degenerate", str(exc))
    assert isinstance(value, Fraction)
    return (value.numerator, value.denominator)


def assert_same(got, expected):
    assert got == expected
    if got[0] != "degenerate":
        assert got[1] > 0 and gcd(*got) == 1


# -- strategies ------------------------------------------------------------------

small = st.integers(-30, 30)
nonzero = st.integers(-12, 12).filter(bool)


@st.composite
def monic(draw):
    """(p, q) with D = p^2 - 4q of every sign, a double root one time in five."""
    if draw(st.integers(0, 4)) == 0:
        r = draw(st.integers(-15, 15))
        return 2 * r, r * r
    return draw(small), draw(small)


@st.composite
def rational(draw):
    """An int, a small fraction (hits the degenerate points) or a large one."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.integers(-10**6, 10**6))
    if kind == 1:
        return Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 8)))
    return Fraction(draw(st.integers(-10**40, 10**40)), draw(st.integers(1, 10**30)))


@st.composite
def abc_and_point(draw):
    """QuadraticABC and a point whose denominator a divides one time in three."""
    a = draw(nonzero)
    b, c = draw(small), draw(small)
    if draw(st.integers(0, 2)) == 0:
        y = Fraction(draw(small), a * draw(st.integers(1, 4)))
    else:
        y = draw(rational())
    return QuadraticABC(a, b, c), y


@st.composite
def halley_critical(draw):
    """(p, q, y) with 3y^2 - 3py + p^2 - q = 0: y = (p + k)/2, q = (p^2 + 3k^2)/4."""
    k = draw(st.integers(-9, 9))
    p = draw(st.integers(-9, 9).map(lambda v: 2 * v + (k % 2)))
    return p, (p * p + 3 * k * k) // 4, Fraction(p + k, 2)


# -- the steps --------------------------------------------------------------------

class TestStepsAgainstFormulas:
    @given(fy=abc_and_point(), x2=rational())
    @example(fy=(QuadraticABC(1, 1, 1), Fraction(2)), x2=Fraction(1))
    @example(fy=(QuadraticABC(2, 4, 3), Fraction(1)), x2=Fraction(1))  # 2a*(x1+x2) = b
    @example(fy=(QuadraticABC(1, 2, -1), Fraction(1)), x2=Fraction(3))  # D = 0
    def test_secant(self, fy, x2):
        f, x1 = fy
        assert_same(outcome(secant_step, f, x1, x2), outcome(ref_secant, f, x1, x2))

    @given(fy=abc_and_point())
    @example(fy=(QuadraticABC(2, 6, 1), Fraction(3, 2)))  # critical point
    @example(fy=(QuadraticABC(3, 6, -3), Fraction(5, 7)))  # D = 0
    @example(fy=(QuadraticABC(6, 5, 7), Fraction(5, 12)))  # a shares the denominator
    @example(fy=(QuadraticABC(-4, 3, 2), 7))
    def test_newton(self, fy):
        f, y = fy
        assert_same(outcome(newton_step, f, y), outcome(ref_newton, f, y))

    @given(pq=monic(), y=rational())
    @example(pq=(4, 4), y=Fraction(3, 5))  # D = 0
    @example(pq=(2, 5), y=Fraction(7, 3))  # D < 0
    def test_halley(self, pq, y):
        f = QuadraticPQ(*pq)
        assert_same(outcome(halley_step, f, y), outcome(ref_halley, f, y))

    @given(pq=monic(), y=rational(), d=st.integers(1, 7))
    # (X + pY, Y) share 100 = 2^2 * 5^2 while D = 60 holds 2^2 * 5: two rounds.
    @example(pq=(-6, -6), y=-8, d=3)
    @example(pq=(6, 9), y=Fraction(1, 2), d=4)  # D = 0
    @example(pq=(0, 1), y=Fraction(0), d=3)  # even order at the symmetry axis
    def test_householder(self, pq, y, d):
        f = QuadraticPQ(*pq)
        assert_same(outcome(householder_step, f, y, d), outcome(ref_householder, f, y, d))

    @given(case=halley_critical())
    def test_degenerate_points_raise_like_the_formulas(self, case):
        p, q, y = case
        f = QuadraticPQ(p, q)
        assert outcome(halley_step, f, y)[0] == "degenerate"
        assert_same(outcome(halley_step, f, y), outcome(ref_halley, f, y))
        # z^3 = 1 at these points, so z^6 = 1 too: order 5 fails alike.
        assert_same(outcome(householder_step, f, y, 5), outcome(ref_householder, f, y, 5))
        # At the symmetry axis z = -1, so every even power fails.
        for d in (1, 3, 5):
            got = outcome(householder_step, f, Fraction(p, 2), d)
            assert got[0] == "degenerate"
            assert got == outcome(ref_householder, f, Fraction(p, 2), d)
        assert outcome(newton_step, QuadraticABC(1, p, -q), Fraction(p, 2))[0] == "degenerate"

    @given(r1=st.integers(-12, 12), r2=st.integers(-12, 12), a=nonzero, d=st.integers(1, 6))
    def test_rational_roots_are_fixed(self, r1, r2, a, d):
        assume(r1 != r2 and r1 != a * r2)  # a double root is a critical point
        pq = QuadraticPQ(r1 + r2, r1 * r2)
        for root in (r1, r2):
            assert halley_step(pq, root) == root
            assert householder_step(pq, root, d) == root
        # a*(t - r1/a)*(t - r2) = a*t^2 - (r1 + a*r2)*t + r1*r2
        f = QuadraticABC(a, r1 + a * r2, -r1 * r2)
        for root in (Fraction(r1, a), Fraction(r2)):
            if 2 * a * root != f.b:
                assert_same(outcome(newton_step, f, root), (root.numerator, root.denominator))
            other = root + 7
            if a * (root + other) != f.b:
                assert secant_step(f, root, other) == root


# -- the iteration -----------------------------------------------------------------

def ref_iterate(f, method, digits, order, max_iterations=64):
    """approximate_root_with_trace with the Fraction steps and |y1 - y0| <= tol."""
    tol = Fraction(1, 10 ** (digits + 2))
    pq, a = f.scaled_pq(), f.a
    steps = {
        "secant": lambda ys: ref_secant(f, ys[-1], ys[-2]),
        "newton": lambda ys: ref_newton(f, ys[-1]),
        "halley": lambda ys: ref_halley(pq, a * ys[-1]) / a,
        "householder": lambda ys: ref_householder(pq, a * ys[-1], order) / a,
    }
    step = steps[method]
    c0 = Fraction(f.b, f.a)
    if method != "secant":
        seeds = [c0]
    elif f.b != 0:
        seeds = [c0, Fraction(f.b * f.b + f.a * f.c, f.a * f.b)]
    else:
        seeds = [c0, c0 + 1]
    failure = None
    for shift in range(5):
        ys = [y + shift for y in seeds]
        try:
            nxt = step(ys)
        except DegenerateStep as exc:
            failure = exc
            continue
        if nxt == ys[-1] and f(nxt) != 0:
            failure = DegenerateStep("iteration stalled at its seed")
            continue
        ys.append(nxt)
        for _ in range(max_iterations):
            if abs(ys[-1] - ys[-2]) <= tol:
                return format_decimal(ys[-1], digits), ys
            ys.append(step(ys))
        return "no progress", ys
    raise failure


METHODS = [("secant", None), ("newton", None), ("halley", None)] + [
    ("householder", d) for d in range(1, 6)
]


@st.composite
def real_quadratic(draw):
    a = draw(nonzero)
    b, c = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
    if b * b + 4 * a * c <= 0:
        c = (abs(b) + 1) * (1 if a > 0 else -1)
    return QuadraticABC(a, b, c)


class TestIterationAgainstReference:
    @given(f=real_quadratic(), method=st.sampled_from(METHODS), digits=st.integers(1, 80))
    @example(f=QuadraticABC(1, 0, 9), method=("halley", None), digits=6)  # shifted seed
    @example(f=QuadraticABC(1, 0, 9), method=("newton", None), digits=6)
    @example(f=QuadraticABC(2, 0, 3), method=("secant", None), digits=20)
    @example(f=QuadraticABC(1, 0, 2), method=("householder", 3), digits=9)
    @example(f=QuadraticABC(1, 0, 2), method=("householder", 2), digits=9)
    @example(f=QuadraticABC(3, 1, 2), method=("householder", 5), digits=40)
    def test_iterates_and_stopping_index(self, f, method, digits):
        name, order = method
        try:
            expected = ref_iterate(f, name, digits, order, max_iterations=12)
        except DegenerateStep:
            with pytest.raises(DegenerateStep):
                approximate_root_with_trace(f, name, digits, order=order, max_iterations=12)
            return
        if expected[0] == "no progress":
            with pytest.raises(NoProgress):
                approximate_root_with_trace(f, name, digits, order=order, max_iterations=12)
            return
        text, iterates = approximate_root_with_trace(f, name, digits, order=order,
                                                     max_iterations=12)
        assert text == expected[0]
        assert [(y.numerator, y.denominator) for y in iterates] == [
            (y.numerator, y.denominator) for y in expected[1]
        ]

    @pytest.mark.parametrize("method,order", METHODS)
    def test_shifted_seed_with_b_zero(self, method, order):
        f = QuadraticABC(1, 0, 9)
        text, iterates = approximate_root_with_trace(f, method, 12, order=order)
        assert (text, iterates) == ref_iterate(f, method, 12, order)
        assert text == "3.000000000000"
