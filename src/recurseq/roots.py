"""Rational iteration steps for secant/Newton/Halley/Householder on quadratics.

Applied to a quadratic, each of these classical methods maps the ratio x_k of
the associated recurrent sequence onto another ratio term:

    secant   (x_k, x_j) -> x_{k+j-1}      Newton      x_k -> x_{2k-1}
    Halley        x_k   -> x_{3k-2}       Householder x_k -> x_{(d+1)k-d}

so iterating a method is exactly an index acceleration of the ratio sequence.
Every step below is computed in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DegenerateStep, NonRealRoots, NoProgress
from .formatting import format_decimal


@dataclass(frozen=True)
class QuadraticABC:
    """f(t) = a*t^2 - b*t - c with a != 0.

    Substituting t -> t/a and scaling shows the roots are 1/a times those of
    the monic polynomial t^2 - b*t - a*c, i.e. the associated recurrence
    coefficients are (p, q) = (b, -a*c).
    """

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("leading coefficient a must be nonzero")

    def __call__(self, y):
        return self.a * y * y - self.b * y - self.c

    def discriminant(self) -> int:
        return self.b * self.b + 4 * self.a * self.c

    def scaled_pq(self) -> "QuadraticPQ":
        return QuadraticPQ(self.b, -self.a * self.c)


@dataclass(frozen=True)
class QuadraticPQ:
    """Monic form f(t) = t^2 - p*t + q (the characteristic-polynomial convention)."""

    p: int
    q: int

    def __call__(self, y):
        return y * y - self.p * y + self.q

    def discriminant(self) -> int:
        return self.p * self.p - 4 * self.q


def secant_step(f: QuadraticABC, x_prev, x_prev2) -> Fraction:
    """One secant step: (a*x1*x2 + c) / (a*x1 + a*x2 - b)."""
    den = f.a * (x_prev + x_prev2) - f.b
    if den == 0:
        raise DegenerateStep("secant denominator a*(x1 + x2) - b vanished")
    return Fraction(f.a * x_prev * x_prev2 + f.c) / Fraction(den)


def newton_step(f: QuadraticABC, y) -> Fraction:
    """One Newton step: (a*y^2 + c) / (2a*y - b)."""
    den = 2 * f.a * y - f.b
    if den == 0:
        raise DegenerateStep("Newton step at the critical point 2a*y = b")
    return Fraction(f.a * y * y + f.c) / Fraction(den)


def halley_step(f: QuadraticPQ, y) -> Fraction:
    """One Halley step: y + f(y)*(p - 2y) / (3y^2 - 3py + p^2 - q)."""
    den = 3 * y * y - 3 * f.p * y + f.p * f.p - f.q
    if den == 0:
        raise DegenerateStep("Halley denominator 3y^2 - 3py + p^2 - q vanished")
    return Fraction(y) + Fraction(f(y) * (f.p - 2 * y)) / Fraction(den)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_derivative(a):
    return [i * c for i, c in enumerate(a)][1:] or [0]


def _poly_eval(a, y):
    acc = 0
    for c in reversed(a):
        acc = acc * y + c
    return acc


# Keyed by caller-supplied (p, q, d), so bounded; a miss costs O(d^2) products.
@lru_cache(maxsize=128)
def _inverse_derivative_polys(p, q, d):
    """P_0..P_d with (1/f)^(k) = P_k / f^{k+1} for f = t^2 - p*t + q.

    Differentiating P_{k-1}/f^k gives the integer-coefficient recurrence
    P_k = P'_{k-1}*f - k*P_{k-1}*f', which keeps every Householder step
    rational (no root extraction needed).
    """
    f = [q, -p, 1]
    fp = [-p, 2]
    polys = [(1,)]
    for k in range(1, d + 1):
        prev = list(polys[-1])
        term1 = _poly_mul(_poly_derivative(prev), f)
        term2 = _poly_mul(prev, fp)
        width = max(len(term1), len(term2))
        term1 += [0] * (width - len(term1))
        term2 += [0] * (width - len(term2))
        polys.append(tuple(t1 - k * t2 for t1, t2 in zip(term1, term2)))
    return tuple(polys)


def householder_step(f: QuadraticPQ, y, d: int) -> Fraction:
    """One Householder step of order d: y + d * P_{d-1}(y) * f(y) / P_d(y).

    d = 1 reproduces the Newton step and d = 2 the Halley step exactly.
    """
    if d < 1:
        raise ValueError(f"Householder order must be >= 1, got {d}")
    polys = _inverse_derivative_polys(f.p, f.q, d)
    den = _poly_eval(polys[d], y)
    if den == 0:
        raise DegenerateStep(f"Householder order-{d} denominator vanished")
    num = d * _poly_eval(polys[d - 1], y) * f(y)
    return Fraction(y) + Fraction(num) / Fraction(den)


def newton_index(k: int) -> int:
    """Ratio index reached by one Newton step from x_k: 2k - 1."""
    if k < 2:
        raise ValueError(f"ratio index must be >= 2, got {k}")
    return 2 * k - 1


def halley_index(k: int) -> int:
    """Ratio index reached by one Halley step from x_k: 3k - 2."""
    if k < 2:
        raise ValueError(f"ratio index must be >= 2, got {k}")
    return 3 * k - 2


def householder_index(k: int, d: int) -> int:
    """Ratio index reached by one order-d Householder step from x_k: (d+1)k - d."""
    if k < 2:
        raise ValueError(f"ratio index must be >= 2, got {k}")
    if d < 1:
        raise ValueError(f"Householder order must be >= 1, got {d}")
    return (d + 1) * k - d


def secant_index_sequence(count: int) -> list[int]:
    """Ratio indices visited by the secant chain: g_0 = 2, g_1 = 3, g_n = g_{n-1} + g_{n-2} - 1.

    Closed form: g_n = F_{n+2} + 1.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    indices = [2, 3]
    while len(indices) < count:
        indices.append(indices[-1] + indices[-2] - 1)
    return indices[:count]


_SEED_SHIFTS = 5


def _canonical_seeds(f: QuadraticABC, method: str) -> list[Fraction]:
    c0 = Fraction(f.b, f.a)
    if method == "secant":
        if f.b != 0:
            return [c0, Fraction(f.b * f.b + f.a * f.c, f.a * f.b)]
        return [c0, c0 + 1]
    return [c0]


def _make_stepper(f: QuadraticABC, method: str, order: int | None):
    if method == "newton":
        return lambda ys: newton_step(f, ys[-1])
    if method == "secant":
        return lambda ys: secant_step(f, ys[-1], ys[-2])
    pq = f.scaled_pq()
    a = f.a
    if method == "halley":
        return lambda ys: halley_step(pq, a * ys[-1]) / a
    if method == "householder":
        if order is None or order < 1:
            raise ValueError("householder method needs an order >= 1")
        return lambda ys: householder_step(pq, a * ys[-1], order) / a
    raise ValueError(f"unknown method {method!r}")


def _iterate(f, method, digits, order, max_iterations):
    tol = Fraction(1, 10 ** (digits + 2))
    step = _make_stepper(f, method, order)
    failure = None
    for shift in range(_SEED_SHIFTS):
        iterates = [y + shift for y in _canonical_seeds(f, method)]
        try:
            nxt = step(iterates)
        except DegenerateStep as exc:
            failure = exc
            continue
        if nxt == iterates[-1] and f(nxt) != 0:
            # Parked at a non-root fixed point (e.g. the seed sits on the
            # symmetry axis when b = 0); move the seed and retry.
            failure = DegenerateStep("iteration stalled at its seed")
            continue
        iterates.append(nxt)
        for _ in range(max_iterations):
            if abs(iterates[-1] - iterates[-2]) <= tol:
                return iterates
            iterates.append(step(iterates))
        raise NoProgress(
            f"no {digits}-digit agreement within {max_iterations} iterations"
        )
    raise failure


def approximate_root_with_trace(
    f: QuadraticABC,
    method: str,
    digits: int,
    order: int | None = None,
    max_iterations: int = 64,
) -> tuple[str, list[Fraction]]:
    """Like approximate_root, but also returns the full list of exact iterates."""
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    if f.discriminant() <= 0:
        raise NonRealRoots(f"b^2 + 4ac = {f.discriminant()} <= 0: no real distinct roots")
    iterates = _iterate(f, method, digits, order, max_iterations)
    return format_decimal(iterates[-1], digits), iterates


def approximate_root(
    f: QuadraticABC,
    method: str,
    digits: int,
    order: int | None = None,
    max_iterations: int = 64,
) -> str:
    """Decimal approximation of the attracting real root of a*t^2 - b*t - c.

    Starts from the seed b/a and iterates the chosen method until two
    successive exact iterates agree to `digits` decimal places (with two
    guard digits); the returned string is the final iterate correctly
    rounded (half-even) to `digits` fractional digits.
    """
    return approximate_root_with_trace(f, method, digits, order, max_iterations)[0]
