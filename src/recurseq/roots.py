"""Rational iteration steps for secant/Newton/Halley/Householder on quadratics.

Applied to a quadratic, each of these classical methods maps the ratio x_k of
the associated recurrent sequence onto another ratio term:

    secant   (x_k, x_j) -> x_{k+j-1}      Newton      x_k -> x_{2k-1}
    Halley        x_k   -> x_{3k-2}       Householder x_k -> x_{(d+1)k-d}

so iterating a method is exactly an index acceleration of the ratio sequence.
In the coordinate z = (x - alpha)/(x - beta), alpha and beta the roots of
t^2 - p*t + q, every method is the power map z -> z^m (m = 2 for Newton, 3
for Halley, d+1 for Householder of order d; secant is z -> z1*z2), the
classical Koenig/Householder conjugacy.  All four are therefore computed by
one integer engine, _step, which lifts x = n/d to (n - p*d) + d*t in
Z[t]/(t^2 - p*t + q), takes the m-th power of the lift (secant: the product
of two lifts) and reads it back, with core's ring operations.  Every step is exact.
Each method's m is declared once, in _METHODS; the steps and _iterate (both
through _step), the convergent chains of cf.method_subsequence and the CLI's
trace labels all read it.  Newton and Halley are Householder of orders 1 and
2, so newton_index and halley_index are householder_index at those orders.
"""

from __future__ import annotations

from fractions import Fraction

from .core import DEFAULT_INDEX_CAP, _Value, _check_index, _lift, _readback, _ring_mul, _ring_pow
from .errors import DegenerateStep, IndexCapExceeded, NonRealRoots, NoProgress
from .formatting import _quoted, format_decimal, format_rational


class QuadraticABC(_Value):
    """f(t) = a*t^2 - b*t - c with a != 0.

    Substituting t -> t/a and scaling shows the roots are 1/a times those of
    the monic polynomial t^2 - b*t - a*c, i.e. the associated recurrence
    coefficients are (p, q) = (b, -a*c).
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        if a == 0:
            raise ValueError("leading coefficient a must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def __call__(self, y):
        return self.a * y * y - self.b * y - self.c

    def discriminant(self) -> int:
        return self.b * self.b + 4 * self.a * self.c

    def scaled_pq(self) -> "QuadraticPQ":
        return QuadraticPQ(self.b, -self.a * self.c)


class QuadraticPQ(_Value):
    """Monic form f(t) = t^2 - p*t + q (the characteristic-polynomial convention)."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __call__(self, y):
        return y * y - self.p * y + self.q

    def discriminant(self) -> int:
        return self.p * self.p - 4 * self.q


# Each method as (m of its map z -> z^m, None for secant's z -> z1*z2; the
# DegenerateStep text).  Householder of order d, m = d + 1, is built by _method.
_METHODS = {
    "secant": (None, "secant denominator a*(x1 + x2) - b vanished"),
    "newton": (2, "Newton step at the critical point 2a*y = b"),
    "halley": (3, "Halley denominator 3y^2 - 3py + p^2 - q vanished"),
}


def _method(name: str, order: int | None = None) -> tuple[int | None, str]:
    """(m, degenerate text) of a method by name; householder needs its order."""
    if name == "householder":
        if order is None:
            raise ValueError("householder method needs an order >= 1")
        # One step takes x_2 to x_{m+1}; householder_index holds the one check of the order.
        return householder_index(2, order) - 1, f"Householder order-{order} denominator vanished"
    if name not in _METHODS:
        raise ValueError(f"unknown method {_quoted(name)}")
    return _METHODS[name]


def _index_chain(m: int | None) -> tuple[int, int, int, int]:
    """W(k_0, k_1, s, t) of the exponents k_n: from the canonical seed, iterate n
    is alpha^{k_n} read back, the ratio x_{k_n + 1} and the convergent C_{k_n - 1}."""
    return (1, 2, 1, -1) if m is None else (1, m, m, 0)


def _step(p: int, q: int, a: int, ys, m: int | None, degenerate: str) -> Fraction:
    """y -> x'/a, x' the image of x = a*ys[-1] under z -> z^m for t^2 - p*t + q,
    or for m = None (secant) that of a*ys[-1] and a*ys[-2] under z -> z1*z2.

    Lift and read-back (see core) make this a polynomial identity in (x, p, q),
    valid also for a double root, complex roots and at a rational root (which
    it fixes); e1 = 0 exactly when the method's own denominator vanishes.  A
    power's common factor is made of primes of D = p^2 - 4q and of a (bound a*D),
    a secant's needs one full gcd (bound 0, as for D = 0).
    """
    w = _lift(p, ys[-1], a)
    if m:
        e, bound = _ring_pow(p, q, w, m), a * (p * p - 4 * q)
    else:
        e, bound = _ring_mul(p, q, w, _lift(p, ys[-2], a)), 0
    if (y := _readback(p, e, a, bound)) is None:
        raise DegenerateStep(degenerate)
    return y


def secant_step(f: QuadraticABC, x_prev, x_prev2) -> Fraction:
    """One secant step: (a*x1*x2 + c) / (a*x1 + a*x2 - b), i.e. z -> z1*z2."""
    return _step(f.b, -f.a * f.c, f.a, (x_prev2, x_prev), *_METHODS["secant"])


def newton_step(f: QuadraticABC, y) -> Fraction:
    """One Newton step: (a*y^2 + c) / (2a*y - b), i.e. z -> z^2."""
    return _step(f.b, -f.a * f.c, f.a, (y,), *_METHODS["newton"])


def halley_step(f: QuadraticPQ, y) -> Fraction:
    """One Halley step: y + f(y)*(p - 2y) / (3y^2 - 3py + p^2 - q), i.e. z -> z^3."""
    return _step(f.p, f.q, 1, (y,), *_METHODS["halley"])


def householder_step(f: QuadraticPQ, y, d: int) -> Fraction:
    """One Householder step of order d: y + d * P_{d-1}(y) * f(y) / P_d(y).

    P_k is the numerator of (1/f)^(k) over f^(k+1); on a quadratic the step
    is z -> z^(d+1), so d = 1 reproduces the Newton step and d = 2 the
    Halley step exactly.
    """
    return _step(f.p, f.q, 1, (y,), *_method("householder", d))


def newton_index(k: int) -> int:
    """Ratio index reached by one Newton step from x_k: 2k - 1, Householder's of order 1."""
    return householder_index(k, 1)


def halley_index(k: int) -> int:
    """Ratio index reached by one Halley step from x_k: 3k - 2, Householder's of order 2."""
    return householder_index(k, 2)


def householder_index(k: int, d: int) -> int:
    """Ratio index reached by one order-d Householder step from x_k: (d+1)k - d."""
    if k < 2:
        raise ValueError(f"ratio index must be >= 2, got {format_rational(k)}")
    if d < 1:
        raise ValueError(f"Householder order must be >= 1, got {format_rational(d)}")
    return (d + 1) * k - d


def _method_map_checks(params, k_max: int, d_max: int, max_index: int | None = None):
    """(label, ok, detail) for k = 2..k_max: the Newton, Halley and order 1..d_max
    Householder steps for t^2 - p*t + q take x_k to the ratio at their index map.
    The largest ratio read, x at householder_index(k_max, max(d_max, 2)), is held
    to the cap first; a detail is built only for a failed check, through format_rational."""
    _check_index(householder_index(k_max, max(d_max, 2)) - 1, max_index)
    from .accel import ratio_x  # here, so that root leaves accel unloaded
    abc, pq = QuadraticABC(1, params.p, -params.q), QuadraticPQ(params.p, params.q)
    for k in range(2, k_max + 1):
        x_k = ratio_x(params, k, max_index)
        checks = [("newton", newton_step(abc, x_k), newton_index(k)),
                  ("halley", halley_step(pq, x_k), halley_index(k))]
        checks += [
            (f"householder(d={d})", householder_step(pq, x_k, d), householder_index(k, d))
            for d in range(1, d_max + 1)
        ]
        for name, stepped, target in checks:
            expected = ratio_x(params, target, max_index)
            ok = stepped == expected
            yield f"method-maps {name} k={k}", ok, None if ok else (
                f"step gave {format_rational(stepped)}, ratio x_{target} = {format_rational(expected)}"
            )


def secant_index_sequence(count: int) -> list[int]:
    """Ratio indices visited by the secant chain: g_0 = 2, g_1 = 3, g_n = g_{n-1} + g_{n-2} - 1.

    Closed form: g_n = F_{n+2} + 1.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {format_rational(count)}")
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


def _convergent_indices(f: QuadraticABC, method: str, order: int | None, iterates) -> list[int] | None:
    """The index k_n - 1 of the convergent of [b/a, b/c] each iterate equals,
    or None when they are none: b = 0 (no such fraction) or a shifted seed."""
    if f.b == 0 or iterates[0] != Fraction(f.b, f.a):
        return None
    k_prev, k, s, t = _index_chain(_method(method, order)[0])
    labels = []
    for _ in iterates:
        labels.append(k_prev - 1)
        k_prev, k = k, s * k - t * k_prev
    return labels


def _iterate(f, method, digits, order, max_iterations):
    scale = 10 ** (digits + 2)
    m, degenerate = _method(method, order)
    p, q, a = f.b, -f.a * f.c, f.a
    failure = None
    for shift in range(_SEED_SHIFTS):
        iterates = [y + shift for y in _canonical_seeds(f, method)]
        try:
            nxt = _step(p, q, a, iterates, m, degenerate)
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
            # |y1 - y0| <= 10^-(digits+2), cross-multiplied: no gcd.
            n1, d1 = iterates[-1].as_integer_ratio()
            n0, d0 = iterates[-2].as_integer_ratio()
            if abs(n1 * d0 - n0 * d1) * scale <= d0 * d1:
                return iterates
            iterates.append(_step(p, q, a, iterates, m, degenerate))
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
        raise ValueError(f"digits must be >= 1, got {format_rational(digits)}")
    if digits > DEFAULT_INDEX_CAP:  # a fixed bound, as for the CLI's --format decimal:N
        raise IndexCapExceeded(f"digits must be <= {DEFAULT_INDEX_CAP}, got {format_rational(digits)}")
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be >= 0, got {format_rational(max_iterations)}")
    disc = f.discriminant()
    if disc <= 0:
        raise NonRealRoots(f"b^2 + 4ac = {format_rational(disc)} <= 0: no real distinct roots")
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
