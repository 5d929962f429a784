"""Exact order-2 linear recurrences, their U/T basis pair, and companion-matrix powers.

All arithmetic is over Python's arbitrary-precision integers and
``fractions.Fraction``, so every identity exposed here is an exact equality,
never an approximation.  The two basis sequences

    U = W(0, 1, p, q)   and   T = W(1, 0, p, q)

span every sequence with the same coefficients: a_n = a1*U_n + a0*T_n.
Everything is derived from one ring power, alpha^n = T_n + U_n*alpha in
Z[t]/(t^2 - p*t + q) for alpha a root, in O(log n) squarings by _ring_pow:
U_{n+1} = T_n + p*U_n, and the powers of the companion matrix
M = [[0, 1], [-q, p]] are M^n = [[T_n, U_n], [T_{n+1}, U_{n+1}]].  _ring_mul
and _ring_pow also serve the acceleration chains, the convergent
subsequences, the ratio maps and the root steps; _readback turns an element
into its reduced ratio.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import IndexCapExceeded, InverseUnavailable
from .formatting import format_rational

#: Default bound on |index| for any sequence evaluation; see IndexCapExceeded.
DEFAULT_INDEX_CAP = 10_000_000
_new = object.__new__  # for _coprime_fraction: looked up once, not once per read-back


def _check_index(n: int, max_index: int | None) -> None:
    cap = DEFAULT_INDEX_CAP if max_index is None else max_index
    if abs(n) > cap:
        raise IndexCapExceeded(
            f"index {format_rational(n)} exceeds the evaluation cap {format_rational(cap)}"
        )


class _Value:
    """Base of the immutable value types, whose fields are their __slots__.

    Equality, hash and repr are those of a frozen dataclass with the same
    fields, without importing dataclasses.  Each subclass writes its own
    __init__, setting fields with object.__setattr__.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return type(self), self._astuple()


class RecurrenceParams(_Value):
    """Coefficients (p, q) of the recurrence a_n = p*a_{n-1} - q*a_{n-2}.

    The associated characteristic polynomial is t^2 - p*t + q.  Note the
    sign convention: the Fibonacci numbers are (p, q) = (1, -1).
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


class LinRecSequence(_Value):
    """Initial conditions (a0, a1) together with recurrence coefficients."""

    __slots__ = ("a0", "a1", "params")

    def __init__(self, a0: int, a1: int, params: RecurrenceParams):
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "params", params)

    def term(self, n: int, max_index: int | None = None) -> int:
        return term(self, n, max_index=max_index)


def __getattr__(name):
    # Matrix2 is a dataclass; its module (and dataclasses) loads on first use.
    if name == "Matrix2":
        from ._matrix import Matrix2
        return Matrix2
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Elements e0 + e1*t of Z[t]/(t^2 - p*t + q) are pairs (e0, e1).  For alpha a
# root of t^2 - p*t + q, alpha^n = T_n + U_n*alpha; its conjugate
# beta^n = (T_n + p*U_n) - U_n*alpha, and alpha^n * beta^n = q^n.
# A ratio x = n/d in lowest terms lifts to the primitive w = (n - p*d) + d*t,
# d*(x - beta) at t = alpha (so x_k lifts to alpha^(k-1)), and e0 + e1*t reads
# back as (e0 + p*e1)/e1: in z = (x - alpha)/(x - beta), products of lifts are
# z1*z2 and powers z^m.  The common factor of what is read back obeys one rule:
# for w primitive, that of w*v divides N(v) = v0^2 + p*v0*v1 + q*v1^2 (as
# w*v*conj(v) = N(v)*w), and that of w^m is made of primes of D = p^2 - 4q
# (mod other primes the ring has no nilpotents).  Bounds multiply, as norms do.


def _ring_mul(p: int, q: int, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a*b in Z[t]/(t^2 - p*t + q), with t^2 = p*t - q: three full-size products."""
    a0, a1 = a
    b0, b1 = b
    m0, m1 = a0 * b0, a1 * b1
    return m0 - q * m1, (a0 + a1) * (b0 + b1) - m0 + (p - 1) * m1


def _ring_pow(p: int, q: int, a: tuple[int, int], m: int) -> tuple[int, int]:
    """a^m in Z[t]/(t^2 - p*t + q) for m >= 0, by square-and-multiply; alpha^m is a = (0, 1).

    A squaring costs three full-size products: (e0 + e1*t)^2 =
    (e0^2 - q*e1^2) + e1*(2*e0 + p*e1)*t.  A product by a base other than alpha
    calls _ring_mul; by alpha (a0 = 0) it is a1*(-q*e1 + (e0 + p*e1)*t), no full-size product.
    """
    if m == 0:
        return 1, 0
    a0, a1 = e0, e1 = a
    for bit in bin(m)[3:]:
        e0, e1 = e0 * e0 - q * (e1 * e1), e1 * (2 * e0 + p * e1)
        if bit == "1":
            if a0:
                e0, e1 = _ring_mul(p, q, (e0, e1), a)
            else:
                e0, e1 = -q * a1 * e1, a1 * (e0 + p * e1)
    return e0, e1


def _power_chain(p: int, q: int, k0: int, k1: int, s: int, t: int, count: int, max_index: int | None):
    """Yield (k_n, alpha^{k_n} as (T, U)) for n < count along k_n = s*k_{n-1} - t*k_{n-2}.

    Where t <= 0 <= s, a step takes the paper's split (alpha^{k_{n-1}})^s *
    (alpha^{k_{n-2}})^{-t}, a product of nonnegative powers; otherwise (it
    would need a power of the conjugate), and for the seeds, alpha^k is
    _ring_pow of alpha itself.  Every product thus multiplies powers whose
    exponents sum to k_n, so none is larger than its entry and the index cap
    bounds the cost.  Each index is held to the cap when reached (s and t
    once a third entry is asked for), and a generated index must be >= 2.
    """
    seeds, split, power1 = (k0, k1), t <= 0 <= s, None
    for n in range(count):
        if n < 2:
            k = seeds[n]
        else:
            if n == 2:
                _check_index(s, max_index)
                _check_index(t, max_index)
            k = s * k1 - t * k0
            if k < 2:
                raise ValueError(f"generated index g_{n} = {format_rational(k)} is < 2")
        _check_index(k, max_index)
        if n >= 2 and split:
            power = power1 if s == 1 else _ring_pow(p, q, power1, s)
            if t:
                power = _ring_mul(p, q, power, power0 if t == -1 else _ring_pow(p, q, power0, -t))
        else:
            power = _ring_pow(p, q, (0, 1), k)
        yield k, power
        k0, power0, k1, power1 = k1, power1, k, power


def _lift(p: int, x, a: int = 1) -> tuple[int, int]:
    """The primitive element (n - p*d) + d*t for a*x = n/d in lowest terms."""
    n, d = x.as_integer_ratio()
    g = gcd(a, d)
    n, d = a // g * n, d // g
    return n - p * d, d


def _norm(p: int, q: int, v: tuple[int, int]) -> int:
    """N(v) = v0^2 + p*v0*v1 + q*v1^2, the product of v and its conjugate."""
    v0, v1 = v
    return v0 * (v0 + p * v1) + q * v1 * v1


def _bounded_fraction(num: int, den: int, bound: int) -> Fraction:
    """Fraction(num, den), given that every prime of gcd(num, den) divides bound: the one
    gate for a Fraction built past Fraction's own gcd.

    The gcds run against bound (linear time when it is small) while they find a
    factor: bound = 1 (coprime) runs none, bound = 0 (nothing known) one full gcd.
    """
    g = 1 if bound == 1 else gcd(bound, num, den)
    while g > 1:
        num, den = num // g, den // g
        g = gcd(bound, num, den) if bound else 1
    return _coprime_fraction(num, den)


def _coprime_fraction(num: int, den: int) -> Fraction:
    """The Fraction num/den for a pair already known to be coprime, with no gcd.

    Only the sign is normalised, and a zero numerator gives 0/1.  Callers must
    prove gcd(num, den) = 1; Fraction(num, den) is the reference it equals.
    """
    if num == 0:
        return Fraction(0)
    if den < 0:
        num, den = -num, -den
    f = _new(Fraction)
    f._numerator = num
    f._denominator = den
    return f


def _power_bound(p: int, q: int) -> int:
    """The bound of alpha^m read back over a whose primes divide q: 1 if gcd(p, q) = 1, else 0.

    Consecutive U terms are then coprime, and U_m = p^(m-1) (mod q) is prime to q (E. Lucas, 1878).
    """
    return 1 if gcd(p, q) == 1 else 0


def _readback(p: int, e: tuple[int, int], a: int = 1, bound: int = 0) -> Fraction | None:
    """(e0 + p*e1)/(a*e1) in lowest terms, or None when e1 = 0; bound as for _bounded_fraction."""
    e0, e1 = e
    if not e1:
        return None
    return _bounded_fraction(e0 + p * e1, a * e1, bound)


def companion_power(
    params: RecurrenceParams, n: int, max_index: int | None = None
) -> Matrix2:
    """M^n for the companion matrix M = [[0, 1], [-q, p]], any integer n.

    For n >= 0 the entries are the integers [[T_n, U_n], [T_{n+1}, U_{n+1}]].
    Negative powers require q != 0 (q is the determinant of M) and come out
    as Fractions with denominator q^|n|.
    """
    from ._matrix import Matrix2

    _check_index(n, max_index)
    p, q = params.p, params.q
    if n < 0 and q == 0:
        raise InverseUnavailable(
            "negative companion powers need q != 0 (the matrix is singular)"
        )
    t, u = _ring_pow(p, q, (0, 1), abs(n))
    if n >= 0:
        return Matrix2(t, u, -q * u, t + p * u)
    # M^{-k} = (1/q^k) [[U_{k+1}, -U_k], [q U_k, -q U_{k-1}]], with q*U_{k-1} = -T_k.
    small, bound = q ** (-n - 1), q * _power_bound(p, q)
    big = small * q
    return Matrix2(_bounded_fraction(t + p * u, big, bound), _bounded_fraction(-u, big, bound),
                   _bounded_fraction(u, small, bound), _bounded_fraction(t // q, small, bound))


def basis_ut(
    params: RecurrenceParams, n: int, max_index: int | None = None
) -> tuple[int | Fraction, int | Fraction]:
    """The pair (U_n, T_n); integers for n >= 0, Fractions for n < 0.

    Negative indices extend the sequences through M^n = [[T_n, U_n], ...],
    which matches the closed form U_n = (alpha^n - beta^n)/(alpha - beta)
    whenever the characteristic roots are distinct.
    """
    if n >= 0:
        _check_index(n, max_index)
        return _ring_pow(params.p, params.q, (0, 1), n)[::-1]  # (T_n, U_n) reversed
    m = companion_power(params, n, max_index)
    return m.e12, m.e11


def term(seq: LinRecSequence, n: int, max_index: int | None = None) -> int:
    """Exact n-th term of the sequence, in O(log n) big-integer products."""
    if n < 0:
        raise ValueError(f"term index must be nonnegative, got {format_rational(n)}")
    u_n, t_n = basis_ut(seq.params, n, max_index)
    return seq.a1 * u_n + seq.a0 * t_n


def lucas_v(params: RecurrenceParams, n: int, max_index: int | None = None) -> int:
    """V_n of the companion Lucas sequence V = W(2, p, p, q)."""
    if n < 0:
        raise ValueError(f"Lucas index must be nonnegative, got {format_rational(n)}")
    u_n, t_n = basis_ut(params, n, max_index)
    return params.p * u_n + 2 * t_n


def decimated_params(
    params: RecurrenceParams, m: int, max_index: int | None = None
) -> RecurrenceParams:
    """Coefficients (V_m, q^m) of the m-step decimated basis sequences.

    The sequences U' = W(0, 1, V_m, q^m) and T' = W(1, 0, V_m, q^m) satisfy
    U_{mn} = U_m * U'_n and T_{mn} = T'_n + T_m * U'_n for all n >= 0, which
    is what lets subsequences of U and T be generated recursively.
    """
    if m < 1:
        raise ValueError(f"decimation step must be >= 1, got {format_rational(m)}")
    return RecurrenceParams(lucas_v(params, m, max_index), params.q**m)


def fibonacci(n: int, max_index: int | None = None) -> int:
    """F_n, extended to negative n via F_{-k} = (-1)^{k+1} F_k."""
    _check_index(n, max_index)
    f = _ring_pow(1, -1, (0, 1), abs(n))[1]
    return -f if n < 0 and n % 2 == 0 else f
