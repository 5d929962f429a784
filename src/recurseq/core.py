"""Exact order-2 linear recurrences, their U/T basis pair, and companion-matrix powers.

All arithmetic is over Python's arbitrary-precision integers and
``fractions.Fraction``, so every identity exposed here is an exact equality,
never an approximation.  The two basis sequences

    U = W(0, 1, p, q)   and   T = W(1, 0, p, q)

span every sequence with the same coefficients: a_n = a1*U_n + a0*T_n.
Everything is derived from the single pair (U_n, U_{n+1}), evaluated in
O(log n) steps by the doubling rule U_{2k} = U_k(2U_{k+1} - pU_k),
U_{2k+1} = U_{k+1}^2 - qU_k^2: T_n = U_{n+1} - pU_n, and the powers of the
companion matrix M = [[0, 1], [-q, p]] are M^n = [[T_n, U_n], [-qU_n, U_{n+1}]].
The same pair is alpha^n = T_n + U_n*alpha in Z[t]/(t^2 - p*t + q), alpha a
root; _ring_mul and _ring_pow multiply and power such elements for the
acceleration chains, the convergent subsequences, the ratio maps and the
root steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union

from .errors import IndexCapExceeded, InverseUnavailable
from .formatting import format_rational

Exact = Union[int, Fraction]

#: Default bound on |index| for any sequence evaluation; see IndexCapExceeded.
DEFAULT_INDEX_CAP = 10_000_000


def _check_index(n: int, max_index: int | None) -> None:
    cap = DEFAULT_INDEX_CAP if max_index is None else max_index
    if abs(n) > cap:
        raise IndexCapExceeded(
            f"index {format_rational(n)} exceeds the evaluation cap {format_rational(cap)}"
        )


@dataclass(frozen=True)
class RecurrenceParams:
    """Coefficients (p, q) of the recurrence a_n = p*a_{n-1} - q*a_{n-2}.

    The associated characteristic polynomial is t^2 - p*t + q.  Note the
    sign convention: the Fibonacci numbers are (p, q) = (1, -1).
    """

    p: int
    q: int


@dataclass(frozen=True)
class LinRecSequence:
    """Initial conditions (a0, a1) together with recurrence coefficients."""

    a0: int
    a1: int
    params: RecurrenceParams

    def term(self, n: int, max_index: int | None = None) -> int:
        return term(self, n, max_index=max_index)


@dataclass(frozen=True)
class Matrix2:
    """A 2x2 matrix with exact entries (ints or Fractions)."""

    e11: Exact
    e12: Exact
    e21: Exact
    e22: Exact

    @staticmethod
    def identity() -> "Matrix2":
        return Matrix2(1, 0, 0, 1)

    def __matmul__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def det(self) -> Exact:
        return self.e11 * self.e22 - self.e12 * self.e21


def _pair(p: int, q: int, n: int) -> tuple[int, int]:
    """(U_n, U_{n+1}) for n >= 0.

    Walks the bits of n below the leading one from (U_1, U_2) = (1, p),
    doubling k -> 2k and stepping k -> k+1 where the bit is set: three
    full-size products per bit.
    """
    if n == 0:
        return 0, 1
    u, v = 1, p
    for bit in bin(n)[3:]:
        u, v = u * (2 * v - p * u), v * v - q * u * u
        if bit == "1":
            u, v = v, p * v - q * u
    return u, v


def _basis_ut_raw(p: int, q: int, n: int) -> tuple[int, int]:
    """(U_n, T_n) for n >= 0."""
    u, v = _pair(p, q, n)
    return u, v - p * u


# Elements e0 + e1*t of Z[t]/(t^2 - p*t + q) are pairs (e0, e1).  For alpha a
# root of t^2 - p*t + q, alpha^n = T_n + U_n*alpha; its conjugate
# beta^n = (T_n + p*U_n) - U_n*alpha, and alpha^n * beta^n = q^n.
# A ratio x = n/d in lowest terms lifts to the primitive w = (n - p*d) + d*t,
# d*(x - beta) at t = alpha (so x_k lifts to alpha^(k-1)), and e0 + e1*t reads
# back as (e0 + p*e1)/e1: in z = (x - alpha)/(x - beta), products of lifts are
# z1*z2 and powers z^m.  The common factor of what is read back obeys one rule:
# for w primitive, that of w*v divides N(v) = v0^2 + p*v0*v1 + q*v1^2 (as
# w*v*conj(v) = N(v)*w), and that of w^m is made of primes of D = p^2 - 4q
# (mod other primes the ring has no nilpotents).  _bounded_fraction uses it.


def _ring_mul(p: int, q: int, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a*b in Z[t]/(t^2 - p*t + q), with t^2 = p*t - q: three full-size products."""
    a0, a1 = a
    b0, b1 = b
    m0, m1 = a0 * b0, a1 * b1
    return m0 - q * m1, (a0 + a1) * (b0 + b1) - m0 + (p - 1) * m1


def _ring_pow(p: int, q: int, a: tuple[int, int], m: int) -> tuple[int, int]:
    """a^m in Z[t]/(t^2 - p*t + q) for m >= 0, by square-and-multiply.

    A squaring costs three full-size products: (e0 + e1*t)^2 =
    (e0^2 - q*e1^2) + e1*(2*e0 + p*e1)*t.
    """
    if m == 0:
        return 1, 0
    e0, e1 = a
    for bit in bin(m)[3:]:
        e0, e1 = e0 * e0 - q * (e1 * e1), e1 * (2 * e0 + p * e1)
        if bit == "1":
            e0, e1 = _ring_mul(p, q, (e0, e1), a)
    return e0, e1


def _power_chain(p: int, q: int, k0: int, k1: int, s: int, t: int, count: int, max_index: int | None):
    """Yield (k_n, alpha^{k_n} as (T, U)) for n < count along k_n = s*k_{n-1} - t*k_{n-2}.

    Where t <= 0 <= s, a step takes the paper's split (alpha^{k_{n-1}})^s *
    (alpha^{k_{n-2}})^{-t}, a product of nonnegative powers; otherwise (it
    would need a power of the conjugate), and for the seeds, alpha^k is
    -q*U_{k-1} + U_k*alpha from one _pair.  Every product thus multiplies
    powers whose exponents sum to k_n, so none is larger than its entry and
    the index cap bounds the cost.  Each index is held to the cap when
    reached (s and t once a third entry is asked for), and a generated index
    must be >= 2.
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
            u_prev, u = _pair(p, q, k - 1)
            power = -q * u_prev, u
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
    """Fraction(num, den), given that every prime of gcd(num, den) divides bound.

    The gcds run against bound (linear time when it is small), repeated while
    they find a factor; bound = 0 (nothing known) is one full gcd.
    """
    g = gcd(bound, num, den)
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
    f = object.__new__(Fraction)
    f._numerator = num
    f._denominator = den
    return f


def _reduced(p: int, q: int):
    """Fraction constructor for ratios of U terms of (p, q).

    When gcd(p, q) = 1, consecutive U terms are coprime and U_m = p^(m-1)
    (mod q) is prime to q (E. Lucas, 1878), so those ratios need no gcd.
    """
    return _coprime_fraction if gcd(p, q) == 1 else Fraction


def companion_power(
    params: RecurrenceParams, n: int, max_index: int | None = None
) -> Matrix2:
    """M^n for the companion matrix M = [[0, 1], [-q, p]], any integer n.

    For n >= 0 the entries are the integers [[T_n, U_n], [T_{n+1}, U_{n+1}]].
    Negative powers require q != 0 (q is the determinant of M) and come out
    as Fractions with denominator q^|n|.
    """
    _check_index(n, max_index)
    p, q = params.p, params.q
    if n >= 0:
        u, v = _pair(p, q, n)
        return Matrix2(v - p * u, u, -q * u, v)
    if q == 0:
        raise InverseUnavailable(
            "negative companion powers need q != 0 (the matrix is singular)"
        )
    k = -n
    u_prev, u_k = _pair(p, q, k - 1)
    u_next = p * u_k - q * u_prev
    frac = _reduced(p, q)
    small = q ** (k - 1)
    big = small * q
    # M^{-k} = (1/q^k) [[U_{k+1}, -U_k], [q U_k, -q U_{k-1}]]
    return Matrix2(frac(u_next, big), frac(-u_k, big), frac(u_k, small), frac(-u_prev, small))


def basis_ut(
    params: RecurrenceParams, n: int, max_index: int | None = None
) -> tuple[Exact, Exact]:
    """The pair (U_n, T_n); integers for n >= 0, Fractions for n < 0.

    Negative indices extend the sequences through M^n = [[T_n, U_n], ...],
    which matches the closed form U_n = (alpha^n - beta^n)/(alpha - beta)
    whenever the characteristic roots are distinct.
    """
    if n >= 0:
        _check_index(n, max_index)
        return _basis_ut_raw(params.p, params.q, n)
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


_FIB = RecurrenceParams(1, -1)


def fibonacci(n: int, max_index: int | None = None) -> int:
    """F_n, extended to negative n via F_{-k} = (-1)^{k+1} F_k."""
    value = basis_ut(_FIB, n, max_index)[0]
    return int(value) if isinstance(value, Fraction) else value
