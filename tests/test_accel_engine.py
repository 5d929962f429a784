"""Differential tests for the integer acceleration engine.

The library steps alpha^{g_n} = T + U*alpha in Z[t]/(t^2 - p*t + q) along an
index recurrence, builds each single-step ratio map as one product of lifted
ratios in that ring, and steps the continued-fraction subsequences as powers
of alpha.
Here each is checked against the former Fraction formulas, written out below,
and against direct evaluation (ratio_x, basis_ut, quad_cf_convergent).  The
expected outcome of a chain, entries or the exception, comes from index
arithmetic and U_{g-1} alone.
"""

from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from recurseq import (
    DEFAULT_INDEX_CAP,
    DegenerateConvergent,
    DegenerateRatio,
    IndexCapExceeded,
    IndexSequenceParams,
    InverseUnavailable,
    PeriodicQuadCF,
    RecurrenceParams,
    accelerate_general,
    arithmetic_index_accel,
    basis_ut,
    companion_power,
    double_ratio,
    fibonacci,
    fibonacci_index_accel,
    method_subsequence,
    quad_cf_convergent,
    ratio_x,
    shift_ratio,
    verify_cubic_fibonacci_identity,
    verify_fkn_identity,
    verify_nested_fibonacci_identity,
)
from recurseq import core
from recurseq.errors import RecurseqError
from oracles import naive_fib

_SIGMA_MEMO_LIMIT = 4096  # the former sigma memo bound, kept as input values


# -- reference formulas: the former Fraction implementations ------------------

def ref_shift_ratio(params, x_n, x_m1):
    denom = x_n + x_m1 - params.p
    if denom == 0:
        raise DegenerateRatio("shift denominator x_n + x_{m+1} - p vanished")
    return (x_m1 * x_n - params.q) / denom


def ref_double_ratio(params, x_n):
    denom = params.q - x_n * x_n
    if denom == 0:
        raise DegenerateRatio("doubling denominator q - x_n^2 vanished")
    return (2 * params.q * x_n - params.p * x_n * x_n) / denom


def ref_fibonacci_index_accel(params, x_a, x_b):
    q, p = params.q, params.p
    denom = q - x_a * x_b
    if denom == 0:
        raise DegenerateRatio("Fibonacci-step denominator q - x_a*x_b vanished")
    return (q * x_a + q * x_b - p * x_a * x_b) / denom


def ref_basis_ut(p, q, n):
    """(U_n, T_n) for integer or Fraction coefficients, by pair doubling."""
    u, v = 0, 1
    for bit in bin(n)[2:]:
        u, v = u * (2 * v - p * u), v * v - q * u * u
        if bit == "1":
            u, v = v, p * v - q * u
    return u, v - p * u


def ref_seed(params, idx, max_index):
    if idx < 2:
        raise ValueError(f"acceleration index {idx} is < 2")
    u, t = basis_ut(params, idx, max_index)
    return idx, Fraction(u), Fraction(t), ratio_x(params, idx, max_index)


def ref_accelerate_general(params, g, count, max_index=None):
    """The companion-matrix split over decimated Fraction coefficients."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    q = params.q
    if q == 0:
        raise InverseUnavailable("acceleration needs q != 0")
    if g.i < 2 or g.j < 2:
        raise ValueError(f"initial indices must be >= 2, got ({g.i}, {g.j})")
    entries = [ref_seed(params, g.i, max_index)]
    if count >= 2:
        entries.append(ref_seed(params, g.j, max_index))
    if count <= 2:
        return entries[:count]
    ms = companion_power(params, g.s, max_index)
    mt = companion_power(params, -g.t, max_index)
    a1, a2, a3, a4 = ms.e11, ms.e12, ms.e21, ms.e22
    b1, b2, b3, b4 = mt.e11, mt.e12, mt.e21, mt.e22
    ps, qs = a1 + a4, Fraction(q) ** g.s
    pt, qt = b1 + b4, Fraction(q) ** (-g.t)
    for n in range(2, count):
        idx = g.s * entries[n - 1][0] - g.t * entries[n - 2][0]
        if idx < 2:
            raise ValueError(f"generated index g_{n} = {idx} is < 2")
        cap = DEFAULT_INDEX_CAP if max_index is None else max_index
        if abs(idx) > cap:
            raise IndexCapExceeded(str(idx))
        u1, t1 = ref_basis_ut(ps, qs, entries[n - 1][0])
        u2, t2 = ref_basis_ut(pt, qt, entries[n - 2][0])
        if t1 == 0 or t2 == 0:
            raise DegenerateRatio(f"scaled ratio undefined while producing g_{n} = {idx}")
        u_idx = a2 * u1 * t2 + b2 * t1 * u2 + (a1 * b2 + a2 * b4) * u1 * u2
        t_idx = t1 * t2 + a1 * u1 * t2 + b1 * t1 * u2 + (a1 * b1 + a2 * b3) * u1 * u2
        xs = Fraction(-q) * u1 / t1
        xt = Fraction(-q) * u2 / t2
        num = q * q * a2 * xs + q * q * b2 * xt - q * (a1 * b2 + a2 * b4) * xs * xt
        den = q * q - q * a1 * xs - q * b1 * xt + (a1 * b1 + a2 * b3) * xs * xt
        if den == 0:
            raise DegenerateRatio(f"acceleration denominator vanished at g_{n} = {idx}")
        entries.append((idx, Fraction(u_idx), Fraction(t_idx), num / den))
    return entries


def ref_arithmetic_index_accel(params, h, k, count, max_index=None):
    """The 1/q^{g_{n-2}}-scaled (U, T) recurrence and the rational x formula."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    p, q = params.p, params.q
    if q == 0:
        raise InverseUnavailable("arithmetic-index acceleration needs q != 0")
    if h < 2:
        raise ValueError(f"start index h must be >= 2, got {h}")
    entries = []
    for n in range(count):
        idx = k * n + h
        if n < 2:
            entries.append(ref_seed(params, idx, max_index))
            continue
        if idx < 2:
            raise ValueError(f"generated index g_{n} = {idx} is < 2")
        cap = DEFAULT_INDEX_CAP if max_index is None else max_index
        if abs(idx) > cap:
            raise IndexCapExceeded(str(idx))
        (_, u1, t1, x1), (i2, u2, t2, x2) = entries[n - 1], entries[n - 2]
        scale = Fraction(1, q**i2)
        u_idx = scale * (q * u1 * u1 * u2 + 2 * t1 * u1 * t2 + p * u1 * u1 * t2 - u2 * t1 * t1)
        t_idx = scale * (t1 * t1 * t2 + p * t1 * t1 * u2 - q * t2 * u1 * u1 + 2 * q * t1 * u1 * u2)
        den = q - p * x2 - x1 * x1 + 2 * x1 * x2
        if den == 0:
            raise DegenerateRatio(f"arithmetic acceleration denominator vanished at g_{n} = {idx}")
        entries.append((idx, u_idx, t_idx, (x1 * x1 * x2 + 2 * q * x1 - p * x1 * x1 - q * x2) / den))
    return entries


# -- expected outcome from index arithmetic alone -----------------------------

def chain_outcome(params, g, count, max_index):
    """The indices of the chain, or the exception type it must raise.

    Checks run in the library's order: count, q, the seeds (each: cap, then
    U_{g-1} = 0), the step exponents against the cap, then each generated
    index (< 2, cap, U_{g-1} = 0).
    """
    cap = DEFAULT_INDEX_CAP if max_index is None else max_index
    if count < 1:
        return ValueError
    if params.q == 0:
        return InverseUnavailable
    if g.i < 2 or g.j < 2:
        return ValueError
    indices = []
    for n in range(count):
        if n < 2:
            idx = (g.i, g.j)[n]
        else:
            if n == 2 and (abs(g.s) > cap or abs(g.t) > cap):
                return IndexCapExceeded
            idx = g.s * indices[-1] - g.t * indices[-2]
            if idx < 2:
                return ValueError
        if idx > cap:
            return IndexCapExceeded
        if basis_ut(params, idx - 1)[0] == 0:
            return DegenerateRatio
        indices.append(idx)
    return indices


def outcome(fn, *args):
    try:
        return [(e[0], e[1], e[2], e[3].numerator, e[3].denominator) for e in fn(*args)]
    except (ValueError, RecurseqError) as exc:
        return type(exc)


def direct_entries(params, indices):
    rows = []
    for idx in indices:
        u, t = basis_ut(params, idx)
        x = ratio_x(params, idx)
        rows.append((idx, u, t, x.numerator, x.denominator))
    return rows


def arith_outcome(params, h, k, count, max_index):
    """chain_outcome for W(h, h+k, 2, 1), with g_0 evaluated before h + k < 2 is refused."""
    if count < 1:
        return ValueError
    if params.q == 0:
        return InverseUnavailable
    if h < 2:
        return ValueError
    first = chain_outcome(params, IndexSequenceParams(h, h, 2, 1), 1, max_index)
    if count == 1 or not isinstance(first, list):
        return first
    if h + k < 2:
        return ValueError
    return chain_outcome(params, IndexSequenceParams(h, h + k, 2, 1), count, max_index)


def check_chain(params, expected, got, oracle):
    if isinstance(expected, list):
        assert got == direct_entries(params, expected)
    else:
        assert got is expected
    if isinstance(oracle, list):
        assert got == oracle
    elif oracle is not DegenerateRatio:
        assert got is oracle
    # else: the former split also raised DegenerateRatio where a scaled
    # decimated ratio vanished but x_g is defined; the outcome above decides.


# -- strategies ---------------------------------------------------------------

D_ZERO = [(2, 1), (4, 4), (-6, 9), (-2, 1), (6, 9)]
SPECIAL = D_ZERO + [(1, -1), (3, 2), (6, 4), (4, 2), (-6, -9), (6, -3), (0, 5), (0, -4), (-3, 3)]
params_st = st.one_of(
    st.sampled_from(SPECIAL),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
).map(lambda pq: RecurrenceParams(*pq))
caps = st.sampled_from([None, None, 2, 5, 40, 500])


class TestAccelerateGeneral:
    @given(
        params=params_st,
        i=st.integers(0, 9),
        j=st.integers(0, 9),
        s=st.sampled_from([-1, 0, 1, 2, 3]),
        t=st.integers(-3, 2),
        count=st.integers(0, 6),
        max_index=caps,
    )
    @example(params=RecurrenceParams(-3, 3), i=2, j=3, s=2, t=-3, count=4, max_index=None)
    @example(params=RecurrenceParams(1, -1), i=2, j=3, s=1, t=-1, count=6, max_index=None)
    @example(params=RecurrenceParams(3, 2), i=2, j=4, s=2, t=-1, count=5, max_index=None)
    @example(params=RecurrenceParams(2, 1), i=2, j=5, s=3, t=-2, count=6, max_index=None)
    @example(params=RecurrenceParams(-6, 9), i=3, j=4, s=-1, t=-3, count=6, max_index=None)
    @example(params=RecurrenceParams(6, 4), i=5, j=3, s=2, t=1, count=6, max_index=None)
    @example(params=RecurrenceParams(4, 4), i=2, j=7, s=3, t=2, count=6, max_index=40)
    @example(params=RecurrenceParams(1, -1), i=5, j=5, s=-5, t=-6, count=3, max_index=5)  # |t| > cap
    @example(params=RecurrenceParams(1, -1), i=5, j=2, s=6, t=2, count=3, max_index=5)  # |s| > cap
    def test_against_former_split_and_direct(self, params, i, j, s, t, count, max_index):
        g = IndexSequenceParams(i, j, s, t)
        got = outcome(accelerate_general, params, g, count, max_index)
        oracle = outcome(ref_accelerate_general, params, g, count, max_index)
        check_chain(params, chain_outcome(params, g, count, max_index), got, oracle)

    def test_spuriously_degenerate_split_now_returns(self):
        entries = accelerate_general(RecurrenceParams(-3, 3), IndexSequenceParams(2, 3, 2, -3), 4)
        assert [e.index for e in entries] == [2, 3, 12, 33]
        assert entries[-1].x == ratio_x(RecurrenceParams(-3, 3), 33) == -2
        with pytest.raises(DegenerateRatio):
            ref_accelerate_general(RecurrenceParams(-3, 3), IndexSequenceParams(2, 3, 2, -3), 4)

    def test_entries_are_fractions(self):
        for e in accelerate_general(RecurrenceParams(6, -3), IndexSequenceParams(2, 3, 2, 1), 6):
            assert all(type(v) is Fraction for v in (e.u, e.t, e.x))

    @pytest.mark.parametrize("pq", [(1, -1), (3, 2), (6, 4), (-2, 7)])
    def test_long_chain(self, pq):
        params = RecurrenceParams(*pq)
        entries = accelerate_general(params, IndexSequenceParams(3, 7, 2, 1), 40)
        assert [e.index for e in entries] == [3 + 4 * n for n in range(40)]
        assert direct_entries(params, [e.index for e in entries]) == outcome(
            accelerate_general, params, IndexSequenceParams(3, 7, 2, 1), 40, None)


class TestArithmeticIndex:
    @given(
        params=params_st,
        h=st.integers(0, 12),
        k=st.integers(-6, 9),
        count=st.integers(0, 6),
        max_index=caps,
    )
    @example(params=RecurrenceParams(0, -6), h=5, k=-5, count=4, max_index=None)
    @example(params=RecurrenceParams(1, -1), h=3, k=-2, count=1, max_index=None)
    @example(params=RecurrenceParams(-6, 9), h=2, k=3, count=6, max_index=None)
    def test_against_former_recurrence(self, params, h, k, count, max_index):
        got = outcome(arithmetic_index_accel, params, h, k, count, max_index)
        oracle = outcome(ref_arithmetic_index_accel, params, h, k, count, max_index)
        check_chain(params, arith_outcome(params, h, k, count, max_index), got, oracle)

    def test_single_entry_ignores_the_step(self):
        assert [e.index for e in arithmetic_index_accel(RecurrenceParams(1, -1), 3, -5, 1)] == [3]
        with pytest.raises(ValueError):
            arithmetic_index_accel(RecurrenceParams(1, -1), 3, -5, 2)


# -- chain cost: no product larger than the entries ---------------------------

def bits(element):
    return max(abs(element[0]).bit_length(), abs(element[1]).bit_length())


def built_bits(run):
    """run(), and the largest bit length of any ring product or power core builds meanwhile."""
    built = [0]

    def recording(fn):
        def wrapper(*args):
            result = fn(*args)
            built.append(bits(result))
            return result
        return wrapper

    with patch.object(core, "_ring_mul", recording(core._ring_mul)), \
            patch.object(core, "_ring_pow", recording(core._ring_pow)):
        result = run()
    return result, max(built)


def chain_powers(params, g, count):
    """The (k, (T, U)) pairs the chain engine yields before it stops or refuses an index."""
    yielded = []
    try:
        for entry in core._power_chain(params.p, params.q, g.i, g.j, g.s, g.t, count, None):
            yielded.append(entry)
    except ValueError:  # a generated index < 2
        pass
    return yielded


class TestChainSize:
    @given(
        params=st.tuples(st.integers(-6, 6), st.integers(-6, 6).filter(bool)).map(lambda pq: RecurrenceParams(*pq)),
        i=st.integers(2, 40),
        j=st.integers(2, 40),
        s=st.integers(-2, 3),
        t=st.integers(-3, 3),
        count=st.integers(1, 6),
    )
    @example(params=RecurrenceParams(1, -1), i=2, j=1002, s=2, t=1, count=6)  # arithmetic progression
    @example(params=RecurrenceParams(3, -5), i=40, j=3, s=-2, t=-3, count=3)  # s < 0
    def test_nothing_built_past_the_entries(self, params, i, j, s, t, count):
        """Every product multiplies powers whose exponents sum to an entry's index.

        Such a partial product can exceed the entry only by the trigonometric
        and 1/(alpha - beta) factors of T and U, so the slack is the bit length
        of the largest index plus that of q.
        """
        yielded, built = built_bits(lambda: chain_powers(params, IndexSequenceParams(i, j, s, t), count))
        largest_index = max(k for k, _ in yielded)
        slack = largest_index.bit_length() + abs(params.q).bit_length()
        assert built <= max(bits(power) for _, power in yielded) + slack

    def test_conjugate_step_evaluates_the_index_directly(self):
        params = RecurrenceParams(3, -5)
        entries, built = built_bits(
            lambda: accelerate_general(params, IndexSequenceParams(2, 2, 10**4, 10**4 - 1), 3))
        assert [e.x for e in entries] == [ratio_x(params, 2)] * 3
        assert built <= 64


# -- the single-step ratio maps -----------------------------------------------

def step_outcome(fn, *args):
    try:
        r = fn(*args)
        return type(r), r.numerator, r.denominator
    except DegenerateRatio as exc:
        return str(exc)


small = st.integers(-10**6, 10**6)
fractions = st.one_of(
    st.builds(Fraction, small, st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(-2**200, 2**200), st.integers(1, 2**200)),
    st.integers(-50, 50).map(Fraction),
)
step_params = st.one_of(
    st.sampled_from(SPECIAL + [(0, 0), (5, 0), (-3, 0), (2, 4), (12, 36)]),
    st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
).map(lambda pq: RecurrenceParams(*pq))


class TestRatioSteps:
    @given(params=step_params, x=fractions)
    @example(params=RecurrenceParams(2, 4), x=Fraction(2))  # q - x^2 = 0
    @example(params=RecurrenceParams(0, 9), x=Fraction(-3))
    @example(params=RecurrenceParams(5, 0), x=Fraction(7, 3))  # q = 0
    @example(params=RecurrenceParams(4, 4), x=Fraction(9, 4))  # D = 0
    @example(params=RecurrenceParams(6, 4), x=Fraction(12, 5))
    @example(params=RecurrenceParams(0, 0), x=Fraction(0))
    def test_double_ratio(self, params, x):
        assert step_outcome(double_ratio, params, x) == step_outcome(ref_double_ratio, params, x)

    @given(params=step_params, x=fractions, y=fractions)
    @example(params=RecurrenceParams(3, 2), x=Fraction(7, 3), y=Fraction(-4, 3))  # x + y = p
    @example(params=RecurrenceParams(2, 1), x=Fraction(1), y=Fraction(1))  # det 0: y is the root
    @example(params=RecurrenceParams(6, 4), x=Fraction(12, 5), y=Fraction(6))
    def test_shift_ratio(self, params, x, y):
        assert step_outcome(shift_ratio, params, x, y) == step_outcome(ref_shift_ratio, params, x, y)

    @given(params=step_params, x=fractions, y=fractions)
    @example(params=RecurrenceParams(1, 6), x=Fraction(3, 2), y=Fraction(4))  # x*y = q
    @example(params=RecurrenceParams(4, 4), x=Fraction(2), y=Fraction(2))  # x*y = q, det 0
    @example(params=RecurrenceParams(3, 0), x=Fraction(5, 2), y=Fraction(3))  # q = 0
    def test_fibonacci_index_accel(self, params, x, y):
        assert step_outcome(fibonacci_index_accel, params, x, y) == step_outcome(
            ref_fibonacci_index_accel, params, x, y)

    @given(params=params_st, n=st.integers(2, 400), m=st.integers(1, 400))
    def test_on_ratios(self, params, n, m):
        """The chains the maps are made for: every result equals ratio_x."""
        try:
            x_n, x_m1 = ratio_x(params, n), ratio_x(params, m + 1)
        except DegenerateRatio:
            return
        for fn, ref, args, idx in (
            (double_ratio, ref_double_ratio, (params, x_n), 2 * n),
            (shift_ratio, ref_shift_ratio, (params, x_n, x_m1), n + m),
            (fibonacci_index_accel, ref_fibonacci_index_accel, (params, x_n, x_m1), n + m + 1),
        ):
            try:
                expected = ratio_x(params, idx)
            except DegenerateRatio:
                expected = None
            got = step_outcome(fn, *args)
            if expected is not None and not isinstance(got, str):
                assert got == (Fraction, expected.numerator, expected.denominator)
            assert got == step_outcome(ref, *args)


# -- continued-fraction method subsequences -----------------------------------

def method_index(method, n):
    return {"secant": naive_fib(n + 2), "newton": 2**n, "halley": 3**n}[method] - 1


def reference_subsequence(qcf, method, count, max_index):
    try:
        return [
            (method_index(method, n), quad_cf_convergent(qcf, method_index(method, n), max_index))
            for n in range(count)
        ]
    except (IndexCapExceeded, DegenerateConvergent) as exc:
        return type(exc), str(exc)


def subsequence(qcf, method, count, max_index):
    try:
        return method_subsequence(qcf, method, count, max_index)
    except (IndexCapExceeded, DegenerateConvergent) as exc:
        return type(exc), str(exc)


nonzero = st.integers(-9, 9).filter(bool)
COUNTS = {"secant": 19, "newton": 14, "halley": 9}  # each reaches indices past _SIGMA_MEMO_LIMIT


class TestMethodSubsequence:
    @given(a=nonzero, b=nonzero, c=nonzero, method=st.sampled_from(sorted(COUNTS)),
           max_index=st.sampled_from([None, 0, 1, 2, 7, 100, _SIGMA_MEMO_LIMIT, 10_000]))
    @example(a=1, b=1, c=1, method="newton", max_index=None)
    @example(a=2, b=2, c=1, method="halley", max_index=None)  # gcd(b, ac) = 2
    @example(a=3, b=6, c=5, method="secant", max_index=None)  # gcd(b, ac) = 3
    @example(a=4, b=2, c=3, method="newton", max_index=_SIGMA_MEMO_LIMIT)
    @example(a=1, b=1, c=1, method="secant", max_index=4180)
    def test_against_convergents(self, a, b, c, method, max_index):
        if b * b + 4 * a * c <= 0:
            return
        qcf = PeriodicQuadCF(a, b, c)
        count = COUNTS[method]
        assert subsequence(qcf, method, count, max_index) == reference_subsequence(
            PeriodicQuadCF(a, b, c), method, count, max_index)

    @pytest.mark.parametrize("method", sorted(COUNTS))
    def test_cap_fires_at_the_same_count(self, method):
        qcf = PeriodicQuadCF(1, 1, 1)
        for cap in range(0, 40):
            for count in range(1, 6):
                assert subsequence(qcf, method, count, cap) == reference_subsequence(
                    qcf, method, count, cap)


# -- the identity checkers ----------------------------------------------------

def ref_outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, IndexCapExceeded) as exc:
        return type(exc)


class TestVerifiers:
    @pytest.mark.parametrize("max_index", [None, 1, 2, 3, 4, 10, 100, 10_000])
    def test_caps_and_values(self, max_index):
        def fib(n):
            return fibonacci(n, max_index)

        def nested(n):
            if n < 3:
                raise ValueError
            fa, fb, fc = fib(n), fib(n - 1), fib(n - 2)
            lhs = fib(fa)
            return lhs == fib(fb) * fib(fc - 1) + fib(fb - 1) * fib(fc) + fib(fb) * fib(fc)

        def fkn(k, n):
            if k < 1 or n < 2:
                raise ValueError
            f1, f1m = fib(k * (n - 1)), fib(k * (n - 1) - 1)
            f2, f2m = fib(k * (n - 2)), fib(k * (n - 2) - 1)
            sign = -1 if (k * (n - 2)) % 2 else 1
            return fib(k * n) == sign * (-f1 * f1 * f2 + 2 * f1 * f1m * f2m + f1 * f1 * f2m - f2 * f1m * f1m)

        def cubic(n):
            if n < 3:
                raise ValueError
            f1, f2, f3 = fib(n - 1), fib(n - 2), fib(n - 3)
            sign = -1 if n % 2 else 1
            return fib(n) == sign * (-f1 * f1 * f2 + 2 * f1 * f2 * f3 + f1 * f1 * f3 - f2 * f2 * f2)

        for n in range(0, 22):
            assert ref_outcome(verify_nested_fibonacci_identity, n, max_index) == ref_outcome(nested, n)
            assert ref_outcome(verify_cubic_fibonacci_identity, n, max_index) == ref_outcome(cubic, n)
            for k in range(0, 6):
                assert ref_outcome(verify_fkn_identity, k, n, max_index) == ref_outcome(fkn, k, n)
