"""Seeded call streams for the four benchmark workloads, with their checkers.

A workload is an endless, deterministic stream of ``Call`` objects built from
the seed.  Each call is one request of a single caller: it runs library
functions through a ``Lib`` table (so a traced phase can substitute wrapped
functions) and returns its output; ``check`` then compares that output with
an independent oracle, outside the timed region.

Sizes are drawn by quasi-Monte Carlo: every call kind owns a Halton sequence
(bases 2 and 3) whose first coordinate picks the size (index or digits,
log-uniform) and whose second picks the coefficients from a list sorted by
how costly they make a call.  The seed shifts the sequences slightly and makes
every other choice, so two seeds give different inputs, while any prefix of a
stream covers the size range evenly.  That keeps calls/s and the latency
percentiles steady from seed to seed although single calls range from well
under a millisecond to half a second.
"""

from __future__ import annotations

import bisect
import functools
import io
import json
import math
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Iterator

import recurseq
from recurseq import cli
from recurseq.core import Matrix2

WORKLOADS = ("big-terms", "ratio-chains", "root-digits", "cli-mix")

# Product of three word-size primes; the big-terms oracle works modulo it.
MOD = (2**61 - 1) * (2**31 - 1) * 1_000_000_007
DECIMALS = 1000  # fractional digits every big-terms result is rendered with


def library_table() -> SimpleNamespace:
    """The functions the workloads call, by public name (originals)."""
    table = {name: getattr(recurseq, name) for name in recurseq.__all__}
    table["main"] = cli.main
    return SimpleNamespace(**{k: v for k, v in table.items() if callable(v) and not isinstance(v, type)})


@dataclass
class Call:
    """One request: ``run(lib)`` is timed, ``check(output)`` is not."""

    fn: str
    run: Callable
    check: Callable
    key: tuple = ()     # coefficients (p, q) or (a, b, c); repeats and gcd(p, q) are measured on it
    index: int = 0      # largest sequence index (or digit count) the request reaches


# -- quasi-random sizes ---------------------------------------------------

def radical_inverse(k: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while k:
        k, d = divmod(k, base)
        inv += d * f
        f /= base
    return inv


class Points:
    """Halton points in [0, 1)^2 (bases 2, 3), one stream per call kind.

    The seed shifts each stream by a little (Cranley-Patterson rotation by at
    most 1/64 in size and 1/32 in coefficients): inputs differ from seed to
    seed, while the few dozen points a stream yields in a run keep the same
    spread of costs.  Plain random draws let the handful of costliest calls in
    a run come and go with the seed; bench/NOTES.md gives the measured
    comparison, and that of a full random shift.
    """

    def __init__(self, rng: random.Random):
        self.shift = (rng.random() / 64, rng.random() / 32)
        self.k = 0

    def next(self) -> tuple[float, float]:
        self.k += 1
        return tuple((radical_inverse(self.k, b) + s) % 1.0 for b, s in zip((2, 3), self.shift))


def log_uniform(u: float, lo: int, hi: int) -> int:
    return int(round(lo * (hi / lo) ** u))


def pick(u: float, items):
    return items[min(int(u * len(items)), len(items) - 1)]


def _growth(p: int, q: int) -> float:
    """log2 of the larger modulus of the roots of t^2 - p*t + q."""
    disc = p * p - 4 * q
    modulus = (abs(p) + math.sqrt(disc)) / 2 if disc >= 0 else math.sqrt(q)
    return math.log2(modulus)


# (p, q) with |p|, |q| <= 10 whose U sequence never vanishes past U_0: p, q != 0
# and p^2/q not in {1, 2, 3} (else alpha/beta is a root of unity).
PAIRS = sorted(
    ((p, q) for p in range(-10, 11) for q in range(-10, 11)
     if p and q and p * p not in (q, 2 * q, 3 * q)),
    key=lambda pq: (_growth(*pq), pq),
)


def _contraction(abc) -> float:
    """Ratio r < 1 of the root moduli of a*t^2 - b*t - c (b^2 + 4ac > 0)."""
    a, b, c = abc
    disc = math.sqrt(b * b + 4 * a * c)
    return abs((abs(b) - disc) / (abs(b) + disc))


def _log_alpha(abc) -> float:
    """log2 of the larger root of t^2 - b*t - a*c, whose powers the convergents carry."""
    a, b, c = abc
    return math.log2((abs(b) + math.sqrt(b * b + 4 * a * c)) / 2)


# (a, b, c) with |a|, |b|, |c| <= 9 and b^2 + 4ac > 0: real roots of distinct
# modulus.  Sorted by bits carried per bit of accuracy gained (log alpha over
# -log r), which sets what a root-method call costs at a given digit count.
TRIPLES = sorted(
    ((a, b, c) for a in range(-9, 10) for b in range(-9, 10) for c in range(-9, 10)
     if a and b and c and b * b + 4 * a * c > 0),
    key=lambda abc: (_log_alpha(abc) / -math.log2(_contraction(abc)), abc),
)


def cycle(kinds, streams):
    """Endless round-robin over call kinds; ``streams[kind]`` yields the calls."""
    while True:
        for kind in kinds:
            yield next(streams[kind])


# -- shared oracles -------------------------------------------------------

def naive_terms(a0: int, a1: int, p: int, q: int, n: int) -> tuple[int, int]:
    """(a_{n-1}, a_n) modulo MOD by term-by-term iteration (n >= 1)."""
    prev, cur = a0 % MOD, a1 % MOD
    for _ in range(n - 1):
        prev, cur = cur, (p * cur - q * prev) % MOD
    return prev, cur


def naive_negative(p: int, q: int, k: int) -> tuple[int, int, int, int]:
    """(T_{-k}, U_{-k}, T_{1-k}, U_{1-k}) modulo MOD, stepping the recurrence
    backwards (a_{m-1} = (p*a_m - a_{m+1}) / q) from indices 1 and 0."""
    inv_q = pow(q, -1, MOD)
    u1, u0, t1, t0 = 1, 0, 0, 1  # (a_{m+1}, a_m) for U and T at m = 0
    for _ in range(k):
        u1, u0 = u0, (p * u0 - u1) * inv_q % MOD
        t1, t0 = t0, (p * t0 - t1) * inv_q % MOD
    return t0, u0, t1, u1


def naive_exact_at(p: int, q: int, wanted) -> dict[int, int]:
    """{n: U_n} for the indices in `wanted`, exactly, by iteration (keeping only those)."""
    wanted = set(wanted)
    found, prev, cur = {}, 0, 1
    for n in range(1, max(wanted) + 1):
        if n - 1 in wanted:
            found[n - 1] = prev
        if n in wanted:
            found[n] = cur
        prev, cur = cur, p * cur - q * prev
    return found


def text_mod(digits: str) -> int:
    """Value of a decimal digit string modulo MOD, 18 digits at a time."""
    r = 0
    for i in range(0, len(digits), 18):
        chunk = digits[i:i + 18]
        r = (r * 10 ** len(chunk) + int(chunk)) % MOD
    return r


def congruent(value, expected: int) -> bool:
    """value (int or Fraction) == expected modulo MOD."""
    value = Fraction(value)
    return (value.numerator - expected * value.denominator) % MOD == 0


def rational_text_ok(text: str, value) -> bool:
    value = Fraction(value)
    num, _, den = text.partition("/")
    if not den:
        return value.denominator == 1 and _signed_mod(num) == value.numerator % MOD
    return (_signed_mod(num) == value.numerator % MOD and not den.startswith("-")
            and text_mod(den) == value.denominator % MOD)


def _signed_mod(text: str) -> int:
    return -text_mod(text[1:]) % MOD if text.startswith("-") else text_mod(text)


def decimal_text_ok(text: str, value, digits: int) -> bool:
    """text is value rounded half-even to `digits` places: integer part split
    off first by floor division, fraction rounded on its own."""
    value = Fraction(value)
    sign = "-" if value < 0 else ""
    num, den = abs(value.numerator), value.denominator
    whole, rest = divmod(num, den)
    frac, rem = divmod(rest * 10**digits, den)
    if 2 * rem > den or (2 * rem == den and frac % 2):
        frac += 1
    if frac == 10**digits:
        whole, frac = whole + 1, 0
    if whole == 0 and frac == 0:
        sign = ""
    head, dot, tail = text.partition(".")
    if head.startswith("-"):
        if not sign:
            return False
        head = head[1:]
    elif sign:
        return False
    return dot == "." and tail == f"{frac:0{digits}d}" and text_mod(head) == whole % MOD


# -- big-terms --------------------------------------------------------------

def _render(lib, value):
    """The result with each of its numbers rendered both ways."""
    return value, tuple((lib.format_rational(x), lib.format_decimal(x, DECIMALS)) for x in _numbers(value))


def _texts_ok(numbers, texts) -> bool:
    return len(numbers) == len(texts) and all(
        rational_text_ok(r, x) and decimal_text_ok(d, x, DECIMALS) for x, (r, d) in zip(numbers, texts))


# Largest result a big-terms or root-digits call is predicted to build.  With
# it single calls stay within about half a second; past it they take seconds
# (all in products, str(int) and the gcd), and a handful of them would make
# up a whole run and its variance from seed to seed.
RESULT_BITS = 2**18


def big_terms(seed: int, scale: float = 1.0) -> Iterator[Call]:
    """Few calls on huge integers; indices log-uniform in 10^4 .. 3*10^5 (10^3 ..
    10^5 for negative powers), each with a (p, q) whose result at that index
    fits in RESULT_BITS bits, so the top indices go to slowly growing pairs."""
    rng = random.Random(f"big-terms:{seed}")
    lo, hi = max(2, int(10**4 * scale)), max(3, int(3 * 10**5 * scale))
    neg_lo, neg_hi = max(1, int(10**3 * scale)), max(2, int(10**5 * scale))
    budget = RESULT_BITS * scale

    def stream(kind):
        points = Points(rng)
        while True:
            u_size, u_pair = points.next()
            a0, a1 = rng.choice([(0, 1), (rng.randint(-9, 9), rng.randint(1, 9))])
            if kind == "companion_power":  # entries carry q^n in their denominators
                n = log_uniform(u_size, neg_lo, neg_hi)
                fits = [pq for pq in PAIRS if n * max(_growth(*pq), math.log2(abs(pq[1]))) <= budget]
            else:
                n = log_uniform(u_size, lo, hi)
                fits = [pq for pq in PAIRS if n * _growth(*pq) <= budget]
            p, q = pick(u_pair, fits or PAIRS[:1])
            if kind == "general_ratio_y" and n < 2000 and naive_terms(a0, a1, p, q, n)[0] == 0:
                a0, a1 = 0, 1  # a_{n-1} = 0 would make the ratio undefined (only small n can hit it)
            yield _big_call(kind, p, q, a0, a1, n)

    kinds = ["term", "basis_ut", "lucas_v", "ratio_x", "general_ratio_y"] * 2 + ["companion_power"]
    return cycle(kinds, {k: stream(k) for k in dict.fromkeys(kinds)})


def _numbers(value):
    if isinstance(value, Matrix2):
        return (value.e11, value.e12, value.e21, value.e22)
    return value if isinstance(value, tuple) else (value,)


def _big_call(kind, p, q, a0, a1, n) -> Call:
    params = recurseq.RecurrenceParams(p, q)
    seq = recurseq.LinRecSequence(a0, a1, params)
    compute = {
        "term": lambda lib: lib.term(seq, n),
        "basis_ut": lambda lib: lib.basis_ut(params, n),
        "lucas_v": lambda lib: lib.lucas_v(params, n),
        "ratio_x": lambda lib: lib.ratio_x(params, n),
        "general_ratio_y": lambda lib: lib.general_ratio_y(seq, n),
        "companion_power": lambda lib: lib.companion_power(params, -n),
    }[kind]

    def run(lib):
        return _render(lib, compute(lib))

    def value_ok(value) -> bool:
        if kind == "companion_power":
            return isinstance(value, Matrix2) and all(
                congruent(e, w) for e, w in zip(_numbers(value), naive_negative(p, q, n)))
        if kind in ("term", "general_ratio_y"):
            prev, cur = naive_terms(a0, a1, p, q, n)
        elif kind == "lucas_v":
            prev, cur = naive_terms(2, p, p, q, n)
        else:
            prev, cur = naive_terms(0, 1, p, q, n)
        if kind in ("ratio_x", "general_ratio_y"):  # value = cur / prev
            return isinstance(value, Fraction) and (value.numerator * prev - value.denominator * cur) % MOD == 0
        if kind == "basis_ut":  # T_n = -q * U_{n-1}
            return isinstance(value, tuple) and len(value) == 2 \
                and congruent(value[0], cur) and congruent(value[1], -q * prev)
        return congruent(value, cur)

    def check(output) -> bool:
        value, texts = output
        return value_ok(value) and _texts_ok(_numbers(value), texts)

    return Call(kind, run, check, key=(p, q), index=n)


# -- ratio-chains ------------------------------------------------------------

_W_SHAPES = [(1, -1), (2, 0), (2, 1), (2, -1), (3, 0), (3, 1)]  # (s, t) of g = W(i, j, s, t)
_VERIFY = ["verify_nested_fibonacci_identity", "verify_fkn_identity", "verify_cubic_fibonacci_identity"]
_METHOD_BASE = {"newton": 2, "halley": 3}


def _w_indices(i, j, s, t, limit, cap):
    idx = [i, j]
    while len(idx) < cap and s * idx[-1] - t * idx[-2] <= limit:
        idx.append(s * idx[-1] - t * idx[-2])
    return idx


def _method_index(method: str, n: int, order: int | None = None) -> int:
    """Convergent index of the n-th iterate: F_{n+2}-1, 2^n-1, 3^n-1 or (d+1)^n-1."""
    if method == "secant":
        a, b = 1, 1  # F_1, F_2
        for _ in range(n):
            a, b = b, a + b
        return b - 1  # F_{n+2} - 1
    return (_METHOD_BASE[method] if method in _METHOD_BASE else order + 1) ** n - 1


# Largest result a ratio-chains request is predicted to build (its last ratio).
CHAIN_BITS = 2**17
HELD_CFS = 8  # PeriodicQuadCF objects the caller keeps, most recently used first

_PAIR_RANK = {pq: i for i, pq in enumerate(PAIRS)}
TRIPLES_BY_GROWTH = sorted(TRIPLES, key=lambda abc: (_log_alpha(abc), abc))
_TRIPLE_RANK = {abc: i for i, abc in enumerate(TRIPLES_BY_GROWTH)}


def ratio_chains(seed: int, scale: float = 1.0) -> Iterator[Call]:
    """Many mid-size exact-rational operations; final indices up to 10^5, on
    coefficients whose last ratio is predicted to fit in CHAIN_BITS bits.

    Every scheme, W shape, method and identity is its own call kind with its
    own size stream.  About half the requests reuse coefficients an earlier
    request used: the earlier input nearest in growth to the drawn one, so
    reuse does not change the cost mix.  A repeated (a, b, c) reuses the same
    PeriodicQuadCF object, as a caller holding a few of them would, so its
    sigma memo has shared work to find.
    """
    rng = random.Random(f"ratio-chains:{seed}")
    hi = max(20, int(10**5 * scale))
    budget = CHAIN_BITS * scale
    seen_pairs, held_cfs = [], {}

    def reuse(fits, u, seen, rank):
        drawn = pick(u, fits)
        earlier = [item for item in seen if item in fits]
        if earlier and rng.random() < 0.5:
            return min(earlier, key=lambda item: (abs(rank[item] - rank[drawn]), rank[item]))
        return drawn

    def pair(u_pair, limit):
        fits = [pq for pq in PAIRS if limit * _growth(*pq) <= budget] or PAIRS[:1]
        pq = reuse(fits, u_pair, seen_pairs, _PAIR_RANK)
        if pq not in seen_pairs:
            seen_pairs.append(pq)
        return pq

    def quad_cf(u_pair, index):
        fits = [abc for abc in TRIPLES_BY_GROWTH if index * _log_alpha(abc) <= budget] or TRIPLES_BY_GROWTH[:1]
        abc = reuse(fits, u_pair, list(held_cfs), _TRIPLE_RANK)
        qcf = held_cfs.pop(abc, None) or recurseq.PeriodicQuadCF(*abc)
        held_cfs[abc] = qcf
        while len(held_cfs) > HELD_CFS:
            del held_cfs[next(iter(held_cfs))]
        return qcf

    def stream(kind, variant):
        points = Points(rng)
        while True:
            u_size, u_pair = points.next()
            limit = log_uniform(u_size, max(8, hi // 100), hi)
            if kind == "method_subsequence":
                count = 1
                while _method_index(variant, count) <= limit:
                    count += 1
                yield _method_call(variant, count, quad_cf(u_pair, _method_index(variant, count - 1)))
            elif kind == "verify":
                yield _verify_call(variant, rng, limit)
            elif kind.startswith("convergents"):
                count = max(2, log_uniform(u_size, max(2, int(30 * scale)), max(3, int(400 * scale))))
                yield _convergents_call(kind, rng, count)
            else:
                yield _chain_call(kind, variant, rng, limit, *pair(u_pair, limit))

    kinds = ([("accelerate_general", shape) for shape in _W_SHAPES]
             + [(kind, None) for kind in ("double_ratio", "fibonacci_index_accel", "shift_ratio",
                                          "arithmetic_index_accel", "convergents_direct", "convergents_integer")]
             + [("method_subsequence", method) for method in ("secant", "newton", "halley")]
             + [("verify", name) for name in _VERIFY])
    return cycle(kinds, {kind: stream(*kind) for kind in kinds})


def _chain_call(kind, shape, rng, limit, p, q) -> Call:
    params = recurseq.RecurrenceParams(p, q)
    if kind == "accelerate_general":
        s, t = shape
        i = rng.randint(2, 5)
        j = i + rng.randint(1, 4)
        indices = _w_indices(i, j, s, t, max(limit, j), cap=30)
        g = recurseq.IndexSequenceParams(i, j, s, t)

        def run(lib):
            return [(e.index, e.x, e.u, e.t) for e in lib.accelerate_general(params, g, len(indices))]
    elif kind == "arithmetic_index_accel":
        # 1/q^idx scaling makes this scheme far slower than the others, so its
        # progressions stay short: final index up to limit/5.
        count = rng.randint(3, 10)
        h = rng.randint(2, 9)
        k = max(1, (limit // 5 - h) // (count - 1))
        indices = [h + k * n for n in range(count)]

        def run(lib):
            return [(e.index, e.x, e.u, e.t) for e in lib.arithmetic_index_accel(params, h, k, count)]
    elif kind == "double_ratio":
        start = rng.randint(2, 9)
        steps = max(1, int(math.log2(max(limit, 2 * start) / start)))
        indices = [start << n for n in range(steps + 1)]

        def run(lib):
            x = lib.ratio_x(params, start)
            out = [(start, x)]
            for idx in indices[1:]:
                x = lib.double_ratio(params, x)
                out.append((idx, x))
            return out
    elif kind == "fibonacci_index_accel":
        indices = [2, 3]
        while indices[-1] + indices[-2] <= max(limit, 5):
            indices.append(indices[-1] + indices[-2])

        def run(lib):
            out = [(2, lib.ratio_x(params, 2)), (3, lib.ratio_x(params, 3))]
            for idx in indices[2:]:
                out.append((idx, lib.fibonacci_index_accel(params, out[-1][1], out[-2][1])))
            return out
    else:  # shift_ratio: x_{n+m} from x_n and x_{m+1}, stepping by m
        start = rng.randint(2, 20)
        count = rng.randint(5, 20)
        m = max(1, (limit - start) // count)
        indices = [start + m * n for n in range(count + 1)]

        def run(lib):
            x_m1 = lib.ratio_x(params, m + 1)
            x = lib.ratio_x(params, start)
            out = [(start, x)]
            for idx in indices[1:]:
                x = lib.shift_ratio(params, x, x_m1)
                out.append((idx, x))
            return out

    def check(output) -> bool:
        """Each x_idx (and U_idx, T_idx) against the directly evaluated
        M^{idx-1} = [[T_{idx-1}, U_{idx-1}], [T_idx, U_idx]]."""
        if [row[0] for row in output] != indices:
            return False
        for row in output:
            m = recurseq.companion_power(params, row[0] - 1)
            x = row[1]
            if not isinstance(x, Fraction) or x.numerator * m.e12 != x.denominator * m.e22:
                return False
            if len(row) == 4 and (row[2], row[3]) != (m.e22, m.e21):
                return False
        return True

    return Call(kind, run, check, key=(p, q), index=indices[-1])


def _cf_reference(quotients, count) -> list[tuple[int, int]]:
    """Convergents C_0 .. C_{count-1} as unreduced integer pairs (h, k).

    With partial quotients x_i/y_i, x/y + 1/z = (x z + y)/(y z) is the Moebius
    map [[x, y], [y, 0]], so C_n = h_n/k_n for the first column of the product
    of the maps 0..n: an integer matrix product, unlike both library routines.
    """
    pairs, (h, h_prev), (k, k_prev) = [], (1, 0), (0, 1)  # the identity, column by column
    for n in range(count):
        x, y = quotients(n)
        h, h_prev = x * h + y * h_prev, y * h
        k, k_prev = x * k + y * k_prev, y * k
        pairs.append((h, k))
    return pairs


def _method_call(method, count, qcf) -> Call:
    abc = (qcf.a, qcf.b, qcf.c)

    def run(lib):
        return lib.method_subsequence(qcf, method, count)

    def check(output) -> bool:
        """The n-th value is the n-th iterate of the method from the seeds b/a (and C_1)."""
        f = recurseq.QuadraticABC(*abc)
        pq = f.scaled_pq()
        ys = [Fraction(f.b, f.a)]
        if method == "secant":
            ys.append(Fraction(f.b * f.b + f.a * f.c, f.a * f.b))
        while len(ys) < count:
            if method == "newton":
                ys.append(recurseq.newton_step(f, ys[-1]))
            elif method == "halley":
                ys.append(recurseq.halley_step(pq, f.a * ys[-1]) / f.a)
            else:
                ys.append(recurseq.secant_step(f, ys[-1], ys[-2]))
        return output == [(_method_index(method, n), y) for n, y in enumerate(ys[:count])]

    return Call("method_subsequence", run, check, key=abc, index=_method_index(method, count - 1))


def _verify_call(name, rng, limit) -> Call:
    if name == "verify_nested_fibonacci_identity":
        n, fib = 3, [0, 1, 1, 2]
        while fib[-1] + fib[-2] <= limit:
            fib.append(fib[-1] + fib[-2])
            n += 1
        args, index = (n,), fib[n]
    elif name == "verify_fkn_identity":
        n = rng.randint(2, 20)
        k = max(1, limit // n)
        args, index = (k, n), k * n
    else:
        args, index = (max(3, limit),), max(3, limit)

    def run(lib):
        return getattr(lib, name)(*args)

    return Call(name, run, lambda output: output is True, key=(1, -1), index=index)  # Fibonacci


def _convergents_call(kind, rng, count) -> Call:
    """Convergents of a random eventually periodic fraction with positive
    quotients, so that no denominator can vanish."""
    size = rng.randint(2, 5)
    quotients = tuple((rng.randint(1, 9), rng.randint(1, 9)) for _ in range(size))
    cfrac = recurseq.RationalCF(quotients, period=rng.randint(1, size))

    def run(lib):
        return getattr(lib, kind)(cfrac, count)

    def check(output) -> bool:
        if [r.index for r in output] != list(range(count)):
            return False
        return all(isinstance(r.value, Fraction) and r.value.numerator * k == r.value.denominator * h
                   for r, (h, k) in zip(output, _cf_reference(cfrac.quotient, count)))

    return Call(kind, run, check, key=quotients, index=count - 1)


# -- root-digits ---------------------------------------------------------------

# Householder (orders 3, 4, 5 in turn) is one root call in seven.
_ROOT_METHODS = ["secant", "newton", "halley"] * 2 + ["householder"]
_STEPS = ["secant_step", "newton_step", "halley_step", "householder_step"]


@functools.lru_cache(maxsize=None)
def _iterate_indices(method, order) -> list[int]:
    indices = [0]
    while indices[-1] < 10**15:
        indices.append(_method_index(method, len(indices), order))
    return indices


@functools.lru_cache(maxsize=None)
def _root_shapes() -> list[tuple]:
    """(a, b, c), log2 alpha and -log2 r for every triple; see fitting_triples."""
    return [(abc, _log_alpha(abc), -math.log2(_contraction(abc))) for abc in TRIPLES]


def fitting_triples(method, order, digits, budget) -> list[tuple]:
    """The triples whose last approximate_root iterate is predicted to need at
    most `budget` bits.

    The n-th iterate is the convergent at index i_n (see _method_index), whose
    error shrinks like r^{i_n} for r the ratio of the root moduli and whose
    size grows like alpha^{i_n} for alpha the larger root of t^2 - b*t - a*c.
    Iteration stops one step after the error drops below 10^-(digits+2), and
    each step multiplies the index (up to (d+1)-fold), so near r = 1 or at
    high order a call builds far more digits than it prints.
    """
    indices = _iterate_indices(method, order)
    needed = (digits + 2) * math.log2(10)
    return [abc for abc, log_alpha, log_r in _root_shapes()
            if indices[bisect.bisect_left(indices, needed / log_r) + 1] * log_alpha <= budget]


def reference_root(abc, digits: int) -> str:
    """Larger-modulus root of a*t^2 - b*t - c, correctly rounded, via decimal sqrt."""
    a, b, c = abc
    with localcontext() as ctx:
        ctx.prec = digits + 40
        root = (Decimal(b) + (1 if b > 0 else -1) * Decimal(b * b + 4 * a * c).sqrt()) / (2 * a)
        rounded = root.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_EVEN)
    return format(rounded, "f")


def root_digits(seed: int, scale: float = 1.0) -> Iterator[Call]:
    """approximate_root(_with_trace) at 500..8000 digits, each on an (a, b, c)
    whose last iterate is predicted to fit in RESULT_BITS bits (so the high
    digit counts go to well-separated roots), plus bare step calls."""
    rng = random.Random(f"root-digits:{seed}")
    lo, hi = max(5, int(500 * scale)), max(10, int(8000 * scale))
    budget = RESULT_BITS * scale
    k_lo, k_hi = max(3, int(100 * scale)), max(4, int(2000 * scale))

    def root_stream(fn, method):
        points = Points(rng)
        serial = 0
        while True:
            u_size, u_abc = points.next()
            digits = log_uniform(u_size, lo, hi)
            order = 3 + serial % 3 if method == "householder" else None
            abc = pick(u_abc, fitting_triples(method, order, digits, budget) or TRIPLES[:1])
            yield _root_call(fn, method, order, abc, digits)
            serial += 1

    def step_stream(fn):
        points = Points(rng)
        serial = 0
        while True:
            u_size, u_abc = points.next()
            abc = pick(u_abc, TRIPLES)
            k = log_uniform(u_size, k_lo, k_hi)
            yield _step_call(fn, abc, k, rng, 3 + serial % 3)
            serial += 1

    streams = {}
    for fn in ("approximate_root", "approximate_root_with_trace"):
        for method in dict.fromkeys(_ROOT_METHODS):
            streams[(fn, method)] = root_stream(fn, method)
    for fn in _STEPS:
        streams[fn] = step_stream(fn)
    kinds = [(fn, m) for fn in ("approximate_root", "approximate_root_with_trace") for m in _ROOT_METHODS]
    return cycle(kinds + _STEPS, streams)


def _root_call(fn, method, order, abc, digits) -> Call:
    f = recurseq.QuadraticABC(*abc)

    def run(lib):
        return getattr(lib, fn)(f, method, digits, order=order)

    def check(output) -> bool:
        if fn == "approximate_root_with_trace":
            text, iterates = output  # the text is the last exact iterate, rounded
            if not iterates or not decimal_text_ok(text, iterates[-1], digits):
                return False
        else:
            text = output
        return text == reference_root(abc, digits)

    return Call(fn, run, check, key=abc, index=digits)


def _step_call(fn, abc, k, rng, order) -> Call:
    a, b, c = abc
    f = recurseq.QuadraticABC(a, b, c)
    pq = f.scaled_pq()
    j = k - rng.randint(1, k // 2)
    target = {"secant_step": k + j - 1, "newton_step": 2 * k - 1,
              "halley_step": 3 * k - 2, "householder_step": (order + 1) * k - order}[fn]
    # sigma = W(0, 1, b, -a*c); x_n = sigma_n / sigma_{n-1}
    sigma = naive_exact_at(b, -a * c, [n - d for n in (j, k, target) for d in (0, 1)])

    def x(n):
        return Fraction(sigma[n], sigma[n - 1])

    if fn == "secant_step":
        args, expected = (f, x(k) / a, x(j) / a), x(target) / a
    elif fn == "newton_step":
        args, expected = (f, x(k) / a), x(target) / a
    elif fn == "halley_step":
        args, expected = (pq, x(k)), x(target)
    else:
        args, expected = (pq, x(k), order), x(target)
    del sigma

    def run(lib):
        return getattr(lib, fn)(*args)

    return Call(fn, run, lambda output: output == expected, key=abc, index=target)


# -- cli-mix ---------------------------------------------------------------------

# One in seven invocations is built to fail with a known exit code (about 15%).
_CLI_KINDS = ["seq", "ratio", "accelerate", "error", "root", "cf", "verify"]
_ERROR_CODES = [2, 3, 4, 5]


def _fmt_pair(index, value):
    return f"{index} {recurseq.format_rational(value)}\n"


def cli_mix(seed: int, scale: float = 1.0) -> Iterator[Call]:
    """`python -m recurseq` invocations over all six subcommands at small sizes."""
    rng = random.Random(f"cli-mix:{seed}")
    size = max(0.05, scale)

    def stream(kind):
        points = Points(rng)
        serial = 0
        while True:
            u_size, u_pair = points.next()
            yield _cli_call(kind, serial, rng, u_size, u_pair, size)
            serial += 1

    return cycle(_CLI_KINDS, {k: stream(k) for k in _CLI_KINDS})


def _cli_call(kind, serial, rng, u_size, u_pair, size) -> Call:
    p, q = pick(u_pair, PAIRS)
    R = recurseq.RecurrenceParams(p, q)
    pq_args = [f"-p={p}", f"-q={q}"]
    key = (p, q)
    if kind == "seq":
        n = log_uniform(u_size, 1, max(2, int(3000 * size)))
        a0, a1 = rng.choice([(0, 1), (rng.randint(-9, 9), rng.randint(-9, 9))])
        value = recurseq.term(recurseq.LinRecSequence(a0, a1, R), n)
        fmt = rng.choice(["rational", "decimal", "records"])
        argv = ["seq", *pq_args, f"--a0={a0}", f"--a1={a1}", f"-n={n}"]
        if fmt == "decimal":
            digits = rng.randint(1, 40)
            argv.append(f"--format=decimal:{digits}")
            out = recurseq.format_decimal(value, digits) + "\n"
        elif fmt == "records":
            argv.append("--format=records")
            out = json.dumps({"index": n, "value": recurseq.format_rational(value), "method": "seq"}) + "\n"
        else:
            out = recurseq.format_rational(value) + "\n"
        expected, index = (0, out), n
    elif kind == "ratio":
        n = log_uniform(u_size, 2, max(3, int(2000 * size)))
        count = rng.choice([1, 1, 2, 3, 5])
        argv = ["ratio", *pq_args, f"-n={n}", f"--count={count}"]
        values = [recurseq.ratio_x(R, m) for m in range(n, n + count)]
        out = recurseq.format_rational(values[0]) + "\n" if count == 1 else \
            "".join(_fmt_pair(m, v) for m, v in zip(range(n, n + count), values))
        expected, index = (0, out), n + count - 1
    elif kind == "accelerate":
        scheme = ("double", "fib-index", "arith", "general", "shift")[serial % 5]
        top = max(8, log_uniform(u_size, 8, max(9, int(3000 * size))))
        argv = ["accelerate", *pq_args, f"--scheme={scheme}"]
        if scheme == "double":
            start = rng.randint(2, 6)
            indices = [start]
            while indices[-1] * 2 <= top:
                indices.append(indices[-1] * 2)
            argv += [f"--start={start}", f"--count={len(indices)}"]
        elif scheme == "fib-index":
            indices = [2, 3]
            while indices[-1] + indices[-2] <= top:
                indices.append(indices[-1] + indices[-2])
            argv.append(f"--count={len(indices)}")
        elif scheme == "arith":
            h, count = rng.randint(2, 6), rng.randint(2, 6)
            k = max(1, (top // 4) // count)
            indices = [h + k * n for n in range(count)]
            argv += [f"--h={h}", f"--k={k}", f"--count={count}"]
        elif scheme == "general":
            s, t = rng.choice(_W_SHAPES)
            i = rng.randint(2, 4)
            j = i + rng.randint(1, 3)
            indices = _w_indices(i, j, s, t, max(top, j), cap=12)
            argv += [f"--i={i}", f"--j={j}", f"--s={s}", f"--t={t}", f"--count={len(indices)}"]
        else:
            n, m = rng.randint(2, max(3, top // 2)), rng.randint(1, max(2, top // 2))
            indices = [n + m]
            argv += [f"--n={n}", f"--m={m}"]
        out = "".join(_fmt_pair(idx, recurseq.ratio_x(R, idx)) for idx in indices)
        expected, index = (0, out), max(indices)
    elif kind == "root":
        a, b, c = key = pick(u_pair, TRIPLES)
        method = ("secant", "newton", "halley", "householder")[serial % 4]
        order = rng.randint(2, 4)
        digits = log_uniform(u_size, 5, max(6, int(80 * size)))
        argv = ["root", f"-a={a}", f"-b={b}", f"-c={c}", f"--method={method}", f"--digits={digits}",
                f"--order={order}"]
        value = recurseq.approximate_root(recurseq.QuadraticABC(a, b, c), method, digits, order=order)
        if rng.random() < 0.3:
            argv.append("--format=records")
            out = json.dumps({"method": method, "digits": digits, "value": value}) + "\n"
        else:
            out = value + "\n"
        expected, index = (0, out), digits
    elif kind == "cf":
        size_q = rng.randint(1, 4)
        quotients = tuple((rng.randint(1, 9), rng.randint(1, 9)) for _ in range(size_q))
        cfrac = recurseq.RationalCF(quotients, period=rng.randint(1, size_q))
        count = log_uniform(u_size, 1, max(2, int(40 * size)))
        integer = rng.random() < 0.5
        argv = ["cf", str(cfrac), f"--count={count}"] + (["--integer"] if integer else [])
        make = recurseq.convergents_integer if integer else recurseq.convergents_direct
        out = "".join(_fmt_pair(r.index, r.value) for r in make(cfrac, count))
        expected, index, key = (0, out), count - 1, quotients
    elif kind == "verify":
        identity = ("nested-fib", "fkn", "cubic-fib", "method-maps", "cf-threeway")[serial % 5]
        if identity == "nested-fib":
            n_max = rng.randint(3, 14)
            argv, total = ["verify", identity, f"--n-max={n_max}"], n_max - 2
            ok = all(recurseq.verify_nested_fibonacci_identity(n) for n in range(3, n_max + 1))
        elif identity == "fkn":
            k_max, n_max = rng.randint(1, 4), rng.randint(2, 8)
            argv, total = ["verify", identity, f"--k-max={k_max}", f"--n-max={n_max}"], k_max * (n_max - 1)
            ok = all(recurseq.verify_fkn_identity(k, n) for k in range(1, k_max + 1) for n in range(2, n_max + 1))
        elif identity == "cubic-fib":
            n_max = rng.randint(3, 60)
            argv, total = ["verify", identity, f"--n-max={n_max}"], n_max - 2
            ok = all(recurseq.verify_cubic_fibonacci_identity(n) for n in range(3, n_max + 1))
        elif identity == "method-maps":
            # q < 0 < p keeps every step denominator away from zero
            p, q = key = rng.randint(1, 6), -rng.randint(1, 6)
            k_max, d_max = rng.randint(2, 6), rng.randint(1, 4)
            argv = ["verify", identity, f"-p={p}", f"-q={q}", f"--k-max={k_max}", f"--d-max={d_max}"]
            total, ok = (k_max - 1) * (2 + d_max), True
        else:
            a, b, c = key = pick(u_pair, TRIPLES)
            n_max = rng.randint(0, 15)
            argv, total = ["verify", identity, f"-a={a}", f"-b={b}", f"-c={c}", f"--n-max={n_max}"], n_max + 1
            ok = True
        status = "PASS" if ok else "FAIL"
        expected, index = (0 if ok else 1, f"{status} {total}/{total}\n"), 0
    else:
        code = _ERROR_CODES[serial % 4]
        argv, index = _error_argv(code, rng, p, q), 0
        expected = (code, "")
    kind_name = argv[0] if kind != "error" else f"error-exit-{expected[0]}"

    def run(lib):
        return lib.invoke(argv)

    return Call(kind_name, run, lambda output: tuple(output) == expected, key=key, index=index)


def _error_argv(code, rng, p, q):
    if code == 2:
        return rng.choice([
            ["seq", "-p", "x", "-q", "1", "-n", "3"],
            ["ratio", f"-p={p}", f"-q={q}", "-n=1"],
            ["accelerate", f"-p={p}", f"-q={q}", "--scheme=arith", "--count=3"],
            ["cf", "1/0, 2/3", "--count=3"],
            ["root", "-a=1", "-b=1", "-c=1", "--method=newton", "--digits=0"],
        ])
    if code == 3:
        n = rng.randint(50, 500)
        return ["seq", f"-p={p}", f"-q={q}", f"-n={n}", f"--max-index={rng.randint(1, n - 1)}"]
    if code == 4:
        return rng.choice([
            ["ratio", "-p=0", f"-q={q}", "-n=3"],
            ["accelerate", f"-p={p}", "-q=0", "--scheme=general", "--i=2", "--j=3", "--s=1", "--t=-1",
             "--count=4"],
        ])
    a, c = rng.randint(1, 9), -rng.randint(1, 9)
    b_max = math.isqrt(-4 * a * c - 1)  # b^2 < -4ac: no real roots
    b = rng.randint(-b_max, b_max)
    return ["root", f"-a={a}", f"-b={b}", f"-c={c}", "--method=newton", "--digits=10"]


def invoke_in_process(main):
    """An ``invoke(argv)`` that runs ``main`` here, capturing what it prints."""
    def invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # main should never exit; count it as its code
                code = exc.code
        return code, out.getvalue()
    return invoke


STREAMS = {"big-terms": big_terms, "ratio-chains": ratio_chains,
           "root-digits": root_digits, "cli-mix": cli_mix}


def calls(workload: str, seed: int, scale: float = 1.0) -> Iterator[Call]:
    if hasattr(sys, "set_int_max_str_digits"):
        # The library's renderers fail past 4300 digits unless the caller lifts
        # the interpreter's guard; cli.main lifts it, library users must.
        sys.set_int_max_str_digits(0)
    return STREAMS[workload](seed, scale)
