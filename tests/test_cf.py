import random
from concurrent.futures import ThreadPoolExecutor
from decimal import localcontext
from fractions import Fraction

import pytest

from recurseq import (
    DegenerateConvergent,
    NonRealRoots,
    PeriodicQuadCF,
    QuadraticABC,
    QuadraticPQ,
    RationalCF,
    RecurrenceParams,
    convergents_direct,
    convergents_integer,
    halley_step,
    method_subsequence,
    newton_step,
    quad_cf_convergent,
    ratio_x,
    secant_step,
)
from oracles import frac_to_decimal, larger_root, naive_fib


class TestRationalCF:
    def test_numeral_past_the_digit_guard_is_described_by_length(self, default_str_guard):
        token = "1" + "0" * 5000 + "/1"
        with pytest.raises(ValueError) as info:
            RationalCF.parse(f"2, {token}")
        assert str(info.value) == "partial quotient of 5003 characters has too many digits"
        with pytest.raises(ValueError) as info:
            RationalCF.parse("2 | period=" + "1" * 5000)
        assert str(info.value) == "period suffix of 5007 characters has too many digits"

    def test_huge_quotients_round_trip_without_the_guard(self):
        cf = RationalCF(((10**6000, 3), (-7, 10**5000 + 1)), period=1)
        assert RationalCF.parse(str(cf)) == cf

    def test_parse_and_render_round_trip(self):
        cf = RationalCF.parse("1/2, 1/3")
        assert cf.quotients == ((1, 2), (1, 3))
        assert cf.period is None
        periodic = RationalCF.parse("2/2, 2/1 | period=2")
        assert periodic.period == 2
        assert RationalCF.parse(str(periodic)) == periodic
        assert RationalCF.parse("5").quotients == ((5, 1),)

    def test_period_expansion(self):
        cf = RationalCF.parse("7/2, 1/3, 2/5 | period=2")
        assert [cf.quotient(i) for i in range(6)] == [
            (7, 2), (1, 3), (2, 5), (1, 3), (2, 5), (1, 3),
        ]

    def test_rejects_zero_quotients(self):
        with pytest.raises(ValueError):
            RationalCF(((0, 1),))
        with pytest.raises(ValueError):
            RationalCF(((1, 0),))

    def test_rejects_malformed_text(self):
        for bad in ("", "1/2 | period=0 extra", "1//2", "1/2 | cycle=2"):
            with pytest.raises(ValueError):
                RationalCF.parse(bad)

    def test_finite_list_exhausted(self):
        cf = RationalCF.parse("1/2, 1/3")
        with pytest.raises(ValueError):
            cf.quotient(2)


class TestConvergents:
    def test_direct_examples(self):
        records = convergents_direct(RationalCF.parse("1/2, 1/3"), 2)
        assert records[1].value == Fraction(7, 2)
        assert convergents_direct(RationalCF.parse("5/1"), 1)[0].value == 5
        golden = convergents_direct(RationalCF.parse("1/1, 1/1, 1/1, 1/1"), 4)
        assert golden[3].value == Fraction(5, 3)

    def test_integer_examples(self):
        records = convergents_integer(RationalCF.parse("1/2, 1/3"), 2)
        assert (records[1].s, records[1].t) == (7, 1)
        assert records[1].value == Fraction(7, 2)
        assert convergents_integer(RationalCF.parse("5/1"), 1)[0].value == 5
        golden = convergents_integer(RationalCF.parse("1/1 | period=1"), 4)
        assert golden[3].value == Fraction(5, 3)

    def test_three_way_agreement_random(self):
        rng = random.Random(31415)
        done = 0
        while done < 50:
            length = rng.randint(1, 20)
            quotients = tuple(
                (rng.choice([n for n in range(-9, 10) if n]), rng.choice([n for n in range(-9, 10) if n]))
                for _ in range(length)
            )
            cf = RationalCF(quotients)
            try:
                direct = convergents_direct(cf, length)
                integer = convergents_integer(cf, length)
            except DegenerateConvergent:
                continue
            assert [r.value for r in direct] == [r.value for r in integer]
            for r_direct, r_int in zip(direct, integer):
                assert r_direct.p / r_direct.q == Fraction(r_int.s, cf.quotients[0][1] * r_int.t)
            done += 1


class TestPeriodicQuadCF:
    def test_sigma_ratio_examples(self):
        assert quad_cf_convergent(PeriodicQuadCF(1, 1, 1), 3) == Fraction(5, 3)
        assert quad_cf_convergent(PeriodicQuadCF(2, 2, 1), 3) == Fraction(11, 8)
        assert quad_cf_convergent(PeriodicQuadCF(1, 1, 1), 0) == 1

    def test_requires_nonzero_coefficients(self):
        with pytest.raises(ValueError):
            PeriodicQuadCF(1, 0, 4)

    def test_degenerate_sigma_flagged(self):
        # sigma = W(0, 1, 1, 1) vanishes at every third index.
        with pytest.raises(DegenerateConvergent):
            quad_cf_convergent(PeriodicQuadCF(1, 1, -1), 2)

    def test_matches_expanded_rational_cf(self):
        rng = random.Random(2718)
        done = 0
        while done < 30:
            a, b, c = (rng.choice([n for n in range(-8, 9) if n]) for _ in range(3))
            qcf = PeriodicQuadCF(a, b, c)
            try:
                sigma_values = [quad_cf_convergent(qcf, n) for n in range(20)]
                direct = convergents_direct(qcf.to_rational_cf(), 20)
            except DegenerateConvergent:
                continue
            assert [r.value for r in direct] == sigma_values
            done += 1

    def test_bridging_identity(self):
        # a * C_n equals the ratio x_{n+2} of the sigma recurrence.
        qcf = PeriodicQuadCF(2, 2, 1)
        params = RecurrenceParams(qcf.b, -qcf.a * qcf.c)
        for n in range(30):
            assert qcf.a * quad_cf_convergent(qcf, n) == ratio_x(params, n + 2)

    def test_convergents_approach_the_quadratic_root(self):
        # |C_n - alpha| shrinks monotonically past a burn-in, with alpha from
        # a high-precision square-root oracle.
        rng = random.Random(4243)
        done = 0
        while done < 20:
            a, b, c = (rng.choice([v for v in range(-9, 10) if v]) for _ in range(3))
            if b * b + 4 * a * c <= 0:
                continue
            qcf = PeriodicQuadCF(a, b, c)
            with localcontext() as ctx:
                ctx.prec = 150
                # Compare in scaled coordinates: a*C_n approaches the
                # larger-modulus root of the monic form t^2 - b*t - a*c.
                alpha = larger_root(b, -a * c, prec=150)
                errors = [
                    abs(frac_to_decimal(a * quad_cf_convergent(qcf, n), prec=150) - alpha)
                    for n in range(30, 46)
                ]
            assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:])), (a, b, c)
            done += 1

    def test_concurrent_sigma_calls_agree(self):
        # sigma keeps no state between calls, so threads sharing one object agree.
        qcf = PeriodicQuadCF(3, 5, 2)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda n: qcf.sigma(n), list(range(500)) * 4))
        expected = results[:500]
        for start in range(0, 2000, 500):
            assert results[start : start + 500] == expected


class TestMethodSubsequence:
    def test_newton_indices_and_values(self):
        got = method_subsequence(PeriodicQuadCF(1, 1, 1), "newton", 4)
        assert got == [
            (0, Fraction(1)),
            (1, Fraction(2)),
            (3, Fraction(5, 3)),
            (7, Fraction(34, 21)),
        ]

    def test_halley_indices_and_values(self):
        got = method_subsequence(PeriodicQuadCF(1, 1, 1), "halley", 3)
        assert got == [(0, Fraction(1)), (2, Fraction(3, 2)), (8, Fraction(55, 34))]

    def test_secant_indices_and_values(self):
        got = method_subsequence(PeriodicQuadCF(1, 1, 1), "secant", 5)
        assert got == [
            (0, Fraction(1)),
            (1, Fraction(2)),
            (2, Fraction(3, 2)),
            (4, Fraction(8, 5)),
            (7, Fraction(34, 21)),
        ]

    def test_non_real_roots_rejected(self):
        with pytest.raises(NonRealRoots):
            method_subsequence(PeriodicQuadCF(1, 1, -1), "newton", 3)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            method_subsequence(PeriodicQuadCF(1, 1, 1), "bisection", 3)

    def test_long_unknown_method_is_described_by_length(self):
        expected = "; expected secant, newton, or halley"
        with pytest.raises(ValueError) as info:
            method_subsequence(PeriodicQuadCF(1, 1, 1), "x" * 5000, 3)
        assert str(info.value) == "unknown method of 5000 characters" + expected
        with pytest.raises(ValueError) as info:
            method_subsequence(PeriodicQuadCF(1, 1, 1), "x" * 100, 3)
        assert str(info.value) == f"unknown method '{'x' * 100}'" + expected

    def test_values_equal_iterated_methods(self):
        rng = random.Random(1618)
        done = 0
        while done < 15:
            a, b, c = (rng.choice([n for n in range(-6, 7) if n]) for _ in range(3))
            if b * b + 4 * a * c <= 0:
                continue
            qcf = PeriodicQuadCF(a, b, c)
            f = QuadraticABC(a, b, c)
            pq = QuadraticPQ(b, -a * c)
            try:
                newton_chain = [Fraction(b, a)]
                for _ in range(5):
                    newton_chain.append(newton_step(f, newton_chain[-1]))
                assert [v for _, v in method_subsequence(qcf, "newton", 6)] == newton_chain

                halley_chain = [Fraction(b, a)]
                for _ in range(3):
                    halley_chain.append(halley_step(pq, a * halley_chain[-1]) / a)
                assert [v for _, v in method_subsequence(qcf, "halley", 4)] == halley_chain

                secant_chain = [Fraction(b, a), Fraction(b * b + a * c, a * b)]
                for _ in range(6):
                    secant_chain.append(secant_step(f, secant_chain[-1], secant_chain[-2]))
                assert [v for _, v in method_subsequence(qcf, "secant", 8)] == secant_chain
            except DegenerateConvergent:
                continue
            done += 1

    def test_secant_index_closed_form(self):
        got = method_subsequence(PeriodicQuadCF(1, 1, 1), "secant", 10)
        assert [idx for idx, _ in got] == [naive_fib(n + 2) - 1 for n in range(10)]
