"""sigma indexing, the period-2 convergent at indices around 4096, and the
acceleration seed entries, each against a direct reference."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from recurseq import (
    DegenerateConvergent,
    DegenerateRatio,
    IndexCapExceeded,
    IndexSequenceParams,
    PeriodicQuadCF,
    RecurrenceParams,
    accelerate_general,
    basis_ut,
    quad_cf_convergent,
    ratio_x,
)
from oracles import naive_sequence

_SIGMA_MEMO_LIMIT = 4096  # the former sigma memo bound, kept as input values

nonzero = st.integers(-9, 9).filter(bool)


class TestSigmaIndex:
    @pytest.mark.parametrize("i", [-1, -2, -3, -11])
    def test_negative_index_raises_on_a_fresh_object(self, i):
        with pytest.raises(ValueError):
            PeriodicQuadCF(1, 1, 1).sigma(i)

    @pytest.mark.parametrize("i", [-1, -2, -3, -11])
    def test_negative_index_raises_after_a_valid_call(self, i):
        qcf = PeriodicQuadCF(1, 1, 1)
        assert qcf.sigma(10) == 55
        with pytest.raises(ValueError):
            qcf.sigma(i)
        assert qcf.sigma(10) == 55


def reference_convergent(a, b, c, n):
    """Fraction(sigma_{n+2}, a*sigma_{n+1}), or None when sigma_{n+1} = 0."""
    sigma = naive_sequence(0, 1, b, -a * c, n + 2)
    return Fraction(sigma[n + 2], a * sigma[n + 1]) if sigma[n + 1] else None


MEMO_EDGE = list(range(_SIGMA_MEMO_LIMIT - 2, _SIGMA_MEMO_LIMIT + 3))


class TestQuadConvergent:
    @given(a=nonzero, b=nonzero, c=nonzero, n=st.sampled_from(MEMO_EDGE + [0, 1, 2, 7, 40]))
    @example(a=1, b=1, c=1, n=_SIGMA_MEMO_LIMIT - 1)
    @example(a=2, b=2, c=1, n=_SIGMA_MEMO_LIMIT)  # gcd(b, ac) = 2
    @example(a=3, b=6, c=5, n=_SIGMA_MEMO_LIMIT + 1)  # gcd(b, ac) = 3
    @example(a=4, b=2, c=3, n=_SIGMA_MEMO_LIMIT - 2)  # gcd(b, a) = 2
    @example(a=1, b=3, c=-3, n=_SIGMA_MEMO_LIMIT + 2)  # gcd(b, c) = 3
    def test_against_direct_sigma(self, a, b, c, n):
        expected = reference_convergent(a, b, c, n)
        for qcf in (PeriodicQuadCF(a, b, c), PeriodicQuadCF(a, b, c)):
            if n > 7:
                qcf.sigma(9)  # an earlier sigma call must not matter
            try:
                got = quad_cf_convergent(qcf, n)
            except DegenerateConvergent:
                assert expected is None
                continue
            assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)

    def test_degenerate_and_capped(self):
        # b = 1, ac = -1: sigma = 0, 1, 1, 0, ... (complex roots of period 6)
        qcf = PeriodicQuadCF(1, 1, -1)
        with pytest.raises(DegenerateConvergent):
            quad_cf_convergent(qcf, 2)
        with pytest.raises(DegenerateConvergent):
            quad_cf_convergent(qcf, 6 * 1000 + 2)
        with pytest.raises(IndexCapExceeded):
            quad_cf_convergent(PeriodicQuadCF(1, 1, 1), 10_000, max_index=10_001)
        with pytest.raises(IndexCapExceeded):
            quad_cf_convergent(PeriodicQuadCF(1, 1, 1), 10, max_index=11)


class TestSeedEntries:
    @given(p=st.integers(-9, 9), q=nonzero, i=st.integers(2, 300), j=st.integers(2, 300))
    @example(p=2, q=2, i=5, j=40)  # gcd(p, q) > 1
    @example(p=0, q=3, i=2, j=4)
    def test_first_two_entries_are_direct(self, p, q, i, j):
        params = RecurrenceParams(p, q)
        try:
            entries = accelerate_general(params, IndexSequenceParams(i, j, 2, 0), 2)
        except DegenerateRatio:
            with pytest.raises(DegenerateRatio):
                ratio_x(params, i)
                ratio_x(params, j)
            return
        for entry, idx in zip(entries, (i, j)):
            u, t = basis_ut(params, idx)
            expected = ratio_x(params, idx)
            assert entry.index == idx
            assert (entry.u, entry.t) == (u, t)
            assert (entry.x.numerator, entry.x.denominator) == (expected.numerator, expected.denominator)

    def test_rejections(self):
        with pytest.raises(ValueError):
            accelerate_general(RecurrenceParams(1, -1), IndexSequenceParams(1, 3, 2, 0), 1)
        with pytest.raises(DegenerateRatio):  # p = 0: U_2 = 0
            accelerate_general(RecurrenceParams(0, 3), IndexSequenceParams(3, 4, 2, 0), 1)
        with pytest.raises(IndexCapExceeded):
            accelerate_general(RecurrenceParams(1, -1), IndexSequenceParams(50, 3, 2, 0), 1,
                               max_index=49)
