"""Hurwitz zeta at s = 1/2 and the exponential H-series."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasikp import DomainError, h_series, hurwitz_zeta_half
from quasikp.greens_oracle import zeta_half_bruteforce
from quasikp.specfun import _EM_B2, _EM_B4, _EM_B6


class TestHurwitzZetaHalf:
    def test_q1_reference_value(self):
        # zeta(1/2) = -1.4603545088...
        assert hurwitz_zeta_half(1.0) == pytest.approx(-1.46035, abs=1e-4)
        assert hurwitz_zeta_half(1.0) == pytest.approx(-1.4603545088, abs=1e-9)

    def test_recurrence(self):
        # zeta(1/2, q) = q^{-1/2} + zeta(1/2, q + 1)
        for q in (0.05, 0.1, 0.25, 0.5, 1.0, 1.7, 2.0, 3.3, 5.0):
            lhs = hurwitz_zeta_half(q)
            rhs = q**-0.5 + hurwitz_zeta_half(q + 1.0)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_against_mpmath_grid(self):
        qs = np.concatenate([
            np.geomspace(1e-3, 1.0, 25),
            np.linspace(1.0, 50.0, 25),
        ])
        for q in qs:
            ref = float(mpmath.zeta(mpmath.mpf("0.5"), mpmath.mpf(q)))
            assert hurwitz_zeta_half(float(q)) == pytest.approx(ref, abs=1e-11)

    def test_against_mode_sum_oracle(self):
        # fully independent route: truncated mode sum + tail extrapolation
        for q in (0.3, 0.75, 1.5):
            assert hurwitz_zeta_half(q) == pytest.approx(
                zeta_half_bruteforce(q), abs=1e-8
            )

    def test_vectorized_matches_scalar(self):
        qs = np.array([0.2, 1.0, 4.5])
        vec = hurwitz_zeta_half(qs)
        assert vec.shape == qs.shape
        for q, v in zip(qs, vec):
            assert v == pytest.approx(hurwitz_zeta_half(float(q)), rel=1e-14)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                hurwitz_zeta_half(bad)
        with pytest.raises(DomainError):
            hurwitz_zeta_half(np.array([1.0, -2.0]))

    def test_slices_match_one_whole_sum(self):
        # the direct sum runs over slices of points; the (points, terms)
        # expression over the whole batch is the oracle, bit for bit
        q = np.random.default_rng(3).uniform(1e-3, 50.0, (3, 450))
        whole = np.sum((q[..., np.newaxis] + np.arange(16.0))**-0.5, axis=-1)
        w = q + 16.0
        whole = whole + (-2.0 * np.sqrt(w) + 0.5 * w**-0.5 + _EM_B2 * w**-1.5
                         + _EM_B4 * w**-3.5 + _EM_B6 * w**-5.5)
        np.testing.assert_array_equal(hurwitz_zeta_half(q), whole)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_recurrence_property(self, q):
        lhs = hurwitz_zeta_half(q)
        rhs = q**-0.5 + hurwitz_zeta_half(q + 1.0)
        assert abs(lhs - rhs) < 1e-10

    @given(st.floats(min_value=0.05, max_value=40.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_decreasing_property(self, q):
        # every term of the regularized sum falls as q grows
        assert hurwitz_zeta_half(q) > hurwitz_zeta_half(q * 1.01)


class TestHSeries:
    def test_partial_sum_convergence(self):
        # brute partial sum at x = 2 with enough terms to hit 1e-12
        n = np.arange(1, 200_001, dtype=float)
        brute = float(np.sum(np.exp(-np.sqrt(n) * 2.0) / np.sqrt(n)))
        assert h_series(2.0) == pytest.approx(brute, abs=1e-12)

    def test_monotone_in_x(self):
        assert h_series(2.0) > h_series(3.0) > h_series(4.0)

    def test_leading_term_dominates_at_large_x(self):
        # H(x) -> e^{-x} as x -> inf (n = 1 term)
        for x in (20.0, 30.0):
            assert h_series(x) / math.exp(-x) == pytest.approx(1.0, rel=1e-3)

    def test_positive_and_convex(self):
        xs = np.linspace(0.5, 6.0, 12)
        vals = np.array([h_series(float(x)) for x in xs])
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals, 2) > 0.0)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                h_series(bad)

    @given(st.floats(min_value=0.3, max_value=25.0))
    @settings(max_examples=40, deadline=None)
    def test_bounds_property(self, x):
        # tail over n >= 2 is below the integral from 1: 2 e^{-x} / x
        val = h_series(x)
        assert val > math.exp(-x)
        assert val < math.exp(-x) * (1.0 + 2.0 / x) + 1e-15
