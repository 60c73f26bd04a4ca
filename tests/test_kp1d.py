"""Reference 1D delta-lattice dispersion (Bloch bands of point scatterers)."""

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from quasikp import (
    ConfigError,
    Kp1dParams,
    RootError,
    kp1d_bands,
    kp1d_rhs,
    kp1d_rhs_negative,
)
from quasikp._roots import _ROOT_RTOL, _sign_changes, chandrupatla
from quasikp.kp1d import kp1d_bands_batch


class TestRhs:
    def test_free_limit_is_cosine(self):
        p = Kp1dParams(g1d=0.0, L=2.0)
        for k in (0.1, 0.9, 2.7):
            assert kp1d_rhs(k, p) == pytest.approx(math.cos(k * p.L), rel=1e-14)

    def test_node_value_minus_one(self):
        # kL = pi kills the interaction term for every coupling
        for g in (-3.0, 0.0, 0.5, 10.0):
            p = Kp1dParams(g1d=g, L=1.5)
            assert kp1d_rhs(math.pi / p.L, p) == pytest.approx(-1.0, abs=1e-13)

    def test_quarter_period_example(self):
        # gL = 1, kL = pi/2: rhs = 0 + 1 * sin(pi/2)/(pi/2) = 2/pi
        p = Kp1dParams(g1d=0.5, L=2.0)
        k = math.pi / (2.0 * p.L)
        assert kp1d_rhs(k, p) == pytest.approx(2.0 / math.pi, rel=1e-13)
        assert kp1d_rhs(k, p) == pytest.approx(0.6366, abs=1e-4)

    def test_k_zero_limit(self):
        for g, L in ((0.7, 1.3), (-2.0, 0.5)):
            p = Kp1dParams(g1d=g, L=L)
            assert kp1d_rhs(0.0, p) == pytest.approx(1.0 + g * L, rel=1e-14)
            # continuity from both sides of k = 0
            assert kp1d_rhs(1e-9, p) == pytest.approx(1.0 + g * L, abs=1e-12)

    def test_vectorized(self):
        p = Kp1dParams(g1d=1.0, L=1.0)
        ks = np.linspace(0.0, 5.0, 7)
        vec = kp1d_rhs(ks, p)
        for k, v in zip(ks, vec):
            assert v == pytest.approx(kp1d_rhs(float(k), p), rel=1e-14)


class TestRhsNegative:
    def test_free_limit_is_cosh(self):
        p = Kp1dParams(g1d=0.0, L=1.0)
        for kap in (0.3, 1.0, 2.5):
            assert kp1d_rhs_negative(kap, p) == pytest.approx(math.cosh(kap), rel=1e-14)

    def test_matches_positive_branch_at_zero(self):
        p = Kp1dParams(g1d=-1.2, L=0.8)
        assert kp1d_rhs_negative(0.0, p) == pytest.approx(kp1d_rhs(0.0, p), rel=1e-14)
        assert kp1d_rhs_negative(1e-7, p) == pytest.approx(kp1d_rhs(0.0, p), abs=1e-12)

    def test_attractive_coupling_admits_bound_band(self):
        # gL = -2: rhs_negative(0) = 1 - 2 = -1 <= cos(theta) while
        # rhs_negative -> +inf, so a crossing exists for every theta
        p = Kp1dParams(g1d=-2.0, L=1.0)
        assert kp1d_rhs_negative(0.0, p) == pytest.approx(-1.0, rel=1e-14)
        assert kp1d_rhs_negative(10.0, p) > 1.0


class TestSignTests:
    def test_subnormal_midpoint_residual(self):
        # the product 1e-3 * -5e-324 underflows to -0.0, so a sign test by
        # product would walk away from the root to the bracket end
        def f(x):
            return np.where(x == 1.0, -5e-324, 1e-3 * (1.0 - x))

        root = chandrupatla(f, [0.0], [2.0], [f(0.0)], [f(2.0)],
                            atol=0.0, rtol=_ROOT_RTOL)
        assert root[0] == pytest.approx(1.0, abs=1e-12)

    def test_scan_sign_changes_survive_underflow(self):
        vals = np.array([1e-200, -1e-200, 0.0, 3.0, -2.0, np.nan, 1.0])
        assert _sign_changes(vals).tolist() == [0, 3]


class TestBands:
    def test_free_particle_exact(self):
        # g = 0, theta = pi/2: cos(kL) = 0 at kL = (j + 1/2) pi
        p = Kp1dParams(g1d=0.0, L=1.0)
        bands = kp1d_bands(p, math.pi / 2.0, 4)
        expect = [0.5 * ((j + 0.5) * math.pi / p.L) ** 2 for j in range(4)]
        assert bands == pytest.approx(expect, rel=1e-12)

    def test_band_edges_at_nodes(self):
        # kL = j*pi solves cos(theta) = (-1)^j for every coupling strength
        for g in (-1.0, 0.3, 2.0, 7.5):
            p = Kp1dParams(g1d=g, L=1.0)
            at_pi = kp1d_bands(p, math.pi, 3)
            k1 = math.sqrt(2.0 * at_pi[0])
            assert k1 <= math.pi / p.L + 1e-9
            assert any(
                e == pytest.approx(0.5 * (math.pi / p.L) ** 2, rel=1e-10)
                for e in at_pi
            )
            at_0 = kp1d_bands(p, 0.0, 3)
            assert any(
                e == pytest.approx(0.5 * (2.0 * math.pi / p.L) ** 2, rel=1e-10)
                for e in at_0
            )

    def test_against_dense_scan_oracle(self):
        # gL = 3, theta = 0: locate sign changes of rhs - 1 on a 1e5 grid
        # (the even nodes kL = 2*pi*j are transversal crossings on the
        # full line, so the dense scan catches them on its own)
        p = Kp1dParams(g1d=3.0, L=1.0)
        ks = np.linspace(1e-6, 4.5 * math.pi, 100_001)
        vals = kp1d_rhs(ks, p) - 1.0
        flips = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
        scan_es = sorted(0.5 * (0.5 * (ks[i] + ks[i + 1])) ** 2 for i in flips)
        bands = kp1d_bands(p, 0.0, 4)
        h = ks[1] - ks[0]
        assert len(scan_es) >= 4
        for got, ref in zip(bands, scan_es[:4]):
            assert got == pytest.approx(ref, abs=h * math.sqrt(2.0 * ref))

    def test_gap_closes_linearly_in_g(self):
        # first gap at theta = pi has width ~ 2 g / pi * ... -> 0 as g -> 0
        L = 1.0
        g = 1e-3
        bands = kp1d_bands(Kp1dParams(g1d=g, L=L), math.pi, 2)
        gap = bands[1] - bands[0]
        bands2 = kp1d_bands(Kp1dParams(g1d=2.0 * g, L=L), math.pi, 2)
        gap2 = bands2[1] - bands2[0]
        assert gap > 0.0
        assert gap2 / gap == pytest.approx(2.0, rel=1e-2)

    def test_even_in_theta(self):
        p = Kp1dParams(g1d=0.8, L=2.0)
        for th in (0.3, 1.1, 2.9):
            plus = kp1d_bands(p, th, 3)
            minus = kp1d_bands(p, -th, 3)
            assert plus == pytest.approx(minus, rel=1e-12)

    def test_bound_band_present_when_attractive(self):
        p = Kp1dParams(g1d=-1.0, L=2.0)
        bands = kp1d_bands(p, 0.7, 3)
        assert bands[0] < 0.0
        assert bands[1] > 0.0

    def test_no_bound_band_when_repulsive(self):
        p = Kp1dParams(g1d=1.0, L=2.0)
        assert kp1d_bands(p, 0.7, 3)[0] > 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            Kp1dParams(g1d=0.0, L=-1.0)
        with pytest.raises(ConfigError):
            Kp1dParams(g1d=math.inf, L=1.0)
        with pytest.raises(ConfigError):
            kp1d_bands(Kp1dParams(g1d=0.0, L=1.0), 0.0, 0)
        with pytest.raises(ConfigError):
            kp1d_bands(Kp1dParams(g1d=0.0, L=1.0), math.nan, 2)

    @given(
        g=st.floats(-3.0, 3.0),
        L=st.floats(0.5, 5.0),
        thetas=st.lists(st.sampled_from([0.0, math.pi, -math.pi])
                        | st.floats(-7.0, 7.0), min_size=1, max_size=6),
        n=st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_single_phase(self, g, L, thetas, n):
        p = Kp1dParams(g1d=g, L=L)
        try:
            singles = [kp1d_bands(p, th, n) for th in thetas]
        except RootError:
            with pytest.raises(RootError):
                kp1d_bands_batch(p, thetas, n)
            return
        batch = kp1d_bands_batch(p, thetas, n)
        assert len(batch) == len(thetas)
        for got, one in zip(batch, singles):
            assert len(got) == len(one)
            assert got == pytest.approx(one, rel=1e-12)
