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
        # locate the roots of rhs - cos(theta) on a dense grid, and on the
        # kappa branch cosh + g sinh/kappa - cos(theta) for a bound band;
        # a sign change is a simple root, and a local minimum of |rhs -
        # cos(theta)| that touches zero without a sign change is a double
        # root (the closed gaps of the free lattice at theta = pi)
        for g, L, theta in ((3.0, 1.0, 0.0), (-1.3, 1.0, 0.0),
                            (-0.8, 2.0, math.pi), (2.0, 1.5, math.pi),
                            (0.0, 2.0, math.pi)):
            c = math.cos(theta)
            ks = np.linspace(1e-6, 4.5 * math.pi / L, 100_001)
            vals = np.cos(ks * L) + g * np.sin(ks * L) / ks - c
            s = np.sign(vals)
            flips = np.nonzero(s[:-1] * s[1:] < 0.0)[0]
            es = [0.5 * (0.5 * (ks[i] + ks[i + 1])) ** 2 for i in flips]
            a = np.abs(vals)
            touch = 1 + np.nonzero((a[1:-1] < a[:-2]) & (a[1:-1] < a[2:])
                                   & (a[1:-1] < 1e-6)
                                   & (s[:-2] == s[1:-1]) & (s[1:-1] == s[2:]))[0]
            es += [0.5 * ks[i] ** 2 for i in touch for _ in range(2)]
            kaps = np.linspace(1e-6, 4.0 * max(abs(g), 1.0 / L), 100_001)
            w = np.cosh(kaps * L) + g * np.sinh(kaps * L) / kaps - c
            sw = np.sign(w)
            es += [-0.5 * kaps[i] ** 2 for i in np.nonzero(sw[:-1] * sw[1:] < 0.0)[0]]
            es.sort()
            bands = kp1d_bands(Kp1dParams(g1d=g, L=L), theta, 4)
            h = max(ks[1] - ks[0], kaps[1] - kaps[0])
            assert len(es) >= 4, (g, L, theta)
            for got, ref in zip(bands, es[:4]):
                assert got == pytest.approx(ref, abs=h * math.sqrt(2.0 * abs(ref))), \
                    (g, L, theta)

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


class TestBrackets:
    """One bracket per band: band m+1 in [m pi/L, (m+1) pi/L], band 1 on
    the kappa branch when 1 + g L <= cos(theta)."""

    def test_free_lattice_zone_edge_doublets(self):
        # g = 0: the gaps at the zone edges are closed, so the bands meet in
        # pairs at the nodes kL = pi, 3pi (theta = pi) and 2pi (theta = 0)
        u = 0.5 * (math.pi / 2.0) ** 2
        p = Kp1dParams(g1d=0.0, L=2.0)
        assert kp1d_bands(p, math.pi, 4) == pytest.approx([u, u, 9 * u, 9 * u],
                                                          rel=1e-15)
        assert kp1d_bands(p, 0.0, 4) == pytest.approx([0.0, 4 * u, 4 * u, 16 * u],
                                                      rel=1e-15)

    def test_small_coupling_zone_edge_against_mpmath(self):
        # g L ~ 4e-6: at theta = 0 the roots of band 1 and band 3 sit
        # 2e-7 (relative) past k = 0 and kL = 2 pi, where rhs - 1 is
        # nearly a double root; references from 50-digit mpmath on rhs - 1
        mpmath = pytest.importorskip("mpmath")
        g, L = 1.56e-6, 2.77
        with mpmath.workdps(50):
            gm, Lm = mpmath.mpf(g), mpmath.mpf(L)
            f = lambda k: mpmath.cos(k * Lm) + gm * mpmath.sin(k * Lm) / k - 1
            node = 2 * mpmath.pi / Lm
            refs = [mpmath.findroot(f, lo_hi, solver="anderson")
                    for lo_hi in ((mpmath.mpf("1e-9"), mpmath.pi / (2 * Lm)),
                                  (node * (1 + mpmath.mpf("1e-9")),
                                   node * (1 + mpmath.mpf("1e-5"))))]
            refs = [float(k * k / 2) for k in refs]
        bands = kp1d_bands(Kp1dParams(g1d=g, L=L), 0.0, 4)
        assert bands[0] == pytest.approx(refs[0], rel=1e-14)
        assert bands[2] == pytest.approx(refs[1], rel=1e-14)
        # bands 2 and 4 end on the nodes kL = 2 pi and 4 pi
        assert bands[1] == pytest.approx(0.5 * (2.0 * math.pi / L) ** 2, rel=1e-15)
        assert bands[3] == pytest.approx(0.5 * (4.0 * math.pi / L) ** 2, rel=1e-15)

    @given(
        g=st.sampled_from([0.0])
        | st.builds(lambda sign, mag: sign * 10.0 ** mag,
                    st.sampled_from([-1.0, 1.0]), st.floats(-6.0, 4.0)),
        L=st.floats(0.05, 20.0),
        theta=st.sampled_from([0.0, math.pi, -math.pi])
        | st.builds(lambda base, d: base + d,
                    st.sampled_from([0.0, math.pi, -math.pi]),
                    st.floats(-1e-6, 1e-6))
        | st.floats(-math.pi, math.pi),
        n=st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_one_root_per_bracket(self, g, L, theta, n):
        p = Kp1dParams(g1d=g, L=L)
        c = math.cos(theta)
        bands = kp1d_bands(p, theta, n)
        assert len(bands) == n
        bound = 1.0 + g * L <= c
        slack = 1e-12
        for m, e in enumerate(bands):
            if m == 0 and bound:
                assert e <= 0.0
                continue
            k = math.sqrt(2.0 * e)
            assert m * math.pi / L * (1.0 - slack) <= k <= (m + 1) * math.pi / L * (1.0 + slack)
        if abs(c) == 1.0:
            return
        # inside the zone the root count is certified: rhs - cos(theta) has
        # exactly one sign change on a dense grid of every band's interval
        # (the ends are the nodes, where rhs = (-1)^m exactly)
        for m in range(0 if not bound else 1, n):
            ks = np.linspace(m, m + 1, 2001)[1:-1] * math.pi / L
            vals = np.concatenate([[(1.0 + g * L if m == 0 else (-1.0) ** m) - c],
                                   kp1d_rhs(ks, p) - c, [(-1.0) ** (m + 1) - c]])
            assert _sign_changes(vals).size == 1, m
