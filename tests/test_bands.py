"""Band solving, continuity tracking, edges, and effective-mass fits."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from quasikp import (
    Band,
    ConstantScatteringLength,
    DomainError,
    EnergyDependentScatteringLength,
    FitRankError,
    Kp1dParams,
    ModelConfig,
    PoleError,
    RootError,
    a1d_of_e,
    band_edges_vs_a,
    band_energies_at_theta,
    effective_mass,
    effective_mass_for_model,
    effective_mass_vs_a,
    kp1d_bands,
    lattice_sum_pole_energies,
    single_impurity_bound_energy,
    solve_bands,
    validate,
)
from quasikp import bands as bands_mod
from quasikp.atomion import ScatteringLengthTable, invert_a_of_b
from quasikp._roots import chandrupatla


def _config(a, L, **kw):
    return validate(
        ModelConfig(lattice_spacing=L, scattering=ConstantScatteringLength(a), **kw)
    )


def _bisect_many_oracle(f_vec, lo, hi, flo, args=()) -> np.ndarray:
    """The vectorised bisection the band solver used before (test oracle)."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    flo = np.array(flo, dtype=float)
    args = [np.asarray(a) for a in args]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        tol = np.maximum(bands_mod.BISECT_TOL, 1e-14 * np.abs(mid))
        active = (hi - lo) > tol
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        fm = np.asarray(f_vec(mid[idx], *(a[idx] for a in args)), dtype=float)
        if np.isnan(fm).any():
            raise PoleError("bisection midpoint fell on a lattice-sum pole",
                            channel=None)
        to_lo = (fm > 0.0) == (flo[idx] > 0.0)
        lo[idx[to_lo]] = mid[idx[to_lo]]
        flo[idx[to_lo]] = fm[to_lo]
        hi[idx[~to_lo]] = mid[idx[~to_lo]]
    return 0.5 * (lo + hi)


@functools.cache
def _ion_model(a0):
    b = invert_a_of_b(a0, 1)
    table = ScatteringLengthTable.from_potential(b, e_min=0.01, e_max=2.0, n=40)
    return EnergyDependentScatteringLength(table, r_star_ratio=0.3)


def _free_levels(theta, L, e_max, count):
    """Analytic folded free-particle levels 1 + ((2 pi j +- theta)/L)^2 / 2."""
    levels = []
    j = 0
    while True:
        done = True
        for kl in (2.0 * math.pi * j + theta, 2.0 * math.pi * (j + 1) - theta):
            e = 1.0 + 0.5 * (kl / L) ** 2
            if e < e_max:
                levels.append(e)
                done = False
        if done and j > 0:
            break
        j += 1
    return sorted(levels)[:count]


class TestFreeBands:
    def test_exact_against_analytic(self):
        L = 5.0
        cfg = _config(0.0, L, theta_grid_size=21, energy_window=(0.9, 3.0 - 1e-6))
        # bands 1 and 2 touch at theta = 0 (exact free doublet), so the
        # tracker honestly reports a suspected crossing there
        with pytest.warns(RuntimeWarning, match="crossing"):
            bands = solve_bands(cfg, n_bands=3)
        assert len(bands) >= 3
        for it, th in enumerate(bands[0].thetas):
            got = sorted(b.energies[it] for b in bands[:3])
            ref = _free_levels(float(th), L, 3.0 - 1e-6, 3)
            assert got == pytest.approx(ref, abs=1e-10)

    def test_degeneracy_multiplicity_at_zone_edges(self):
        # at theta = 0 the +K/-K doublets coincide: repeated roots kept
        L = 5.0
        cfg = _config(0.0, L, energy_window=(0.9, 3.0 - 1e-6))
        r0 = band_energies_at_theta(0.0, cfg)
        doublet = 1.0 + 0.5 * (2.0 * math.pi / L) ** 2
        assert np.count_nonzero(np.isclose(r0, doublet, atol=1e-10)) == 2
        # theta = 0 also carries the K = 0 singlet
        assert np.count_nonzero(np.isclose(r0, 1.0, atol=1e-10)) == 1

    def test_provenance_tag(self):
        cfg = _config(0.0, 5.0, theta_grid_size=21, energy_window=(0.9, 1.4))
        band = solve_bands(cfg, n_bands=1)[0]
        assert band.provenance == "constant-a"
        assert band.lattice_spacing == 5.0


class TestRootFinding:
    def test_even_in_theta(self):
        cfg = _config(0.7, 1.5, energy_window=(-1.0, 4.9))
        for th in (0.4, 1.3, 2.8):
            plus = band_energies_at_theta(th, cfg)
            minus = band_energies_at_theta(-th, cfg)
            assert plus == pytest.approx(minus, rel=1e-10)

    def test_two_pi_periodic(self):
        cfg = _config(-0.4, 1.5, energy_window=(-1.0, 4.9))
        base = band_energies_at_theta(0.9, cfg)
        shifted = band_energies_at_theta(0.9 + 2.0 * math.pi, cfg)
        assert shifted == pytest.approx(base, rel=1e-10)

    def test_scan_density_completeness(self):
        # doubling the scan density must not reveal new roots
        rng = np.random.default_rng(42)
        for _ in range(3):
            a = float(rng.uniform(0.2, 1.5)) * (1 if rng.random() < 0.5 else -1)
            L = float(rng.uniform(0.8, 3.0))
            th = float(rng.uniform(0.3, 2.8))
            cfg = _config(a, L, energy_window=(-1.0, 6.9))
            base = band_energies_at_theta(th, cfg, scan_points=200)
            dense = band_energies_at_theta(th, cfg, scan_points=400)
            assert base.size == dense.size, (a, L, th)
            assert base == pytest.approx(dense, abs=1e-8)

    def test_node_state_present_for_every_coupling(self):
        # at theta = j*pi the Bloch wave can vanish on every impurity, so
        # the free level with k L = j*pi solves the dispersion for any a
        L = 2.0
        for a in (-0.7, 0.3, 1.2):
            cfg = _config(a, L, energy_window=(0.5, 6.5))
            r_pi = band_energies_at_theta(math.pi, cfg)
            node_e = 1.0 + 0.5 * (math.pi / L) ** 2
            assert np.min(np.abs(r_pi - node_e)) < 1e-9, a
            r_0 = band_energies_at_theta(0.0, cfg)
            node_e0 = 1.0 + 0.5 * (2.0 * math.pi / L) ** 2
            assert np.min(np.abs(r_0 - node_e0)) < 1e-9, a

    def test_roots_actually_solve_dispersion(self):
        from quasikp import dispersion_residual

        cfg = _config(0.6, 2.0, energy_window=(-1.0, 4.9))
        roots = band_energies_at_theta(1.1, cfg)
        assert roots.size > 0
        for e in roots:
            assert abs(dispersion_residual(float(e), 1.1, cfg)) < 1e-7


class TestCrossSolverAgreement:
    """Below the second threshold one channel is open, so the waveguide
    dispersion reduces to a 1D delta lattice with g = -1/a1d(E) up to the
    exponentially small closed-channel lattice term."""

    THETAS = (0.0, 0.9, 1.8, 2.7, math.pi)

    def _worst_mismatch(self, a, e_cap):
        L = 15.0
        cfg = _config(a, L)
        worst = 0.0
        for th in self.THETAS:
            roots = band_energies_at_theta(th, cfg, e_min=1.0 + 1e-6, e_max=e_cap)
            for e_q in roots:
                g = -1.0 / a1d_of_e(float(e_q), cfg.scattering)
                kp = kp1d_bands(Kp1dParams(g1d=g, L=L), th, 12)
                e_kp = 1.0 + min((abs(1.0 + x - e_q), x) for x in kp)[1]
                worst = max(worst, abs(float(e_q) - e_kp))
        return worst

    @pytest.mark.parametrize("a", [-0.5, 0.2, 0.5])
    def test_matches_below_second_threshold(self, a):
        assert self._worst_mismatch(a, 2.9) < 1e-3

    def test_agreement_is_exponentially_tight_lower_down(self):
        assert self._worst_mismatch(0.2, 2.5) < 1e-6


class TestSolveBands:
    def test_interacting_bands_complete_and_ordered(self):
        cfg = _config(0.5, 1.5, theta_grid_size=21, energy_window=(-1.0, 4.9))
        bands = solve_bands(cfg, n_bands=2)
        assert len(bands) >= 2
        for b in bands[:2]:
            assert np.all(np.isfinite(b.energies))
        # bands are indexed bottom-up
        assert np.nanmin(bands[0].energies) < np.nanmin(bands[1].energies)
        # no spurious degeneracy between distinct bands away from edges
        mid = 10
        assert bands[1].energies[mid] > bands[0].energies[mid]

    def test_energy_dependent_provenance(self):
        b = invert_a_of_b(1.0, 1)
        table = ScatteringLengthTable.from_potential(b, e_min=0.01, e_max=2.0, n=40)
        model = EnergyDependentScatteringLength(table, r_star_ratio=0.3)
        cfg = validate(ModelConfig(
            lattice_spacing=5.0, scattering=model,
            theta_grid_size=11, energy_window=(1.0 + 1e-6, 1.0 + 1e-6 + 0.75),
        ))
        bands = solve_bands(cfg, n_bands=1)
        assert bands[0].provenance == "energy-dependent"
        assert np.all(np.isfinite(bands[0].energies))

    def test_band_container_helpers(self):
        cfg = _config(0.0, 5.0, theta_grid_size=21, energy_window=(0.9, 1.4))
        band = solve_bands(cfg, n_bands=1)[0]
        lo, hi = band.edges
        assert lo == band.energies[0]
        assert hi == band.energies[-1]
        pts = band.points()
        assert len(pts) == 21
        assert pts[0] == (0.0, band.energies[0])


class TestPoleMasking:
    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_edges_raise_no_runtime_warning(self, theta):
        # the window crosses 22 thresholds and holds dozens of double poles
        cfg = _config(0.5, 1.0, energy_window=(0.5, 45.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            roots = band_energies_at_theta(theta, cfg)
        assert roots.size > 20

    def test_edge_sweep_makes_no_scalar_residual_call(self, monkeypatch):
        ndims = []
        real = bands_mod.dispersion_residual

        def counting(E, theta, config):
            ndims.append(np.ndim(E))
            return real(E, theta, config)

        monkeypatch.setattr(bands_mod, "dispersion_residual", counting)
        rows = band_edges_vs_a([0.5], 1.0, n_bands=3)
        assert all(math.isfinite(r.e_theta0) and math.isfinite(r.e_thetapi)
                   for r in rows)
        assert ndims
        assert 0 not in ndims

    def test_bisection_nan_midpoint_raises(self):
        def f_vec(es):
            return np.where(np.abs(es - 0.5) < 1e-3, math.nan, es - 0.7)

        with pytest.raises(PoleError):
            chandrupatla(f_vec, [0.0], [1.0], [-0.7], [0.3],
                         atol=bands_mod.BISECT_TOL, rtol=1e-14)


class TestRootSolver:
    """Chandrupatla refinement against the bisection oracle and brentq."""

    @given(
        a0=st.sampled_from([None, 1.0, -1.0]),
        a=st.floats(0.05, 2.0),
        sign=st.sampled_from([1.0, -1.0]),
        L=st.floats(0.8, 8.0),
        theta=st.floats(0.0, math.pi),
        e_lo=st.floats(-2.0, 0.9),
        e_hi=st.floats(1.5, 6.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_roots_match_oracle_and_brentq(self, a0, a, sign, L, theta,
                                           e_lo, e_hi):
        # a0 None is the constant-a model, else an atom-ion a(E) table
        model = (ConstantScatteringLength(sign * a) if a0 is None
                 else _ion_model(a0))
        cfg = validate(ModelConfig(lattice_spacing=L, scattering=model,
                                   energy_window=(e_lo, e_hi)))
        solves = []

        def recording(f_vec, lo, hi, flo, fhi, args=(), **tols):
            found = chandrupatla(f_vec, lo, hi, flo, fhi, args=args, **tols)
            solves.append((f_vec, lo, hi, args, found))
            return found

        def oracle(f_vec, lo, hi, flo, fhi, args=(), **tols):
            return _bisect_many_oracle(f_vec, lo, hi, flo, args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bands_mod, "chandrupatla", recording)
            new = band_energies_at_theta(theta, cfg)
            mp.setattr(bands_mod, "chandrupatla", oracle)
            old = band_energies_at_theta(theta, cfg)
        assert new.size == old.size
        np.testing.assert_allclose(new, old, rtol=1e-10, atol=1e-10)
        for f_vec, lo, hi, args, found in solves:
            def f(e, *arg):
                return float(f_vec(np.array([e]), *arg)[0])

            ref = [brentq(f, lo[i], hi[i], args=tuple(a[i:i + 1] for a in args),
                          xtol=1e-14, rtol=1e-15)
                   for i in range(len(lo))]
            np.testing.assert_allclose(found, ref, rtol=1e-10, atol=1e-10)

    def test_converges_superlinearly(self):
        # bisection needs 43 halvings of [0, 5] to reach the 1e-12 width
        calls = []

        def f_vec(es):
            calls.append(es.size)
            return np.exp(es) - 10.0

        root = chandrupatla(f_vec, [0.0], [5.0], [-9.0], [math.exp(5.0) - 10.0],
                            atol=bands_mod.BISECT_TOL, rtol=1e-14)
        assert root[0] == pytest.approx(math.log(10.0), abs=1e-12)
        assert len(calls) <= 12

    def test_nan_inside_bracket_raises(self):
        # the NaN strip sits at the root, away from the first bisection point
        def f_vec(es):
            return np.where(np.abs(es - 0.7) < 1e-6, math.nan, es - 0.7)

        with pytest.raises(PoleError):
            chandrupatla(f_vec, [0.0], [1.0], [-0.7], [0.3],
                         atol=bands_mod.BISECT_TOL, rtol=1e-14)

    def test_bracket_that_cannot_converge_raises(self):
        # a sign step with no zero never meets a zero width rule
        def f_vec(es):
            return np.where(es < 0.3, -1.0, 1.0)

        with pytest.raises(RootError):
            chandrupatla(f_vec, [0.0], [1.0], [-1.0], [1.0], atol=0.0, rtol=0.0)

    def test_args_are_compacted_with_brackets(self):
        # bracket k is [k, k + 1] with its root at roots[k]; the power sets
        # how many steps it takes, and bracket 0 is closed before any call
        roots = np.array([0.0, 1.3, 2.5, 3.7])
        powers = np.array([1.0, 1.0, 3.0, 5.0])
        lo = np.arange(4.0)
        hi = lo + 1.0
        sizes = []

        def f_vec(x, r, p):
            # every point sees the arguments of its own bracket
            assert x.shape == r.shape == p.shape
            assert np.array_equal(np.floor(x), np.floor(r))
            sizes.append(x.size)
            d = x - r
            return np.sign(d) * np.abs(d) ** p

        found = chandrupatla(f_vec, lo, hi, np.sign(lo - roots),
                             np.sign(hi - roots), atol=1e-12, rtol=0.0,
                             args=(roots, powers))
        np.testing.assert_allclose(found, roots, rtol=0.0, atol=1e-11)
        assert sizes[0] == 3
        assert len(set(sizes)) == 3  # 3, 2, 1: they close one at a time

    def test_exact_zero_is_returned(self):
        def never(es):
            raise AssertionError("no residual call needed")

        ends = chandrupatla(never, [0.0, 2.0], [1.0, 3.0], [0.0, -1.0],
                            [0.5, 0.0], atol=0.0, rtol=0.0)
        assert ends.tolist() == [0.0, 3.0]
        # the first bisection point is an exact zero
        mid = chandrupatla(lambda es: es - 0.5, [0.0], [1.0], [-0.5], [0.5],
                           atol=0.0, rtol=0.0)
        assert mid.tolist() == [0.5]


class TestBatch:
    """All phases of a request in one solve, against one phase at a time."""

    @given(
        a0=st.sampled_from([None, 1.0, -1.0]),
        a=st.floats(0.05, 2.0),
        sign=st.sampled_from([1.0, -1.0]),
        L=st.floats(0.8, 8.0),
        thetas=st.lists(st.sampled_from([0.0, math.pi, -math.pi])
                        | st.floats(-7.0, 7.0), min_size=1, max_size=6),
        e_lo=st.floats(-2.0, 0.9),
        e_hi=st.floats(1.5, 6.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_equals_single_phase(self, a0, a, sign, L, thetas, e_lo,
                                       e_hi):
        # a0 None is the constant-a model, else an atom-ion a(E) table
        model = (ConstantScatteringLength(sign * a) if a0 is None
                 else _ion_model(a0))
        cfg = validate(ModelConfig(lattice_spacing=L, scattering=model,
                                   energy_window=(e_lo, e_hi)))
        batch = bands_mod._band_energies_batch(thetas, cfg)
        assert len(batch) == len(thetas)
        for theta, got in zip(thetas, batch):
            one = band_energies_at_theta(theta, cfg)
            assert got.size == one.size
            np.testing.assert_allclose(got, one, rtol=1e-12, atol=0.0)


class TestLatticeSumPoles:
    def test_pole_condition_and_completeness(self):
        th, L, e_min, e_max = 0.9, 2.0, 1.0, 6.9
        poles = lattice_sum_pole_energies(th, L, e_min, e_max)
        assert poles == sorted(poles)
        for e in poles:
            ch_ok = False
            n = 0
            while 1.0 + 2.0 * n < e:
                k = math.sqrt(2.0 * (e - 1.0 - 2.0 * n))
                if abs(math.cos(k * L) - math.cos(th)) < 1e-9:
                    ch_ok = True
                n += 1
            assert ch_ok, e
        # independent reconstruction: E = 1 + 2n + ((2 pi j +- th)/L)^2 / 2
        expect = set()
        n = 0
        while 1.0 + 2.0 * n < e_max:
            j = 0
            while True:
                added = False
                for knl in (2.0 * math.pi * j + th, 2.0 * math.pi * j - th):
                    if knl <= 1e-12:
                        continue
                    e = 1.0 + 2.0 * n + 0.5 * (knl / L) ** 2
                    if e_min < e < e_max:
                        expect.add(round(e, 9))
                        added = True
                if not added and j > max(1, th / (2.0 * math.pi)):
                    break
                j += 1
            n += 1
        assert sorted(expect) == pytest.approx(poles, abs=1e-8)


class TestEffectiveMass:
    def _synthetic(self, coeffs, L=2.0, n=41):
        thetas = np.linspace(0.0, math.pi, n)
        q = thetas / L
        e = np.zeros_like(q)
        for p, c in enumerate(coeffs):
            e += c * q ** (2 * p)
        return Band(0, thetas, e, L)

    def test_recovers_quadratic(self):
        band = self._synthetic([2.0, 0.3])
        fit = effective_mass(band, fit_fraction=1.0)
        assert fit.eps_b == pytest.approx(2.0, abs=1e-12)
        # E = eps_b + (q^2/2)(m/m_eff): coefficient 0.3 means m/m_eff = 0.6
        assert fit.inv_mass_ratio == pytest.approx(0.6, abs=1e-12)
        assert abs(fit.A) < 1e-10 and abs(fit.B) < 1e-10
        assert fit.rms_residual < 1e-12

    def test_recovers_quartic(self):
        band = self._synthetic([1.0, 0.25, 0.1])
        fit = effective_mass(band, fit_fraction=1.0)
        assert fit.inv_mass_ratio == pytest.approx(0.5, abs=1e-10)
        assert fit.A == pytest.approx(0.1, abs=1e-9)
        assert fit.energy_at(0.4) == pytest.approx(
            1.0 + 0.25 * 0.16 + 0.1 * 0.16**2, rel=1e-10
        )

    def test_free_band_unit_mass(self):
        fit = effective_mass_for_model(ConstantScatteringLength(0.0), 5.0)
        assert fit.inv_mass_ratio == pytest.approx(1.0, abs=1e-3)
        assert fit.eps_b == pytest.approx(1.0, abs=1e-6)
        assert fit.rms_residual < 1e-10

    def test_large_positive_a_negative_mass(self):
        fit = effective_mass_for_model(ConstantScatteringLength(2.0), 5.0)
        assert fit.inv_mass_ratio < 0.0

    def test_attractive_lowest_band_is_bound(self):
        fit = effective_mass_for_model(ConstantScatteringLength(-0.5), 5.0)
        assert fit.eps_b < 1.0
        assert 0.0 < fit.inv_mass_ratio < 1.0

    def test_fit_fraction_stability(self):
        for a in (-1.0, 0.5, 1.0):
            m = ConstantScatteringLength(a)
            f4 = effective_mass_for_model(m, 5.0, fit_fraction=0.4)
            f6 = effective_mass_for_model(m, 5.0, fit_fraction=0.6)
            change = abs(f6.inv_mass_ratio - f4.inv_mass_ratio)
            assert change < 0.05 * abs(f4.inv_mass_ratio), a

    def test_too_few_points(self):
        band = self._synthetic([1.0, 0.2], n=10)
        with pytest.raises(FitRankError):
            effective_mass(band, fit_fraction=1.0)

    def test_rank_deficient_grid(self):
        thetas = np.full(25, 0.3)
        band = Band(0, thetas, np.full(25, 1.5), 2.0)
        with pytest.raises(FitRankError):
            effective_mass(band, fit_fraction=1.0)

    def test_bad_fit_fraction(self):
        band = self._synthetic([1.0, 0.2])
        with pytest.raises(DomainError):
            effective_mass(band, fit_fraction=0.0)

    def test_sweep_rows(self):
        rows = effective_mass_vs_a([0.0, 0.5], 5.0, theta_points=51)
        assert all(r.ok for r in rows)
        assert rows[0].inv_mass_ratio == pytest.approx(1.0, abs=1e-3)
        assert rows[1].inv_mass_ratio == pytest.approx(
            effective_mass_for_model(
                ConstantScatteringLength(0.5), 5.0, theta_points=51
            ).inv_mass_ratio,
            rel=1e-9,
        )

    def test_sweep_flags_failures(self):
        with pytest.warns(RuntimeWarning):
            rows = effective_mass_vs_a([math.nan], 5.0)
        assert rows[0].ok is False
        assert math.isnan(rows[0].inv_mass_ratio)


class TestBandEdges:
    def test_free_limit_matches_analytic(self):
        L = 5.0
        rows = band_edges_vs_a([0.0], L, n_bands=3)
        d1 = 1.0 + 0.5 * (2.0 * math.pi / L) ** 2
        s1 = 1.0 + 0.5 * (math.pi / L) ** 2
        s2 = 1.0 + 0.5 * (3.0 * math.pi / L) ** 2
        expect = [(1.0, s1), (d1, s1), (d1, s2)]
        for row, (e0, epi) in zip(rows, expect):
            assert row.e_theta0 == pytest.approx(e0, abs=1e-9)
            assert row.e_thetapi == pytest.approx(epi, abs=1e-9)
            assert row.flag == ""

    def test_bound_band_present_for_both_signs(self):
        for a in (-0.5, 0.5):
            rows = band_edges_vs_a([a], 5.0, n_bands=2)
            assert rows[0].e_theta0 < 1.0
            assert rows[0].e_thetapi < 1.0

    def test_narrow_bands_at_large_spacing(self):
        r1 = band_edges_vs_a([0.5], 1.0, n_bands=2)
        r15 = band_edges_vs_a([0.5], 15.0, n_bands=2)
        w1 = abs(r1[1].e_thetapi - r1[1].e_theta0)
        w15 = abs(r15[1].e_thetapi - r15[1].e_theta0)
        assert w15 < w1
        assert w15 < 0.01 < w1

    def test_overlap_flag_above_second_threshold(self):
        rows = band_edges_vs_a([0.5], 1.0, n_bands=3)
        assert any(r.flag == "overlap" for r in rows)

    def test_weak_attraction_rows_not_failed(self):
        # the single-impurity state of a = -5e-5 lies 5e-9 below threshold
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = band_edges_vs_a([-5e-5], 3.0, n_bands=2)
        assert [r.flag for r in rows] == ["", ""]
        assert rows[0].e_theta0 < 1.0

    def test_failed_rows_flagged(self):
        with pytest.warns(RuntimeWarning):
            rows = band_edges_vs_a([math.nan], 5.0, n_bands=2)
        assert all(r.flag == "failed" for r in rows)
        assert all(math.isnan(r.e_theta0) for r in rows)

    def test_rejects_zero_bands(self):
        with pytest.raises(DomainError):
            band_edges_vs_a([0.5], 5.0, n_bands=0)

    def test_small_spacing_bound_edge_below_the_dimer_window(self):
        # at L = 1 the lattice binds a = 1 at -1.0268, more than 0.5 below
        # the dimer: a window from the dimer alone reported band 1's 2.0169
        rows = band_edges_vs_a([1.0], 1.0, n_bands=2)
        assert rows[0].e_theta0 == pytest.approx(-1.0267537158, abs=1e-9)
        assert rows[1].e_theta0 == pytest.approx(2.0169292151, abs=1e-9)

    def test_window_floor_stays_at_the_dimer_for_large_spacing(self):
        for L in (1.5, 3.0, 5.0, 15.0):
            for a in np.linspace(-2.0, 2.0, 41):
                if a == 0.0:
                    continue
                model = ConstantScatteringLength(float(a))
                dimer = single_impurity_bound_energy(model)
                assert bands_mod.band_window_floor(model, L) == min(
                    dimer - 0.5, 0.5)

    @given(L=st.floats(0.3, 3.0), mag=st.floats(0.1, 2.0),
           negative=st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_lowest_edges_match_a_wide_window(self, L, mag, negative):
        a = -mag if negative else mag
        row = band_edges_vs_a([a], L, n_bands=1)[0]
        # band 0 is the root below the first theta = pi pole; the window
        # reaches far below any bound band with |a| >= 0.1 and L >= 0.3
        config = _config(a, L, energy_window=(
            -1e4, 1.0 + 0.5 * (math.pi / L) ** 2 - 1e-6))
        r0, rpi = bands_mod._band_energies_batch([0.0, math.pi], config)
        assert row.e_theta0 == pytest.approx(r0[0], abs=1e-9)
        assert row.e_thetapi == pytest.approx(rpi[0], abs=1e-9)
