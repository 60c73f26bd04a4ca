"""Atom-ion scattering on the regularized polarization potential."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from quasikp import (
    DomainError,
    GridError,
    PrecisionWarning,
    RegularizedPotential,
    ResonanceError,
    RootError,
    ScatteringLengthTable,
    ThresholdError,
    a_from_delta,
    a_low_energy,
    a_of_b,
    a_of_e_table,
    a_zero_extrapolated,
    bound_state_count,
    count_transition_b,
    find_resonance,
    invert_a_of_b,
    numerov_delta0,
    numerov_node_count,
    threshold_b,
)
from quasikp import atomion
from quasikp.atomion import (
    R_BOX,
    _default_step,
    _delta_on_grid,
    _numerov_integrate,
    _tail_phase,
    _wrap_half_pi,
)


def _numerov_loop(g, h):
    """Reference: the Numerov recurrence marched one grid step at a time."""
    w = (h * h / 12.0) * g
    t = (1.0 + w).tolist()
    a = (2.0 - 10.0 * w).tolist()
    us = [0.0, h]
    u_prev = 0.0
    u_cur = h
    for i in range(1, len(t) - 1):
        u_next = (a[i] * u_cur - t[i - 1] * u_prev) / t[i + 1]
        us.append(u_next)
        u_prev = u_cur
        u_cur = u_next
    return np.asarray(us)


def _full_box_delta0(k, b, tol=1e-6):
    """Oracle: the phase shift from a march through the whole potential.

    The grid runs to r_max = max(50, 20/k, (1e10/k^2)^(1/4)), where |V| <
    1e-10 k^2, and u is matched to free sinusoids at r_max and a quarter
    wave before it; the step is halved as numerov_delta0 halves it.
    """
    r_max = max(50.0, 20.0 / k, (1e10 / (k * k)) ** 0.25)

    def on_grid(h):
        n = int(math.ceil(r_max / h))
        quarter = int(round(0.5 * math.pi / (k * h)))
        r = np.arange(n + 1) * h
        u = _numerov_integrate(k * k - RegularizedPotential(b)(r), h)
        r1, r2 = (n - quarter) * h, n * h
        rho = u[n - quarter] / u[n]
        return math.atan((rho * math.sin(k * r2) - math.sin(k * r1))
                         / (math.cos(k * r1) - rho * math.cos(k * r2)))

    h = _default_step(b, k)
    delta = on_grid(h)
    for _ in range(3):
        h *= 0.5
        refined = on_grid(h)
        if abs(_wrap_half_pi(refined - delta)) <= tol:
            return refined
        delta = refined
    raise AssertionError(f"full-box oracle not converged at k={k}")


class TestPotential:
    def test_shape(self):
        pot = RegularizedPotential(0.5)
        assert pot(0.0) == pytest.approx(-16.0, rel=1e-14)  # -1/b^4
        assert pot(10.0) == pytest.approx(-1e-4, rel=1e-2)  # -1/r^4 tail
        rr = pot(np.array([0.0, 1.0]))
        assert rr[0] == pytest.approx(-16.0, rel=1e-14)

    def test_rejects_bad_radius(self):
        with pytest.raises(DomainError):
            RegularizedPotential(0.0)
        with pytest.raises(DomainError):
            RegularizedPotential(-1.0)


class TestClosedForms:
    def test_thresholds(self):
        assert threshold_b(1) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)
        assert threshold_b(2) == pytest.approx(1.0 / math.sqrt(15.0), rel=1e-14)
        with pytest.raises(DomainError):
            threshold_b(0)

    def test_a_of_b_frozen_values(self):
        assert a_of_b(0.431) == pytest.approx(1.0018086406849596, rel=1e-12)
        assert a_of_b(0.299) == pytest.approx(-1.0139463136708977, rel=1e-12)

    def test_a_of_b_outermost_branch(self):
        # a(b) ~ -pi/(4b) for large b; references from 40-digit mpmath
        assert a_of_b(1e4) == pytest.approx(-7.8539816536094372e-5, rel=1e-14)
        assert a_of_b(5.48e7) == pytest.approx(-1.4332083273676065e-8, rel=1e-14)

    def test_a_of_b_caption_values(self):
        # the operating points of the two reference couplings
        assert a_of_b(0.431) == pytest.approx(1.0, abs=2e-3)
        assert a_of_b(0.299) == pytest.approx(-1.0, abs=1.5e-2)

    def test_a_diverges_at_threshold(self):
        # the first bound state enters as b drops through b1: a -> +inf
        # just below (weakly bound), -inf just above (virtual)
        b1 = threshold_b(1)
        assert a_of_b(b1 * (1.0 - 1e-10)) > 1e4
        assert a_of_b(b1 * (1.0 + 1e-10)) < -1e4

    def test_invert_a_of_b(self):
        b_plus = invert_a_of_b(1.0, 1)
        b_minus = invert_a_of_b(-1.0, 1)
        assert b_plus == pytest.approx(0.4308867360537225, abs=1e-9)
        assert b_minus == pytest.approx(0.29941508579612164, abs=1e-9)
        assert a_of_b(b_plus) == pytest.approx(1.0, abs=1e-10)
        assert a_of_b(b_minus) == pytest.approx(-1.0, abs=1e-10)
        # branches live between consecutive thresholds
        assert threshold_b(2) < b_minus < b_plus < threshold_b(1)

    @settings(max_examples=60, deadline=None)
    @given(mag=st.floats(1e-8, 50.0), negative=st.booleans(),
           n=st.sampled_from([0, 1, 2]))
    @example(mag=1e-8, negative=True, n=0)
    @example(mag=1e-5, negative=True, n=0)
    def test_invert_round_trip(self, mag, negative, n):
        a = -mag if negative else mag
        assume(n > 0 or a < 0.0)  # with no bound state a(0) < 0
        # inner branches cross a = 0, where a(b) is ill-conditioned
        assume(n == 0 or mag >= 0.01)
        b = invert_a_of_b(a, n)
        assert bound_state_count(b) == n
        assert a_of_b(b) == pytest.approx(a, rel=1e-10)

    def test_invert_outermost_branch(self):
        b = invert_a_of_b(-2.0, 0)
        assert b > threshold_b(1)
        assert a_of_b(b) == pytest.approx(-2.0, abs=1e-10)
        with pytest.raises(DomainError):
            invert_a_of_b(1.0, 0)  # no bound state means a < 0

    def test_bound_state_count(self):
        assert bound_state_count(0.431) == 1
        assert bound_state_count(0.135) == 3
        assert bound_state_count(10.0) == 0
        with pytest.raises(ThresholdError):
            bound_state_count(threshold_b(1))
        with pytest.raises(DomainError):
            bound_state_count(-0.4)


class TestNumerov:
    def test_weak_coupling_born_limit(self):
        # huge b: delta -> Born value -(1/k) int V sin^2(kr) dr, which for
        # k b >> 1 averages to pi/(8 k b^3); positive for attraction
        k, b = 0.5, 50.0
        born = math.pi / (8.0 * k * b**3)
        assert numerov_delta0(k, b) == pytest.approx(born, rel=1e-2)

    def test_cross_check_high_order_ivp(self):
        # independent integrator (DOP853) on the same potential
        def delta_ivp(k, b):
            pot = RegularizedPotential(b)
            r_max = max(50.0, 20.0 / k, (1e10 / (k * k)) ** 0.25)

            def rhs(r, y):
                return [y[1], -(k * k - pot(r)) * y[0]]

            # from r = 0 exactly: u = 0 at r = 1e-8 would shift the origin,
            # which moves the phase by 8.5e-7 rad at b = 0.2617, k = 0.1
            sol = solve_ivp(rhs, (0.0, r_max), [0.0, 1.0], method="DOP853",
                            rtol=1e-11, atol=1e-13, dense_output=True)
            r1 = r_max - 0.5 * math.pi / k
            rho = sol.sol(r1)[0] / sol.sol(r_max)[0]
            num = rho * math.sin(k * r_max) - math.sin(k * r1)
            den = math.cos(k * r1) - rho * math.cos(k * r_max)
            return math.atan(num / den)

        # b = 0.2617 is next to the second bound-state threshold, a(0) = -13
        for k, b in ((0.3, 0.431), (0.8, 0.299), (1.5, 0.7), (0.1, 0.2617)):
            mine = numerov_delta0(k, b)
            ref = delta_ivp(k, b)
            assert abs(_wrap_half_pi(mine - ref)) < 1e-6, (k, b)

    def test_fourth_order_convergence(self):
        # halving the step should cut the phase error ~16x (measured 16.1)
        k, b = 0.7, 0.5
        ref = _delta_on_grid(k, b, 0.0005)
        e1 = abs(_wrap_half_pi(_delta_on_grid(k, b, 0.016) - ref))
        e2 = abs(_wrap_half_pi(_delta_on_grid(k, b, 0.008) - ref))
        assert 10.0 < e1 / e2 < 24.0

    @settings(max_examples=25, deadline=None)
    @given(k=st.floats(0.1, 2.45), b=st.floats(0.27, 0.57))
    def test_box_end_does_not_matter(self, k, b):
        # the tail carries what the march leaves out: moving the box end
        # from R to 2R on the step numerov_delta0 usually accepts moved
        # the phase by at most 1.9e-8 rad in 400 random draws
        h = 0.5 * _default_step(b, k)
        near = _delta_on_grid(k, b, h, R_BOX)
        far = _delta_on_grid(k, b, h, 2.0 * R_BOX)
        assert abs(_wrap_half_pi(near - far)) < 5e-8

    @pytest.mark.parametrize("k", (0.1, 1.0, 2.45))
    def test_tail_rule_against_adaptive_quadrature(self, k):
        mpmath = pytest.importorskip("mpmath")
        b, delta_r = 0.43, 0.7
        f = lambda r: mpmath.sin(k * r + delta_r) ** 2 / (r * r + b * b) ** 2
        # one period a piece, then the rest to infinity
        period = math.pi / k
        pieces = [R_BOX + i * period for i in range(200)] + [mpmath.inf]
        with mpmath.workdps(30):
            ref = float(mpmath.quad(f, pieces)) / k
        # measured 4.5e-10, 8.3e-9 and 3.0e-9 rad
        assert abs(_tail_phase(k, b, R_BOX, delta_r) - ref) < 3e-8

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            numerov_delta0(0.0, 0.431)
        with pytest.raises(DomainError):
            numerov_delta0(0.5, -1.0)

    def test_step_coarser_than_box(self):
        with pytest.raises(GridError):
            numerov_delta0(0.5, 0.431, h=40.0, refine=False)

    def test_tiny_k_exceeds_box_cap(self):
        with pytest.raises(GridError):
            numerov_delta0(1e-6, 0.431)

    def test_unconvergable_tolerance(self):
        with pytest.raises(GridError):
            numerov_delta0(0.5, 0.431, h=0.01, tol=1e-15)

    @pytest.mark.parametrize("b", (0.299, 0.431, 0.5178))
    def test_short_box_matches_full_box_on_cli_tables(self, b):
        # the momenta of the ion tables (E* <= 0.5) of the bands and meff
        # goldens and README examples; measured within 2.4e-8 rad of the
        # full-box oracle for b in 0.27-0.57
        table = ScatteringLengthTable.for_comb(b, 0.15, 4.0)
        ks = np.sqrt(table.energies)
        diff = [_wrap_half_pi(d - _full_box_delta0(float(k), b))
                for k, d in zip(ks, table.deltas)]
        assert np.max(np.abs(diff)) < 5e-8


class TestNumerovMarch:
    """The banded triangular solve against the step-by-step march."""

    @pytest.mark.parametrize("b", (0.27, 0.35, 0.431, 0.57))
    @pytest.mark.parametrize("k", (0.1, 0.5, 1.0))
    def test_matches_step_by_step_march(self, b, k):
        # the grid numerov_delta0 uses at its default step: the box end R
        # and the two points past it that its derivative reads
        h = _default_step(b, k)
        r = np.arange(int(math.ceil(R_BOX / h)) + 3) * h
        g = k * k - RegularizedPotential(b)(r)
        u = _numerov_integrate(g, h)
        ref = _numerov_loop(g, h)
        assert u.shape == ref.shape
        # the two round differently (operation order, fused multiply-add)
        # and the neutral recurrence carries every step's rounding forward,
        # so the bound grows with the grid: 16 N eps of max |u|
        tol = 16.0 * g.size * np.finfo(float).eps
        assert np.max(np.abs(u - ref)) <= tol * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_shortest_grids(self, n):
        # n = 2, 3, 4 leaves 0, 1 and 2 unknowns for the solve
        g = np.array([-3.0, 1.5, -0.5, 2.0])[:n]
        u = _numerov_integrate(g, 0.1)
        ref = _numerov_loop(g, 0.1)
        assert u.shape == (n,)
        np.testing.assert_allclose(u, ref, rtol=1e-15, atol=0.0)

    def test_zero_diagonal_raises(self):
        # with h = 1, w = g / 12 = -1 exactly, so t = 1 + w vanishes there
        g = np.zeros(8)
        g[5] = -12.0
        with pytest.raises(GridError):
            _numerov_integrate(g, 1.0)

    def test_table_phase_shifts_match_step_by_step_march(self, monkeypatch):
        # the meff table at R* = 0.15
        table = ScatteringLengthTable.for_comb(0.431, 0.15, 4.0)
        monkeypatch.setattr(atomion, "_numerov_integrate", _numerov_loop)
        ref = ScatteringLengthTable.for_comb(0.431, 0.15, 4.0)
        diff = [_wrap_half_pi(d - r) for d, r in zip(table.deltas, ref.deltas)]
        assert np.max(np.abs(diff)) < 1e-9


class TestNodeCounting:
    def test_levinson_consistency(self):
        # zero-energy node count equals the analytic bound-state count
        for b in (0.9, 0.5, 0.431, 0.299, 0.156, 0.135):
            assert numerov_node_count(b) == bound_state_count(b), b

    def test_transition_radii(self):
        b1 = count_transition_b(0.5, 0.7)
        b2 = count_transition_b(0.2, 0.3)
        assert b1 == pytest.approx(threshold_b(1), abs=1e-4)
        assert b2 == pytest.approx(threshold_b(2), abs=1e-4)

    def test_no_transition_raises(self):
        with pytest.raises(RootError):
            count_transition_b(0.45, 0.5)

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            count_transition_b(0.5, 0.3)


class TestLowEnergy:
    def test_expansion_values(self):
        assert a_low_energy(1.0, 0.0) == 1.0
        assert a_low_energy(-1.0, 0.3) == pytest.approx(
            -1.0 + math.pi * 0.1, rel=1e-14
        )
        assert a_low_energy(-1.0, 0.3) == pytest.approx(-0.6858, abs=1e-4)

    def test_warns_beyond_validity(self):
        with pytest.warns(PrecisionWarning):
            a_low_energy(1.0, 0.5)
        with pytest.raises(DomainError):
            a_low_energy(1.0, -0.1)

    def test_zero_extrapolation_matches_closed_form(self):
        b = 0.431
        assert a_zero_extrapolated(b) == pytest.approx(a_of_b(b), rel=1e-3)

    def test_extrapolation_needs_three_momenta(self):
        with pytest.raises(DomainError):
            a_zero_extrapolated(0.431, k_values=(0.1, 0.2))

    def test_a_from_delta(self):
        assert a_from_delta(2.0, -math.pi / 4.0) == pytest.approx(0.5, rel=1e-14)


@pytest.fixture(scope="module")
def table():
    return ScatteringLengthTable.from_potential(0.431, e_min=0.2, e_max=3.0, n=30)


class TestScatteringLengthTable:

    def test_interpolant_exact_at_nodes(self, table):
        for e, d in zip(table.energies, table.deltas):
            assert table.delta_of_e(float(e)) == float(d)
        # nodes mixed with off-grid points in one call: the samples come
        # back as they are, and nothing is NaN
        es = np.sort(np.concatenate([table.energies, table.energies[:-1] + 0.01]))
        got = table.delta_of_e(es)
        assert np.all(np.isfinite(got))
        on_node = np.isin(es, table.energies)
        assert np.array_equal(got[on_node], table.deltas)
        assert np.all(np.isfinite(table.inv_a_of_e(table.energies)))

    def test_five_samples_interpolate_a_quartic_in_k(self):
        # with n = 5 the degree is n - 1 = 4: the interpolant is the
        # polynomial through the samples, so a quartic in k comes back
        ks = np.array([0.3, 0.5, 0.6, 0.9, 1.2])
        quartic = lambda k: 0.2 - 0.7 * k + 0.4 * k**2 - 0.3 * k**3 + 0.1 * k**4
        table = ScatteringLengthTable(0.431, ks * ks, quartic(ks))
        kq = np.linspace(0.3, 1.2, 23)
        np.testing.assert_allclose(table.delta_of_e(kq * kq), quartic(kq),
                                   rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("a, rstar, bound", (
        (0.6, 0.15, 2e-6),   # the meff golden
        (0.5, 0.1, 2e-6),    # the bands golden
        (0.1, 0.3, 2e-6),    # a benchmark corner: the widest window
        # a / R* = 20 (the README sweep's a = 2 at R* = 0.1 reads the
        # same): delta falls steeply near threshold, and the first
        # interval misses by 5.7e-6; the others stay within 1.5e-6
        (1.0, 0.05, 1e-5),
    ))
    def test_comb_table_matches_numerov_off_grid(self, a, rstar, bound):
        # every midpoint in k between samples, first interval included;
        # the 60-sample PCHIP in E missed these by 1.1e-5 to 1.6e-4 rad
        b = invert_a_of_b(a / rstar, 1)
        table = ScatteringLengthTable.for_comb(b, rstar, 4.0)
        k = np.sqrt(table.energies)
        mid = 0.5 * (k[1:] + k[:-1])
        diff = [_wrap_half_pi(table.delta_of_e(float(q * q))
                              - numerov_delta0(float(q), b)) for q in mid]
        assert np.max(np.abs(diff)) < bound

    def test_refinement_stable_off_pole(self, table):
        finer = ScatteringLengthTable.from_potential(0.431, e_min=0.2, e_max=3.0, n=59)
        es = np.linspace(0.25, 2.9, 40)
        assert np.max(np.abs(table.delta_of_e(es) - finer.delta_of_e(es))) < 1e-4

    def test_a_consistent_with_delta(self, table):
        e = 1.1
        a = table.a_of_e(e)
        d = table.delta_of_e(e)
        assert a == pytest.approx(-math.tan(d) / math.sqrt(e), rel=1e-12)
        assert table.inv_a_of_e(e) == pytest.approx(1.0 / a, rel=1e-12)

    def test_range_checked(self, table):
        with pytest.raises(DomainError):
            table.a_of_e(10.0)
        with pytest.raises(DomainError):
            table.delta_of_e(0.01)

    def test_resonance_guard(self):
        # b = 0.431 has an a(E) pole near 3.8 E*; sample right on it so
        # the interval tagging is deterministic
        coarse = ScatteringLengthTable.from_potential(
            0.431, e_min=0.5, e_max=5.0, n=60
        )
        pole = find_resonance(coarse, 3.0, 4.5)
        es = pole + np.array([-0.3, -0.1, -0.03, 0.0, 0.03, 0.1, 0.3])
        table = a_of_e_table(0.431, energies=es)
        assert len(table.resonance_intervals) >= 1
        with pytest.raises(ResonanceError):
            table.a_of_e(pole)
        # explicit opt-in returns the (huge) value instead
        assert abs(table.a_of_e(pole, allow_resonant=True)) > 10.0
        # the smooth reciprocal crosses zero there instead of diverging
        assert abs(table.inv_a_of_e(pole)) < 2.0

    def test_find_resonance_position(self):
        table = ScatteringLengthTable.from_potential(
            0.431, e_min=0.5, e_max=5.0, n=60
        )
        pole = find_resonance(table, 3.0, 4.5)
        assert pole == pytest.approx(3.8, abs=0.1)
        with pytest.raises(RootError):
            find_resonance(table, 0.6, 1.5)

    def test_find_resonance_skips_a_zero(self):
        # delta crosses pi near E = 2 (a zero of a(E)) and 3 pi / 2 near
        # E = 3.12 (the pole); the interpolant puts delta(2.5) at pi + 0.95,
        # where |cot delta| < 1, which a |cot| filter mistakes for a pole
        table = ScatteringLengthTable(
            0.4, [1.0, 2.0, 3.0, 4.0, 5.0],
            [math.pi - 0.5, math.pi - 0.001, math.pi + 1.5, math.pi + 1.6,
             math.pi + 1.65],
        )
        assert table.a_zero_energies == [pytest.approx(2.0005, abs=1e-4)]
        pole = find_resonance(table)
        assert pole == pytest.approx(3.1210, abs=1e-4)
        assert math.cos(table.delta_of_e(pole)) == pytest.approx(0.0, abs=1e-12)

    def test_explicit_energy_grid(self):
        es = np.linspace(0.3, 1.5, 7)
        table = a_of_e_table(0.431, energies=es)
        assert table.energies == pytest.approx(es)
        with pytest.raises(DomainError):
            a_of_e_table(0.431, energies=[-1.0, 0.5])

    def test_comb_table_windows(self):
        # the ion sees Bloch energies up to e_max at E* = 2 R*^2 e_max; the
        # table reaches 1.25 times that, and at least E* = 0.5
        for rstar, e_max, top in ((0.15, 4.0, 0.5), (0.3, 4.0, 0.9),
                                  (0.3, 7.0, 1.575)):
            table = ScatteringLengthTable.for_comb(0.431, rstar, e_max)
            assert table.energies.size == 32
            assert table.e_min == pytest.approx(0.01, rel=1e-14)
            assert table.e_max == pytest.approx(top, rel=1e-14)

    def test_constructor_validation(self):
        with pytest.raises(DomainError):
            ScatteringLengthTable(0.431, [1.0, 2.0], [0.1, 0.2])  # too few
        with pytest.raises(DomainError):
            ScatteringLengthTable(0.431, [1.0, 1.0, 2.0, 3.0], [0.1] * 4)
