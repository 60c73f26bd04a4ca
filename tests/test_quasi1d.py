"""Waveguide channel decomposition, lattice sums, and the dispersion residual."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasikp import (
    ConstantScatteringLength,
    DomainError,
    EnergyDependentScatteringLength,
    ModelConfig,
    PoleError,
    ThresholdError,
    a1d_eff,
    a1d_of_e,
    c_of_e,
    dispersion_residual,
    hurwitz_zeta_half,
    lambda_e,
    lambda_e_h_approx,
    lambda_p,
    lattice_sum_pole_energies,
    olshanii_constant,
    single_impurity_bound_energy,
    validate,
)
from quasikp.atomion import ScatteringLengthTable, a_of_b, invert_a_of_b
from quasikp.quasi1d import _BLOCK_ELEMENTS, TOL_THRESHOLD, _branch_offsets


def _config(a, L, **kw):
    return validate(ModelConfig(lattice_spacing=L, scattering=ConstantScatteringLength(a), **kw))


class TestChannels:
    def test_at_lowest_threshold(self):
        n_star, eps = _branch_offsets(1.0)
        assert n_star == 0
        assert eps == 0.0

    def test_at_second_threshold(self):
        n_star, eps = _branch_offsets(3.0)
        assert n_star == 1
        assert eps == 0.0

    def test_below_threshold(self):
        n_star, eps = _branch_offsets(0.5)
        assert n_star == -1
        assert eps == 1.5

    def test_threshold_guard_is_one_sided(self):
        with pytest.raises(ThresholdError):
            c_of_e(3.0 - 1e-12)
        # from above the threshold is a regular point
        assert math.isfinite(c_of_e(3.0 + 1e-12))

    def test_nonfinite_energy(self):
        with pytest.raises(DomainError):
            c_of_e(math.nan)


class TestCOfE:
    def test_lowest_threshold_value(self):
        assert c_of_e(1.0) == pytest.approx(1.46035, abs=1e-4)
        assert c_of_e(1.0) == pytest.approx(olshanii_constant(), rel=1e-14)

    def test_below_threshold_branch(self):
        # eps = 1.5 at E = 0.5, so C = -zeta(1/2, 1/4)
        assert c_of_e(0.5) == pytest.approx(-hurwitz_zeta_half(0.25), rel=1e-14)

    def test_deep_negative_asymptote(self):
        # C(E) -> sqrt(2(1 - E)) far below the lowest threshold
        E = -5e4
        assert c_of_e(E) / math.sqrt(2.0 * (1.0 - E)) == pytest.approx(1.0, rel=1e-3)

    def test_vectorized(self):
        es = np.array([0.2, 1.0, 2.5])
        vec = c_of_e(es)
        for e, v in zip(es, vec):
            assert v == pytest.approx(c_of_e(float(e)), rel=1e-14)


class TestLambdaP:
    def test_zero_below_threshold(self):
        assert lambda_p(0.5, 1.0, 2.0) == 0.0
        assert lambda_p(-3.0, 0.0, 1.0) == 0.0

    def test_single_channel_example(self):
        # k0 L = pi/2, theta = pi/3: (1/pi) / (0.5 - 0) = 2/pi
        L = 1.0
        E = 1.0 + 0.5 * (math.pi / (2.0 * L)) ** 2
        got = lambda_p(E, math.pi / 3.0, L)
        assert got == pytest.approx(2.0 / math.pi, rel=1e-12)
        assert got == pytest.approx(0.6366, abs=1e-4)

    def test_pole_error_names_channel(self):
        L = 1.0
        E = 1.0 + 0.5 * (math.pi / 3.0) ** 2  # k0 L = pi/3
        with pytest.raises(PoleError) as exc:
            lambda_p(E, math.pi / 3.0, L)
        assert "n=0" in str(exc.value)

    def test_double_pole_masked_only_within_phase_tolerance(self):
        # at theta = 0 the pole k_0 L = 2 pi is double in cos(theta) - cos(k_0 L);
        # the mask follows the phase distance, so a point 1e-8 away survives
        L = 2.0
        E_pole = 1.0 + 0.5 * (2.0 * math.pi / L) ** 2
        got = lambda_p(np.array([E_pole, E_pole + 1e-8]), 0.0, L)
        assert math.isnan(got[0])
        assert math.isfinite(got[1])

    def test_tiny_theta_warns_nothing(self):
        # the masked closed-channel term 1/sin^2(theta/2) overflows here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lambda_p(np.array([2.5, 4.0]), 1e-160, 2.0)
        np.testing.assert_allclose(got, lambda_p(np.array([2.5, 4.0]), 0.0, 2.0),
                                   rtol=1e-14)

    def test_array_theta_is_elementwise(self):
        L = 1.3
        es = np.array([[0.4], [1.7], [2.9], [4.6]])
        ths = np.array([0.0, 0.8, math.pi, -2.2, 7.0])
        for fn in (lambda_p, lambda_e):
            got = fn(es, ths, L)
            assert got.shape == (4, 5)
            for i, e in enumerate(es[:, 0]):
                for j, th in enumerate(ths):
                    assert got[i, j] == pytest.approx(fn(float(e), float(th), L),
                                                      rel=1e-13, abs=1e-15)
        # a pole is NaN only at the point whose own phase it matches
        e_pole = lattice_sum_pole_energies(0.8, L, 1.0, 6.0)[0]
        got = lambda_p(np.array([e_pole, e_pole]), np.array([0.8, 1.9]), L)
        assert math.isnan(got[0]) and math.isfinite(got[1])

    def test_parity_and_periodicity(self):
        E, L = 2.3, 1.7
        base = lambda_p(E, 0.9, L)
        assert lambda_p(E, -0.9, L) == pytest.approx(base, rel=1e-14)
        assert lambda_p(E, 0.9 + 2.0 * math.pi, L) == pytest.approx(base, rel=1e-12)


class TestLambdaE:
    def test_first_term_analytic(self):
        # E = 1, theta = 0, L = 1: kt_1 L = 2, term = 0.5/(1 - e^2)
        first = 0.5 / (1.0 - math.e**2)
        assert first == pytest.approx(-0.07826, abs=1e-5)
        # the n = 1 term dominates; the full sum adds the n >= 2 tail
        full = lambda_e(1.0, 0.0, 1.0)
        assert full < first < 0.0

    def test_against_direct_summation(self):
        # independent inline evaluation of the defining series
        for E, th, L in ((1.0, 0.0, 1.0), (1.7, 1.2, 0.8), (4.2, 2.5, 2.0)):
            eps = E - (2.0 * max(math.floor((E - 1.0) / 2.0), -1) + 1.0)
            n = np.arange(1, 4001, dtype=float)
            ktl = 2.0 * np.sqrt(n - 0.5 * eps) * L
            terms = np.real(1.0 / (1.0 - np.exp(ktl + 1j * th))) / ktl
            assert lambda_e(E, th, L) == pytest.approx(float(terms.sum()), abs=1e-13)

    def test_matches_small_k_series_near_threshold(self):
        exact = lambda_e(1.0 + 1e-6, 0.0, 1.0)
        approx = lambda_e(1.0, 0.0, 1.0)
        assert exact == pytest.approx(approx, rel=1e-6)

    def test_series_error_linear_in_excess_energy(self):
        for th, L in ((1.1, 2.5), (math.pi, 1.3)):
            approx = lambda_e(1.0, th, L)
            d6 = abs(lambda_e(1.0 + 1e-6, th, L) - approx)
            d7 = abs(lambda_e(1.0 + 1e-7, th, L) - approx)
            assert d6 < 3e-6 * abs(approx)
            assert d6 / d7 == pytest.approx(10.0, rel=0.2)

    def test_decays_exponentially_with_spacing(self):
        v5 = abs(lambda_e(1.5, 0.3, 5.0))
        v10 = abs(lambda_e(1.5, 0.3, 10.0))
        assert v10 < v5 * 1e-3
        assert abs(lambda_e(1.5, 0.3, 40.0)) < 1e-30

    def test_parity_and_periodicity(self):
        base = lambda_e(2.2, 0.7, 1.5)
        assert lambda_e(2.2, -0.7, 1.5) == pytest.approx(base, rel=1e-14)
        assert lambda_e(2.2, 0.7 - 2.0 * math.pi, 1.5) == pytest.approx(base, rel=1e-12)


def _lambda_e_whole_blocks(E, theta, L, rel_tol=1e-14):
    """The closed-channel sum with a fresh array per block (test oracle).

    The same block schedule, operations and order as lambda_e, written as
    plain whole-block expressions, so the in-place kernel must match it bit
    for bit.
    """
    e_arr = np.asarray(E, dtype=float)
    th = np.asarray(theta, dtype=float)
    shape = np.broadcast_shapes(e_arr.shape, th.shape)
    arr = np.broadcast_to(e_arr, shape).ravel()
    _, eps = _branch_offsets(arr)
    cos_t = np.broadcast_to(np.cos(th), shape).ravel()
    total = np.zeros(arr.shape)
    n = 1
    cap = max(1, _BLOCK_ELEMENTS // max(arr.size, 1))
    block = min(16, cap)
    while True:
        ns = np.arange(n, n + block, dtype=float)
        x = 2.0 * np.sqrt(ns[:, None] - 0.5 * eps[None, :]) * L
        t = np.exp(-x)
        terms = (t * t - t * cos_t) / (1.0 - 2.0 * t * cos_t + t * t) / x
        total = total + terms.sum(axis=0)
        last = np.abs(terms[-1])
        if np.all(last <= rel_tol * np.maximum(np.abs(total), 1e-300)):
            return total.reshape(shape)
        n += block
        block = min(2 * block, 4096, cap)


class TestLambdaEKernel:
    @given(n=st.integers(1, 2100), L=st.floats(0.5, 12.0),
           per_point=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(n=1, L=0.7, per_point=False, seed=1)
    @example(n=2, L=0.5, per_point=True, seed=2)
    @example(n=5000, L=3.0, per_point=True, seed=3)
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_to_whole_blocks(self, n, L, per_point, seed):
        # slices of one row up to whole blocks, E < 1 and above thresholds
        rng = np.random.default_rng(seed)
        E = rng.uniform(-3.0, 7.0, n)
        theta = rng.uniform(-math.pi, math.pi, n if per_point else None)
        np.testing.assert_array_equal(lambda_e(E, theta, L),
                                      _lambda_e_whole_blocks(E, theta, L))
        if n == 1:
            e0, th0 = float(E[0]), float(np.ravel(theta)[0])
            assert lambda_e(e0, th0, L) == _lambda_e_whole_blocks(e0, th0, L)

    def test_residual_batch_peak_memory(self):
        # ten phases of 200 energies each, one phase per row as the band
        # scan asks; whole-block temporaries peaked at 1.1 MB here
        config = _config(0.5, 5.0)
        E = np.linspace(0.2, 6.8, 2000).reshape(10, 200)
        theta = np.linspace(0.1, 3.0, 10)[:, None]
        dispersion_residual(E, theta, config)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dispersion_residual(E, theta, config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 384_000


class TestLambdaEHApprox:
    def test_zero_at_quarter_turn(self):
        assert abs(lambda_e_h_approx(math.pi / 2.0, 3.0)) < 1e-19

    def test_negative_at_zero_phase(self):
        assert lambda_e_h_approx(0.0, 2.0) < 0.0

    def test_agrees_with_series_at_l3(self):
        # measured max |h - series| over theta at L = 3 is ~1.0e-6
        for th in np.linspace(0.0, math.pi, 9):
            h = lambda_e_h_approx(float(th), 3.0)
            s = lambda_e(1.0, float(th), 3.0)
            assert h == pytest.approx(s, abs=5e-6)


class TestA1dOfE:
    def test_unit_scattering_length_at_threshold(self):
        m = ConstantScatteringLength(1.0)
        assert a1d_of_e(1.0, m) == pytest.approx(0.230175, abs=1e-5)
        assert a1d_of_e(1.0, m) == pytest.approx(
            -0.5 * (1.0 - olshanii_constant()), rel=1e-14
        )

    def test_confinement_resonance_zero(self):
        # a = 1/C makes a1d vanish at the lowest threshold
        m = ConstantScatteringLength(1.0 / olshanii_constant())
        assert abs(a1d_of_e(1.0, m)) < 1e-14

    def test_small_a_divergence(self):
        assert a1d_of_e(1.0, ConstantScatteringLength(1e-9)) < -1e8
        assert a1d_of_e(1.0, ConstantScatteringLength(-1e-9)) > 1e8

    def test_free_model_rejected(self):
        with pytest.raises(DomainError):
            a1d_of_e(1.0, ConstantScatteringLength(0.0))


class TestDispersionResidual:
    def test_even_and_periodic_in_theta(self):
        cfg = _config(0.7, 2.0)
        for E in (1.4, 2.1, 5.3):
            base = dispersion_residual(E, 0.8, cfg)
            assert dispersion_residual(E, -0.8, cfg) == pytest.approx(base, rel=1e-13)
            assert dispersion_residual(E, 0.8 + 2.0 * math.pi, cfg) == pytest.approx(
                base, rel=1e-11
            )

    def test_bound_band_root_exists_attractive(self):
        # a = -0.5, L = 5, theta = 0: residual changes sign below threshold
        cfg = _config(-0.5, 5.0)
        lo, hi = 0.6, 1.0 - 1e-7
        assert dispersion_residual(lo, 0.0, cfg) > 0.0
        assert dispersion_residual(hi, 0.0, cfg) < 0.0

    def test_vectorized_energy(self):
        cfg = _config(0.4, 1.5)
        es = np.array([1.2, 1.8, 2.4])
        vec = dispersion_residual(es, 0.5, cfg)
        for e, v in zip(es, vec):
            assert v == pytest.approx(dispersion_residual(float(e), 0.5, cfg), rel=1e-13)

    @given(
        es=st.lists(st.floats(min_value=-2.0, max_value=12.0), min_size=1,
                    max_size=12),
        theta=st.one_of(st.sampled_from([0.0, math.pi]),
                        st.floats(min_value=0.0, max_value=math.pi)),
        L=st.floats(min_value=0.5, max_value=6.0),
        a=st.sampled_from([-1.0, 0.3, 2.0]),
        pole_picks=st.lists(st.integers(min_value=0, max_value=10**6),
                            max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_array_nan_exactly_where_scalar_raises(self, es, theta, L, a,
                                                   pole_picks):
        poles = lattice_sum_pole_energies(theta, L, -2.0, 12.0)
        on_poles = [poles[i % len(poles)] for i in pole_picks] if poles else []
        # keep clear of the ThresholdError band just below E = 1 + 2n
        gaps = [1.0 + 2.0 * math.ceil((e - 1.0) / 2.0) - e for e in es + on_poles]
        energies = [e for e, gap in zip(es + on_poles, gaps)
                    if gap == 0.0 or gap > 1e-6]
        if not energies:
            return
        cfg = _config(a, L)
        vec = dispersion_residual(np.array(energies), theta, cfg)
        for e, v in zip(energies, vec):
            try:
                ref = dispersion_residual(e, theta, cfg)
            except PoleError:
                assert math.isnan(v), f"E={e!r} raises as a scalar, array gave {v}"
                continue
            # lambda_e stops summing when every point of its batch has
            # converged, so a batch can add terms below rel_tol that the lone
            # point skips; near a threshold the residual is a difference of
            # terms ~30x its size, so the bound is relative to those terms
            terms = (abs(a1d_of_e(e, cfg.scattering))
                     + 2.0 * L * (abs(lambda_p(e, theta, L))
                                  + abs(lambda_e(e, theta, L))))
            assert v == pytest.approx(ref, rel=1e-12, abs=1e-12 * terms), f"E={e!r}"
        # a pole energy a hair above its threshold does not resolve k_n L to
        # TOL_POLE once rounded; every other one must be caught by the mask
        for e in on_poles:
            if e - (1.0 + 2.0 * math.floor((e - 1.0) / 2.0)) > 1e-6:
                with pytest.raises(PoleError):
                    dispersion_residual(e, theta, cfg)


class TestA1dEff:
    def test_large_spacing_recovers_single_impurity(self):
        m = ConstantScatteringLength(1.0)
        single = a1d_of_e(1.0, m)
        for th in (0.0, 1.0, math.pi):
            assert a1d_eff(th, 30.0, m) == pytest.approx(single, abs=1e-6)

    def test_theta_spread_shrinks_with_spacing(self):
        m = ConstantScatteringLength(1.0)
        thetas = np.linspace(0.0, math.pi, 21)

        def spread(L):
            vals = [a1d_eff(float(t), L, m) for t in thetas]
            return max(vals) - min(vals)

        s1, s3 = spread(1.0), spread(3.0)
        assert s1 > 0.1  # strong theta dependence at close spacing
        assert s3 < 0.05 * s1  # nearly flat by L = 3

    def test_modes_agree_at_moderate_spacing(self):
        m = ConstantScatteringLength(1.0)
        for th in (0.0, 1.5, math.pi):
            series = a1d_eff(th, 3.0, m, mode="series")
            happrox = a1d_eff(th, 3.0, m, mode="h-approx")
            assert happrox == pytest.approx(series, abs=5e-5)

    def test_rejects_free_and_table_models(self):
        with pytest.raises(DomainError):
            a1d_eff(0.0, 3.0, ConstantScatteringLength(0.0))
        with pytest.raises(DomainError):
            a1d_eff(0.0, 3.0, object())

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            a1d_eff(0.0, 3.0, ConstantScatteringLength(1.0), mode="magic")


class TestSingleImpurityBoundEnergy:
    # frozen from the defining condition a1d(E_b) = 0 (verified below)
    # C(0) = 1/a puts the root at E = 0, where rtol * |E| vanishes
    A_ROOT_AT_ZERO = 1.0 / float(c_of_e(0.0))
    CASES = {
        0.5: -1.9609323580231002,
        -0.5: 0.8422293560603815,
        2.0: 0.08412955533399569,
        A_ROOT_AT_ZERO: 0.0,
    }

    def test_frozen_values(self):
        for a, eb in self.CASES.items():
            m = ConstantScatteringLength(a)
            assert single_impurity_bound_energy(m) == pytest.approx(eb, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(0.01, 50.0) | st.floats(-50.0, -0.01))
    @example(a=0.5)
    @example(a=-0.5)
    @example(a=2.0)
    @example(a=A_ROOT_AT_ZERO)
    def test_defining_condition(self, a):
        m = ConstantScatteringLength(a)
        eb = single_impurity_bound_energy(m)
        assert abs(c_of_e(eb) - 1.0 / a) <= 1e-10 * max(1.0, 1.0 / abs(a))

    def test_small_a_dimer_limit(self):
        # free-space dimer: E_b -> 1 - 1/(2 a^2) + O(a) for small a > 0
        # (zero-point 1 plus binding; C(E) ~ sqrt(2(1-E)) = 1/a)
        a = 0.02
        eb = single_impurity_bound_energy(ConstantScatteringLength(a))
        assert eb == pytest.approx(1.0 - 0.5 / a**2, rel=2e-2)

    def test_always_below_threshold(self):
        for a in (-3.0, -0.1, 0.05, 1.0, 10.0):
            assert single_impurity_bound_energy(ConstantScatteringLength(a)) < 1.0

    def test_free_model_rejected(self):
        with pytest.raises(DomainError):
            single_impurity_bound_energy(ConstantScatteringLength(0.0))

    @pytest.mark.parametrize("a", [-5e-5, -3e-5])
    def test_weak_attraction_binds_next_to_threshold(self, a):
        # C(1 - 1e-8) = -14141 > 1/a: the state lies closer than 1e-8;
        # near threshold C ~ -sqrt(2 / (1 - E)), so 1 - E ~ 2 a^2
        eb = single_impurity_bound_energy(ConstantScatteringLength(a))
        assert TOL_THRESHOLD < 1.0 - eb < 1e-8
        assert 1.0 - eb == pytest.approx(2.0 * a * a, rel=0.02)
        # a few ulp of E move C by |dC/dE| ~ |C| / (2 (1 - E)) per unit E
        eps = np.finfo(float).eps
        assert abs(a * c_of_e(eb) - 1.0) <= 4.0 * eps / (1.0 - eb)

    def test_state_inside_threshold_guard_raises(self):
        # 1 - E_b ~ 2e-10 lies inside the TOL_THRESHOLD guard of c_of_e
        with pytest.raises(DomainError, match="TOL_THRESHOLD"):
            single_impurity_bound_energy(ConstantScatteringLength(-1e-5))


@pytest.fixture(scope="module")
def model():
    b = invert_a_of_b(1.0, 1)
    table = ScatteringLengthTable.from_potential(b, e_min=0.01, e_max=2.0, n=40)
    return EnergyDependentScatteringLength(table, r_star_ratio=0.5)


class TestEnergyDependentModel:

    def test_length_and_energy_scaling(self, model):
        # pick a waveguide energy that lands inside the table
        e_ho = 1.5
        e_ion = 2.0 * model.r_star_ratio**2 * e_ho
        expect = float(model.table.a_of_e(e_ion)) * model.r_star_ratio
        assert model.a_of(e_ho) == pytest.approx(expect, rel=1e-13)
        assert model.inv_a_of(e_ho) == pytest.approx(1.0 / expect, rel=1e-13)

    def test_low_energy_extension_continuous(self, model):
        e_edge = model.table.e_min / (2.0 * model.r_star_ratio**2)
        below = model.a_of(e_edge * (1.0 - 1e-9))
        above = model.a_of(e_edge * (1.0 + 1e-9))
        assert below == pytest.approx(above, rel=1e-6)

    def test_zero_energy_limit_matches_closed_form(self, model):
        b = invert_a_of_b(1.0, 1)
        # at zero kinetic energy the extension anchors near a(b) = 1
        a0 = model.a_of(0.0) / model.r_star_ratio
        assert a0 == pytest.approx(a_of_b(b), abs=0.05)

    def test_not_free(self, model):
        assert model.is_free is False

    def test_deep_bound_energy_uses_frozen_extension(self, model):
        # the dimer sits at negative collision energy where the table's
        # low-energy extension is frozen, so it matches a constant model
        # built from the zero-energy value
        const = ConstantScatteringLength(model.a_of(0.0))
        eb_dep = single_impurity_bound_energy(model)
        assert eb_dep < 0.0
        assert eb_dep == pytest.approx(single_impurity_bound_energy(const), abs=1e-9)

    def test_weak_bound_energy_feels_energy_dependence(self):
        # attractive branch: the bound root lands at positive waveguide
        # energy, inside the table, where a(E) genuinely varies
        b = invert_a_of_b(-1.0, 1)
        table = ScatteringLengthTable.from_potential(b, e_min=0.01, e_max=2.0, n=40)
        dep = EnergyDependentScatteringLength(table, r_star_ratio=0.5)
        eb_dep = single_impurity_bound_energy(dep)
        assert 0.0 < eb_dep < 1.0
        const = ConstantScatteringLength(dep.a_of(0.0))
        eb_const = single_impurity_bound_energy(const)
        assert eb_dep != pytest.approx(eb_const, abs=1e-6)
