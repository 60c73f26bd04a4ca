"""Unit conversions between oscillator and ion energy scales, plus config checks."""

import math

import numpy as np
import pytest

from quasikp import (
    ConfigError,
    ConstantScatteringLength,
    EnergyDependentScatteringLength,
    ModelConfig,
    validate,
)


class _IdentityTable:
    """Stand-in phase-shift table: a(E) in R* is the ion energy E itself."""

    e_min = -math.inf

    def __init__(self, a_zero_energies=()):
        self.a_zero_energies = list(a_zero_energies)

    def a_of_e(self, e):
        return np.asarray(e, dtype=float)


def _ion_energy(e_ho, r_star_ratio):
    """E in units of E* for a waveguide energy, read off through a_of."""
    model = EnergyDependentScatteringLength(_IdentityTable(), r_star_ratio)
    return model.a_of(e_ho) / r_star_ratio


def _ho_energy(e_ion, r_star_ratio):
    """E in units of hbar*omega for an ion energy, via a_zero_energies_ho."""
    model = EnergyDependentScatteringLength(_IdentityTable([e_ion]), r_star_ratio)
    return model.a_zero_energies_ho()[0]


class TestIonUnits:
    def test_e_star_ratio_half(self):
        # r = 0.5: E*/(hbar w) = 1/(2 * 0.25) = 2, so 1 hbar*w = 0.5 E*
        assert _ho_energy(1.0, 0.5) == pytest.approx(2.0, rel=1e-14)
        assert _ion_energy(1.0, 0.5) == pytest.approx(0.5, rel=1e-14)

    def test_conversion_r1(self):
        assert _ion_energy(3.0, 1.0) == pytest.approx(6.0, rel=1e-14)

    def test_zero_maps_to_zero(self):
        assert _ion_energy(0.0, 0.7) == 0.0
        assert _ho_energy(0.0, 0.7) == 0.0

    def test_round_trip(self):
        for e in (-2.5, 1e-3, 1.0, 6.9):
            back = _ho_energy(_ion_energy(e, 0.31), 0.31)
            assert back == pytest.approx(e, rel=1e-14)

    def test_contact_model_has_no_ion_scale(self):
        # R* = 0 is the contact model, which has no ion energy scale
        with pytest.raises(ConfigError):
            EnergyDependentScatteringLength(_IdentityTable(), 0.0)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ConfigError):
            EnergyDependentScatteringLength(_IdentityTable(), -0.1)
        with pytest.raises(ConfigError):
            EnergyDependentScatteringLength(_IdentityTable(), math.nan)


class TestValidate:
    def _good(self, **kw):
        base = dict(
            lattice_spacing=5.0,
            scattering=ConstantScatteringLength(0.5),
            theta_grid_size=101,
            energy_window=(-1.0, 7.0),
        )
        base.update(kw)
        return ModelConfig(**base)

    def test_good_config_passes_unchanged(self):
        cfg = self._good()
        out = validate(cfg)
        assert out.lattice_spacing == 5.0
        assert out.energy_window == (-1.0, 7.0)
        assert out.scattering is cfg.scattering

    def test_validate_idempotent(self):
        out1 = validate(self._good())
        out2 = validate(out1)
        assert out1 == out2

    def test_normalizes_numeric_strings(self):
        out = validate(self._good(lattice_spacing="5", theta_grid_size="41"))
        assert out.lattice_spacing == 5.0
        assert out.theta_grid_size == 41

    def test_collects_all_violations(self):
        cfg = self._good(
            lattice_spacing=-1.0,
            theta_grid_size=1,
            energy_window=(3.0, 3.0),
        )
        with pytest.raises(ConfigError) as exc:
            validate(cfg)
        msg = str(exc.value)
        assert "lattice_spacing" in msg
        assert "theta_grid_size" in msg
        assert "energy_window" in msg

    def test_bad_spacing(self):
        for bad in (0.0, -2.0, math.inf, math.nan, "not a number"):
            with pytest.raises(ConfigError):
                validate(self._good(lattice_spacing=bad))

    def test_bad_window(self):
        with pytest.raises(ConfigError):
            validate(self._good(energy_window=(7.0, -1.0)))
        with pytest.raises(ConfigError):
            validate(self._good(energy_window=(0.0, math.inf)))

    def test_missing_scattering_model(self):
        with pytest.raises(ConfigError) as exc:
            validate(self._good(scattering=None))
        assert "scattering" in str(exc.value)
