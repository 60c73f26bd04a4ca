"""Unit systems and run configuration.

Waveguide quantities are expressed in harmonic-oscillator units:
hbar = m = a_perp = 1, so hbar*omega = 1 and E = k^2/2 along the axis.
Atom-ion quantities use the polarization-potential units
2m = hbar = R* = 1, where R* = sqrt(2 m C4)/hbar and E* = hbar^2/(2 m R*^2).

The only nontrivial bridge between the two systems is the energy map

    E[E*] = E[hbar*omega] * 2 * (R*/a_perp)^2

which follows from E* / (hbar*omega) = a_perp^2 / (2 R*^2); it is applied
by :class:`quasikp.quasi1d.EnergyDependentScatteringLength`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .quasi1d import ScatteringModel


@dataclass(frozen=True)
class ModelConfig:
    """Everything the band solver needs to know about one physical setup.

    lattice_spacing
        Impurity spacing L in units of a_perp.
    scattering
        A scattering model (constant or energy dependent 3D scattering
        length); see :mod:`quasikp.quasi1d`.
    theta_grid_size
        Number of Bloch-phase samples on [0, pi].
    energy_window
        Energy search window (E_min, E_max) in hbar*omega.
    """

    lattice_spacing: float
    scattering: "ScatteringModel"
    theta_grid_size: int = 101
    energy_window: tuple[float, float] = (-1.0, 7.0)


def validate(config: ModelConfig) -> ModelConfig:
    """Check a :class:`ModelConfig` and return a normalized copy.

    All violations are collected and reported together in the raised
    :class:`ConfigError`, each message naming the offending field.
    """
    errors: list[str] = []

    try:
        spacing = float(config.lattice_spacing)
        if not (math.isfinite(spacing) and spacing > 0.0):
            errors.append("lattice_spacing must be finite and > 0")
            spacing = float("nan")
    except (TypeError, ValueError):
        errors.append("lattice_spacing must be a positive number")
        spacing = float("nan")

    try:
        grid = int(config.theta_grid_size)
        if grid < 2:
            errors.append("theta_grid_size must be >= 2")
    except (TypeError, ValueError):
        errors.append("theta_grid_size must be an integer")
        grid = 0

    try:
        lo, hi = (float(config.energy_window[0]), float(config.energy_window[1]))
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            errors.append("energy_window must satisfy E_min < E_max")
    except (TypeError, ValueError, IndexError):
        errors.append("energy_window must be a pair of numbers")
        lo, hi = (0.0, 0.0)

    if config.scattering is None or not hasattr(config.scattering, "inv_a_of"):
        errors.append("scattering must provide an inv_a_of(E) model")

    if errors:
        raise ConfigError(errors)
    return replace(
        config,
        lattice_spacing=spacing,
        theta_grid_size=grid,
        energy_window=(lo, hi),
    )
