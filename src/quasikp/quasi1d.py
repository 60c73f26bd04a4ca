"""Dispersion machinery for a waveguide threaded by a lattice of impurities.

A particle in a transverse harmonic trap (frequency omega) moving along z
scatters on identical short-range impurities spaced L apart.  Units are
hbar = m = a_perp = 1, so hbar*omega = 1 and the axially symmetric
transverse channels open at E = 1, 3, 5, ...

A Bloch state with phase theta per cell exists at energy E when

    a1d(E) + 2 L (Lambda_p(E, theta) + Lambda_e(E, theta)) = 0,

where a1d(E) is the effective 1D scattering length of a single impurity
(which absorbs the closed-channel physics through C(E)), Lambda_p sums
the open (propagating) channels over lattice sites, and Lambda_e the
closed (evanescent) ones.

Below the lowest threshold every channel is evanescent and the branch
offset q = (1 - E)/2 continues smoothly to arbitrarily deep energies;
this reproduces the correct single-impurity dimer at small positive a.
Between thresholds, q = 1 - eps/2 with eps the excess above the highest
open threshold.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._roots import _ROOT_RTOL, chandrupatla
from .errors import (
    ConfigError,
    DomainError,
    PoleError,
    PrecisionWarning,
    ThresholdError,
)
from .specfun import h_series, hurwitz_zeta_half

TOL_THRESHOLD = 1e-9
TOL_POLE = 1e-9
# largest channels x points block of the closed-channel sum
_BLOCK_ELEMENTS = 2**14


def olshanii_constant() -> float:
    """C at the lowest threshold, i.e. -zeta(1/2, 1) = 1.4603545..."""
    return -hurwitz_zeta_half(1.0)


def _branch_offsets(E):
    """Channel index n_star and excess eps above the governing threshold.

    n_star = floor((E - 1)/2) clamped to >= -1: below the lowest threshold
    all channels are closed and the same branch continues downward.
    Raises ThresholdError within TOL_THRESHOLD below any threshold, where
    the closed-channel sums diverge.
    """
    arr = np.asarray(E, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise DomainError("energy must be finite")
    n_star = np.maximum(np.floor((arr - 1.0) / 2.0), -1.0)
    eps = arr - (2.0 * n_star + 1.0)
    # q = 1 - eps/2 -> 0+ approaching the next threshold from below
    if np.any(1.0 - 0.5 * eps < 0.5 * TOL_THRESHOLD):
        raise ThresholdError(
            "energy within TOL_THRESHOLD below a transverse threshold"
        )
    return n_star, eps


def c_of_e(E):
    """Closed-channel regularization constant C(E) = -zeta(1/2, 1 - eps/2).

    Diverges to -infinity approaching any threshold from below (guarded),
    equals the Olshanii constant 1.46035 at E = hbar*omega, and grows like
    sqrt(2(1 - E)) for deep negative energies.  Scalar or ndarray E.
    """
    _, eps = _branch_offsets(E)
    return -hurwitz_zeta_half(1.0 - 0.5 * eps)


def _check_theta_l(theta, L: float) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(th)) or not (math.isfinite(L) and L > 0.0):
        raise DomainError("theta must be finite and L positive")
    return th


def lambda_p(E, theta, L: float):
    """Open-channel lattice sum; theta and E scalars or arrays.

    An array theta is broadcast against E element by element, so each
    energy can carry its own Bloch phase.  Sum over open channels of
    sin(k_n L) / (2 k_n L (cos theta - cos k_n L)).
    Empty (zero) below the lowest threshold.  A pole sits where a free
    lattice band passes, k_n L = +/-theta (mod 2 pi); a point lies on it
    when min |sin((k_n L +/- theta)/2)| < TOL_POLE/2, i.e. within about
    TOL_POLE in phase.  Array input gives NaN at such points; scalar E
    and theta raise PoleError naming the channel.
    """
    arr = np.asarray(E, dtype=float)
    n_star, _ = _branch_offsets(arr)
    th = _check_theta_l(theta, L)
    out = np.zeros(np.broadcast_shapes(arr.shape, th.shape))
    n_top = int(n_star.max()) if arr.size else -1
    half_t = 0.5 * th
    # closed channels and pole points give inf/NaN terms (a closed channel
    # overflows for |theta| < ~1e-154): `mask` drops the former, the latter
    # leave NaN in `out`
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for n in range(0, n_top + 1):
            mask = n_star >= n
            kn = 2.0 * np.sqrt(np.maximum((arr - 1.0) / 2.0 - n, 0.0))
            knL = kn * L
            # cos(theta) - cos(k_n L), factored so its zeros stay linear in phase
            s_plus = np.sin(0.5 * knL + half_t)
            s_minus = np.sin(0.5 * knL - half_t)
            hit = mask & (np.minimum(np.abs(s_plus), np.abs(s_minus))
                          < 0.5 * TOL_POLE)
            if out.ndim == 0 and hit:
                raise PoleError(
                    f"open-channel pole cos(theta) = cos(k_n L) in channel n={n}",
                    channel=n,
                )
            term = 0.25 * np.sinc(knL / np.pi) / (s_plus * s_minus)
            out = np.where(mask, out + np.where(hit, math.nan, term), out)
    return float(out) if out.ndim == 0 else out


def _re_geometric(t, cos_t):
    """Re[1/(1 - e^{x + i theta})] written in t = exp(-x); stable for any x > 0."""
    return (t * t - t * cos_t) / (1.0 - 2.0 * t * cos_t + t * t)


def lambda_e(E, theta, L: float, *, rel_tol: float = 1e-14,
             max_terms: int = 10**6):
    """Closed-channel lattice sum; theta and E scalars or arrays.

    An array theta is broadcast against E element by element.  Sum over
    closed channels of Re[1/(1 - e^{k_n L + i theta})]/(k_n L)
    with k_n = 2*sqrt(n - eps/2).  Converges like exp(-2 sqrt(n) L); the
    sum is truncated once the newest term drops below rel_tol of the
    running total, with a hard cap that emits PrecisionWarning.  Terms
    are summed in blocks of at most _BLOCK_ELEMENTS (channels x points).
    """
    e_arr = np.asarray(E, dtype=float)
    th = _check_theta_l(theta, L)
    shape = np.broadcast_shapes(e_arr.shape, th.shape)
    arr = np.broadcast_to(e_arr, shape).ravel()
    _, eps = _branch_offsets(arr)
    cos_t = np.broadcast_to(np.cos(th), shape).ravel()
    total = np.zeros(arr.shape)
    n = 1
    cap = max(1, _BLOCK_ELEMENTS // max(arr.size, 1))
    block = min(16, cap)
    converged = False
    while n <= max_terms:
        ns = np.arange(n, min(n + block, max_terms + 1), dtype=float)
        kn = 2.0 * np.sqrt(ns[:, None] - 0.5 * eps[None, :])
        x = kn * L
        terms = _re_geometric(np.exp(-x), cos_t) / x
        total = total + terms.sum(axis=0)
        last = np.abs(terms[-1])
        if np.all(last <= rel_tol * np.maximum(np.abs(total), 1e-300)):
            converged = True
            break
        n += len(ns)
        block = min(2 * block, 4096, cap)
    if not converged:
        warnings.warn(
            f"closed-channel sum truncated after {max_terms} terms",
            PrecisionWarning,
            stacklevel=2,
        )
    return float(total[0]) if not shape else total.reshape(shape)


def lambda_e_h_approx(theta, L: float):
    """Large-spacing closed-channel sum -cos(theta) H(2L) / (2L).

    Keeps only the single-site exponential of each closed channel, which
    turns the lattice sum into the universal series H(x); accurate once
    exp(-4 sqrt(1) L) corrections are negligible.
    """
    th = np.asarray(theta, dtype=float)
    if not (math.isfinite(L) and L > 0.0):
        raise DomainError("L must be positive")
    out = -0.5 * np.cos(th) * h_series(2.0 * L) / L
    return float(out) if th.ndim == 0 else out


@dataclass(frozen=True)
class ConstantScatteringLength:
    """Energy-independent 3D scattering length (units of a_perp)."""

    a: float

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ConfigError(["scattering length must be finite"])

    @property
    def is_free(self) -> bool:
        return self.a == 0.0

    def a_of(self, E):
        return np.broadcast_to(self.a, np.shape(E)).copy() if np.ndim(E) else self.a

    def inv_a_of(self, E):
        if self.a == 0.0:
            raise DomainError(
                "free-particle limit (a = 0): band structure is the free one"
            )
        inv = 1.0 / self.a
        return np.broadcast_to(inv, np.shape(E)).copy() if np.ndim(E) else inv


@dataclass(frozen=True)
class EnergyDependentScatteringLength:
    """3D scattering length taken from an atom-ion phase-shift table.

    The table works in ion units (lengths in R*, energies in E*); this
    wrapper converts waveguide energies via E* = 2 (R*/a_perp)^2 E[hbar*omega]
    and lengths via a[a_perp] = (R*/a_perp) a[R*].

    The full Bloch energy, transverse zero point included, feeds the 3D
    collision.  Below the table's first sample the universal low-energy
    form a(k) = a(k_min) + (pi/3)(k - k_min) extends it continuously;
    below zero kinetic energy it freezes.
    """

    table: object
    r_star_ratio: float

    def __post_init__(self):
        if not (math.isfinite(self.r_star_ratio) and self.r_star_ratio > 0.0):
            raise ConfigError(["r_star_ratio must be > 0 for an ion-scale model"])

    @property
    def is_free(self) -> bool:
        return False

    def _ion_energy(self, E_ho):
        return np.asarray(E_ho, dtype=float) * 2.0 * self.r_star_ratio**2

    def _a_rstar(self, e_ion):
        """a(E) in R* units with the continuous low-energy extension."""
        e = np.atleast_1d(np.asarray(e_ion, dtype=float))
        e_min = self.table.e_min
        out = np.empty(e.shape)
        low = e < e_min
        if np.any(~low):
            out[~low] = self.table.a_of_e(e[~low])
        if np.any(low):
            anchor = float(self.table.a_of_e(e_min))
            k = np.sqrt(np.maximum(e[low], 0.0))
            out[low] = anchor + (math.pi / 3.0) * (k - math.sqrt(e_min))
        return out

    def a_of(self, E_ho):
        out = self._a_rstar(self._ion_energy(E_ho)) * self.r_star_ratio
        return float(out[0]) if np.ndim(E_ho) == 0 else out.reshape(np.shape(E_ho))

    def inv_a_of(self, E_ho):
        with np.errstate(divide="ignore"):
            out = 1.0 / self._a_rstar(self._ion_energy(E_ho)) / self.r_star_ratio
        return float(out[0]) if np.ndim(E_ho) == 0 else out.reshape(np.shape(E_ho))

    def a_zero_energies_ho(self) -> list[float]:
        """Waveguide energies where a(E) crosses zero (residual poles)."""
        scale = 2.0 * self.r_star_ratio**2
        return [e / scale for e in self.table.a_zero_energies]


ScatteringModel = Union[ConstantScatteringLength, EnergyDependentScatteringLength]


def a1d_of_e(E, model: ScatteringModel):
    """Effective 1D scattering length a1d(E) = -(1/(2a))(1 - C(E) a).

    Written through 1/a so energy-dependent models stay finite across
    their 3D resonances (where a1d simply approaches C(E)/2).  Scalar or
    ndarray E; raises for the free model where a1d is undefined.
    """
    return -0.5 * model.inv_a_of(E) + 0.5 * c_of_e(E)


def dispersion_residual(E, theta, config):
    """Residual a1d(E) + 2L (Lambda_p + Lambda_e); zero at Bloch eigenenergies.

    theta and E are scalars or arrays, broadcast element by element.
    Pole points are NaN for array input and raise PoleError for scalar E
    and theta (see :func:`lambda_p`); threshold errors propagate so
    callers can partition their search windows.
    """
    L = config.lattice_spacing
    lam = lambda_p(E, theta, L) + lambda_e(E, theta, L)
    return a1d_of_e(E, config.scattering) + 2.0 * L * lam


def a1d_eff(theta, L: float, model: ScatteringModel, mode: str = "series"):
    """Effective 1D scattering length of the lattice near the lowest threshold.

    a1d_eff(theta) = a1d + 2L * Lambda_e(theta) with the low-energy C;
    the lattice correction is either the closed-channel sum at the lowest
    threshold, Lambda_e(1, theta) with k_n = 2 sqrt(n) (mode "series"), or
    the large-spacing H-function form (mode "h-approx").
    Only meaningful for a constant-a model.
    """
    if not isinstance(model, ConstantScatteringLength):
        raise DomainError("a1d_eff is defined for the constant-a model")
    if model.a == 0.0:
        raise DomainError("a1d_eff undefined for a = 0 (free lattice)")
    if mode == "series":
        lam = lambda_e(1.0, theta, L)
    elif mode == "h-approx":
        lam = lambda_e_h_approx(theta, L)
    else:
        raise DomainError(f"unknown a1d_eff mode {mode!r}")
    a1 = -0.5 / model.a * (1.0 - olshanii_constant() * model.a)
    return a1 + 2.0 * L * lam


def single_impurity_bound_energy(model: ScatteringModel) -> float:
    """Energy of the single-impurity bound state, the L -> infinity limit.

    Solves C(E) = 1/a(E) below the lowest threshold; exists for every
    nonzero scattering length (weakly bound for a < 0, diving to the
    free-space dimer -1/(2 a^2) for small positive a).
    """
    if getattr(model, "is_free", False):
        raise DomainError("free model has no bound state")

    def g(E):
        return c_of_e(E) - model.inv_a_of(E)

    # weak attraction binds within 1 - E ~ 2 a^2 of the threshold: move the
    # upper end toward it, the last try on the TOL_THRESHOLD guard itself
    gap = 1e-8
    g_hi = g(1.0 - gap)
    while g_hi >= 0.0:
        if gap == TOL_THRESHOLD:
            raise DomainError(
                "bound state lies within TOL_THRESHOLD of the threshold")
        gap = max(0.25 * gap, TOL_THRESHOLD)
        g_hi = g(1.0 - gap)
    hi = 1.0 - gap
    lo = -1.0
    g_lo = g(lo)
    while g_lo < 0.0:
        lo = 1.0 - 2.0 * (1.0 - lo)
        if lo < -1e12:
            raise DomainError("bound-state bracket search ran away")
        g_lo = g(lo)
    return float(chandrupatla(g, [lo], [hi], [g_lo], [g_hi], atol=0.0,
                              rtol=_ROOT_RTOL)[0])
