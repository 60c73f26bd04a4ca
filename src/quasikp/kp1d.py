"""Reference 1D lattice of delta scatterers (textbook dispersion).

A particle on a line with identical zero-range scatterers of strength
``g1d`` every ``L`` has Bloch bands determined by

    cos(theta) = cos(kL) + (m g1d / hbar^2) sin(kL) / k,   E = k^2/2,

with the k -> i*kappa continuation ``cosh(kappa L) + g1d sinh(kappa L)/kappa``
for E < 0.  Units here are hbar = m = 1; energies are purely axial
(no transverse zero point).

The right-hand side is the discriminant of Hill's equation: it equals
(-1)^m at the nodes kL = m pi for every coupling and is strictly monotone
inside each band.  So every band has one bracket known in advance, and
no scan is needed (see :func:`kp1d_bands_batch`).  At the zone edges
cos(theta) = +-1 the node factor is divided out of rhs -+ 1, so that the
edge next to a node is a simple root (see :func:`_band_residual`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._roots import _ROOT_RTOL, chandrupatla
from .errors import ConfigError, RootError

_RHS_TOL = 1e-10  # |rhs - cos(theta)| at an accepted root


@dataclass(frozen=True)
class Kp1dParams:
    """Lattice parameters: coupling ``g1d`` and spacing ``L`` (L > 0)."""

    g1d: float
    L: float

    def __post_init__(self):
        errors = []
        if not (math.isfinite(self.L) and self.L > 0.0):
            errors.append("L must be finite and > 0")
        if not math.isfinite(self.g1d):
            errors.append("g1d must be finite")
        if errors:
            raise ConfigError(errors)


def kp1d_rhs(k, params: Kp1dParams):
    """Bloch function cos(kL) + g1d sin(kL)/k for k >= 0.

    The removable k = 0 limit evaluates to 1 + g1d*L exactly (np.sinc
    handles it without branching).  Accepts scalars or arrays.
    """
    k = np.asarray(k, dtype=float)
    kL = k * params.L
    out = np.cos(kL) + params.g1d * params.L * np.sinc(kL / np.pi)
    if k.ndim == 0:
        return float(out)
    return out


def kp1d_rhs_negative(kappa, params: Kp1dParams):
    """Continuation cosh(kappa L) + g1d sinh(kappa L)/kappa for E < 0.

    Matches kp1d_rhs at kappa = 0 (both limits are 1 + g1d*L).
    """
    kappa = np.asarray(kappa, dtype=float)
    kL = kappa * params.L
    sinhc = np.where(kL == 0.0, params.L, np.sinh(kL) / np.where(kappa == 0.0, 1.0, kappa))
    out = np.cosh(kL) + params.g1d * sinhc
    if kappa.ndim == 0:
        return float(out)
    return out


def _scaled_negative_residual(kappa, params: Kp1dParams, cos_theta: float):
    """exp(-kappa L) * (rhs_negative - cos(theta)), safe against overflow.

    Same sign pattern and roots as the raw residual since the prefactor
    is positive; usable for arbitrarily large kappa*L.
    """
    kappa = np.asarray(kappa, dtype=float)
    kL = kappa * params.L
    # the kappa = 0 entries get a finite placeholder and are overwritten below
    ratio = params.g1d / np.where(kappa == 0.0, 1.0, kappa)
    decay = np.exp(-2.0 * kL)
    out = 0.5 * (1.0 + ratio) + 0.5 * decay * (1.0 - ratio) - np.exp(-kL) * cos_theta
    # kappa = 0 reduces to the common limit 1 + g1d*L - cos(theta)
    out = np.where(kL == 0.0, 1.0 + params.g1d * params.L - cos_theta, out)
    if kappa.ndim == 0:
        return float(out)
    return out


# cos(j pi/2) for j mod 4; sin(j pi/2) is the entry at (j - 1) mod 4
_QUARTER_COS = np.array([1.0, 0.0, -1.0, 0.0])


def _band_residual(k, cos_theta, params: Kp1dParams, rhs, cos_x, sin_x):
    """rhs(k) - cos(theta), with the node factor divided out at cos(theta) = +-1.

    ``rhs``, ``cos_x`` and ``sin_x`` are rhs(k) and the cos and sin of
    x = kL/2, passed in so that they are exact at the nodes.  Since

        rhs - 1 = (2/k) sin(x) [g1d cos(x) - k sin(x)],
        rhs + 1 = 2 cos(x) [cos(x) + g1d sin(x)/k],

    at cos(theta) = 1 (-1) the bracketed factor is returned: rhs -+ 1 only
    touches zero at a zone-edge root next to a node, where the factor has
    a simple root.
    """
    g = params.g1d
    sin_over_k = np.where(k == 0.0, 0.5 * params.L, sin_x / np.where(k == 0.0, 1.0, k))
    return np.select([cos_theta == 1.0, cos_theta == -1.0],
                     [g * cos_x - k * sin_x, cos_x + g * sin_over_k],
                     rhs - cos_theta)


def kp1d_bands(params: Kp1dParams, theta: float, n_bands: int) -> list[float]:
    """The ``n_bands`` lowest Bloch band energies at phase ``theta``.

    Returns energies in units of hbar^2/(m L_unit^2) style (hbar = m = 1),
    sorted ascending; a bound band (E < 0) is included when the coupling
    is attractive.  Raises RootError if a converged root fails the
    residual check.
    """
    return kp1d_bands_batch(params, [theta], n_bands)[0]


def kp1d_bands_batch(params: Kp1dParams, thetas,
                     n_bands: int) -> list[list[float]]:
    """:func:`kp1d_bands` at every phase of ``thetas``, solved together.

    Every band has one bracket, known in advance, because rhs(m pi/L) =
    (-1)^m exactly and rhs is strictly monotone inside each band (Hill's
    equation; W. Magnus and S. Winkler, *Hill's Equation*, 1966):

    - band m+1 (m >= 1) is the one root of :func:`_band_residual` in
      [m pi/L, (m+1) pi/L];
    - band 1 lies in [0, pi/L], or on the kappa branch in
      [0, max(2|g1d|, 4/L)] when 1 + g1d L <= cos(theta).

    At cos(theta) = +-1, where the factor of :func:`_band_residual` keeps
    its sign on an interval, the band edge is the node kL = j pi at that
    interval's end with (-1)^j = cos(theta).  Each kind of bracket (k and
    kappa) is refined for all phases in one Chandrupatla call.
    """
    if n_bands < 1:
        raise ConfigError(["n_bands must be >= 1"])
    thetas = [float(th) for th in thetas]
    if not all(math.isfinite(th) for th in thetas):
        raise ConfigError(["theta must be finite"])
    g, L = params.g1d, params.L
    # one entry per (phase, band); band j+1 lies in [j pi/L, (j+1) pi/L]
    cos_t = np.repeat([math.cos(th) for th in thetas], n_bands)
    j = np.tile(np.arange(n_bands), len(thetas))
    f_lo, f_hi = (
        _band_residual(node * np.pi / L, cos_t, params,
                       np.where(node == 0, 1.0 + g * L, (-1.0) ** node),
                       _QUARTER_COS[node % 4], _QUARTER_COS[(node - 1) % 4])
        for node in (j, j + 1))
    # at 1 + g1d L = cos(theta) the root is k = kappa = 0; the kappa bracket
    # returns it at once, where the k bracket would start on a node factor root
    bound = (j == 0) & (1.0 + g * L <= cos_t)
    cross = ~bound & (np.sign(f_lo) * np.sign(f_hi) < 0.0)
    # without a sign change the edge is the node of the parity of cos(theta)
    k = np.where((j % 2 == 0) == (cos_t == 1.0), j, j + 1) * np.pi / L
    f = lambda kk, c: _band_residual(kk, c, params, kp1d_rhs(kk, params),
                                     np.cos(0.5 * L * kk), np.sin(0.5 * L * kk))
    k[cross] = chandrupatla(f, j[cross] * np.pi / L, (j[cross] + 1) * np.pi / L,
                            f_lo[cross], f_hi[cross], atol=0.0, rtol=_ROOT_RTOL,
                            args=(cos_t[cross],))
    kappa = np.zeros(k.shape)
    c_bound = cos_t[bound]
    kappa_hi = np.full(c_bound.shape, max(2.0 * abs(g), 4.0 / L))
    zero = np.zeros(c_bound.shape)
    h = lambda kap, c: _scaled_negative_residual(kap, params, c)
    kappa[bound] = chandrupatla(h, zero, kappa_hi, h(zero, c_bound),
                                h(kappa_hi, c_bound), atol=0.0, rtol=_ROOT_RTOL,
                                args=(c_bound,))
    # + 0.0 turns the -0.0 of kappa = 0 into 0.0
    energies = np.where(bound, -0.5 * kappa * kappa, 0.5 * k * k) + 0.0

    # the raw form loses all precision for deep bound roots (cosh ~ 1e60),
    # so check the exp(-kappa L)-scaled equation there, which shares its
    # zeros; rounding in k*L grows with the coupling, so scale the tolerance
    resid = np.abs(np.where(bound, _scaled_negative_residual(kappa, params, cos_t),
                            kp1d_rhs(k, params) - cos_t))
    bad = np.nonzero(resid > _RHS_TOL * (1.0 + abs(g) * L))[0]
    if bad.size:
        i = bad[0]
        raise RootError(
            f"kp1d root at E={float(energies[i])!r} "
            f"(theta={thetas[i // n_bands]!r}) has residual {resid[i]:.3e}"
        )
    return energies.reshape(len(thetas), n_bands).tolist()
