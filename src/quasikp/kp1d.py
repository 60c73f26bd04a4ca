"""Reference 1D lattice of delta scatterers (textbook dispersion).

A particle on a line with identical zero-range scatterers of strength
``g1d`` every ``L`` has Bloch bands determined by

    cos(theta) = cos(kL) + (m g1d / hbar^2) sin(kL) / k,   E = k^2/2,

with the k -> i*kappa continuation ``cosh(kappa L) + g1d sinh(kappa L)/kappa``
for E < 0.  Units here are hbar = m = 1; energies are purely axial
(no transverse zero point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._roots import _ROOT_RTOL, _sign_changes, chandrupatla
from .errors import ConfigError, RootError

_RHS_TOL = 1e-10  # |rhs - cos(theta)| at an accepted root
_NODE_TOL = 1e-12


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


def _scan_grid(lo: float, hi: float, scan_points: int) -> np.ndarray:
    """Uniform grid plus points clustered geometrically toward both ends.

    Roots can sit arbitrarily close to an interval endpoint (for weak
    coupling the second edge root lies only ~2 g L / pi past a node), so
    a uniform grid alone would step right over the sign dip.
    """
    width = hi - lo
    eps = np.geomspace(1e-12, 0.4, 25) * width
    ks = np.concatenate([np.linspace(lo, hi, scan_points), lo + eps, hi - eps])
    return np.unique(ks)


def _refine_rows(f, ks: np.ndarray, vals: np.ndarray,
                 cos_t: np.ndarray) -> list[list[float]]:
    """Roots inside every sign change of every row of the scan.

    Row r of ``vals`` is the scan at phase r; the brackets of all rows are
    refined in one call, each with its own cos(theta).
    """
    n = ks.size
    flat = _sign_changes(vals.ravel())
    flat = flat[flat % n != n - 1]  # no bracket across two rows
    rows, i = flat // n, flat % n
    found = chandrupatla(f, ks[i], ks[i + 1], vals[rows, i], vals[rows, i + 1],
                         atol=0.0, rtol=_ROOT_RTOL, args=(cos_t[rows],))
    out: list[list[float]] = [[] for _ in cos_t]
    for r, k in zip(rows.tolist(), found.tolist()):
        out[r].append(k)
    return out


def _positive_roots(params: Kp1dParams, cos_t: np.ndarray, n_intervals: int,
                    scan_points: int = 240) -> list[list[float]]:
    """Roots of rhs(k) = cos(theta) for k >= 0, one list per phase.

    Interval j is (j*pi/L, (j+1)*pi/L); a dense endpoint-refined scan of
    every interval finds each transversal crossing, and Chandrupatla's
    method (:func:`quasikp._roots.chandrupatla`) refines all of them, for
    every phase, in one call.  The scan and rhs(k) do not depend on the
    phase and are computed once.  At the nodes kL = m*pi the rhs equals
    (-1)^m exactly (the delta term vanishes), so when cos(theta) matches
    that value the node is a root the scan can only touch tangentially;
    those roots are added analytically.
    """
    L = params.L
    # the interval grids share only their end nodes, so the merged grid
    # holds the same brackets as the separate scans
    ks = np.unique(np.concatenate([
        _scan_grid(j * np.pi / L, (j + 1) * np.pi / L, scan_points)
        for j in range(n_intervals)
    ]))
    f = lambda k, c: kp1d_rhs(k, params) - c
    roots = _refine_rows(f, ks, kp1d_rhs(ks, params) - cos_t[:, None], cos_t)
    for r, c in enumerate(cos_t):
        for m in range(n_intervals + 1):
            rhs_node = (1.0 if m % 2 == 0 else -1.0) + (params.g1d * L if m == 0 else 0.0)
            if abs(rhs_node - c) < _NODE_TOL:
                roots[r].append(m * np.pi / L)
    return roots


def _negative_roots(params: Kp1dParams, cos_t: np.ndarray,
                    scan_points: int = 400) -> list[list[float]]:
    """Bound-band roots kappa > 0 of the continued dispersion (g1d < 0 only)."""
    if params.g1d >= 0.0:
        # cosh + g*sinh/kappa > 1 >= cos(theta) for g >= 0: no bound band
        return [[] for _ in cos_t]
    kappa_hi = max(2.0 * abs(params.g1d), 4.0 / params.L)
    f = lambda kap, c: _scaled_negative_residual(kap, params, c)
    ks = _scan_grid(0.0, kappa_hi, scan_points)
    vals = f(ks, cos_t[:, None])
    roots = _refine_rows(f, ks, vals, cos_t)
    exact = (vals[:, :-1] == 0.0) & (ks[:-1] > 0.0)
    for r, i in zip(*np.nonzero(exact)):
        roots[r].append(float(ks[i]))
    return roots


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
    """:func:`kp1d_bands` at every phase of ``thetas``, solved together."""
    if n_bands < 1:
        raise ConfigError(["n_bands must be >= 1"])
    thetas = [float(th) for th in thetas]
    if not all(math.isfinite(th) for th in thetas):
        raise ConfigError(["theta must be finite"])
    cos_t = np.array([math.cos(th) for th in thetas])
    negative = _negative_roots(params, cos_t)
    positive = _positive_roots(params, cos_t, n_intervals=n_bands + 2)

    # rounding in k*L grows with the coupling, so scale the sanity tolerance
    resid_tol = _RHS_TOL * (1.0 + abs(params.g1d) * params.L)
    out = []
    for theta, c, kappas, ks in zip(thetas, cos_t, negative, positive):
        energies = [-0.5 * kappa * kappa for kappa in kappas if kappa > 0.0]
        energies += [0.5 * k * k for k in ks]
        # dedupe: node roots can also be caught by a neighboring bracket
        energies.sort()
        unique: list[float] = []
        for e in energies:
            if not unique or abs(e - unique[-1]) > 1e-9 * (1.0 + abs(e)):
                unique.append(e)

        for e in unique[:n_bands]:
            if e >= 0.0:
                resid = abs(kp1d_rhs(math.sqrt(2.0 * e), params) - c)
            else:
                # the raw form loses all precision for deep roots (cosh ~
                # 1e60), so check the exp(-kappa L)-scaled equation, which
                # shares its zeros
                resid = abs(_scaled_negative_residual(math.sqrt(-2.0 * e), params, c))
            if resid > resid_tol:
                raise RootError(
                    f"kp1d root at E={e!r} (theta={theta!r}) has residual {resid:.3e}"
                )
        if len(unique) < n_bands:
            raise RootError(
                f"found only {len(unique)} bands of {n_bands} requested at theta={theta!r}"
            )
        out.append(unique[:n_bands])
    return out
