"""Bloch bands of the impurity lattice: solving, tracking, effective mass.

At Bloch phase theta the band energies are the zeros of the dispersion
residual from :mod:`quasikp.quasi1d`.  The residual is smooth except at
transverse thresholds E = 1 + 2n, at poles of the propagating lattice sum
(where some open channel has cos(k_n L) = cos(theta)), and, for energy
dependent models, where a(E) crosses zero.  The search window is split at
all of those points and each piece is scanned on a dense grid.  All the
phases of a request are solved as one batch: the residual runs on the
grids of whole pieces, several pieces and phases per call and at most
_SLICE_POINTS points (grid points on a pole come back NaN and are
dropped), and the sign changes of all pieces and phases are refined in
one call of Chandrupatla's method (:func:`quasikp._roots.chandrupatla`),
each bracket carrying its own theta.  Node states sin(K z) with
K L = 2 pi j +/- theta vanish on every impurity and are eigenstates at any
coupling, but they sit exactly on lattice-sum poles where the residual
cannot see them: at theta = 0 and theta = pi they are injected by hand.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._roots import _sign_changes, chandrupatla
from .errors import (
    DomainError,
    FitRankError,
    QuasiKpError,
    RootError,
)
from .quasi1d import (
    ConstantScatteringLength,
    dispersion_residual,
    single_impurity_bound_energy,
)
from .units import ModelConfig, validate

GUARD = 1e-8
SCAN_POINTS = 200
BISECT_TOL = 1e-12
_DEDUP_TOL = 1e-9
# largest residual call of the band scan (whole pieces of SCAN_POINTS)
_SLICE_POINTS = 2048
# minimum allowed jump per theta step, before the slope-based guards kick in
_JUMP_FLOOR = 0.05


@dataclass(frozen=True)
class Band:
    """One Bloch band sampled on a theta grid (theta = q L).

    Unresolved points are NaN.  ``provenance`` records which scattering
    model produced the band: "constant-a", "energy-dependent" or
    "kp1d-reduced".
    """

    index: int
    thetas: np.ndarray
    energies: np.ndarray
    lattice_spacing: float
    provenance: str = "constant-a"
    crossing_suspected: bool = False

    @property
    def edges(self) -> tuple[float, float]:
        """Band energies at the first and last grid point (theta = 0, pi)."""
        return float(self.energies[0]), float(self.energies[-1])

    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.thetas.tolist(), self.energies.tolist()))


@dataclass(frozen=True)
class EffectiveMassFit:
    """Even polynomial fit E(q) = eps_b + q^2/2 * (m/m_eff) + A q^4 + B q^6."""

    eps_b: float
    inv_mass_ratio: float
    A: float
    B: float
    rms_residual: float
    n_points: int

    def energy_at(self, q):
        x = np.square(np.asarray(q, dtype=float))
        out = self.eps_b + x * (0.5 * self.inv_mass_ratio + x * (self.A + x * self.B))
        return float(out) if out.ndim == 0 else out


def _model_tag(model) -> str:
    return "energy-dependent" if getattr(model, "table", None) is not None else "constant-a"


def _fold_theta(theta: float) -> float:
    """Map theta to the irreducible interval [0, pi] (bands are even, 2pi periodic)."""
    return abs(math.remainder(float(theta), 2.0 * math.pi))


def _dedup_sorted(values, tol: float) -> list[float]:
    out: list[float] = []
    for v in sorted(values):
        if not out or abs(v - out[-1]) > tol * max(1.0, abs(v)):
            out.append(float(v))
    return out


def _thresholds_between(e_min: float, e_max: float) -> list[float]:
    out = []
    n = max(0, math.ceil((e_min - 1.0) / 2.0))
    while 1.0 + 2.0 * n < e_max:
        t = 1.0 + 2.0 * n
        if t > e_min:
            out.append(t)
        n += 1
    return out


def _free_levels(theta: float, L: float, e_min: float,
                 e_max: float) -> list[tuple[float, float]]:
    """Free quasi-1D levels E = 1 + 2n + K^2/2 in (e_min, e_max) at phase theta.

    Returns (E, K L) pairs with K L = 2 pi j + theta (j >= 0) or
    2 pi j - theta (j >= 1), theta folded to [0, pi].  Exact degeneracies
    are kept as repeated entries: at theta = 0 and pi the +/-K branches
    fold onto the same energy and both states exist.
    """
    theta = _fold_theta(theta)
    out: list[tuple[float, float]] = []
    n = 0
    while 1.0 + 2.0 * n < e_max:
        base = 1.0 + 2.0 * n
        for sign, j in ((1.0, 0), (-1.0, 1)):
            while True:
                knl = 2.0 * math.pi * j + sign * theta
                e = base + 0.5 * (knl / L) ** 2
                if e >= e_max:
                    break
                if e > e_min:
                    out.append((e, knl))
                j += 1
        n += 1
    return out


def lattice_sum_pole_energies(theta: float, L: float, e_min: float,
                              e_max: float) -> list[float]:
    """Energies in (e_min, e_max) where an open channel has cos(k_n L) = cos(theta).

    These are the poles of the propagating lattice sum: the free levels
    with K L > 0, which double as the free node-state energies.
    """
    levels = _free_levels(theta, L, e_min, e_max)
    return _dedup_sorted([e for e, knl in levels if knl > 1e-12], 1e-13)


def band_energies_at_theta(theta: float, config: ModelConfig, *,
                           e_min: float | None = None,
                           e_max: float | None = None,
                           scan_points: int = SCAN_POINTS) -> np.ndarray:
    """All band energies at one Bloch phase, sorted ascending."""
    return _band_energies_batch([theta], config, e_min=e_min, e_max=e_max,
                                scan_points=scan_points)[0]


def _band_energies_batch(thetas, config: ModelConfig, *,
                         e_min: float | None = None,
                         e_max: float | None = None,
                         scan_points: int = SCAN_POINTS) -> list[np.ndarray]:
    """Band energies at every Bloch phase of ``thetas``, one array each.

    Every phase gets its own breakpoints and scan pieces.  The residual
    runs on whole pieces, at most _SLICE_POINTS points per call, and one
    call may mix phases; the brackets of every phase are then refined in
    one Chandrupatla call.
    """
    model = config.scattering
    L = float(config.lattice_spacing)
    if e_min is None:
        e_min = config.energy_window[0]
    if e_max is None:
        e_max = config.energy_window[1]
    if not e_min < e_max:
        raise DomainError("need e_min < e_max")
    ths = [_fold_theta(th) for th in thetas]

    if getattr(model, "is_free", False):
        return [np.array(sorted(e for e, _ in _free_levels(th, L, e_min, e_max)))
                for th in ths]

    fixed = [e_min, e_max] + _thresholds_between(e_min, e_max)
    zeros_fn = getattr(model, "a_zero_energies_ho", None)
    if zeros_fn is not None:
        fixed += [z for z in zeros_fn() if e_min < z < e_max]

    starts: list[float] = []
    stops: list[float] = []
    owners: list[int] = []  # the phase of each piece
    for i, th in enumerate(ths):
        breaks = _dedup_sorted(
            fixed + lattice_sum_pole_energies(th, L, e_min, e_max), 1e-13)
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            if (hi - GUARD) - (lo + GUARD) > GUARD:
                starts.append(lo + GUARD)
                stops.append(hi - GUARD)
                owners.append(i)

    roots: list[list[float]] = [[] for _ in ths]
    owners = np.asarray(owners, dtype=int)
    phase = np.asarray(ths)[owners]  # per piece
    brackets = []
    per_call = max(1, _SLICE_POINTS // scan_points)  # whole pieces per call
    for p0 in range(0, owners.size, per_call):
        pcs = slice(p0, p0 + per_call)
        es = np.linspace(starts[pcs], stops[pcs], scan_points, axis=1)
        fs = dispersion_residual(es, phase[pcs, None], config).ravel()
        # the residual is NaN where the grid touches a lattice-sum pole and
        # infinite where an energy-dependent a(E) crosses zero; only finite
        # points are kept, and a piece needs two of them
        keep = np.isfinite(fs)
        es, fs = es.ravel()[keep], fs[keep]
        piece = p0 + np.flatnonzero(keep) // scan_points
        zero = np.flatnonzero(fs == 0.0)
        zero = zero[np.bincount(piece - p0)[piece[zero] - p0] >= 2]
        for p, e in zip(piece[zero], es[zero]):
            roots[owners[p]].append(float(e))
        flips = _sign_changes(fs)
        flips = flips[piece[flips] == piece[flips + 1]]
        brackets.append((es[flips], es[flips + 1], fs[flips], fs[flips + 1],
                         piece[flips]))
    if brackets:
        lo, hi, flo, fhi, piece = (np.concatenate(c) for c in zip(*brackets))
        # one vectorised solve across every bracket of every phase
        found = chandrupatla(
            lambda e, th: dispersion_residual(e, th, config), lo, hi, flo, fhi,
            atol=BISECT_TOL, rtol=1e-14, args=(phase[piece],))
        for i, r in zip(owners[piece], found):
            roots[i].append(float(r))

    out = []
    for th, rs in zip(ths, roots):
        if abs(math.sin(th)) < 1e-12:
            # node states are invisible to the residual: inject them
            rs += lattice_sum_pole_energies(th, L, e_min, e_max)
        out.append(np.array(_dedup_sorted(rs, _DEDUP_TOL)))
    return out


def _last_two_finite(values: list[float]):
    i1 = None
    i0 = None
    for i in range(len(values) - 1, -1, -1):
        if math.isfinite(values[i]):
            if i1 is None:
                i1 = i
            else:
                i0 = i
                break
    return i0, i1


def _group_tracks(theta_grid: np.ndarray, roots_list: list[np.ndarray],
                  L: float):
    """Group per-theta roots into continuous tracks.

    Each track is extended by the root closest to its linear prediction,
    subject to a jump guard of 10x the local secant; fresh tracks without a
    secant get a guard from the steepest possible band slope, |dE/dtheta|
    <= K_max / L at E = 1 + K^2/2.  Leftover roots start new tracks.  A
    root contested by two tracks marks both as a suspected band crossing.
    """
    n_grid = len(theta_grid)
    tracks: list[list[float]] = [[float(e)] for e in roots_list[0]]
    flagged: set[int] = set()

    top = max((float(np.max(r)) for r in roots_list if len(r)), default=1.0)
    step = float(np.max(np.diff(theta_grid))) if n_grid > 1 else 0.0
    slope_cap = math.sqrt(2.0 * max(top - 1.0, 0.125)) / L
    floor = max(_JUMP_FLOOR, 1.5 * slope_cap * step)

    for it in range(1, n_grid):
        roots = [float(r) for r in roots_list[it]]
        preds: list[tuple[float, float] | None] = []
        for tr in tracks:
            i0, i1 = _last_two_finite(tr)
            if i1 is None or it - i1 > 3:
                preds.append(None)  # dormant: stopped matching
                continue
            if i0 is None:
                slope = 0.0
                pred = tr[i1]
            else:
                slope = (tr[i1] - tr[i0]) / (i1 - i0)
                pred = tr[i1] + slope * (it - i1)
            preds.append((pred, max(10.0 * abs(slope), floor)))

        candidates = []
        best_root: dict[int, int] = {}
        for ti, p in enumerate(preds):
            if p is None:
                continue
            pred, guard = p
            dists = [(abs(r - pred), ri) for ri, r in enumerate(roots)]
            dists.sort()
            for d, ri in dists:
                if d <= guard:
                    candidates.append((d, ti, ri))
            if dists and dists[0][0] <= guard:
                best_root[ti] = dists[0][1]

        contested = {}
        for ti, ri in best_root.items():
            contested.setdefault(ri, []).append(ti)

        candidates.sort()
        used_t: set[int] = set()
        used_r: set[int] = set()
        assign: dict[int, int] = {}
        for _, ti, ri in candidates:
            if ti in used_t or ri in used_r:
                continue
            assign[ti] = ri
            used_t.add(ti)
            used_r.add(ri)

        # a contested root marks a crossing unless every contender still
        # received an equally good (degenerate) root
        for ri, tis in contested.items():
            if len(tis) <= 1:
                continue
            val = roots[ri]
            for ti in tis:
                got = assign.get(ti)
                if got is None or abs(roots[got] - val) > 1e-9 * max(1.0, abs(val)):
                    flagged.update(tis)
                    break

        for ti, tr in enumerate(tracks):
            tr.append(roots[assign[ti]] if ti in assign else math.nan)
        for ri, r in enumerate(roots):
            if ri not in used_r:
                tracks.append([math.nan] * it + [r])

    arrays = [np.array(tr) for tr in tracks]
    keep = [i for i, tr in enumerate(arrays) if np.isfinite(tr).any()]
    order = sorted(keep, key=lambda i: np.nanmin(arrays[i]))
    return [arrays[i] for i in order], [i in flagged for i in order]


def solve_bands(config: ModelConfig, n_bands: int = 4, *,
                theta_grid=None, e_min: float | None = None,
                e_max: float | None = None) -> list[Band]:
    """Solve the lowest ``n_bands`` Bloch bands over a theta grid on [0, pi]."""
    config = validate(config)
    if n_bands < 1:
        raise DomainError("n_bands must be >= 1")
    if theta_grid is None:
        theta_grid = np.linspace(0.0, math.pi, config.theta_grid_size)
    else:
        theta_grid = np.asarray(theta_grid, dtype=float)

    roots_list = _band_energies_batch(theta_grid, config, e_min=e_min,
                                      e_max=e_max)
    tracks, flags = _group_tracks(theta_grid, roots_list,
                                  config.lattice_spacing)
    if len(tracks) < n_bands:
        warnings.warn(
            f"found {len(tracks)} bands, {n_bands} requested; widen the window",
            RuntimeWarning, stacklevel=2,
        )
    if any(flags[:n_bands]):
        warnings.warn("suspected band crossing; both branches kept",
                      RuntimeWarning, stacklevel=2)

    tag = _model_tag(config.scattering)
    return [
        Band(index=i, thetas=theta_grid, energies=tracks[i],
             lattice_spacing=config.lattice_spacing, provenance=tag,
             crossing_suspected=flags[i])
        for i in range(min(n_bands, len(tracks)))
    ]


def _lowest_band_window(model, L: float) -> tuple[float, float]:
    """Search window that brackets the lowest physically relevant band.

    On the repulsive side (1/a > 0 at threshold) the deep two-body dimer
    band is skipped and the window brackets the lowest scattering band; on
    the attractive side the bound band itself is the lowest band.
    """
    if getattr(model, "is_free", False):
        return 0.9, 1.0 + 2.0 * (math.pi / L) ** 2
    if model.inv_a_of(1.0) > 0.0:
        e_b = single_impurity_bound_energy(model)
        return max(0.5 * (e_b + 1.0), 0.55), 1.0 + 2.0 * (math.pi / L) ** 2
    e_b = single_impurity_bound_energy(model)
    return e_b - 0.5, 1.0 - 1e-7


def effective_mass(band: Band, fit_fraction: float = 0.5, *,
                   min_points: int = 20) -> EffectiveMassFit:
    """Fit the band around its zone center q = 0 with an even polynomial.

    Uses grid points with |q| L / pi <= fit_fraction.  The curvature is
    normalized so a free band gives inv_mass_ratio = m/m_eff = 1.
    """
    if not 0.0 < fit_fraction <= 1.0:
        raise DomainError("fit_fraction must be in (0, 1]")
    th = np.asarray(band.thetas, dtype=float)
    en = np.asarray(band.energies, dtype=float)
    mask = np.isfinite(en) & (th <= fit_fraction * math.pi * (1.0 + 1e-12))
    n_used = int(np.count_nonzero(mask))
    if n_used < min_points:
        raise FitRankError(
            f"only {n_used} usable points in the fit window, need {min_points}"
        )
    q = th[mask] / band.lattice_spacing
    x = q * q
    cols = [np.ones_like(x), x, x * x, x * x * x]
    scales = np.array([max(float(np.max(np.abs(c))), 1e-300) for c in cols])
    design = np.column_stack([c / s for c, s in zip(cols, scales)])
    y = en[mask]
    coef_s, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 4:
        raise FitRankError("rank-deficient dispersion fit")
    coef = coef_s / scales
    resid = design @ coef_s - y
    return EffectiveMassFit(
        eps_b=float(coef[0]),
        inv_mass_ratio=float(2.0 * coef[1]),
        A=float(coef[2]),
        B=float(coef[3]),
        rms_residual=float(np.sqrt(np.mean(resid * resid))),
        n_points=n_used,
    )


def effective_mass_for_model(model, L: float, *, theta_points: int = 101,
                             fit_fraction: float = 0.5) -> EffectiveMassFit:
    """Effective mass of the lowest band (dimer band skipped for 1/a > 0)."""
    window = _lowest_band_window(model, L)
    config = ModelConfig(lattice_spacing=L, scattering=model,
                         theta_grid_size=theta_points, energy_window=window)
    bands = solve_bands(config, n_bands=1)
    if not bands:
        raise RootError("no band found in the effective-mass window")
    return effective_mass(bands[0], fit_fraction)


@dataclass(frozen=True)
class BandEdgeRow:
    """Band edges at theta = 0 and pi for one scattering length."""

    a: float
    band: int
    e_theta0: float
    e_thetapi: float
    flag: str = ""


def band_edges_vs_a(a_values, L: float, *,
                    n_bands: int = 3) -> list[BandEdgeRow]:
    """Sweep the contact scattering length and report band edges.

    Failures are flagged per row instead of aborting the sweep; bands whose
    edge intervals overlap a neighbor are flagged "overlap".
    """
    if n_bands < 1:
        raise DomainError("n_bands must be >= 1")
    a_values = np.asarray(a_values, dtype=float)
    e_hi = 1.0 + 0.5 * ((n_bands + 1) * math.pi / L) ** 2 + 2.0

    def edges_for(a: float):
        model = ConstantScatteringLength(float(a))
        e_b = 1.0 if model.is_free else single_impurity_bound_energy(model)
        e_lo = min(e_b - 0.5, 0.5)
        config = ModelConfig(lattice_spacing=L, scattering=model,
                             energy_window=(e_lo, e_hi))
        return _band_energies_batch([0.0, math.pi], config)

    rows: list[BandEdgeRow] = []
    results = [_guarded(edges_for, float(a)) for a in a_values]
    for a, res in zip(a_values, results):
        a = float(a)
        if isinstance(res, Exception):
            warnings.warn(f"band edges failed at a={a}: {res}",
                          RuntimeWarning, stacklevel=2)
            rows.extend(
                BandEdgeRow(a, b, math.nan, math.nan, "failed")
                for b in range(n_bands)
            )
            continue
        r0, rpi = res
        flags = ["" for _ in range(n_bands)]
        spans = []
        for b in range(n_bands):
            e0 = float(r0[b]) if b < r0.size else math.nan
            epi = float(rpi[b]) if b < rpi.size else math.nan
            spans.append((min(e0, epi), max(e0, epi)))
        for b in range(1, n_bands):
            if spans[b][0] < spans[b - 1][1]:
                flags[b - 1] = flags[b] = "overlap"
        for b in range(n_bands):
            e0 = float(r0[b]) if b < r0.size else math.nan
            epi = float(rpi[b]) if b < rpi.size else math.nan
            flag = flags[b]
            if not (math.isfinite(e0) and math.isfinite(epi)) and not flag:
                flag = "failed"
            rows.append(BandEdgeRow(a, b, e0, epi, flag))
    return rows


def _guarded(fn, *args):
    try:
        return fn(*args)
    except QuasiKpError as exc:
        return exc


@dataclass(frozen=True)
class EffectiveMassRow:
    """One effective-mass sample: NaN ratio and ok=False mark a failed fit."""

    a_axis: float
    eps_b: float
    inv_mass_ratio: float
    ok: bool


def effective_mass_vs_a(a_values, L: float, *, theta_points: int = 101,
                        fit_fraction: float = 0.5) -> list[EffectiveMassRow]:
    """Contact-model effective-mass sweep over the 3D scattering length."""
    out: list[EffectiveMassRow] = []

    def fit_at(a: float):
        return effective_mass_for_model(
            ConstantScatteringLength(a), L,
            theta_points=theta_points, fit_fraction=fit_fraction,
        )

    a_values = np.asarray(a_values, dtype=float)
    results = [_guarded(fit_at, float(a)) for a in a_values]
    for a, res in zip(a_values, results):
        if isinstance(res, Exception):
            warnings.warn(f"effective mass failed at a={a}: {res}",
                          RuntimeWarning, stacklevel=2)
            out.append(EffectiveMassRow(float(a), math.nan, math.nan, False))
        else:
            out.append(EffectiveMassRow(float(a), res.eps_b,
                                        res.inv_mass_ratio, True))
    return out
