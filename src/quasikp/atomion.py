"""Atom-ion scattering on the regularized polarization potential.

Ion units throughout: 2m = hbar = R* = 1, so V(r) = -1/(r^2 + b^2)^2 and
E = k^2.  The regularization radius b controls both the zero-energy
scattering length and the number of two-body bound states; new states
enter at b_n = 1/sqrt(4 n^2 - 1) where a(b) has a pole.

The s-wave radial equation u'' + (k^2 - V) u = 0 is integrated with the
Numerov three-term recurrence, solved for the whole grid at once as one
banded lower-triangular system (LAPACK dtbtrs), which is the same forward
march done in compiled code.  The march stops at R = 30, where the local
phase delta_R = atan2(k u, u') - kR is read; the potential beyond R adds
the first-order variable-phase tail (1/k) int_R^inf sin^2(kr + delta_R)
/ (r^2 + b^2)^2 dr, taken on a fixed Gauss-Legendre rule in t = R/r.
This gives the phase shift delta0(k).  Tabulated phase shifts feed the
energy-dependent scattering model of the waveguide dispersion through
a(E) = -tan(delta0)/k.

scipy supplies the banded solver and the table's interpolant.  It is
imported on the first march and the first table, so the contact-only
commands never load it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._roots import _ROOT_RTOL, _sign_changes, chandrupatla
from .errors import (
    DomainError,
    GridError,
    PrecisionWarning,
    ResonanceError,
    RootError,
    ThresholdError,
)

R_MAX_CAP = 5000.0
R_BOX = 30.0  # end of the Numerov march; the tail beyond is analytic
_TAIL_NODES = 400
RESONANCE_A_CUT = 1e3


@dataclass(frozen=True)
class RegularizedPotential:
    """V(r) = -1/(r^2 + b^2)^2, the polarization tail with a softened core."""

    b: float

    def __post_init__(self):
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise DomainError("regularization radius b must be > 0")

    def __call__(self, r):
        rr = np.asarray(r, dtype=float)
        out = -1.0 / (rr * rr + self.b * self.b) ** 2
        return float(out) if rr.ndim == 0 else out


def threshold_b(n: int) -> float:
    """Regularization radius where the n-th bound state enters, 1/sqrt(4n^2-1)."""
    if n < 1:
        raise DomainError("bound states are indexed from 1")
    return 1.0 / math.sqrt(4.0 * n * n - 1.0)


def a_of_b(b: float) -> float:
    """Zero-energy scattering length sqrt(1+b^2) cot(pi/2 sqrt(1+1/b^2)).

    Monotonically increasing on each interval between consecutive poles
    b_{n+1} < b < b_n.  Evaluated as -sqrt(1+b^2) tan(x) with the
    cotangent's argument written pi/2 + x, x = (pi/2)(1/b^2) /
    (sqrt(1+1/b^2) + 1): for large b, x ~ pi/(4 b^2) keeps its relative
    accuracy where pi/2 + x would lose it to cancellation.
    """
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError("regularization radius b must be > 0")
    inv2 = 1.0 / (b * b)
    x = 0.5 * math.pi * inv2 / (math.sqrt(1.0 + inv2) + 1.0)
    return -math.sqrt(1.0 + b * b) * math.tan(x)


def bound_state_count(b: float) -> int:
    """Number of two-body bound states, floor(sqrt(1+1/b^2)/2).

    Exactly at a threshold b_n the count is ill-defined (a state sits at
    zero energy) and ThresholdError is raised.
    """
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError("regularization radius b must be > 0")
    val = 0.5 * math.sqrt(1.0 + 1.0 / (b * b))
    if abs(val - round(val)) < 1e-12 and round(val) >= 1:
        raise ThresholdError(f"b = {b!r} sits on a bound-state threshold")
    return int(math.floor(val))


def invert_a_of_b(a_target: float, n_bound: int = 1) -> float:
    """Radius b with scattering length a_target and exactly n_bound bound states.

    Each branch of a(b) spans all of (-inf, +inf) except the outermost
    (n_bound = 0) one, which only reaches negative values.
    """
    if not math.isfinite(a_target):
        raise DomainError("target scattering length must be finite")
    if n_bound < 0:
        raise DomainError("n_bound must be >= 0")
    if n_bound == 0:
        if a_target >= 0.0:
            raise DomainError("with no bound state the scattering length is negative")
        lo = threshold_b(1) * (1.0 + 1e-9)
        hi = max(1.0, math.pi / (2.0 * abs(a_target)))
        while a_of_b(hi) <= a_target:
            hi *= 2.0
            if hi > 1e9:  # pragma: no cover
                raise RootError("bracket search for b ran away")
    else:
        lo = threshold_b(n_bound + 1) * (1.0 + 1e-9)
        hi = threshold_b(n_bound) * (1.0 - 1e-9)
    f_lo = a_of_b(lo) - a_target
    f_hi = a_of_b(hi) - a_target
    if not (f_lo < 0.0 < f_hi):
        raise RootError("a(b) bracket failed; a_target beyond branch margin")
    f = lambda bs: [a_of_b(float(b)) - a_target for b in bs]
    return float(chandrupatla(f, [lo], [hi], [f_lo], [f_hi], atol=0.0,
                              rtol=_ROOT_RTOL)[0])


def _numerov_integrate(g: np.ndarray, h: float) -> np.ndarray:
    """Solve u'' + g u = 0 from u(0) = 0, u(h) = h across the whole grid.

    The Numerov three-term recurrence
    t[n+1] u[n+1] - a[n] u[n] + t[n-1] u[n-1] = 0, with w = h^2 g / 12,
    t = 1 + w and a = 2 - 10 w, is a lower-triangular banded system of
    bandwidth 2 in the unknowns u[2:].  One LAPACK banded triangular
    solve is the forward substitution that marches the recurrence step by
    step, in compiled code; the two agree up to rounding.  A zero on the
    diagonal t[2:] raises GridError.
    """
    # scipy.linalg costs about 0.35 s to import: only the ion path pays it
    from scipy.linalg.lapack import dtbtrs

    w = (h * h / 12.0) * g
    t = 1.0 + w
    a = 2.0 - 10.0 * w
    m = t.size - 2
    if m < 1:
        return np.array([0.0, h])
    # Fortran order: LAPACK reads the band column by column
    ab = np.empty((3, m), order="F")
    ab[0] = t[2:]
    ab[1] = -a[2:]
    ab[2] = t[2:]
    rhs = np.zeros((m, 1))
    rhs[0, 0] = a[1] * h
    if m > 1:
        rhs[1, 0] = -t[1] * h
    x, info = dtbtrs(ab, rhs, uplo="L", overwrite_b=1)
    if info != 0:
        raise GridError(
            f"singular Numerov march (LAPACK info {info}): t = 1 + h^2 g / 12 is 0"
        )
    return np.concatenate(([0.0, h], x[:, 0]))


def _default_step(b: float, k: float) -> float:
    # resolve the core wavenumber ~1/b^2 and the free wavelength
    h = min(0.01, 0.1 * b * b)
    if k > 0.0:
        h = min(h, 0.25 / k)
    return h


@functools.cache
def _tail_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (0, 1), built on first use."""
    t, w = np.polynomial.legendre.leggauss(_TAIL_NODES)
    return 0.5 * (t + 1.0), 0.5 * w


def _tail_phase(k: float, b: float, r_box: float, delta_r: float) -> float:
    """First-order variable-phase tail (1/k) int_R^inf sin^2(kr + delta_R) |V| dr.

    The phase function obeys delta' = -(1/k) V sin^2(kr + delta).  Beyond
    R = 30 it moves by less than 1e-4 rad for k >= 0.1 (2e-3 at k =
    0.004), so it is held at its box-end value delta_R in the integrand:
    phase shifts with the box end at R and at 2R agree to 1e-7 rad.  The
    integral is taken in t = R/r, dr = (r^2/R) dt, on the fixed rule.
    """
    t, w = _tail_rule()
    r = r_box / t
    f = np.sin(k * r + delta_r) ** 2 * (r * r / r_box) / (r * r + b * b) ** 2
    return float(w @ f) / k


def _delta_on_grid(k: float, b: float, h: float, r_box: float = R_BOX) -> float:
    """Phase shift from one march to r_box at step h, plus the tail."""
    n = int(math.ceil(r_box / h))  # the box end R = n h
    if n < 2:
        raise GridError(f"step {h} too coarse for a box of {r_box}")
    pot = RegularizedPotential(b)
    r = np.arange(n + 3) * h
    u = _numerov_integrate(k * k - pot(r), h)
    # fourth-order central difference at R; u ~ sin(kr + delta_R) there
    du = (u[n - 2] - 8.0 * u[n - 1] + 8.0 * u[n + 1] - u[n + 2]) / (12.0 * h)
    delta_r = _wrap_half_pi(math.atan2(k * u[n], du) - k * r[n])
    return _wrap_half_pi(delta_r + _tail_phase(k, b, r[n], delta_r))


def _wrap_half_pi(x: float) -> float:
    """Reduce a phase difference modulo pi into (-pi/2, pi/2]."""
    return -((-x + 0.5 * math.pi) % math.pi - 0.5 * math.pi)


def numerov_delta0(k: float, b: float, *, h: float | None = None,
                   refine: bool = True, tol: float = 1e-6) -> float:
    """s-wave phase shift delta0(k) modulo pi, in (-pi/2, pi/2].

    The Numerov march stops at R = R_BOX; the local phase there,
    delta_R = atan2(k u, u') - kR, takes the rest of the potential from
    the first-order variable-phase tail (F. Calogero, Variable Phase
    Approach to Potential Scattering, 1967).  The step resolves both the
    core and the free wave.  With refine=True the step is halved until
    two consecutive answers agree to tol radians.  Momenta below 0.004,
    where the -1/r^4 tail stays above 1e-10 k^2 out to R_MAX_CAP, raise
    GridError: a = -tan(delta0)/k would magnify the march's error more than
    250-fold.
    """
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError("momentum k must be > 0")
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError("regularization radius b must be > 0")
    if (1e10 / (k * k)) ** 0.25 > R_MAX_CAP:
        raise GridError(f"k = {k!r} is below the smallest momentum 0.004")
    if h is None:
        h = _default_step(b, k)
    delta = _delta_on_grid(k, b, h)
    if not refine:
        return delta
    for _ in range(3):
        h *= 0.5
        refined = _delta_on_grid(k, b, h)
        if abs(_wrap_half_pi(refined - delta)) <= tol:
            return refined
        delta = refined
    raise GridError(
        f"phase shift not converged to {tol} rad under step halving at k={k}"
    )


def numerov_node_count(b: float, *, k: float = 0.0, r_core: float = 50.0,
                       h: float | None = None) -> int:
    """Nodes of the regular radial solution on (0, r_core], plus the far node.

    At k = 0 the solution is asymptotically u ~ (r - a); when u still heads
    for a sign change beyond the box (u and u' of opposite sign) that node
    is counted too, so the zero-energy count equals the number of bound
    states for any a.
    """
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError("regularization radius b must be > 0")
    if k < 0.0:
        raise DomainError("momentum k must be >= 0")
    if h is None:
        h = _default_step(b, k)
    pot = RegularizedPotential(b)
    n_steps = int(math.ceil(r_core / h))
    r = np.arange(n_steps + 1) * h
    u = _numerov_integrate(k * k - pot(r), h)
    signs = np.sign(u[1:])
    nz = signs != 0.0
    s = signs[nz]
    count = int(np.count_nonzero(s[:-1] != s[1:]))
    if k == 0.0 and u[-1] * (u[-1] - u[-2]) < 0.0:
        count += 1
    return count


def count_transition_b(lo: float, hi: float, *, k: float = 0.0) -> float:
    """Radius between lo and hi where the node count changes, to 1e-6 relative.

    The sign function is +1 where the count equals the count at hi and -1
    elsewhere; on a two-valued function Chandrupatla's method always
    bisects, one Numerov march per step.
    """
    if not 0.0 < lo < hi:
        raise DomainError("need 0 < lo < hi")
    c_lo = numerov_node_count(lo, k=k)
    c_hi = numerov_node_count(hi, k=k)
    if c_lo == c_hi:
        raise RootError("node count does not change on [lo, hi]")
    f = lambda bs: [1.0 if numerov_node_count(float(b), k=k) == c_hi else -1.0
                    for b in bs]
    return float(chandrupatla(f, [lo], [hi], [-1.0], [1.0], atol=0.0,
                              rtol=1e-6)[0])


def _phase_shifts(b: float, ks, numerov_kw: dict) -> list[float]:
    """numerov_delta0 at every momentum of ks."""
    return [numerov_delta0(float(k), b, **numerov_kw) for k in ks]


def a_from_delta(k: float, delta: float) -> float:
    """Energy-dependent scattering length a(k) = -tan(delta0)/k."""
    return -math.tan(delta) / k


def a_low_energy(a0: float, k: float) -> float:
    """Threshold expansion a(k) = a(0) + (pi/3) k for the -1/r^4 tail."""
    if k < 0.0:
        raise DomainError("momentum k must be >= 0")
    if k > 0.3:
        warnings.warn(
            "threshold expansion dubious for k > 0.3", PrecisionWarning,
            stacklevel=2,
        )
    return a0 + (math.pi / 3.0) * k


def a_zero_extrapolated(b: float, k_values=(0.02, 0.04, 0.08, 0.16)) -> float:
    """Zero-energy scattering length extrapolated from finite-k phase shifts.

    The polarization tail forces a(k) = a(0) + (pi/3) k + c k^2 log k + d k^2
    near threshold.  The exact linear term is subtracted and the remainder is
    fit on the basis {1, k^2, k^2 log k}; the constant term is a(0).
    """
    ks = np.asarray(k_values, dtype=float)
    if ks.size < 3:
        raise DomainError("need at least three momenta to extrapolate")
    if np.any(ks > 0.3):
        warnings.warn(
            "threshold expansion dubious for k > 0.3", PrecisionWarning,
            stacklevel=2,
        )
    vals = np.array(
        [a_from_delta(k, numerov_delta0(k, b)) - (math.pi / 3.0) * k for k in ks]
    )
    design = np.column_stack([np.ones_like(ks), ks * ks, ks * ks * np.log(ks)])
    coef, _, _, _ = np.linalg.lstsq(design, vals, rcond=None)
    return float(coef[0])


class ScatteringLengthTable:
    """Monotone-in-E interpolation of tabulated s-wave phase shifts.

    Phase shifts are unwrapped modulo pi so delta(E) is continuous, then
    interpolated shape-preservingly.  Derived quantities: a(E) with its
    resonance poles flagged, the smooth 1/a(E), the energies where a(E)
    crosses zero, and the resonance positions themselves.
    """

    def __init__(self, b: float, energies, deltas):
        from scipy.interpolate import PchipInterpolator

        e = np.asarray(energies, dtype=float)
        d = np.asarray(deltas, dtype=float)
        if e.ndim != 1 or e.shape != d.shape or e.size < 4:
            raise DomainError("need matching 1D arrays of at least 4 samples")
        order = np.argsort(e)
        e = e[order]
        d = np.unwrap(d[order], period=math.pi)
        if np.any(e <= 0.0) or np.any(np.diff(e) <= 0.0):
            raise DomainError("energies must be positive and distinct")
        self.b = float(b)
        self.energies = e
        self.deltas = d
        self._spline = PchipInterpolator(e, d, extrapolate=False)
        with np.errstate(divide="ignore", over="ignore"):
            a_grid = -np.tan(d) / np.sqrt(e)
        self._resonance_intervals = self._find_runs(np.abs(a_grid) > RESONANCE_A_CUT)
        self.a_zero_energies = self._zeros_of(np.sin).tolist()

    @classmethod
    def from_potential(cls, b: float, *, e_min: float = 0.01, e_max: float = 6.0,
                       n: int = 120, **numerov_kw) -> "ScatteringLengthTable":
        if not 0.0 < e_min < e_max:
            raise DomainError("need 0 < e_min < e_max")
        ks = np.linspace(math.sqrt(e_min), math.sqrt(e_max), n)
        return cls(b, ks * ks, _phase_shifts(b, ks, numerov_kw))

    @classmethod
    def for_comb(cls, b: float, r_star_ratio: float,
                 e_max: float) -> "ScatteringLengthTable":
        """The table a comb of ions needs for Bloch energies up to e_max.

        r_star_ratio is R*/a_perp and e_max the top of the band window in
        hbar omega_perp, which the ion sees at E* = 2 (R*/a_perp)^2 e_max.
        The table spans E* = 0.01 to 1.25 times that, and at least to 0.5,
        on 60 momenta.
        """
        top = max(0.5, 2.5 * r_star_ratio * r_star_ratio * e_max)
        return cls.from_potential(b, e_min=0.01, e_max=top, n=60)

    @property
    def e_min(self) -> float:
        return float(self.energies[0])

    @property
    def e_max(self) -> float:
        return float(self.energies[-1])

    def _find_runs(self, flags: np.ndarray) -> list[tuple[float, float]]:
        out = []
        i = 0
        n = flags.size
        while i < n:
            if flags[i]:
                j = i
                while j + 1 < n and flags[j + 1]:
                    j += 1
                # widen by a sample so the guard covers the true pole
                out.append((float(self.energies[max(i - 1, 0)]),
                            float(self.energies[min(j + 1, n - 1)])))
                i = j + 1
            else:
                i += 1
        return out

    def _zeros_of(self, fn) -> np.ndarray:
        """Sorted energies where fn(delta(E)) vanishes on the table range.

        fn(delta) is continuous, so every sign change between neighbouring
        samples holds a zero; each is refined on the interpolant.  Samples
        where fn is exactly zero count too.  With fn = sin these are the
        zeros of a(E), with fn = cos its poles.
        """
        e = self.energies
        v = fn(self.deltas)
        i = _sign_changes(v)
        found = chandrupatla(lambda x: fn(self._spline(x)), e[i], e[i + 1],
                             v[i], v[i + 1], atol=0.0, rtol=_ROOT_RTOL)
        return np.sort(np.concatenate([e[v == 0.0], found]))

    def _check_range(self, e: np.ndarray):
        if np.any(e < self.e_min) or np.any(e > self.e_max):
            raise DomainError(
                f"energy outside table range [{self.e_min:.4g}, {self.e_max:.4g}]"
            )

    def delta_of_e(self, e):
        arr = np.asarray(e, dtype=float)
        self._check_range(arr)
        out = self._spline(arr)
        return float(out) if arr.ndim == 0 else out

    def a_of_e(self, e, *, allow_resonant: bool = False):
        arr = np.asarray(e, dtype=float)
        self._check_range(arr)
        if not allow_resonant:
            for lo, hi in self._resonance_intervals:
                if np.any((arr >= lo) & (arr <= hi)):
                    raise ResonanceError(
                        f"a(E) is resonant on [{lo:.4g}, {hi:.4g}] E*"
                    )
        with np.errstate(divide="ignore", over="ignore"):
            out = -np.tan(self._spline(arr)) / np.sqrt(arr)
        return float(out) if arr.ndim == 0 else out

    def inv_a_of_e(self, e):
        """1/a(E) = -sqrt(E) cot(delta0); smooth through the a(E) poles."""
        arr = np.asarray(e, dtype=float)
        self._check_range(arr)
        d = self._spline(arr)
        with np.errstate(divide="ignore"):
            out = -np.sqrt(arr) * np.cos(d) / np.sin(d)
        return float(out) if arr.ndim == 0 else out

    @property
    def resonance_intervals(self) -> list[tuple[float, float]]:
        return list(self._resonance_intervals)


def a_of_e_table(b: float, energies, **numerov_kw) -> ScatteringLengthTable:
    """Phase-shift table for radius b at the given energies (E*)."""
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1 or np.any(e <= 0.0):
        raise DomainError("energies must be a 1D positive array")
    return ScatteringLengthTable(b, e, _phase_shifts(b, np.sqrt(e), numerov_kw))


def find_resonance(table: ScatteringLengthTable, e_lo: float | None = None,
                   e_hi: float | None = None) -> float:
    """First pole of a(E) in [e_lo, e_hi]: the first zero of cos(delta0(E)).

    a(E) = -tan(delta0)/k has its poles exactly where cos(delta0) = 0, and
    cos(delta0(E)) is continuous, so a sign change between two table
    samples proves a pole between them; zeros of a(E) (sin(delta0) = 0)
    cannot be mistaken for one.
    """
    lo = table.e_min if e_lo is None else max(e_lo, table.e_min)
    hi = table.e_max if e_hi is None else min(e_hi, table.e_max)
    if not lo < hi:
        raise DomainError("empty resonance search window")
    in_window = (table.energies >= lo) & (table.energies <= hi)
    if np.count_nonzero(in_window) < 3:
        raise DomainError("too few table samples in the search window")
    poles = table._zeros_of(np.cos)
    poles = poles[(poles >= lo) & (poles <= hi)]
    if poles.size == 0:
        raise RootError("no a(E) pole found in the window")
    return float(poles[0])
