"""Output checks against oracles that do not share the code under test.

Every check takes the rows of the table a request wrote and returns a list of
problems, empty when the output is right.  ``quick`` checks run on every
request.  ``deep`` checks call the costly oracles (brute-force lattice sums,
phase-shift extrapolation, DOP853); the runner applies them to a sample of
requests after its timed loop, so their memory does not count towards the
program's peak.  Their results depend only on their inputs and are cached.
"""

from __future__ import annotations

import csv
import math
import random
from functools import lru_cache

import numpy as np

# -zeta(1/2, 1): the closed-channel constant C at the lowest threshold
OLSHANII_C = 1.4603545088095868
# acceptance criterion 02: closed-form lattice sums agree with mode sums
LATTICE_SUM_TOL = 1e-6
# acceptance criterion 04: extrapolated a(0) against the closed form
A_ZERO_REL_TOL = 1e-2
# tests/test_atomion.py: Numerov phase shift against DOP853
PHASE_TOL = 1e-6
NODE_TOL = 1e-9
KP_TOL = 1e-7
DEEP_BAND_POINTS = 2
# greens_oracle's channel-sum extrapolation holds down to about E = -9
ORACLE_E_MIN = -8.0
# m_over_meff and a_axis against the same fit on DOP853 phase shifts
MEFF_TOL = 1e-5


def read_table(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(row, key) -> float:
    return float(row[key])


def guard_flags(rows) -> tuple[int, int]:
    """(rows flagged failed, rows flagged overlap)."""
    flags = [r.get("flag", "") for r in rows]
    return flags.count("failed"), flags.count("overlap")


# ------------------------------------------------------------ contact bands

def oracle_converges(E: float, theta: float, L: float) -> bool:
    """The convergence rule of ``quasikp selfcheck`` without its sampling
    range: away from thresholds and from open-channel phases k_m L +- theta
    near a multiple of 2 pi, where the Abel-summed oracle meets its 1e-6
    target."""
    if E < ORACLE_E_MIN:
        return False
    if min(abs(E - 1.0 - 2.0 * n) for n in range(max(0, int(E)) + 2)) < 0.05:
        return False
    dist = math.inf
    for m in range(int(math.floor((E - 1.0) / 2.0)) + 1):
        k = math.sqrt(2.0 * (E - 1.0 - 2.0 * m))
        for sign in (1.0, -1.0):
            phi = abs(math.fmod(k * L + sign * theta, 2.0 * math.pi))
            dist = min(dist, phi, 2.0 * math.pi - phi)
    return dist >= 0.12


def oracle_acceptable(E: float, theta: float, L: float) -> bool:
    """The sample rule of ``quasikp selfcheck``: generic theta, E in the
    first three open-channel windows, and a converging oracle."""
    return (1.05 < E < 6.95 and 0.15 < theta < math.pi - 0.15
            and oracle_converges(E, theta, L))


@lru_cache(maxsize=None)
def _c_half(E: float) -> float:
    """C(E)/2 from the raw channel sum: C(E) = 2 pi beta(E)."""
    from quasikp.greens_oracle import beta_bruteforce
    return math.pi * beta_bruteforce(E)


@lru_cache(maxsize=None)
def _bruteforce_green(E: float, theta: float, L: float) -> float:
    """C(E)/2 + 2L Lambda(E, theta), all from raw mode sums."""
    from quasikp.greens_oracle import lambda_bruteforce_reduced
    return _c_half(E) + 2.0 * L * lambda_bruteforce_reduced(E, theta, L)


def _bruteforce_residual(E: float, theta: float, L: float, a: float) -> float:
    """The dispersion residual -1/(2a) + C(E)/2 + 2L Lambda(E, theta)."""
    return -0.5 / a + _bruteforce_green(E, theta, L)


def _residual_or_none(E: float, theta: float, L: float, a: float):
    """The brute-force residual, or None where its extrapolation fails."""
    from quasikp.errors import OracleError
    try:
        return _bruteforce_residual(E, theta, L, a)
    except OracleError:
        return None


def _kp_mismatch(E: float, theta: float, g: float, L: float) -> float:
    """Textbook Kronig-Penney dispersion, relative to its largest term."""
    e = E - 1.0  # kp1d rows carry the transverse zero point
    if e >= 0.0:
        k = math.sqrt(2.0 * e)
        s = L if k == 0.0 else math.sin(k * L) / k
        lhs, scale = math.cos(k * L) + g * s - math.cos(theta), 1.0 + abs(g * s)
    else:
        # cosh(x) + g sinh(x)/kappa = cos(theta), divided through by cosh(x)
        # so that deep bound states (x = kappa L in the hundreds) stay finite
        kap = math.sqrt(-2.0 * e)
        x = kap * L
        t = math.tanh(x) / kap
        sech = 2.0 * math.exp(-x) / (1.0 + math.exp(-2.0 * x))
        lhs, scale = 1.0 + g * t - math.cos(theta) * sech, 1.0 + abs(g * t)
    return abs(lhs) / scale


def quick_contact_bands(params, rows):
    problems = []
    L, a = params["L"], params["a"]
    const = [r for r in rows if r["model"] == "constant-a"]
    kp = [r for r in rows if r["model"] == "kp1d-reduced"]
    expected = params["n_bands"] * params["theta_points"]
    for name, part in (("constant-a", const), ("kp1d-reduced", kp)):
        if len(part) != expected:
            problems.append(f"{name}: {len(part)} band points, expected {expected}")
    if any(math.isnan(_num(r, "E")) for r in rows):
        problems.append("NaN band point")
        return problems
    g = -1.0 / (-0.5 / a + 0.5 * OLSHANII_C)
    worst = max((_kp_mismatch(_num(r, "E"), _num(r, "theta"), g, L)
                 for r in kp), default=0.0)
    if worst > KP_TOL:
        problems.append(f"kp1d row off the Kronig-Penney dispersion by {worst:.1e}")
    return problems


def deep_contact_bands(params, rows, rng: random.Random):
    """Sampled generic-theta band points against raw mode sums."""
    L, a = params["L"], params["a"]
    pts = [(_num(r, "E"), _num(r, "theta")) for r in rows
           if r["model"] == "constant-a"]
    pts = [p for p in pts if oracle_acceptable(p[0], p[1], L)]
    tol = LATTICE_SUM_TOL * (2.0 * L + math.pi)
    problems = []
    for E, th in rng.sample(pts, min(DEEP_BAND_POINTS, len(pts))):
        res = _bruteforce_residual(E, th, L, a)
        if not abs(res) <= tol:
            problems.append(
                f"E={E!r} theta={th!r}: brute-force residual {res:.2e} > {tol:.1e}")
    return problems


# ------------------------------------------------------------ edge sweep

def node_levels(theta: float, L: float, e_max: float) -> list[float]:
    """Free levels 1 + 2n + K^2/2 with K L = 2 pi j +/- theta, theta in {0, pi}."""
    ks = []
    j = 1 if theta == 0.0 else 0
    while True:
        kl = 2.0 * math.pi * j + theta
        if 1.0 + 0.5 * (kl / L) ** 2 > e_max:
            break
        ks.append(kl / L)
        j += 1
    out = []
    n = 0
    while 1.0 + 2.0 * n <= e_max:
        out += [1.0 + 2.0 * n + 0.5 * k * k for k in ks
                if 1.0 + 2.0 * n + 0.5 * k * k <= e_max]
        n += 1
    return sorted(out)


def quick_edge_sweep(params, rows):
    problems = []
    if len(rows) != params["n_bands"]:
        return [f"{len(rows)} band-edge rows, expected {params['n_bands']}"]
    for key, theta in (("E_theta0", 0.0), ("E_thetapi", math.pi)):
        edges = [_num(r, key) for r in rows]
        if not all(math.isfinite(e) for e in edges):
            problems.append(f"NaN band point in {key}")
            continue
        # node states solve the dispersion at any coupling: every one below
        # the highest reported edge must be among the reported edges
        top = max(edges)
        for e in node_levels(theta, params["L"], top * (1 + NODE_TOL)):
            if min(abs(e - x) for x in edges) > NODE_TOL * max(1.0, e):
                problems.append(f"{key}: node level {e!r} missing")
    return problems


def _probe(lo: float, hi: float, theta: float, L: float, from_hi: bool):
    """The energy nearest one end of (lo, hi), in steps growing from 0.01,
    at which the brute-force oracle converges; None if there is none."""
    d = 0.01
    while d < 0.5 * (hi - lo):
        E = hi - d if from_hi else lo + d
        if oracle_converges(E, theta, L):
            return E
        d *= 1.5
    return None


def _edge_is_root(E: float, theta: float, L: float, a: float, tol: float,
                  breaks) -> str | None:
    """A problem if the brute-force residual shows that E is no root."""
    if not oracle_converges(E, theta, L):
        return None  # too close to a pole or threshold to tell
    res = _residual_or_none(E, theta, L, a)
    if res is None or abs(res) <= tol:
        return None
    # a steep residual: accept a sign change across E +- delta instead
    delta = 1e-6 * max(1.0, abs(E))
    if all(abs(E - x) > 2.0 * delta for x in breaks):
        lo = _residual_or_none(E - delta, theta, L, a)
        hi = _residual_or_none(E + delta, theta, L, a)
        if lo is None or hi is None or (lo > 0.0) != (hi > 0.0):
            return None
    return f"edge {E!r}: brute-force residual {res:.2e} > {tol:.1e}"


def deep_edge_sweep(params, rows, rng: random.Random):
    """Edges that are not node levels against raw mode sums.

    Between two consecutive poles of the lattice sum (the node levels) and
    transverse thresholds the residual is monotone, so each such interval
    holds at most one root.  Every reported edge must be a root, no interval
    may hold two, and every interval below the top edge whose brute-force
    residual changes sign between its probe points must hold a reported edge.
    """
    L, a = params["L"], params["a"]
    tol = LATTICE_SUM_TOL * (2.0 * L + math.pi)
    problems = []
    for key, theta in (("E_theta0", 0.0), ("E_thetapi", math.pi)):
        edges = sorted(_num(r, key) for r in rows)
        top = edges[-1]
        e_break = top + 4.0
        nodes = node_levels(theta, L, e_break)
        free = [e for e in edges
                if min((abs(e - x) for x in nodes), default=math.inf)
                > NODE_TOL * max(1.0, e)]
        thresholds = [1.0 + 2.0 * n for n in range(int(e_break // 2) + 1)]
        breaks = sorted(set(nodes + thresholds))
        for E in free:
            p = _edge_is_root(E, theta, L, a, tol, breaks)
            if p:
                problems.append(f"{key}: {p}")
        for lo, hi in zip([-math.inf] + breaks, breaks):
            inside = [e for e in free if lo < e < hi]
            if len(inside) > 1:
                problems.append(f"{key}: edges {inside} share one pole-free "
                                f"interval ({lo!r}, {hi!r})")
            if hi > top * (1.0 + NODE_TOL) or hi <= ORACLE_E_MIN:
                continue  # the top interval: roots above top are not listed
            if lo == -math.inf:
                p1 = lo = ORACLE_E_MIN
            else:
                p1 = _probe(lo, hi, theta, L, from_hi=False)
            p2 = _probe(lo, hi, theta, L, from_hi=True)
            if p1 is None or p2 is None or not p1 < p2:
                continue
            r1 = _residual_or_none(p1, theta, L, a)
            r2 = _residual_or_none(p2, theta, L, a)
            if r1 is None or r2 is None or (r1 > 0.0) == (r2 > 0.0):
                continue
            if not any(p1 <= e <= p2 for e in free):
                problems.append(f"{key}: the brute-force residual changes sign "
                                f"in ({p1!r}, {p2!r}) but no edge is reported there")
    return problems


# ------------------------------------------------------------ ion comb

def closed_form_a_of_b(b: float) -> float:
    """Zero-energy scattering length of -1/(r^2 + b^2)^2, in R*."""
    arg = 0.5 * math.pi * math.sqrt(1.0 + 1.0 / (b * b))
    return math.sqrt(1.0 + b * b) * math.cos(arg) / math.sin(arg)


def radius_for(a0: float) -> float:
    """b with a(0) = a0 and one bound state: b in (1/sqrt(15), 1/sqrt(3))."""
    from scipy.optimize import brentq
    lo = 1.0 / math.sqrt(15.0) * (1.0 + 1e-9)
    hi = 1.0 / math.sqrt(3.0) * (1.0 - 1e-9)
    return brentq(lambda b: closed_form_a_of_b(b) - a0, lo, hi, xtol=1e-15,
                  maxiter=500)


@lru_cache(maxsize=None)
def _a_zero_error(b: float, a0: float) -> float:
    from quasikp.atomion import a_zero_extrapolated
    return abs(a_zero_extrapolated(b) - a0) / abs(a0)


def _delta_dop853(k: float, b: float) -> float:
    from scipy.integrate import solve_ivp
    r_max = max(50.0, 20.0 / k, (1e10 / (k * k)) ** 0.25)

    def rhs(r, y):
        return [y[1], -(k * k + 1.0 / (r * r + b * b) ** 2) * y[0]]

    sol = solve_ivp(rhs, (1e-8, r_max), [0.0, 1.0], method="DOP853",
                    rtol=1e-11, atol=1e-13, dense_output=True)
    r1 = r_max - 0.5 * math.pi / k
    rho = sol.sol(r1)[0] / sol.sol(r_max)[0]
    num = rho * math.sin(k * r_max) - math.sin(k * r1)
    den = math.cos(k * r1) - rho * math.cos(k * r_max)
    return math.atan(num / den)


@lru_cache(maxsize=None)
def _phase_error(k: float, b: float) -> float:
    from quasikp.atomion import numerov_delta0
    d = numerov_delta0(k, b) - _delta_dop853(k, b)
    return abs(-((-d + 0.5 * math.pi) % math.pi - 0.5 * math.pi))


def quick_ion_comb(params, rows):
    problems = []
    models = sorted(r["model"] for r in rows)
    if models != ["contact", "energy-dependent"]:
        return [f"rows for {models}, expected contact and energy-dependent"]
    for r in rows:
        if not (math.isfinite(_num(r, "m_over_meff"))
                and math.isfinite(_num(r, "a_axis"))):
            problems.append(f"{r['model']}: NaN effective mass")
    return problems


def _table_momenta(rstar: float) -> np.ndarray:
    """The 60 momenta of the phase-shift table cmd_meff builds."""
    return np.linspace(math.sqrt(0.01), math.sqrt(max(0.5, 10.0 * rstar ** 2)), 60)


@lru_cache(maxsize=None)
def _dop853_row(a: float, rstar: float, L: float, theta_points: int):
    """The energy-dependent model on a phase-shift table integrated with
    DOP853 instead of Numerov, and the (a_axis, m_over_meff) the package
    fits on it."""
    from quasikp.atomion import ScatteringLengthTable
    from quasikp.bands import effective_mass_for_model
    from quasikp.quasi1d import EnergyDependentScatteringLength
    b = radius_for(a / rstar)
    ks = _table_momenta(rstar)
    table = ScatteringLengthTable(
        b, ks * ks, [_delta_dop853(float(k), b) for k in ks])
    model = EnergyDependentScatteringLength(table, rstar)
    fit = effective_mass_for_model(model, L, theta_points=theta_points)
    return model, float(model.a_of(fit.eps_b)), fit.inv_mass_ratio


def _energy_dependent_roots(model, L: float, rng: random.Random):
    """Band points of the energy-dependent model at one generic theta against
    raw mode sums, with -1/(2 a(E)) taken from the same model."""
    from quasikp.bands import band_energies_at_theta
    from quasikp.units import ModelConfig
    theta = rng.uniform(0.15, math.pi - 0.15)
    config = ModelConfig(lattice_spacing=L, scattering=model,
                         energy_window=(1.05, 3.0))
    pts = [float(E) for E in band_energies_at_theta(theta, config)
           if oracle_acceptable(float(E), theta, L)]
    tol = LATTICE_SUM_TOL * (2.0 * L + math.pi)
    problems = []
    for E in rng.sample(pts, min(DEEP_BAND_POINTS, len(pts))):
        res = _bruteforce_green(E, theta, L) - 0.5 * model.inv_a_of(E)
        if not abs(res) <= tol:
            problems.append(f"energy-dependent E={E!r} theta={theta!r}: "
                            f"brute-force residual {res:.2e} > {tol:.1e}")
    return problems


def deep_ion_comb(params, rows, rng: random.Random):
    """The atom-ion layer at the request's radius b: extrapolated a(0)
    against the closed form, one table phase shift against DOP853, the
    energy-dependent row against the same fit on DOP853 phase shifts, and
    that fit's band points against raw mode sums."""
    rstar = params["rstar"]
    a0 = params["a"] / rstar
    b = radius_for(a0)
    problems = []
    err = _a_zero_error(b, a0)
    if not err <= A_ZERO_REL_TOL:
        problems.append(f"b={b!r}: extrapolated a(0) off by {err:.1e} relative")
    ks = _table_momenta(rstar)
    k = float(ks[rng.randrange(ks.size)])
    err = _phase_error(k, b)
    if not err <= PHASE_TOL:
        problems.append(f"k={k!r} b={b!r}: Numerov vs DOP853 {err:.1e} rad")
    model, a_axis, m_ratio = _dop853_row(params["a"], rstar, params["L"],
                                         params["theta_points"])
    row = next(r for r in rows if r["model"] == "energy-dependent")
    for key, want in (("a_axis", a_axis), ("m_over_meff", m_ratio)):
        got = _num(row, key)
        if not abs(got - want) <= MEFF_TOL * max(1.0, abs(want)):
            problems.append(f"energy-dependent {key} {got!r}, "
                            f"{want!r} on DOP853 phase shifts")
    problems += _energy_dependent_roots(model, params["L"], rng)
    return problems


QUICK = {
    "contact-bands": quick_contact_bands,
    "edge-sweep": quick_edge_sweep,
    "ion-comb": quick_ion_comb,
}
DEEP = {
    "contact-bands": deep_contact_bands,
    "edge-sweep": deep_edge_sweep,
    "ion-comb": deep_ion_comb,
}


def _guarded(fn, *args) -> list[str]:
    try:
        return fn(*args)
    except Exception as exc:  # the package raised inside an oracle
        return [f"check raised {type(exc).__name__}: {exc}"]


def quick(workload: str, params: dict, rows) -> list[str]:
    problems = _guarded(QUICK[workload], params, rows)
    failed, _ = guard_flags(rows)
    if failed:
        problems.append(f"{failed} rows flagged failed")
    return problems


def deep(workload: str, params: dict, rows, rng: random.Random) -> list[str]:
    fn = DEEP.get(workload)
    return _guarded(fn, params, rows, rng) if fn else []
