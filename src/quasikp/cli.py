"""Command line interface producing the standard output tables.

Every subcommand writes one deterministic table (CSV by default, JSON as
column arrays with ``--format json``) and prints the output path.  Options
may also come from a JSON config file (``--config``); explicit flags win
over the file, the file wins over built-in defaults.

Exit codes: 0 success, 2 bad configuration, 3 solver failure,
4 selfcheck failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .atomion import (
    ScatteringLengthTable,
    a_low_energy,
    a_zero_extrapolated,
    invert_a_of_b,
)
from .bands import (
    band_edges_vs_a,
    band_window_floor,
    effective_mass_for_model,
    effective_mass_vs_a,
    solve_bands,
)
from .errors import ConfigError, QuasiKpError
from .greens_oracle import (
    beta_bruteforce,
    lambda_bruteforce_reduced,
    zeta_half_bruteforce,
)
from .kp1d import Kp1dParams, kp1d_bands_batch
from .quasi1d import (
    ConstantScatteringLength,
    EnergyDependentScatteringLength,
    a1d_eff,
    a1d_of_e,
    c_of_e,
    lambda_e,
    lambda_p,
    olshanii_constant,
)
from .specfun import hurwitz_zeta_half
from .units import ModelConfig

MODEL_TAGS = ("constant-a", "energy-dependent", "kp1d-reduced")


# ---------------------------------------------------------------- plumbing

def _fmt(value) -> str:
    # repr is the shortest form that reads back as the same float
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(float(value))
    return str(value)


def _resolve_out(args, stem: str) -> Path:
    fmt = args.format
    if args.out:
        return Path(args.out)
    return Path(f"{stem}.{fmt}")


def _write_table(path: Path, header: list[str], rows: list[tuple],
                 fmt: str) -> None:
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return
    cols: dict[str, list] = {h: [] for h in header}
    for row in rows:
        for h, v in zip(header, row):
            if isinstance(v, float) and math.isnan(v):
                v = None
            cols[h].append(v)
    path.write_text(json.dumps(cols, indent=1) + "\n", encoding="utf-8")


class _Options:
    """Flag > config file > default, with unknown config keys rejected."""

    def __init__(self, args: argparse.Namespace):
        self._args = args
        self._cfg: dict = {}
        if getattr(args, "config", None):
            path = Path(args.config)
            if not path.exists():
                raise ConfigError([f"config file not found: {path}"])
            try:
                self._cfg = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise ConfigError([f"config file is not valid JSON: {exc}"])
            if not isinstance(self._cfg, dict):
                raise ConfigError(["config file must hold a JSON object"])
            known = set(vars(args))
            bad = sorted(set(self._cfg) - known)
            if bad:
                raise ConfigError([f"unknown config key: {k}" for k in bad])

    def get(self, name: str, default):
        flag = getattr(self._args, name, None)
        if flag is not None:
            return flag
        if name in self._cfg:
            return self._cfg[name]
        return default


def _resolve_b(opts: _Options, *, a0: float | None = None) -> float:
    """Regularization radius: --b wins, else invert a(0) = --a0 [R*].

    ``a0`` is the fallback when the command has no --a0 of its own.
    """
    b = opts.get("b", None)
    if b is not None:
        b = float(b)
        if b <= 0.0:
            raise ConfigError(["b must be > 0"])
        return b
    a0 = opts.get("a0", a0)
    if a0 is None:
        raise ConfigError(["need either --b or --a0"])
    n_bound = 1 if opts.get("one_bound_state", False) else int(opts.get("n_bound", 1))
    b = invert_a_of_b(float(a0), n_bound)
    print(f"resolved b = {b:.10g} (a(0) = {float(a0):.6g} R*, "
          f"{n_bound} bound state{'s' if n_bound != 1 else ''})")
    return b


# ---------------------------------------------------------------- commands

def cmd_bands(args) -> int:
    opts = _Options(args)
    L = float(opts.get("L", 15.0))
    a = float(opts.get("a", 0.1))
    rstar = float(opts.get("rstar", 0.1))
    theta_points = int(opts.get("theta_points", 101))
    e_max = float(opts.get("energy_max", 7.0))
    n_bands = int(opts.get("n_bands", 4))
    errors = []
    if n_bands < 1:
        errors.append("--n-bands must be >= 1")
    if theta_points < 2:
        errors.append("--theta-points must be >= 2")
    if errors:
        raise ConfigError(errors)
    models = opts.get("models", list(MODEL_TAGS))
    for tag in models:
        if tag not in MODEL_TAGS:
            raise ConfigError([f"unknown model tag {tag!r}"])

    const_model = ConstantScatteringLength(a)
    e_lo = band_window_floor(const_model, L)

    rows: list[tuple] = []

    if "constant-a" in models:
        config = ModelConfig(lattice_spacing=L, scattering=const_model,
                             theta_grid_size=theta_points,
                             energy_window=(e_lo, e_max))
        for band in solve_bands(config, n_bands):
            rows += [("constant-a", float(th), band.index, float(e))
                     for th, e in zip(band.thetas, band.energies)]

    if "energy-dependent" in models:
        if rstar <= 0.0:
            raise ConfigError(["energy-dependent bands need --rstar > 0"])
        if const_model.is_free:
            raise ConfigError(["energy-dependent bands need a != 0"])
        b = _resolve_b(opts, a0=a / rstar)
        table = ScatteringLengthTable.from_potential(
            b, e_min=0.01,
            e_max=max(0.5, 2.5 * rstar * rstar * e_max), n=60,
        )
        en_model = EnergyDependentScatteringLength(table, rstar)
        config = ModelConfig(lattice_spacing=L, scattering=en_model,
                             theta_grid_size=theta_points,
                             energy_window=(e_lo, e_max))
        for band in solve_bands(config, n_bands):
            rows += [("energy-dependent", float(th), band.index, float(e))
                     for th, e in zip(band.thetas, band.energies)]

    if "kp1d-reduced" in models:
        # the axial 1D model: contact coupling from a1d at the lowest
        # threshold, energies offset by the transverse zero point
        g = 0.0 if const_model.is_free else -1.0 / a1d_of_e(1.0, const_model)
        params = Kp1dParams(g1d=g, L=L)
        thetas = np.linspace(0.0, math.pi, theta_points)
        for th, es in zip(thetas, kp1d_bands_batch(params, thetas, n_bands)):
            rows += [("kp1d-reduced", float(th), i, 1.0 + float(e))
                     for i, e in enumerate(es)]

    out = _resolve_out(args, "fig3_bands")
    _write_table(out, ["model", "theta", "band", "E"], rows, args.format)
    print(f"wrote {out}")
    return 0


def cmd_bands_vs_a(args) -> int:
    opts = _Options(args)
    Ls = [float(v) for v in opts.get("L", [1.0, 5.0, 15.0])]
    a_values = opts.get("a", None)
    if a_values is None:
        a_values = np.linspace(-2.0, 2.0, 41)
    a_values = [float(v) for v in np.atleast_1d(np.asarray(a_values, dtype=float))]
    n_bands = int(opts.get("n_bands", 3))
    if n_bands < 1:
        raise ConfigError(["--n-bands must be >= 1"])

    header = ["a_over_aperp", "band", "E_theta0", "E_thetapi", "flag"]
    for L in Ls:
        rows = [(r.a, r.band, r.e_theta0, r.e_thetapi, r.flag)
                for r in band_edges_vs_a(a_values, L, n_bands=n_bands)]
        if len(Ls) > 1:
            suffix = f"_L{format(L, 'g').replace('.', 'p')}"
            base = _resolve_out(args, "fig4_band_edges")
            out = base.with_stem(base.stem + suffix)
        else:
            out = _resolve_out(args, "fig4_band_edges")
        _write_table(out, header, rows, args.format)
        print(f"wrote {out}")
    return 0


def cmd_scatlen(args) -> int:
    opts = _Options(args)
    points = int(opts.get("points", 160))
    if points < 4:
        raise ConfigError(["--points must be >= 4"])
    b = _resolve_b(opts)
    e_min = float(opts.get("e_min", 0.01))
    e_max = float(opts.get("energy_max", 6.0))
    table = ScatteringLengthTable.from_potential(b, e_min=e_min, e_max=e_max,
                                                 n=points)

    def resonant(e: float) -> int:
        return int(any(lo <= e <= hi for lo, hi in table.resonance_intervals))

    rows: list[tuple] = []
    a_grid = table.a_of_e(table.energies, allow_resonant=True)
    for e, a in zip(table.energies, a_grid):
        rows.append((float(e), float(a), "numerov", resonant(float(e))))
    a0 = a_zero_extrapolated(b)
    for e in table.energies:
        rows.append((float(e), a_low_energy(a0, math.sqrt(float(e))),
                     "low-energy-expansion", 0))

    out = _resolve_out(args, "fig2_scattering_length")
    _write_table(out, ["E_over_Estar", "a_over_Rstar", "model", "resonant"],
                 rows, args.format)
    print(f"wrote {out}")
    return 0


def cmd_a1deff(args) -> int:
    opts = _Options(args)
    a = float(opts.get("a", 1.0))
    Ls = [float(v) for v in opts.get("L", [1.0, 1.5, 3.0])]
    theta_points = int(opts.get("theta_points", 181))
    if theta_points < 1:
        raise ConfigError(["--theta-points must be >= 1"])
    mode = opts.get("mode", "both")
    if mode == "both":
        modes = ["series", "h-approx"]
    elif mode in ("series", "h-approx"):
        modes = [mode]
    else:
        raise ConfigError([f"unknown mode {mode!r}; use series|h-approx|both"])

    model = ConstantScatteringLength(a)
    thetas = np.linspace(0.0, math.pi, theta_points)
    rows: list[tuple] = []
    for L in Ls:
        for m in modes:
            vals = a1d_eff(thetas, L, model, mode=m)
            rows += [(float(th), L, m, float(v)) for th, v in zip(thetas, vals)]

    out = _resolve_out(args, "fig8_a1deff")
    _write_table(out, ["theta", "L_over_aperp", "mode", "a1deff_over_aperp"],
                 rows, args.format)
    print(f"wrote {out}")
    return 0


def cmd_meff(args) -> int:
    opts = _Options(args)
    L = float(opts.get("L", 5.0))
    a_values = opts.get("a", None)
    if a_values is None:
        a_values = np.linspace(-2.0, 2.0, 41)
    a_values = [float(v) for v in np.atleast_1d(np.asarray(a_values, dtype=float))]
    rstar = opts.get("rstar", None)
    rstar = None if rstar is None else float(rstar)
    theta_points = int(opts.get("theta_points", 101))
    fit_fraction = float(opts.get("fit_fraction", 0.5))
    errors = []
    if theta_points < 2:
        errors.append("--theta-points must be >= 2")
    if not 0.0 < fit_fraction <= 1.0:
        errors.append("--fit-fraction must be in (0, 1]")
    if rstar is not None and not rstar > 0.0:
        errors.append("--rstar must be > 0")
    if errors:
        raise ConfigError(errors)

    rows: list[tuple] = [
        (r.a_axis, L, "contact", r.inv_mass_ratio, "" if r.ok else "failed")
        for r in effective_mass_vs_a(a_values, L, theta_points=theta_points,
                                     fit_fraction=fit_fraction)
    ]

    if rstar is not None:
        def iondep_row(a: float) -> tuple:
            try:
                if a == 0.0:
                    raise ConfigError(["a = 0"])
                b = invert_a_of_b(a / rstar, 1)
                table = ScatteringLengthTable.from_potential(
                    b, e_min=0.01, e_max=max(0.5, 10.0 * rstar * rstar), n=60)
                model = EnergyDependentScatteringLength(table, rstar)
                fit = effective_mass_for_model(
                    model, L, theta_points=theta_points,
                    fit_fraction=fit_fraction)
                a_axis = model.a_of(fit.eps_b)
                return (float(a_axis), L, "energy-dependent",
                        fit.inv_mass_ratio, "")
            except QuasiKpError:
                return (a, L, "energy-dependent", math.nan, "failed")

        rows += [iondep_row(a) for a in a_values]

    out = _resolve_out(args, "fig7_effective_mass")
    _write_table(out, ["a_axis", "L_over_aperp", "model", "m_over_meff", "flag"],
                 rows, args.format)
    print(f"wrote {out}")
    return 0


def _selfcheck_samples(rng: np.random.Generator, n: int):
    """n deterministic (E, theta, L) triples away from thresholds and poles.

    The brute-force oracle Abel-sums the open channels, and that converges
    at a rate set by how far each phase k_m L +- theta sits from a multiple
    of 2 pi.  Empirically the extrapolation meets its 1e-6 target whenever
    that angular distance exceeds 0.05, so reject below 0.12 for margin.
    """
    out = []
    while len(out) < n:
        E = float(rng.uniform(1.05, 6.95))
        if min(abs(E - t) for t in (1.0, 3.0, 5.0, 7.0)) < 0.05:
            continue
        theta = float(rng.uniform(0.15, math.pi - 0.15))
        L = float(rng.uniform(0.6, 3.0))
        dist = math.inf
        for m in range(int(math.floor((E - 1.0) / 2.0)) + 1):
            k = math.sqrt(2.0 * (E - 1.0 - 2.0 * m))
            for sign in (1.0, -1.0):
                phi = abs(math.fmod(k * L + sign * theta, 2.0 * math.pi))
                dist = min(dist, phi, 2.0 * math.pi - phi)
        if dist < 0.12:
            continue
        out.append((E, theta, L))
    return out


def cmd_selfcheck(args) -> int:
    opts = _Options(args)
    seed = int(opts.get("seed", 0))
    rng = np.random.default_rng(seed)
    checks = []

    def record(name: str, n: int, err: float, tol: float) -> None:
        err = float(err)
        checks.append({"name": name, "n_samples": int(n), "max_abs_err": err,
                       "tol": tol, "pass": bool(err <= tol)})

    qs = rng.uniform(0.05, 2.0, size=6)
    record("hurwitz_zeta_oracle", len(qs), max(
        abs(zeta_half_bruteforce(float(q)) - hurwitz_zeta_half(float(q)))
        for q in qs), 1e-8)

    record("olshanii_constant", 1, abs(olshanii_constant() - 1.4603545), 1e-4)

    es = [e for e in rng.uniform(-3.0, 6.5, size=16)
          if min(abs(e - t) for t in (1.0, 3.0, 5.0, 7.0)) > 0.05][:10]
    record("single_site_sum_oracle", len(es), max(
        abs(beta_bruteforce(float(e)) - c_of_e(float(e)) / (2.0 * math.pi))
        for e in es), 1e-6)

    samples = _selfcheck_samples(rng, 20)
    err = 0.0
    for E, theta, L in samples:
        closed = lambda_p(E, theta, L) + lambda_e(E, theta, L)
        err = max(err, abs(closed - lambda_bruteforce_reduced(E, theta, L)))
    record("lattice_sum_oracle", len(samples), err, 1e-6)

    report = {"seed": seed, "checks": checks,
              "all_pass": all(c["pass"] for c in checks)}
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0 if report["all_pass"] else 4


# ---------------------------------------------------------------- parser

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with option defaults")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default: figure-named file)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasikp",
        description="Band structure of a quasi-1D waveguide with a lattice "
                    "of atom-ion impurities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="Bloch bands for all three models")
    p.add_argument("--L", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--rstar", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--n-bound", dest="n_bound", type=int)
    p.add_argument("--one-bound-state", dest="one_bound_state",
                   action="store_const", const=True)
    p.add_argument("--theta-points", dest="theta_points", type=int)
    p.add_argument("--energy-max", dest="energy_max", type=float)
    p.add_argument("--n-bands", dest="n_bands", type=int)
    p.add_argument("--models", nargs="+", choices=MODEL_TAGS)
    _add_common(p)
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("bands-vs-a", help="band edges vs scattering length")
    p.add_argument("--L", type=float, nargs="+")
    p.add_argument("--a", type=float, nargs="+")
    p.add_argument("--n-bands", dest="n_bands", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_bands_vs_a)

    p = sub.add_parser("scatlen", help="atom-ion scattering length table")
    p.add_argument("--b", type=float)
    p.add_argument("--a0", type=float)
    p.add_argument("--n-bound", dest="n_bound", type=int)
    p.add_argument("--one-bound-state", dest="one_bound_state",
                   action="store_const", const=True)
    p.add_argument("--e-min", dest="e_min", type=float)
    p.add_argument("--energy-max", dest="energy_max", type=float)
    p.add_argument("--points", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_scatlen)

    p = sub.add_parser("a1deff", help="effective 1D scattering length")
    p.add_argument("--a", type=float)
    p.add_argument("--L", type=float, nargs="+")
    p.add_argument("--theta-points", dest="theta_points", type=int)
    p.add_argument("--mode", choices=("series", "h-approx", "both"))
    _add_common(p)
    p.set_defaults(func=cmd_a1deff)

    p = sub.add_parser("meff", help="effective mass of the lowest band")
    p.add_argument("--L", type=float)
    p.add_argument("--a", type=float, nargs="+")
    p.add_argument("--rstar", type=float)
    p.add_argument("--theta-points", dest="theta_points", type=int)
    p.add_argument("--fit-fraction", dest="fit_fraction", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_meff)

    p = sub.add_parser("selfcheck", help="compare closed forms against "
                                         "brute-force mode sums")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--config", help="JSON file with option defaults")
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuasiKpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
