"""Benchmark of the quasikp command line, run in-process.

    python3 perfbench/run.py --workload contact-bands --seed 0 --seconds 25 --trace 0

One client sends seeded ``quasikp.cli.main(argv)`` requests in a closed loop
(the next request starts when the previous one returns) with the package's
default thread pool.  Every output table is checked by ``checks.py`` outside
the timed region.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs the same first requests untraced, traced, and traced with
``QUASIKP_THREADS=1``, and reports per-layer metrics.  The last line of
standard output is one JSON object; ``perfbench/README.md`` defines every
metric.  Run it from the root of a source tree: it imports ``src/quasikp``
and writes only under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3  # each in a fresh interpreter
REF_SHARE = 0.15  # CPU of reference passes after each request, as a share
                  # of its latency (at least one pass); see reference.py
DEEP_EVERY = 3  # every third request gets the costly oracles, up to the
                # workload's deep_checks per phase
WARMUP = ["bands", "--models", "constant-a", "kp1d-reduced", "--n-bands", "1",
          "--theta-points", "3", "--energy-max", "1.5", "--L", "4", "--a", "0.5"]

_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import quasikp.cli, workloads
workloads.plan(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


@dataclass
class Outcome:
    index: int
    latency: float
    cpu: float  # CPU time of every thread of the process
    unstolen: float  # latency less the share of machine time stolen meanwhile
    problems: list
    guards: dict  # warnings by kind, failed and overlap rows

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Phase:
    outcomes: list
    loop_s: float
    rss_mb: float  # peak resident memory when the loop ended
    ref: list  # CPU seconds of each reference pass, if calibrated

    @property
    def ok(self) -> int:
        return sum(o.ok for o in self.outcomes)

    def p50(self, key: str = "latency") -> float:
        # a failed request misses any latency limit: rank it with the worst
        worst = max(getattr(o, key) for o in self.outcomes)
        return statistics.median(getattr(o, key) if o.ok else worst
                                 for o in self.outcomes)

    def rate(self) -> float:
        return self.ok / self.loop_s

    def ref_s(self) -> float:
        return statistics.median(self.ref)

    def total(self, key: str) -> int:
        return sum(o.guards.get(key, 0) for o in self.outcomes)


def measure_setup(name: str, seed: int):
    """setup_s samples: import quasikp.cli and build the request plan, each
    in a fresh interpreter; then the same in this process, untimed."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE), name,
             str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    import quasikp.cli as cli
    return cli, workloads.plan(name, seed), samples


def warning_kind(w) -> str:
    if "crossing" in str(w.message):
        return "crossing_warnings"
    names = {c.__name__ for c in w.category.__mro__}
    return "precision_warnings" if "PrecisionWarning" in names else "other_warnings"


def call_cli(cli, argv, tracer):
    """One request; returns (exit code or error text, warnings by kind)."""
    sink = io.StringIO()
    kinds: dict = {}
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(sink), redirect_stderr(sink):
        warnings.simplefilter("always")
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.span("cli.main", cli.main, argv)
        except (Exception, SystemExit) as exc:  # a crash fails the request
            rc = f"{type(exc).__name__}: {exc}"
    for w in caught:
        k = warning_kind(w)
        kinds[k] = kinds.get(k, 0) + 1
    return rc, kinds


def calibrate(name: str, ref: list, budget_s: float) -> None:
    """Append the CPU times of passes of the workload's reference, at least
    one, until they add up to ``budget_s``."""
    spent = 0.0
    while True:
        ref.append(reference.pass_cpu_s(name))
        spent += ref[-1]
        if spent >= budget_s:
            return


def run_phase(cli, checks, name, reqs, work: Path, *, seconds: float,
              count: int | None = None, tracer=None,
              calibrated: bool = False) -> Phase:
    """Closed loop over ``reqs`` until ``count`` requests, or until the next
    request would, at the mean latency so far, end after ``seconds`` of loop
    time.  Quick output checks, and with ``calibrated`` passes of the
    workload's reference, run between requests, off the clock; the deep checks run on a
    sample after the loop, once peak memory is read."""
    table = work / "table.csv"
    outcomes: list[Outcome] = []
    pending = []
    ref: list[float] = []
    loop_s = 0.0
    for i, req in enumerate(reqs):
        if (i and loop_s * (i + 1) / i > seconds) or (
                count is not None and i >= count):
            break
        t_iter = perf_counter()
        table.unlink(missing_ok=True)
        argv = req.argv + ["--out", str(table)]
        if tracer is not None:
            tracer.request = req.index
            tracer.install()
        k0 = cpu_ticks()
        c0, t0 = process_time(), perf_counter()
        rc, guards = call_cli(cli, argv, tracer)
        t1, c1 = perf_counter(), process_time()
        k1 = cpu_ticks()
        if tracer is not None:
            tracer.uninstall()
        loop_s += t1 - t_iter

        rows = []
        if rc != 0:
            problems = [f"exit {rc}"]
        else:
            try:
                rows = checks.read_table(table)
            except OSError as exc:
                problems = [f"no output table: {exc}"]
            else:
                problems = checks.quick(name, req.params, rows)
        guards["failed_rows"], guards["overlap_rows"] = checks.guard_flags(rows)
        ticks, stolen = k1[0] - k0[0], k1[1] - k0[1]
        unstolen = (t1 - t0) * (1.0 - stolen / ticks if ticks > 0 else 1.0)
        out = Outcome(req.index, t1 - t0, c1 - c0, unstolen, problems, guards)
        outcomes.append(out)
        if (not problems and i % DEEP_EVERY == 0
                and len(pending) < workloads.WORKLOADS[name].deep_checks):
            pending.append((out, req, rows))
        if calibrated:
            calibrate(name, ref, REF_SHARE * out.latency)

    phase = Phase(outcomes, loop_s, peak_rss_mb(), ref)
    for out, req, rows in pending:
        rng = random.Random(f"check:{name}:{req.index}")
        out.problems += checks.deep(name, req.params, rows, rng)
    for out in outcomes:
        for p in out.problems:
            print(f"request {out.index} {' '.join(reqs[out.index].argv)}: {p}",
                  file=sys.stderr)
    return phase


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(values):
    """Highest integer percentile with at least ten samples beyond it."""
    n = len(values)
    p = int(100 * (1 - 10 / n)) if n else 0
    if p < 50:
        return None
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def cpu_ticks() -> tuple[int, int]:
    """(all, stolen) jiffies of the machine, or (0, 0) where unreadable.
    Time the hypervisor gives to other guests inflates wall clock only."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return sum(fields[:8]), (fields[7] if len(fields) > 7 else 0)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(args, threads_env) -> dict:
    import numpy
    import scipy
    conc = sys.modules.get("quasikp._concurrency")
    width = conc.max_workers() if hasattr(conc, "max_workers") else None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "QUASIKP_THREADS": threads_env,
        "pool_workers": width,
    }


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(phase: Phase, setup) -> dict:
    """The gated metrics.  Request cost is gated as CPU time and as latency
    with the time the hypervisor gave to other guests taken out, each in
    units of the median reference pass of the same run, which cancels the
    host's drifting speed; see README.md."""
    ref = phase.ref_s()
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "solve_cpu_p50_ref": metric(phase.p50("cpu") / ref, "ref"),
        "solve_unstolen_p50_ref": metric(phase.p50("unstolen") / ref, "ref"),
        "ok_frac": metric(phase.ok / len(phase.outcomes), "frac"),
        "peak_rss_mb": metric(phase.rss_mb, "MB"),
    }


def reported(phase: Phase) -> dict:
    """Printed and stored, not gated: the same costs in seconds, wall-clock
    latency and throughput, and the median reference pass itself."""
    return {"solve_cpu_p50_s": metric(phase.p50("cpu"), "s"),
            "solve_unstolen_p50_s": metric(phase.p50("unstolen"), "s"),
            "solve_p50_s": metric(phase.p50(), "s"),
            "solves_per_s": metric(phase.rate(), "1/s"),
            "ref_pass_s": metric(phase.ref_s(), "s")}


def per_layer(tracer, traced: Phase, plain: Phase, single: Phase, env) -> dict:
    n = len(traced.outcomes)
    t = tracer.layer_times()
    c = tracer.counts

    def calls(layer):
        return t.get(layer, (0, 0.0, 0.0))[0] / n

    def total_s(layer):
        return t.get(layer, (0, 0.0, 0.0))[1] / n

    def self_s(layer):
        return t.get(layer, (0, 0.0, 0.0))[2] / n

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    q = "quasi1d.dispersion_residual"
    m[f"{q}.calls"] = metric(calls(q), "count/req")
    m[f"{q}.points"] = metric(c[f"{q}.points"] / n, "count/req")
    m[f"{q}.scalar_calls"] = metric(c[f"{q}.scalar_calls"] / n, "count/req")
    m[f"{q}.self_s"] = metric(self_s(q), "s/req")
    m["quasi1d.pole_errors"] = metric(c["quasi1d.pole_errors"] / n, "count/req")
    for layer in ("quasi1d.lambda_p", "quasi1d.lambda_e", "quasi1d.c_of_e",
                  "bands.solve_bands"):
        m[f"{layer}.self_s"] = metric(self_s(layer), "s/req")
    for layer in ("quasi1d.inv_a_of", "specfun.hurwitz_zeta_half",
                  "kp1d.kp1d_bands", "atomion.numerov_delta0"):
        m[f"{layer}.calls"] = metric(calls(layer), "count/req")
        m[f"{layer}.s"] = metric(total_s(layer), "s/req")
    b = "bands.band_energies_at_theta"
    m[f"{b}.calls"] = metric(calls(b), "count/req")
    m[f"{b}.self_s"] = metric(self_s(b), "s/req")
    m[f"{b}.roots"] = metric(c["bands.roots_found"] / n, "count/req")
    m["bands.roots_used_ratio"] = metric(
        ratio(c["bands.roots_used"], c["bands.roots_found"]), "ratio")
    for layer in ("bands.effective_mass_for_model", "bands.band_edges_vs_a",
                  "atomion.from_potential", "atomion.invert_a_of_b"):
        m[f"{layer}.s"] = metric(total_s(layer), "s/req")
    m["atomion.numerov_grids"] = metric(calls("atomion.numerov_integrate"),
                                        "count/req")
    m["atomion.numerov_steps"] = metric(c["atomion.numerov_steps"] / n,
                                        "count/req")
    tm = "concurrency.thread_map"
    m[f"{tm}.calls"] = metric(calls(tm), "count/req")
    m[f"{tm}.pooled_calls"] = metric(c[f"{tm}.pooled_calls"] / n, "count/req")
    m[f"{tm}.items"] = metric(c[f"{tm}.items"] / n, "count/req")
    m[f"{tm}.busy_frac"] = metric(
        ratio(c[f"{tm}.busy_s"], c[f"{tm}.capacity_s"]), "frac")
    m["cli.self_s"] = metric(self_s("cli.main"), "s/req")
    for g in ("crossing_warnings", "precision_warnings", "other_warnings",
              "failed_rows", "overlap_rows"):
        m[f"guards.{g}"] = metric(traced.total(g) / n, "count/req")
    m["trace.spans"] = metric(sum(v[0] for v in t.values()) / n, "count/req")
    m["trace.overhead_frac"] = metric(1.0 - ratio(traced.rate(), plain.rate()),
                                      "frac")
    m["baseline.threads1.solves_per_s"] = metric(single.rate(), "1/s")
    m["baseline.threads1.solve_p50_s"] = metric(single.p50(), "s")
    m["baseline.pool_speedup"] = metric(ratio(traced.rate(), single.rate()),
                                        "ratio")
    m["pool.workers"] = metric(env["pool_workers"] or 0, "count")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "quasikp" / "cli.py").is_file():
        print(f"error: no quasikp sources at {SRC / 'quasikp'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the package default pool: QUASIKP_THREADS unset
    threads_env = os.environ.pop("QUASIKP_THREADS", None)

    cli, plan, setup = measure_setup(args.workload, args.seed)
    import checks
    import tracing

    env = environment(args, threads_env)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ticks0 = cpu_ticks()
    try:
        call_cli(cli, WARMUP + ["--out", str(work / "warmup.csv")], None)
        run = lambda **kw: run_phase(cli, checks, args.workload, plan, work, **kw)
        if args.trace == 0:
            calibrate(args.workload, [], 0.3)  # warm the reference up
            phase = run(seconds=args.seconds, calibrated=True)
            phases = {"main": phase}
            metrics = end_to_end(phase, setup)
            extra = reported(phase)
        else:
            k = workloads.WORKLOADS[args.workload].trace_requests
            cap = 2.0 * args.seconds
            plain = run(seconds=cap, count=k)
            tracer = tracing.Tracer()
            traced = run(seconds=cap, count=k, tracer=tracer)
            os.environ["QUASIKP_THREADS"] = "1"
            try:
                single = run(seconds=cap, count=k, tracer=tracing.Tracer())
            finally:
                del os.environ["QUASIKP_THREADS"]
            phases = {"untraced": plain, "traced": traced, "threads1": single}
            metrics = per_layer(tracer, traced, plain, single, env)
            extra = {}
            tracer.save(OUT / f"{tag}-spans.npz")
            env["missing_layers"] = tracer.missing
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ticks = [b - a for a, b in zip(ticks0, cpu_ticks())]
    env["steal_frac"] = ticks[1] / ticks[0] if ticks[0] else None

    outcomes = [o for p in phases.values() for o in p.outcomes]
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    record = {
        "env": env, "setup_samples_s": setup, "metrics": metrics,
        "reported": extra,
        "phases": {k: {"loop_s": p.loop_s, "rss_mb": p.rss_mb,
                       "reference_s": p.ref,
                       "requests": [vars(o) | {"ok": o.ok,
                                               "params": plan[o.index].params}
                                    for o in p.outcomes]}
                   for k, p in phases.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env))
    for k, p in phases.items():
        lat = sorted(o.latency for o in p.outcomes)
        tail = tail_percentile(lat)
        tail_s = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                  else "no percentile above p50 has 10 requests beyond it")
        print(f"phase {k}: N={len(lat)} ok={p.ok} loop {p.loop_s:.2f} s, "
              f"latency p50 {statistics.median(lat):.4f} s, {tail_s}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    for k, v in (metrics | extra).items():
        print(f"{k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
