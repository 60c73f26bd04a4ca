"""Seeded request streams for the three benchmark workloads.

Each request is one ``quasikp`` command line.  Parameters are drawn from the
seed in cycles of ``STRATA`` requests: inside a cycle every parameter that
drives the cost (the lattice spacing L, |a|, R*) takes one value from each
of ``STRATA`` equal slices of its range, and the sign of a follows a fixed
pattern, all in shuffled order.
Any run that completes a few cycles therefore sees the whole range, which
keeps the median latency steady from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

STRATA = 4


@dataclass(frozen=True)
class Request:
    index: int
    params: dict
    argv: list  # without --out; the runner appends it


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and README.md."""

    argv: Callable[[dict], list]  # the command line for one parameter set
    trace_requests: int  # requests in each phase of a traced run
    deep_checks: int  # requests per phase that get the costly oracles
    ranges: dict  # parameter -> (lo, hi); "a" is drawn as +/- |a|
    signs: tuple = (1.0, -1.0) * (STRATA // 2)  # signs of a in one cycle
    fixed: dict = field(default_factory=dict)  # shared by every request


WORKLOADS = {
    "contact-bands": Workload(
        lambda p: ["bands", "--models", "constant-a", "kp1d-reduced",
                   "--n-bands", str(p["n_bands"]),
                   "--theta-points", str(p["theta_points"]),
                   "--energy-max", repr(p["energy_max"]),
                   "--L", repr(p["L"]), "--a", repr(p["a"])],
        trace_requests=5,
        deep_checks=6,
        ranges={"a": (0.1, 2.0), "L": (3.0, 8.0)},
        fixed={"n_bands": 4, "theta_points": 21, "energy_max": 7.0}),
    "edge-sweep": Workload(
        lambda p: ["bands-vs-a", "--n-bands", str(p["n_bands"]),
                   "--L", repr(p["L"]), "--a", repr(p["a"])],
        trace_requests=7,
        deep_checks=3,
        ranges={"a": (0.1, 2.0), "L": (3.0, 4.0)},
        fixed={"n_bands": 3}),
    "ion-comb": Workload(
        lambda p: ["meff", "--L", repr(p["L"]), "--a", repr(p["a"]),
                   "--rstar", repr(p["rstar"]),
                   "--theta-points", str(p["theta_points"])],
        trace_requests=2,
        deep_checks=1,
        ranges={"a": (0.1, 1.0), "rstar": (0.05, 0.3)},
        # a < 0 puts the radius b next to the bound-state threshold: a
        # finer Numerov step, ~1.4x the time and up to ~1.6x the peak
        # memory, set by whichever a < 0 request a seed draws
        signs=(1.0,) * STRATA,
        fixed={"L": 5.0, "theta_points": 51}),
}


def plan(name: str, seed: int) -> list[Request]:
    """The first 4096 requests of workload ``name`` for ``seed``."""
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    out: list[Request] = []
    while len(out) < 4096:
        # one shuffled slice index per parameter, and the cycle's signs of a
        slices = {k: rng.sample(range(STRATA), STRATA) for k in wl.ranges}
        signs = rng.sample(wl.signs, STRATA)
        for j in range(STRATA):
            p = {}
            for k, (lo, hi) in wl.ranges.items():
                width = (hi - lo) / STRATA
                p[k] = lo + width * (slices[k][j] + rng.random())
            p["a"] *= signs[j]
            p.update(wl.fixed)
            out.append(Request(len(out), p, wl.argv(p)))
    return out
