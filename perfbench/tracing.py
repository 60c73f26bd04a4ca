"""Per-layer spans recorded from outside the package.

The tracer rebinds public functions of ``quasikp`` in every module namespace
where callers look them up (``quasikp.bands.dispersion_residual``,
``quasikp.cli.solve_bands``, ...) and restores the originals on
``uninstall``.  Nothing under ``src/`` is modified.

A span is (id, parent id, layer, start, end, thread, request).  Spans live in
flat arrays while the run goes on and are written out once it ends.  Spans
started inside a ``thread_map`` item get the map's span as parent, whichever
worker thread runs the item.  A layer's self time is its span time minus the
union of the intervals its child spans cover.
"""

from __future__ import annotations

import importlib
import itertools
import os
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (layer name, defining module, attribute path).  A layer missing from the
# package (renamed or removed by a later change) is skipped and reads 0.
LAYERS = (
    ("quasi1d.dispersion_residual", "quasikp.quasi1d", "dispersion_residual"),
    ("quasi1d.lambda_p", "quasikp.quasi1d", "lambda_p"),
    ("quasi1d.lambda_e", "quasikp.quasi1d", "lambda_e"),
    ("quasi1d.c_of_e", "quasikp.quasi1d", "c_of_e"),
    ("quasi1d.inv_a_of", "quasikp.quasi1d", "ConstantScatteringLength.inv_a_of"),
    ("quasi1d.inv_a_of", "quasikp.quasi1d",
     "EnergyDependentScatteringLength.inv_a_of"),
    ("specfun.hurwitz_zeta_half", "quasikp.specfun", "hurwitz_zeta_half"),
    ("bands.band_energies_at_theta", "quasikp.bands", "band_energies_at_theta"),
    ("bands.solve_bands", "quasikp.bands", "solve_bands"),
    ("bands.effective_mass_for_model", "quasikp.bands",
     "effective_mass_for_model"),
    ("bands.band_edges_vs_a", "quasikp.bands", "band_edges_vs_a"),
    ("kp1d.kp1d_bands", "quasikp.kp1d", "kp1d_bands"),
    ("atomion.numerov_delta0", "quasikp.atomion", "numerov_delta0"),
    ("atomion.numerov_integrate", "quasikp.atomion", "_numerov_integrate"),
    ("atomion.from_potential", "quasikp.atomion",
     "ScatteringLengthTable.from_potential"),
    ("atomion.invert_a_of_b", "quasikp.atomion", "invert_a_of_b"),
    ("concurrency.thread_map", "quasikp._concurrency", "thread_map"),
)


def _first_arg(args, kw, name):
    return args[0] if args else kw.get(name)


# counters taken at the layer boundary: (before call, after return, on error)
def _residual_pre(counts, args, kw):
    e = _first_arg(args, kw, "E")
    counts["quasi1d.dispersion_residual.points"] += int(np.size(e))
    if np.ndim(e) == 0:
        counts["quasi1d.dispersion_residual.scalar_calls"] += 1


def _residual_err(counts, exc):
    if type(exc).__name__ == "PoleError":
        counts["quasi1d.pole_errors"] += 1


def _roots_post(counts, out):
    counts["bands.roots_found"] += int(np.size(out))


def _bands_post(counts, out):
    counts["bands.roots_used"] += sum(
        int(np.count_nonzero(np.isfinite(b.energies))) for b in out)


def _edges_post(counts, out):
    counts["bands.roots_used"] += sum(
        int(np.isfinite(r.e_theta0)) + int(np.isfinite(r.e_thetapi))
        for r in out)


def _grid_pre(counts, args, kw):
    counts["atomion.numerov_steps"] += int(np.size(_first_arg(args, kw, "g")))


HOOKS = {
    "quasi1d.dispersion_residual": (_residual_pre, None, _residual_err),
    "bands.band_energies_at_theta": (None, _roots_post, None),
    "bands.solve_bands": (None, _bands_post, None),
    "bands.band_edges_vs_a": (None, _edges_post, None),
    "atomion.numerov_integrate": (_grid_pre, None, None),
}


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {k: array("q") for k in ("sid", "parent", "layer",
                                             "thread", "request")}
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.request = 0
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _layer_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def _record(self, sid, parent, layer, t0, t1):
        c = self.cols
        with self._lock:
            c["sid"].append(sid)
            c["parent"].append(parent)
            c["layer"].append(layer)
            c["thread"].append(threading.get_ident())
            c["request"].append(self.request)
            self.start.append(t0)
            self.end.append(t1)

    def _count(self, hook, *args):
        with self._lock:
            hook(self.counts, *args)

    def wrap(self, name: str, fn):
        layer = self._layer_id(name)
        pre, post, err = HOOKS.get(name, (None, None, None))
        ids, stack_of, record, count = (self._ids, self._stack, self._record,
                                        self._count)

        def traced(*args, **kw):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            if pre is not None:
                count(pre, args, kw)
            t0 = perf_counter()
            try:
                out = fn(*args, **kw)
            except Exception as exc:
                if err is not None:
                    count(err, exc)
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                record(sid, parent, layer, t0, t1)
            if post is not None:
                count(post, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args):
        """Run fn(*args) as a span of its own (the request-level span)."""
        return self.wrap(name, fn)(*args)

    def _map_body(self, original, max_workers):
        """thread_map replacement: items inherit the map span as parent."""
        tracer = self

        def mapper(fn, items):
            items = list(items)
            map_sid = tracer._stack()[-1]
            caller = threading.get_ident()
            busy = [0.0]

            def item(x):
                t0 = perf_counter()
                if threading.get_ident() == caller:
                    out = fn(x)
                else:
                    stack = tracer._stack()
                    saved = stack[:]
                    stack[:] = [map_sid]
                    try:
                        out = fn(x)
                    finally:
                        stack[:] = saved
                with tracer._lock:
                    busy[0] += perf_counter() - t0
                return out

            workers = min(max_workers(), len(items))
            t0 = perf_counter()
            out = original(item, items)
            span = perf_counter() - t0
            with tracer._lock:
                c = tracer.counts
                c["concurrency.thread_map.items"] += len(items)
                if workers > 1:
                    c["concurrency.thread_map.pooled_calls"] += 1
                    c["concurrency.thread_map.busy_s"] += busy[0]
                    c["concurrency.thread_map.capacity_s"] += span * workers
            return out

        return mapper

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items())
                if k == "quasikp" or k.startswith("quasikp.")]
        for name, modname, path in LAYERS:
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                if f"{modname}.{path}" not in self.missing:
                    self.missing.append(f"{modname}.{path}")
                continue
            if isinstance(owner, type):
                # a method: patch the class, where every instance looks it up
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                self._patch(owner, attr, raw, new)
                continue
            fn = raw
            if name == "concurrency.thread_map":
                width = getattr(owner, "max_workers", lambda: os.cpu_count() or 1)
                fn = self._map_body(raw, width)
            new = self.wrap(name, fn)
            # every namespace that imported the same object
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        self._patch(mod, key, raw, new)

    def _patch(self, owner, attr, raw, new) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------ results

    def arrays(self) -> dict:
        out = {k: np.frombuffer(v, dtype=np.int64).copy()
               for k, v in self.cols.items()}
        out["start"] = np.frombuffer(self.start, dtype=np.float64).copy()
        out["end"] = np.frombuffer(self.end, dtype=np.float64).copy()
        return out

    def layer_times(self) -> dict[str, tuple[int, float, float]]:
        """layer -> (spans, total span time, self time), in seconds."""
        a = self.arrays()
        n = a["sid"].size
        if n == 0:
            return {}
        order = np.argsort(a["sid"])
        sid = a["sid"][order]
        if not np.array_equal(sid, np.arange(1, n + 1)):
            raise RuntimeError("span ids are not contiguous; a span was lost")
        parent = a["parent"][order]
        layer = a["layer"][order]
        t0 = a["start"][order] - a["start"].min()
        t1 = a["end"][order] - a["start"].min()
        dur = t1 - t0
        # union of child intervals per parent: sort children by (parent,
        # start) and lift each parent's group above the previous one so a
        # single running maximum of end times never crosses groups
        child = np.nonzero(parent > 0)[0]
        covered = np.zeros(n)
        if child.size:
            c = child[np.lexsort((t0[child], parent[child]))]
            group = parent[c]
            lift = (float(t1.max()) + 1.0) * np.cumsum(
                np.r_[0, np.diff(group) != 0])
            s, e = t0[c] + lift, t1[c] + lift
            prev_end = np.r_[-np.inf, np.maximum.accumulate(e)[:-1]]
            part = np.maximum(e - np.maximum(s, prev_end), 0.0)
            covered = np.bincount(group - 1, weights=part, minlength=n)
        self_t = dur - covered
        m = len(self.names)
        spans = np.bincount(layer, minlength=m)
        total = np.bincount(layer, weights=dur, minlength=m)
        own = np.bincount(layer, weights=self_t, minlength=m)
        return {name: (int(spans[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, layers=np.array(self.names), **self.arrays())
