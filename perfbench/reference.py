"""Frozen copies of the program's hot paths, timed to measure the host's speed.

On a shared host the CPU time of the same work drifts by ~10-40 % within
minutes (another tenant on the sibling hyperthread, a lower clock), and the
guest cannot see why: no time is stolen.  How much a stretch of code slows
depends on its instruction mix, so the runner times, between requests and
off the clock, a pass of the hot path of the workload at hand, in the form it
had when the benchmark was written, and gates request costs as multiples of
the median pass.  This cancels the drift; a generic kernel (plain numpy and
interpreter loops) did not follow it.

The code below is copied from ``quasikp`` 's lattice sums (``quasi1d``,
``specfun``), Numerov march (``atomion``) and thread pool
(``_concurrency``) and must not follow later
changes to them: a change to the program moves only the request side of the
ratio.  Only the operations matter, not the numbers.

- ``edge-sweep``: the scalar residual at theta = 0 and pi, as in the scalar
  ``PoleError`` fallback;
- ``contact-bands``: the vectorised residual at generic theta;
- ``ion-comb``: Numerov marches, then the vectorised residual, in their
  ~3:1 share of the request's time.

The last two run about half their CPU time serially and half mapped on the
package's default two-worker pool, like the requests, which alternate
pooled maps with serial work.  The pool matters: its threads hand the
interpreter lock back and forth, which costs CPU time that drifts with the
host too, and which falls when the host takes one vCPU away.  With the
second vCPU busy, a pass run only on the pool took up to a third less CPU
while the request took a tenth less; a serial pass did not move.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from time import process_time

import numpy as np

_EM_TERMS = 16
_EM_B2 = 1.0 / 24.0
_EM_B4 = -1.0 / 384.0
_EM_B6 = 1.0 / 1024.0
_TOL = 1e-9


class _Pole(Exception):
    pass


def _hurwitz_zeta_half(q):
    arr = np.asarray(q, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise ValueError("q must be > 0")
    shifted = arr[..., np.newaxis] + np.arange(_EM_TERMS, dtype=float)
    direct = np.sum(shifted**-0.5, axis=-1)
    w = arr + float(_EM_TERMS)
    tail = (-2.0 * np.sqrt(w) + 0.5 * w**-0.5 + _EM_B2 * w**-1.5
            + _EM_B4 * w**-3.5 + _EM_B6 * w**-5.5)
    out = direct + tail
    return float(out) if arr.ndim == 0 else out


def _branch_offsets(E):
    arr = np.asarray(E, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("energy must be finite")
    n_star = np.maximum(np.floor((arr - 1.0) / 2.0), -1.0)
    eps = arr - (2.0 * n_star + 1.0)
    if np.any(1.0 - 0.5 * eps < 0.5 * _TOL):
        raise _Pole("threshold")
    return n_star, eps


def _lambda_p(E, theta, L):
    arr = np.asarray(E, dtype=float)
    n_star, _ = _branch_offsets(arr)
    out = np.zeros(arr.shape)
    n_top = int(n_star.max()) if arr.size else -1
    cos_t = math.cos(theta)
    for n in range(0, n_top + 1):
        mask = n_star >= n
        kn = 2.0 * np.sqrt(np.maximum((arr - 1.0) / 2.0 - n, 0.0))
        knL = kn * L
        denom = cos_t - np.cos(knL)
        if np.any(mask & (np.abs(denom) < _TOL)):
            raise _Pole("open channel")
        with np.errstate(invalid="ignore", divide="ignore"):
            term = 0.5 * np.sinc(knL / np.pi) / denom
        out = np.where(mask, out + term, out)
    return float(out) if np.asarray(E).ndim == 0 else out


def _lambda_e(E, theta, L, rel_tol=1e-14):
    arr = np.atleast_1d(np.asarray(E, dtype=float)).ravel()
    _, eps = _branch_offsets(arr)
    cos_t = math.cos(theta)
    total = np.zeros(arr.shape)
    n, block = 1, 16
    while n <= 10**6:
        ns = np.arange(n, n + block, dtype=float)
        kn = 2.0 * np.sqrt(ns[:, None] - 0.5 * eps[None, :])
        x = kn * L
        t = np.exp(-x)
        terms = (t * t - t * cos_t) / (1.0 - 2.0 * t * cos_t + t * t) / x
        total = total + terms.sum(axis=0)
        if np.all(np.abs(terms[-1])
                  <= rel_tol * np.maximum(np.abs(total), 1e-300)):
            break
        n += len(ns)
        block = min(2 * block, 4096)
    return float(total[0]) if np.asarray(E).ndim == 0 else total


def _residual(E, theta, L, inv_a=1.0):
    _, eps = _branch_offsets(E)
    c = -_hurwitz_zeta_half(1.0 - 0.5 * eps)
    lam = _lambda_p(E, theta, L) + _lambda_e(E, theta, L)
    return -0.5 * inv_a + 0.5 * c + 2.0 * L * lam


def _thread_map(fn, items):
    # the package's default pool: QUASIKP_THREADS unset
    items = list(items)
    workers = min(max(1, min(os.cpu_count() or 1, 32)), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _numerov(g, h):
    w = (h * h / 12.0) * g
    t = (1.0 + w).tolist()
    a = (2.0 - 10.0 * w).tolist()
    us = [0.0, h]
    append = us.append
    u_prev, u_cur = 0.0, h
    for i in range(1, len(t) - 1):
        u_next = (a[i] * u_cur - t[i - 1] * u_prev) / t[i + 1]
        append(u_next)
        u_prev, u_cur = u_cur, u_next
    return np.asarray(us)


_SCALAR_E = [-2.0 + 0.0731 * i for i in range(120)]
_VECTOR_E = np.linspace(-2.0, 7.0, 256)
_VECTOR_THETA = [0.3, 0.9, 1.5, 2.1, 2.7]


def _scalar_pass():
    for theta in (0.0, math.pi):
        for E in _SCALAR_E:
            try:
                _residual(E, theta, 3.5)
            except _Pole:
                pass


def _vector_residuals(rounds, pooled):
    def at_theta(theta):
        for _ in range(rounds):
            _residual(_VECTOR_E, theta, 5.0)
    if pooled:
        _thread_map(at_theta, _VECTOR_THETA)
    else:
        for theta in _VECTOR_THETA:
            at_theta(theta)


def _marches(ks, pooled):
    b, h = 0.3, 0.005
    r = np.arange(30_000) * h
    pot = -1.0 / (r * r + b * b) ** 2
    march = lambda k: _numerov(k * k - pot, h)  # noqa: E731
    if pooled:
        _thread_map(march, ks)
    else:
        for k in ks:
            march(k)


def _vector_pass():
    _vector_residuals(8, pooled=False)
    _vector_residuals(4, pooled=True)


def _numerov_pass():
    _marches([0.1, 0.2, 0.3, 0.4], pooled=False)
    _marches([0.5, 0.6, 0.7, 0.8], pooled=True)
    _vector_residuals(2, pooled=False)


PASSES = {"edge-sweep": _scalar_pass, "contact-bands": _vector_pass,
          "ion-comb": _numerov_pass}


def pass_cpu_s(workload: str) -> float:
    """CPU seconds of one pass of ``workload`` 's frozen hot path."""
    c0 = process_time()
    PASSES[workload]()
    return process_time() - c0
