"""Sign-change scans and bracketed root refinement for the whole package.

Every root search in quasikp brackets its roots by a sign change and
refines them here: the band solvers, the kp1d reference lattice, the
single-impurity bound state, the atom-ion radius inversion, the node-count
thresholds and the zeros and poles of a tabulated a(E).

Chandrupatla's method (T. R. Chandrupatla, Adv. Eng. Softw. 28(3),
145-149, 1997) on a whole array of brackets at once.  Each step tries
inverse quadratic interpolation through the last three points and falls
back to bisection where that interpolant would not be monotone on the
bracket; every new point lies inside the bracket, so no bracket is ever
lost, and the function need not be monotone.
"""

from __future__ import annotations

import numpy as np

from .errors import PoleError, RootError

_MAX_ITER = 200
# refine roots to a few ulp; a step of rtol/2 |x| always reaches a new float
_ROOT_RTOL = 4.0 * np.finfo(float).eps


def _sign_changes(vals: np.ndarray) -> np.ndarray:
    """Indices i where vals[i] and vals[i + 1] are non-zero of opposite sign.

    Multiplies signs, not values: a product of two subnormal-sized
    residuals would underflow to zero and hide the crossing.
    """
    s = np.sign(vals)
    return np.nonzero(s[:-1] * s[1:] < 0.0)[0]


def chandrupatla(f_vec, lo, hi, flo, fhi, *, atol: float, rtol: float,
                 args=()) -> np.ndarray:
    """One root inside every bracket [lo, hi]; f_vec takes an array.

    ``flo`` and ``fhi`` are f at the bracket ends, of opposite sign or
    zero.  ``args`` holds per-bracket arrays (one entry per bracket each);
    they are compacted with the open brackets, and f is called as
    ``f_vec(x, *args)``.  A bracket is done when its width is at most
    max(atol, rtol |midpoint|) or f is exactly zero at one of its ends, and
    its root is the end with the smaller |f|.  Raises PoleError if f is
    NaN at a point inside a bracket and RootError if a bracket is still
    open after ``_MAX_ITER`` steps.
    """
    x1, x2, f1, f2 = (np.array(v, dtype=float) for v in (lo, hi, flo, fhi))
    args = tuple(np.asarray(a) for a in args)
    x3, f3 = x2, f2  # unread until the first step, which bisects
    t = np.full(x1.shape, 0.5)
    idx = np.arange(x1.size)
    out = np.empty(x1.size)
    for _ in range(_MAX_ITER):
        near = np.abs(f1) < np.abs(f2)
        dx = np.abs(x2 - x1)
        tol = np.maximum(atol, rtol * np.abs(0.5 * (x1 + x2)))
        done = (dx <= tol) | (np.where(near, f1, f2) == 0.0)
        out[idx[done]] = np.where(near, x1, x2)[done]
        if done.all():
            return out
        if done.any():
            keep = ~done
            x1, x2, x3, f1, f2, f3, t, idx, dx, tol = (
                v[keep] for v in (x1, x2, x3, f1, f2, f3, t, idx, dx, tol))
            args = tuple(a[keep] for a in args)
        # a step of at least tol/2 from either end keeps every step useful
        tl = 0.5 * tol / dx
        x = x1 + np.clip(t, tl, 1.0 - tl) * (x2 - x1)
        f = np.asarray(f_vec(x, *args), dtype=float)
        bad = np.isnan(f)
        if bad.any():
            raise PoleError(
                f"residual is NaN at {float(x[bad][0])!r} inside a root bracket",
                channel=None,
            )
        # x1 is always the newest point, [x1, x2] the bracket and x3 the
        # end that was just dropped; signs, not products, so a subnormal
        # residual cannot underflow to zero
        same = np.sign(f) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, f
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            t = np.where(
                iqi,
                f1 / (f2 - f1) * f3 / (f2 - f3)
                + alpha * f1 / (f3 - f1) * f2 / (f3 - f2),
                0.5,
            )
    raise RootError(
        f"{x1.size} root bracket(s) still open after {_MAX_ITER} steps, "
        f"e.g. [{float(min(x1[0], x2[0]))!r}, {float(max(x1[0], x2[0]))!r}]"
    )
