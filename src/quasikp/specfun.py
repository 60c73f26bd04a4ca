"""Special functions used by the closed-channel machinery.

Two ingredients recur when the transverse channels of a harmonic
waveguide are summed: the Hurwitz zeta function at s = 1/2, which is
the regularized value of ``sum_n 1/sqrt(n + q)``, and the exponentially
convergent series

    H(x) = sum_{n>=1} n^{-1/2} exp(-sqrt(n) x),

which appears in the large-spacing form of the closed-channel lattice
correction.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# Euler-Maclaurin split: 16 direct terms, then the integral plus the
# boundary and Bernoulli corrections through B6 for s = 1/2.  The first
# omitted correction is ~ (q + 16)^{-15/2}, i.e. below 1e-10 already at
# q -> 0 and falling fast.
_EM_TERMS = 16
_EM_B2 = 1.0 / 24.0       # B2/2! * s            at s = 1/2
_EM_B4 = -1.0 / 384.0     # B4/4! * s(s+1)(s+2)
_EM_B6 = 1.0 / 1024.0     # B6/6! * (s)(s+1)...(s+4)
# points per slice of the (points, _EM_TERMS) direct sum: its work array
# stays at 64 KB, small enough for the allocator to reuse on every call
_SLICE_POINTS = 512


def hurwitz_zeta_half(q):
    """Hurwitz zeta function ``zeta(1/2, q)`` for q > 0.

    Accepts a scalar or an ndarray and matches the input kind.  Absolute
    error stays below 1e-10 over the whole positive axis (checked against
    mpmath in the tests).
    """
    arr = np.asarray(q, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise DomainError("hurwitz_zeta_half requires finite q > 0")
    flat = arr.reshape(-1)
    direct = np.empty(flat.shape)
    # q + n for n < _EM_TERMS, slice by slice; both operands are copied to
    # full shape first, because a ufunc that broadcasts allocates a buffer
    rows = min(flat.size, _SLICE_POINTS)
    offsets = np.empty((rows, _EM_TERMS))
    offsets[...] = np.arange(_EM_TERMS, dtype=float)
    shifted = np.empty((rows, _EM_TERMS))
    for i in range(0, flat.size, _SLICE_POINTS):
        seg = flat[i:i + _SLICE_POINTS]
        part = shifted[:seg.size]
        part[...] = seg[:, np.newaxis]
        np.add(part, offsets[:seg.size], out=part)
        np.power(part, -0.5, out=part)
        np.sum(part, axis=-1, out=direct[i:i + _SLICE_POINTS])
    direct = direct.reshape(arr.shape)
    w = arr + float(_EM_TERMS)
    tail = (
        -2.0 * np.sqrt(w)
        + 0.5 * w**-0.5
        + _EM_B2 * w**-1.5
        + _EM_B4 * w**-3.5
        + _EM_B6 * w**-5.5
    )
    out = direct + tail
    if arr.ndim == 0:
        return float(out)
    return out


def h_series(x: float, rel_tol: float = 1e-14, max_terms: int = 10**8) -> float:
    """Evaluate ``H(x) = sum_{n>=1} exp(-sqrt(n) x) / sqrt(n)`` for x > 0.

    Terms are accumulated in blocks until the next term falls below
    ``rel_tol`` of the running sum.  The series diverges logarithmically
    as x -> 0+, hence the strict positivity requirement.
    """
    if not (np.isfinite(x) and x > 0.0):
        raise DomainError("h_series requires finite x > 0")
    total = 0.0
    start = 1
    block = 512
    while start <= max_terms:
        n = np.arange(start, start + block, dtype=float)
        root = np.sqrt(n)
        terms = np.exp(-root * x) / root
        total += float(terms.sum())
        # terms decrease monotonically, so the last one bounds the next
        if terms[-1] < rel_tol * total:
            return total
        start += block
        block = min(2 * block, 1 << 20)
    raise DomainError("h_series failed to converge (x too small)")
