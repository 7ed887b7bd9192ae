"""Adaptive Gauss-Kronrod quadrature for holomorphic integrands.

A 7-point Gauss rule embedded in a 15-point Kronrod extension gives a cheap
error estimate per interval; intervals whose estimate exceeds their share of
the tolerance are halved.  Refinement is level-synchronous: one Gauss-Kronrod
evaluation covers every open interval of every segment at a level.
Integrands are vector valued (the three components of the holomorphic lift)
and complex; the error is controlled componentwise in absolute terms.

Node and weight tables are the standard 15-digit values; the test suite pins
them by checking polynomial exactness (degree 22 for the Kronrod rule, 13 for
the embedded Gauss rule) and weight sums.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Kronrod-15 abscissae on [-1, 1]; odd entries (index 1, 3, ...) are the
# embedded Gauss-7 abscissae.
KRONROD_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])

KRONROD_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])

GAUSS_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


# open intervals of one segment that one pass may halve; the lift oracle's
# segments hold fewer, so each of their passes refines a whole level
REFINE_WIDTH = 64


class QuadratureError(RuntimeError):
    """The tolerance was not met within the depth cap.

    The segment (a, b), the interval (lo, hi) of it that still failed at
    depth max_depth, abs_tol and max_depth are attributes and in the message.
    """

    def __init__(self, segment, interval, abs_tol, max_depth):
        self.segment, self.interval = segment, interval
        self.abs_tol, self.max_depth = abs_tol, max_depth
        super().__init__(
            f"tolerance {abs_tol:g} not reached at depth {max_depth} on interval "
            f"[{interval[0]}, {interval[1]}] of segment [{segment[0]}, {segment[1]}]"
        )


def _gk_estimate(func, a, b):
    """One Gauss-Kronrod application on each segment [a, b] of the complex plane.

    a and b are scalars or 1-D arrays of k segments, so ``func`` sees points
    of shape (15,) or (k, 15).  Returns (kronrod_value, error_estimate), of
    shape (...) or (..., k), where the value approximates the contour
    integral of ``func`` along the straight segment.
    """
    a, b = np.asarray(a), np.asarray(b)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    z = mid[..., None] + half[..., None] * KRONROD_NODES
    vals = func(z)  # shape (..., 15) or (..., k, 15)
    kron = (vals * KRONROD_WEIGHTS).sum(axis=-1) * half
    gauss = (vals[..., 1::2] * GAUSS_WEIGHTS).sum(axis=-1) * half
    err = np.abs(kron - gauss)
    return kron, err


def _length(d):
    # hypot, as Python's abs of a complex; np.abs rounds differently
    return np.hypot(d.real, d.imag)


def integrate_segment(
    func: Callable[[np.ndarray], np.ndarray],
    a,
    b,
    abs_tol: float = 1e-11,
    max_depth: int = 40,
):
    """Adaptively integrate ``func`` along the straight segments a -> b.

    All segments are refined together, one level per pass: every open
    interval of a pass goes through one Gauss-Kronrod evaluation.  An
    interval is accepted when its error estimate is at most abs_tol (at the
    root) or its share abs_tol |hi - lo| / |b - a| of the tolerance;
    otherwise it is halved.  A segment halves at most its rightmost
    REFINE_WIDTH open intervals per pass, the ones a depth-first stack would
    take first, so one that cannot converge reaches max_depth within a few
    passes instead of doubling its open intervals at every level.  Each
    segment's accepted intervals are summed right to left, from zero.

    Args:
        func: maps an ndarray of complex points to values of shape
            (...,) + points.shape; trailing axes must correspond to the
            input points.
        a, b: segment endpoints, scalars or 1-D arrays that broadcast.
        abs_tol: absolute tolerance per component (real and imaginary parts
            are controlled together through the complex modulus).
        max_depth: refinement cap; exceeding it raises QuadratureError.

    Returns:
        ndarray of the leading shape of ``func``'s output (complex), with a
        trailing segment axis when a or b is an array.
    """
    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    scalar = a.ndim == 0
    a, b = a.ravel(), b.ravel()
    length = _length(b - a)
    # every segment's intervals, accepted and open, in order along it
    seg = np.arange(a.size)
    lo, hi = a, b
    depth = np.zeros(a.size, dtype=int)
    est, err = _gk_estimate(func, lo, hi)
    worst = err.max(axis=tuple(range(err.ndim - 1)))
    is_open = ~(worst <= abs_tol)
    fresh = is_open.copy()
    while True:
        f = np.flatnonzero(fresh)
        share = abs_tol * _length(hi[f] - lo[f]) / length[seg[f]]
        is_open[f] = ~(worst[f] <= share)
        failed = f[is_open[f] & (depth[f] >= max_depth)]
        if failed.size:
            k = failed[seg[failed] == seg[failed[0]]][-1]
            raise QuadratureError((a[seg[k]].item(), b[seg[k]].item()),
                                  (lo[k].item(), hi[k].item()), abs_tol, max_depth)
        if not is_open.any():
            break
        last = np.cumsum(np.bincount(seg, minlength=a.size))[seg] - 1
        count = np.cumsum(is_open)
        split = is_open & (count[last] - count < REFINE_WIDTH)
        # each split interval becomes its left and right half, in place
        counts = 1 + split
        parent = np.repeat(np.arange(seg.size), counts)
        left = (np.cumsum(counts) - counts)[split]
        mid = 0.5 * (lo[split] + hi[split])
        seg, lo, hi, depth = seg[parent], lo[parent], hi[parent], depth[parent]
        est, worst, is_open = est[..., parent], worst[parent], is_open[parent]
        hi[left] = mid
        lo[left + 1] = mid
        fresh = np.zeros(seg.size, dtype=bool)
        fresh[left] = fresh[left + 1] = True
        depth[fresh] += 1
        est[..., fresh], err = _gk_estimate(func, lo[fresh], hi[fresh])
        worst[fresh] = err.max(axis=tuple(range(err.ndim - 1)))
    # column j holds every segment's (j+1)-th interval from its right end
    per_seg = np.bincount(seg, minlength=a.size)
    from_right = np.cumsum(per_seg)[seg] - 1 - np.arange(seg.size)
    columns = np.zeros(est.shape[:-1] + (a.size, per_seg.max(initial=0)), dtype=est.dtype)
    columns[..., seg, from_right] = est
    acc = np.zeros(est.shape[:-1] + (a.size,), dtype=est.dtype)
    for j in range(columns.shape[-1]):
        acc = acc + columns[..., j]
    return acc[..., 0] if scalar else acc


def integrate_polyline(
    func: Callable[[np.ndarray], np.ndarray],
    vertices,
    abs_tol: float = 1e-11,
    max_depth: int = 40,
):
    """Integrate along the polyline through ``vertices`` (complex sequence).

    A vertex may be a 1-D array: the vertices then broadcast to a batch of
    polylines, all integrated in one ``integrate_segment`` pass, and the
    result gains a trailing batch axis.  Repeated vertices are skipped.
    """
    verts = [np.asarray(v, dtype=complex) for v in vertices]
    if len(verts) < 2:
        raise ValueError("polyline needs at least two vertices")
    verts = np.stack(np.broadcast_arrays(*verts))
    scalar = verts.ndim == 1
    verts = verts.reshape(len(verts), -1)
    a, b = verts[:-1], verts[1:]
    live = a != b
    empty = np.flatnonzero(~live.any(axis=0))
    if empty.size:
        raise ValueError(f"polyline {empty[0]} has zero length")
    parts = integrate_segment(func, a[live], b[live], abs_tol=abs_tol,
                              max_depth=max_depth)
    full = np.zeros(parts.shape[:-1] + live.shape, dtype=parts.dtype)
    full[..., live] = parts
    total = full[..., 0, :]
    for j in range(1, len(a)):
        total = total + full[..., j, :]
    return total[..., 0] if scalar else total
