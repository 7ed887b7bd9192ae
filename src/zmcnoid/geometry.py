"""Planar polyline intersection primitives.

Level curves at a fixed height live in a plane t = const, so all the
embeddedness machinery reduces to 2D segment geometry.  One matrix of
bounding-box gaps between blocks of BLOCK_SIZE segments orders the block
pairs nearest first, and a scan stops at the first gap that reaches its bound
(the tolerance, or the best distance so far).  The pairs before it get an
exact distance test; segments closer than a world tolerance intersect.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TOLERANCE = 1e-9
BLOCK_SIZE = 64


def _cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _point_segment_distance(p, a, b):
    """Distance from points p to segments [a, b]; all arrays (..., 2)."""
    d = b - a
    denom = np.einsum("...i,...i", d, d)
    t = np.einsum("...i,...i", p - a, d) / np.where(denom > 0.0, denom, 1.0)
    t = np.clip(t, 0.0, 1.0)
    closest = a + t[..., None] * d
    return np.linalg.norm(p - closest, axis=-1)


def segment_pair_distance(a0, a1, b0, b1):
    """Minimum distance between segments [a0,a1] and [b0,b1], broadcast.

    Properly crossing pairs give 0; otherwise the minimum is attained at an
    endpoint, so four point-to-segment distances cover every other case
    (including collinear overlap).
    """
    a0, a1, b0, b1 = np.broadcast_arrays(
        np.asarray(a0, float), np.asarray(a1, float),
        np.asarray(b0, float), np.asarray(b1, float),
    )
    da = a1 - a0
    db = b1 - b0
    o1 = _cross2(da, b0 - a0)
    o2 = _cross2(da, b1 - a0)
    o3 = _cross2(db, a0 - b0)
    o4 = _cross2(db, a1 - b0)
    crossing = (o1 * o2 < 0.0) & (o3 * o4 < 0.0)
    dist = np.minimum.reduce([
        _point_segment_distance(b0, a0, a1),
        _point_segment_distance(b1, a0, a1),
        _point_segment_distance(a0, b0, b1),
        _point_segment_distance(a1, b0, b1),
    ])
    return np.where(crossing, 0.0, dist)


def _segments(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("polyline must be an (N >= 2, 2) array")
    return pts[:-1], pts[1:]


def _block_pairs(a0, a1, b0, b1, bound, upper=False):
    """Segment distances of block pairs, nearest bounding boxes first.

    A block is BLOCK_SIZE consecutive segments.  Yields (i, j, d), where d
    holds the distances between the segments of the blocks starting at i and
    j.  The Euclidean gap between the two blocks' boxes bounds d from below,
    so the walk stops at the first gap that is not below bound(), read
    before each pair.  upper keeps only the block pairs with i <= j.
    """
    def boxes(p0, p1):
        # repeating the last segment fills the last block without moving its box
        ends = np.pad(np.concatenate([p0, p1], axis=1),
                      ((0, -len(p0) % BLOCK_SIZE), (0, 0)), mode="edge")
        ends = ends.reshape(-1, 2 * BLOCK_SIZE, 2)
        return ends.min(axis=1), ends.max(axis=1)

    lo_a, hi_a = boxes(a0, a1)
    lo_b, hi_b = boxes(b0, b1)
    sep = np.maximum(lo_a[:, None] - hi_b[None], lo_b[None] - hi_a[:, None])
    gap = np.sqrt((np.maximum(sep, 0.0) ** 2).sum(axis=-1))
    if upper:
        gap[np.tril_indices_from(gap, -1)] = np.inf
    order = np.argsort(gap, axis=None, kind="stable")
    starts = BLOCK_SIZE * np.stack(np.unravel_index(order, gap.shape))
    for g, i, j in zip(gap.ravel()[order].tolist(), *starts.tolist()):
        if g >= bound():
            return
        sa, sb = slice(i, i + BLOCK_SIZE), slice(j, j + BLOCK_SIZE)
        yield i, j, segment_pair_distance(a0[sa, None], a1[sa, None], b0[None, sb], b1[None, sb])


def _close_pairs(a0, a1, b0, b1, tol, upper=False):
    hits = []
    for i, j, d in _block_pairs(a0, a1, b0, b1, lambda: tol, upper):
        ii, jj = np.nonzero(d < tol)
        hits.extend(zip((ii + i).tolist(), (jj + j).tolist(), d[ii, jj].tolist()))
    return sorted(hits)


def polyline_self_intersections(points, tol=DEFAULT_TOLERANCE):
    """Segment index pairs of a polyline closer than tol, skipping neighbors.

    Returns a list of (i, j, distance) with i < j - 1; an empty list
    certifies the sampled polyline is simple at the given tolerance.
    """
    a, b = _segments(points)
    return [hit for hit in _close_pairs(a, b, a, b, tol, upper=True) if hit[1] - hit[0] > 1]


def polyline_pair_intersections(points_a, points_b, tol=DEFAULT_TOLERANCE):
    """Segment index pairs between two polylines closer than tol."""
    return _close_pairs(*_segments(points_a), *_segments(points_b), tol)


def polyline_pair_min_distance(points_a, points_b) -> float:
    """Minimum distance between two polylines (exact on the samples).

    Block pairs are evaluated nearest box first until a box gap reaches the
    best distance found so far.
    """
    best = math.inf
    for _, _, d in _block_pairs(*_segments(points_a), *_segments(points_b), lambda: best):
        best = min(best, float(d.min()))
    return best
