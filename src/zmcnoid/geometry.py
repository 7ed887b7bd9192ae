"""Planar polyline intersection primitives.

Level curves at a fixed height live in a plane t = const, so all the
embeddedness machinery reduces to 2D segment geometry.  Every scan is one
walk down two box forests: each polyline gets a 4-ary tree of bounding boxes
over its segments, and the walk keeps, one level at a time, the box pairs
whose gap is within its bound (the tolerance, or the best distance found so
far, probed from box vertices above the leaves).  The segment pairs that
survive to the leaves get one exact distance test; segments closer than a
world tolerance intersect.  A self scan of a polyline whose x steps one way,
each inner step wider than the walk's leaf bound, needs no walk: the level
arcs of nonzero height are graphs over x, and their samples pass unless
rounding near a tip turns x back.  The kernels take x and y, and a box's
four children, as separate arrays: numpy reduces over an axis of length 2
to 4 far slower than it runs the same ufuncs elementwise.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TOLERANCE = 1e-9


def _point_segment_distance(p, a, b):
    """Distance from points p to segments [a, b]; each an (x, y) array pair."""
    (px, py), (ax, ay), (bx, by) = p, a, b
    dx, dy = bx - ax, by - ay
    denom = dx * dx + dy * dy
    t = ((px - ax) * dx + (py - ay) * dy) / np.where(denom > 0.0, denom, 1.0)
    t = np.clip(t, 0.0, 1.0)
    ex, ey = px - (ax + t * dx), py - (ay + t * dy)
    return np.sqrt(ex * ex + ey * ey)


def segment_pair_distance(a0, a1, b0, b1):
    """Minimum distance between segments [a0,a1] and [b0,b1], broadcast.

    Properly crossing pairs give 0; otherwise the minimum is attained at an
    endpoint, so four point-to-segment distances cover every other case
    (including collinear overlap).
    """
    a0, a1, b0, b1 = ((v[..., 0], v[..., 1]) for v in np.broadcast_arrays(
        np.asarray(a0, float), np.asarray(a1, float),
        np.asarray(b0, float), np.asarray(b1, float),
    ))
    (a0x, a0y), (a1x, a1y), (b0x, b0y), (b1x, b1y) = a0, a1, b0, b1
    dax, day, dbx, dby = a1x - a0x, a1y - a0y, b1x - b0x, b1y - b0y
    o1 = dax * (b0y - a0y) - day * (b0x - a0x)
    o2 = dax * (b1y - a0y) - day * (b1x - a0x)
    o3 = dbx * (a0y - b0y) - dby * (a0x - b0x)
    o4 = dbx * (a1y - b0y) - dby * (a1x - b0x)
    crossing = (o1 * o2 < 0.0) & (o3 * o4 < 0.0)
    dist = np.minimum(
        np.minimum(_point_segment_distance(b0, a0, a1), _point_segment_distance(b1, a0, a1)),
        np.minimum(_point_segment_distance(a0, b0, b1), _point_segment_distance(a1, b0, b1)),
    )
    return np.where(crossing, 0.0, dist)


def check_tolerance(tol) -> float:
    """tol as a float, or ValueError unless it is finite and positive."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and > 0, got {tol!r}")
    return float(tol)


def _polylines(points, ndim):
    """Validated float array of one polyline (ndim 2) or a stack of them (3)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != ndim or pts.shape[-1] != 2 or pts.shape[-2] < 2 or 0 in pts.shape:
        shape = "(N >= 2, 2)" if ndim == 2 else "(P >= 1, N >= 2, 2)"
        raise ValueError(f"polyline must be an {shape} array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        bad = np.argwhere(~np.isfinite(pts).all(axis=-1))
        *p, i = bad[0].tolist()
        where = f"polyline {p[0]} point {i}" if p else f"polyline point {i}"
        raise ValueError(f"{where} is not finite: {pts[tuple(bad[0])].tolist()}")
    return pts


def _empty_boxes(polylines, width):
    """(2, 3, polylines, width) lo and hi rows, all empty: lo = +inf, hi = -inf."""
    box = np.empty((2, 3, polylines, width))
    box[0], box[1] = np.inf, -np.inf
    return box


def _forest(stack, key, depth):
    """Box levels of a (P, N, 2) stack of polylines, leaves first.

    Level L is (lo, hi, m): m boxes per polyline, each bounding 4**L
    consecutive segments, as (3, P * m) rows of x, y and key, polyline-major.
    The segment key (broadcast to (P, N - 1)) is carried as its min and max.
    Below the top level, which has one box per polyline, m is padded to a
    multiple of 4 with empty boxes.
    """
    segments = stack.shape[1] - 1
    box = _empty_boxes(len(stack), segments + -segments % 4 if depth else 1)
    xy = np.moveaxis(stack, 2, 0)
    np.minimum(xy[..., :-1], xy[..., 1:], out=box[0, :2, :, :segments])
    np.maximum(xy[..., :-1], xy[..., 1:], out=box[1, :2, :, :segments])
    box[:, 2, :, :segments] = key
    levels = [(*box.reshape(2, 3, -1), box.shape[3])]
    for level in range(1, depth + 1):
        m = box.shape[3] // 4
        quads = box.reshape(2, 3, len(stack), m, 4)
        box = _empty_boxes(len(stack), m + -m % 4 if level < depth else 1)
        for side, pick in enumerate((np.minimum, np.maximum)):
            q, out = quads[side], box[side, ..., :m]
            pick(pick(q[..., 0], q[..., 1], out=out), q[..., 2], out=out)
            pick(out, q[..., 3], out=out)
        levels.append((*box.reshape(2, 3, -1), box.shape[3]))
    return levels


def _slack(*points):
    """A few ulps of the coordinate scale of (M, 2) point arrays.

    Box gaps and segment distances round differently; this much slack on the
    bound keeps every pair whose computed distance is within it.
    """
    return 32 * np.finfo(float).eps * max(max(p.max(), -p.min()) for p in points)


def _walk(a, b, tol, nearest, key=0.0, skip=-1):
    """Segment pairs of two polyline stacks that no box gap rules out.

    a and b are (P, N, 2) stacks; b None walks a against itself.  A box
    pair (I, J) is admissible iff key_lo[I] + skip < key_hi[J]; the default
    key and skip admit every pair of nonempty boxes.  From the (polyline,
    polyline) root pairs down, each level keeps the admissible box pairs
    whose gap is within the bound and expands them into their 16 children.
    The bound is tol.  With nearest it is max(tol, best), where best is
    tightened at every level from the nearest 16 admissible box pairs: above
    the leaves from the distance between the first vertices of their boxes,
    which bounds the minimum from above at a fraction of a segment distance's
    cost, and at the leaves from the segment distances.  That needs a key
    constant on each polyline, so those pairs are admissible too.

    Returns the leaf indices (I, J) of the surviving segment pairs and their
    distances d: every pair closer than tol is among them, and with nearest
    so is a closest pair.
    """
    same = b is None
    b = a if same else b
    depth = ((max(a.shape[1], b.shape[1]) - 2).bit_length() + 1) // 2   # ceil(log4(segments))
    fa = _forest(a, key, depth)
    fb = fa if same else _forest(b, key, depth)
    pa, pb = a.reshape(-1, 2), b.reshape(-1, 2)
    slack = _slack(pa, pb)

    def distances(I, J, level):
        # box i of polyline p starts with segment i * 4**level of that polyline
        (p, i), (q, j) = np.divmod(I, fa[level][2]), np.divmod(J, fb[level][2])
        ia, jb = p * a.shape[1] + i * 4 ** level, q * b.shape[1] + j * 4 ** level
        if level:
            return np.hypot(pa[ia, 0] - pb[jb, 0], pa[ia, 1] - pb[jb, 1])
        return segment_pair_distance(pa[ia], pa[ia + 1], pb[jb], pb[jb + 1])

    def children(index, forest, level):
        p, i = np.divmod(index, forest[level][2])
        return (p * forest[level - 1][2] + 4 * i)[:, None] + np.arange(4, dtype=np.int32)

    # int32 indices and one coordinate row at a time keep the temporaries small
    I = np.repeat(np.arange(len(a), dtype=np.int32), len(b))
    J = np.tile(np.arange(len(b), dtype=np.int32), len(a))
    bound = math.inf if nearest else tol
    for level in range(depth, -1, -1):
        (lo_a, hi_a, _), (lo_b, hi_b, _) = fa[level], fb[level]
        ok = lo_a[2][I] + skip < hi_b[2][J]
        I, J = I[ok], J[ok]
        gap = np.zeros(len(I))
        for x in range(2):
            sep = np.maximum(lo_a[x][I] - hi_b[x][J], lo_b[x][J] - hi_a[x][I])
            gap += np.square(np.maximum(sep, 0.0))
        gap = np.sqrt(gap)
        if nearest and len(I):
            near = np.argpartition(gap, 15)[:16] if len(I) > 16 else slice(None)
            bound = min(bound, max(tol, float(distances(I[near], J[near], level).min())))
        keep = gap <= bound + slack
        I, J = I[keep], J[keep]
        if level:
            I = np.repeat(children(I, fa, level), 4, axis=1).ravel()
            J = np.tile(children(J, fb, level), 4).ravel()
    return I, J, distances(I, J, 0)


def _hits(I, J, d, tol):
    close = d < tol
    I, J, d = I[close], J[close], d[close]
    order = np.lexsort((J, I))
    return list(zip(I[order].tolist(), J[order].tolist(), d[order].tolist()))


def polyline_self_intersections(points, tol=DEFAULT_TOLERANCE):
    """Segment index pairs of a polyline closer than tol, skipping neighbors.

    Returns a list of (i, j, distance) with i < j - 1; an empty list
    certifies the sampled polyline is simple at the given tolerance.  A
    polyline whose x is strictly monotone, with every segment but the first
    and last spanning more than the walk's leaf bound in x, returns [] without
    a walk: the x gap of two non-adjacent segments is at least the span of a
    segment between them, so the walk would rule every pair out at the leaves.
    """
    tol = check_tolerance(tol)
    pts = _polylines(points, 2)
    step = np.diff(pts[:, 0])
    # a few ulps above the leaf test gap <= tol + slack; below 1e-154 a gap's
    # square is subnormal, and the walk's rounding is no longer relative
    bound = (tol + _slack(pts)) * (1.0 + 4.0 * np.finfo(float).eps)
    if ((step > 0.0).all() or (step < 0.0).all()) and bound * bound >= np.finfo(float).tiny:
        if np.abs(step[1:-1]).min(initial=math.inf) > bound:
            return []
    return _hits(*_walk(pts[None], None, tol, False, key=np.arange(len(pts) - 1), skip=1), tol)


def polyline_pair_intersections(points_a, points_b, tol=DEFAULT_TOLERANCE):
    """Segment index pairs between two polylines closer than tol."""
    tol = check_tolerance(tol)
    a, b = _polylines(points_a, 2)[None], _polylines(points_b, 2)[None]
    return _hits(*_walk(a, b, tol, False), tol)


def polyline_pair_min_distance(points_a, points_b) -> float:
    """Minimum distance between two polylines (exact on the samples)."""
    a, b = _polylines(points_a, 2)[None], _polylines(points_b, 2)[None]
    return float(_walk(a, b, 0.0, True)[2].min())


def polyline_set_scan(polylines, others=None, tol=DEFAULT_TOLERANCE):
    """Close segment pairs and the minimum distance between polylines.

    polylines and others are (P, N, 2) stacks of equal-length polylines.
    Each polyline of polylines is tested against each one of others; with
    others None, each pair of distinct polylines in polylines is tested
    once.  Returns (hits, distance): the number of segment pairs closer than
    tol, and the minimum segment distance over all tested pairs.
    """
    tol = check_tolerance(tol)
    a = _polylines(polylines, 3)
    if others is None:
        _, _, d = _walk(a, None, tol, True, key=np.arange(len(a))[:, None], skip=0)
    else:
        _, _, d = _walk(a, _polylines(others, 3), tol, True)
    return int(np.count_nonzero(d < tol)), float(d.min(initial=math.inf))
