"""Planar segment and polyline primitives against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zmcnoid import analysis as an
from zmcnoid import geometry as geo


def brute_segment_distance(a0, a1, b0, b1, samples=400):
    """Dense sampling oracle for the segment pair distance."""
    t = np.linspace(0.0, 1.0, samples)
    pa = a0[None, :] + t[:, None] * (a1 - a0)[None, :]
    pb = b0[None, :] + t[:, None] * (b1 - b0)[None, :]
    d = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=-1)
    return float(d.min())


# ---------------------------------------------------------------------------
# segment pair distance
# ---------------------------------------------------------------------------

def test_proper_crossing_gives_zero():
    d = geo.segment_pair_distance(
        np.array([-1.0, 0.0]), np.array([1.0, 0.0]),
        np.array([0.0, -1.0]), np.array([0.0, 1.0]),
    )
    assert float(d) == 0.0


def test_parallel_segments_distance():
    d = geo.segment_pair_distance(
        np.array([0.0, 0.0]), np.array([1.0, 0.0]),
        np.array([0.0, 0.5]), np.array([1.0, 0.5]),
    )
    assert abs(float(d) - 0.5) < 1e-15


def test_collinear_disjoint_distance():
    d = geo.segment_pair_distance(
        np.array([0.0, 0.0]), np.array([1.0, 0.0]),
        np.array([1.5, 0.0]), np.array([3.0, 0.0]),
    )
    assert abs(float(d) - 0.5) < 1e-15


def test_collinear_overlap_is_zero():
    d = geo.segment_pair_distance(
        np.array([0.0, 0.0]), np.array([2.0, 0.0]),
        np.array([1.0, 0.0]), np.array([3.0, 0.0]),
    )
    assert float(d) == 0.0


def test_shared_endpoint_is_zero():
    d = geo.segment_pair_distance(
        np.array([0.0, 0.0]), np.array([1.0, 1.0]),
        np.array([1.0, 1.0]), np.array([2.0, 0.0]),
    )
    assert float(d) == 0.0


def test_t_junction_touch_is_zero():
    # endpoint of one segment in the interior of the other: the orientation
    # test sees no proper crossing, the endpoint distances catch the touch
    d = geo.segment_pair_distance(
        np.array([-1.0, 0.0]), np.array([1.0, 0.0]),
        np.array([0.0, 0.0]), np.array([0.0, 1.0]),
    )
    assert float(d) == 0.0


def test_degenerate_point_segment():
    d = geo.segment_pair_distance(
        np.array([0.3, 0.4]), np.array([0.3, 0.4]),
        np.array([0.0, 0.0]), np.array([1.0, 0.0]),
    )
    assert abs(float(d) - 0.4) < 1e-15


def test_distance_matches_brute_force():
    rng = np.random.default_rng(501)
    for _ in range(200):
        a0, a1, b0, b1 = rng.uniform(-1.0, 1.0, (4, 2))
        got = float(geo.segment_pair_distance(a0, a1, b0, b1))
        want = brute_segment_distance(a0, a1, b0, b1)
        # the sampled oracle overestimates by at most the sampling pitch
        pitch = max(np.linalg.norm(a1 - a0), np.linalg.norm(b1 - b0)) / 399
        assert got <= want + 1e-12
        assert want - got <= pitch


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0), min_size=8, max_size=8))
def test_distance_symmetry_property(vals):
    a0, a1 = np.array(vals[0:2]), np.array(vals[2:4])
    b0, b1 = np.array(vals[4:6]), np.array(vals[6:8])
    d1 = float(geo.segment_pair_distance(a0, a1, b0, b1))
    d2 = float(geo.segment_pair_distance(b0, b1, a0, a1))
    d3 = float(geo.segment_pair_distance(a1, a0, b1, b0))
    assert abs(d1 - d2) < 1e-12
    assert abs(d1 - d3) < 1e-12
    assert d1 >= 0.0


def test_broadcasting_shapes():
    a0 = np.zeros((5, 1, 2))
    a1 = np.full((5, 1, 2), 1.0)
    b0 = np.zeros((1, 7, 2))
    b1 = np.full((1, 7, 2), 2.0)
    d = geo.segment_pair_distance(a0, a1, b0, b1)
    assert d.shape == (5, 7)
    assert np.max(d) == 0.0


def vector_segment_pair_distance(a0, a1, b0, b1):
    """The same formula on (..., 2) vectors, through einsum and norm."""
    a0, a1, b0, b1 = np.broadcast_arrays(*(np.asarray(v, float) for v in (a0, a1, b0, b1)))

    def cross(a, b):
        return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]

    def point_segment(p, a, b):
        d = b - a
        denom = np.einsum("...i,...i", d, d)
        t = np.einsum("...i,...i", p - a, d) / np.where(denom > 0.0, denom, 1.0)
        t = np.clip(t, 0.0, 1.0)
        return np.linalg.norm(p - (a + t[..., None] * d), axis=-1)

    da, db = a1 - a0, b1 - b0
    crossing = ((cross(da, b0 - a0) * cross(da, b1 - a0) < 0.0)
                & (cross(db, a0 - b0) * cross(db, a1 - b0) < 0.0))
    dist = np.minimum.reduce([
        point_segment(b0, a0, a1), point_segment(b1, a0, a1),
        point_segment(a0, b0, b1), point_segment(a1, b0, b1),
    ])
    return np.where(crossing, 0.0, dist)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_distance_is_bit_identical_to_the_vector_formula(scale):
    rng = np.random.default_rng(19)
    count = 100_000
    # half uniform, half on a 7x7 integer grid, which makes exact zero-length
    # segments, shared endpoints, T-junctions and collinear overlaps common
    ends = rng.uniform(-3.0, 3.0, (4, count, 2))
    ends[:, count // 2:] = rng.integers(-3, 4, (4, count - count // 2, 2))
    ends *= scale
    a0, a1, b0, b1 = ends
    got = geo.segment_pair_distance(a0, a1, b0, b1)
    want = vector_segment_pair_distance(a0, a1, b0, b1)
    assert got.shape == want.shape == (count,)
    assert np.array_equal(got, want)
    # each special case is present
    da, db = a1 - a0, b1 - b0
    oa = [da[:, 0] * w[:, 1] - da[:, 1] * w[:, 0] for w in (b0 - a0, b1 - a0)]
    ob = [db[:, 0] * w[:, 1] - db[:, 1] * w[:, 0] for w in (a0 - b0, a1 - b0)]
    crossing = (oa[0] * oa[1] < 0.0) & (ob[0] * ob[1] < 0.0)
    zero_length = (a0 == a1).all(axis=1)
    shared_endpoint = (a1 == b0).all(axis=1)
    collinear_touch = (oa[0] == 0.0) & (oa[1] == 0.0) & (got == 0.0) & ~zero_length
    for case in (crossing, zero_length, shared_endpoint, collinear_touch):
        assert np.count_nonzero(case) > 100
    # the uniform half rounds, so it also meets near-touching pairs
    assert np.count_nonzero((got > 0.0) & (got < 1e-3 * scale)) > 0
    for shapes in [((9, 1, 2), (1, 11, 2)), ((2,), (2,)), ((2,), (5, 2))]:
        ka, kb = shapes
        a0, a1 = rng.uniform(-scale, scale, (2, *ka))
        b0, b1 = rng.uniform(-scale, scale, (2, *kb))
        got = geo.segment_pair_distance(a0, a1, b0, b1)
        want = vector_segment_pair_distance(a0, a1, b0, b1)
        assert got.shape == want.shape == np.broadcast_shapes(ka, kb)[:-1]
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# polyline scans
# ---------------------------------------------------------------------------

def test_simple_polyline_clean():
    t = np.linspace(0.0, 2.0, 300)
    pts = np.stack([t, t * t], axis=1)
    assert geo.polyline_self_intersections(pts) == []


def test_figure_eight_detected():
    # lemniscate of Gerono crosses itself at the origin
    t = np.linspace(0.0, 2.0 * math.pi, 1001)
    pts = np.stack([np.sin(2.0 * t) / 2.0, np.sin(t)], axis=1)
    hits = geo.polyline_self_intersections(pts)
    assert len(hits) >= 1
    i, j, d = hits[0]
    assert j - i > 1
    assert d < 1e-9


def test_adjacent_segments_not_reported():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert geo.polyline_self_intersections(pts) == []


def test_near_miss_respects_tolerance():
    gap = 1e-6
    pts = np.array([
        [0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, gap], [0.0, 1.0],
    ])
    assert geo.polyline_self_intersections(pts, tol=1e-9) == []
    hits = geo.polyline_self_intersections(pts, tol=1e-4)
    assert len(hits) >= 1


def test_pair_intersections_cross():
    a = np.array([[-1.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, -1.0], [0.0, 1.0]])
    hits = geo.polyline_pair_intersections(a, b)
    assert hits == [(0, 0, 0.0)]


def test_pair_intersections_disjoint():
    t = np.linspace(0.0, 1.0, 100)
    a = np.stack([t, np.zeros_like(t)], axis=1)
    b = np.stack([t, np.ones_like(t)], axis=1)
    assert geo.polyline_pair_intersections(a, b) == []
    assert abs(geo.polyline_pair_min_distance(a, b) - 1.0) < 1e-15


def test_pair_min_distance_matches_direct():
    rng = np.random.default_rng(502)
    t = np.linspace(0.0, 1.0, 40)
    a = np.stack([t, 0.3 * np.sin(5.0 * t)], axis=1)
    b = np.stack([t + 0.1, 0.3 * np.sin(5.0 * t) + 0.4], axis=1)
    got = geo.polyline_pair_min_distance(a, b)
    direct = np.inf
    for i in range(len(a) - 1):
        for j in range(len(b) - 1):
            direct = min(direct, float(geo.segment_pair_distance(
                a[i], a[i + 1], b[j], b[j + 1])))
    assert abs(got - direct) < 1e-14


def all_pair_distances(a, b):
    """Unpruned oracle: every segment of polyline a against every one of b."""
    return geo.segment_pair_distance(a[:-1, None], a[1:, None], b[None, :-1], b[None, 1:])


def square_spiral(turns):
    """Grid-aligned spiral: parallel arms exactly 1 apart, where box gaps equal segment distances."""
    pts, step = [(0.0, 0.0)], 1.0
    for k in range(turns):
        dx, dy = [(1, 0), (0, 1), (-1, 0), (0, -1)][k % 4]
        x, y = pts[-1]
        pts.append((x + dx * step, y + dy * step))
        step += k % 2
    return np.array(pts)


def check_pair_scans(pts, other, tols):
    d = all_pair_distances(pts, other)
    assert geo.polyline_pair_min_distance(pts, other) == float(d.min())
    for tol in tols:
        want = [(int(i), int(j), float(d[i, j])) for i, j in np.argwhere(d < tol)]
        assert geo.polyline_pair_intersections(pts, other, tol) == want


def check_self_scan(pts, tols):
    d = all_pair_distances(pts, pts)
    for tol in tols:
        want = [(int(i), int(j), float(d[i, j]))
                for i, j in np.argwhere(d < tol) if j - i > 1]
        assert geo.polyline_self_intersections(pts, tol) == want


def check_set_scans(stack, tols):
    # the copy stack: polyline 0 against every other one
    d = np.concatenate([all_pair_distances(stack[0], q).ravel() for q in stack[1:]])
    # the same set: every pair of distinct polylines once
    e = np.concatenate([all_pair_distances(stack[p], stack[q]).ravel()
                        for p in range(len(stack)) for q in range(p + 1, len(stack))])
    for tol in tols:
        assert geo.polyline_set_scan(stack[:1], stack[1:], tol) == (
            int(np.count_nonzero(d < tol)), float(d.min()))
        assert geo.polyline_set_scan(stack, tol=tol) == (
            int(np.count_nonzero(e < tol)), float(e.min()))


def test_block_pruning_equivalence():
    # the pruned scans must agree exactly with the all-pairs oracle: a
    # 600-point lemniscate and a random walk spanning several 64-segment
    # blocks, neither a multiple of 64 segments long
    t = np.linspace(0.0, 2.0 * math.pi, 600)
    lemniscate = np.stack([np.sin(2.0 * t) / 2.0, np.sin(t)], axis=1)
    walk = np.cumsum(np.random.default_rng(503).normal(size=(3 * 64 + 6, 2)), axis=0)
    assert all((len(p) - 1) % 64 for p in (lemniscate, walk))
    for pts in (lemniscate, walk / 8.0):
        for other in (pts[::-1] + 0.05, pts + [3.0, 0.0], np.flip(pts, axis=1)):
            check_pair_scans(pts, other, (1e-9, 2e-2))
        check_self_scan(pts, (1e-9, 2e-2))
        for tol in (1e-9, 2e-2):
            assert geo.polyline_self_intersections(pts, tol)
    # trees of unequal depth: 599 segments against 197 and against 1 to 4
    rng = np.random.default_rng(504)
    shorts = [rng.normal(scale=0.5, size=(k, 2)) for k in (2, 3, 5)]
    for pts in [walk / 8.0] + shorts:
        check_pair_scans(lemniscate, pts, (1e-9, 2e-1))
        check_pair_scans(pts, lemniscate, (1e-9, 2e-1))
    for pts in shorts:
        check_self_scan(pts, (1e-9, 2e-1, 1.0))
        for other in shorts:
            check_pair_scans(pts, other, (1e-9, 2e-1))
    # the set walks: copies of the lemniscate and of the walk, and random walks
    for base in (lemniscate, walk / 8.0):
        check_set_scans(np.stack([base + [0.3 * k, 0.1 * k] for k in range(3)]), (1e-9, 2e-2))
    check_set_scans(np.cumsum(rng.normal(size=(6, 70, 2)), axis=1) / 4.0, (1e-9, 1e-1))
    check_set_scans(rng.normal(size=(4, 3, 2)), (1e-9, 1e-1))


def test_grid_aligned_pruning_at_exact_distances():
    # on the grid, box gaps equal segment distances exactly; a tolerance at
    # an observed distance excludes the pairs at that distance, and the next
    # float up includes them
    spiral = square_spiral(120)
    d = all_pair_distances(spiral, spiral)
    assert np.any(d == 1.0)
    tols = (1.0, np.nextafter(1.0, 2.0), 0.5, np.nextafter(0.5, 1.0))
    check_self_scan(spiral, tols)
    for other in (spiral + [0.5, 0.0], spiral + [0.0, 0.5], spiral[::-1] + [2.0, 0.5]):
        assert np.any(all_pair_distances(spiral, other) == 0.5)
        check_pair_scans(spiral, other, tols)
    check_set_scans(np.stack([spiral + [0.5 * k, 0.0] for k in range(4)]), tols)


def test_pruning_keeps_pairs_that_round_below_their_box_gap():
    # the closest points are segment ends; the distance reaches one of them
    # as a0 + 1 * (a1 - a0), which rounds, while the box gap reads it exactly
    a = np.array([[-0.34994871813811557, -0.6797960842936217],
                  [-0.4740099829446389, -0.7413993770627885]])
    b = np.array([[-8.497837555983164, -4.919992349591084],
                  [-0.47401011700239426, -0.7413994530507098]])
    d = float(all_pair_distances(a, b)[0, 0])
    tol = float(np.nextafter(d, 1.0))
    sep = np.maximum(a.min(axis=0) - b.max(axis=0), b.min(axis=0) - a.max(axis=0))
    assert math.hypot(*np.maximum(sep, 0.0)) > tol
    assert geo.polyline_pair_intersections(a, b, tol) == [(0, 0, d)]
    assert geo.polyline_set_scan(a[None], b[None], tol) == (1, d)


def test_nearest_walk_does_not_stall():
    # copy 0 against the other copies of each level slice, as the
    # embeddedness scan walks them: the nearest bound must prune about as
    # well as the exact minimum would, which a bound stale at the leaves
    # does not when the closest segments lie outside the 16 nearest boxes
    stalled = []
    for n in range(3, 9):
        for h in (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0):
            xy = np.stack([c.points[:, 1:3] for c in an.level_curve(n, h, 2048)])
            d = geo._walk(xy[:1], xy[1:], geo.DEFAULT_TOLERANCE, True)[2]
            exact = len(geo._walk(xy[:1], xy[1:], float(d.min()), False)[2])
            if len(d) > max(2 * exact, 2000):
                stalled.append((n, h, len(d), exact))
    assert not stalled


def forest_oracle(stack, key, depth):
    """Each level's (lo, hi) rows, every box taken over its own segments."""
    P, N = stack.shape[:2]
    segments = N - 1
    keys = np.broadcast_to(key, (P, segments))[..., None]
    lo = np.concatenate([np.minimum(stack[:, :-1], stack[:, 1:]), keys], axis=2)
    hi = np.concatenate([np.maximum(stack[:, :-1], stack[:, 1:]), keys], axis=2)
    levels = []
    for level in range(depth + 1):
        span = 4 ** level
        m = -(-segments // span)
        width = 1 if level == depth else m + -m % 4
        box = np.empty((2, 3, P, width))
        box[0], box[1] = np.inf, -np.inf
        for i in range(m):
            box[0, :, :, i] = lo[:, i * span:(i + 1) * span].min(axis=1).T
            box[1, :, :, i] = hi[:, i * span:(i + 1) * span].max(axis=1).T
        levels.append((box[0].reshape(3, -1), box[1].reshape(3, -1), width))
    return levels


@pytest.mark.parametrize("P", [1, 2, 7, 16])
def test_forest_matches_per_box_oracle(P):
    rng = np.random.default_rng(P)
    empty = 0
    for N in (2, 3, 5, 6, 17, 65, 2048):
        stack = rng.normal(size=(P, N, 2)) * rng.uniform(1e-3, 1e3, (P, 1, 2))
        depth = next(d for d in range(8) if 4 ** d >= N - 1)
        # a deeper forest is what the shorter stack of a walk gets
        for d in (depth, depth + 1):
            for key in (0.0, np.arange(N - 1), np.arange(P)[:, None]):
                got, want = geo._forest(stack, key, d), forest_oracle(stack, key, d)
                assert len(got) == len(want) == d + 1
                for (lo, hi, m), (lo_w, hi_w, m_w) in zip(got, want):
                    assert m == m_w
                    assert np.array_equal(lo, lo_w) and np.array_equal(hi, hi_w)
                    empty += np.count_nonzero(np.isposinf(lo) & np.isneginf(hi))
    assert empty > 0


def test_scans_reject_bad_tolerance_and_points():
    a = np.array([[-1.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, -1.0], [0.0, 1.0]])
    assert geo.polyline_pair_intersections(a, b) == [(0, 0, 0.0)]
    for tol in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(ValueError, match=f"got {tol!r}"):
            geo.polyline_pair_intersections(a, b, tol)
        with pytest.raises(ValueError, match=f"got {tol!r}"):
            geo.polyline_self_intersections(np.concatenate([a, b]), tol)
        with pytest.raises(ValueError, match=f"got {tol!r}"):
            geo.polyline_set_scan(np.stack([a, b]), tol=tol)
    bad = np.array([[0.0, 0.0], [math.nan, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match=r"point 1 is not finite: \[nan, 1.0\]"):
        geo.polyline_pair_min_distance(a, bad)
    with pytest.raises(ValueError, match="point 1 is not finite"):
        geo.polyline_pair_intersections(bad, a)
    with pytest.raises(ValueError, match="point 2 is not finite"):
        geo.polyline_self_intersections(np.concatenate([a, [[math.inf, 0.0]]]))
    with pytest.raises(ValueError, match="polyline 1 point 1 is not finite"):
        geo.polyline_set_scan(np.stack([a[[0, 1, 1]], bad]))


def test_polyline_input_validation():
    with pytest.raises(ValueError):
        geo.polyline_self_intersections(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        geo.polyline_self_intersections(np.zeros((5, 3)))
    with pytest.raises(ValueError):
        geo.polyline_pair_min_distance(np.zeros((3, 2)), np.zeros((4,)))
