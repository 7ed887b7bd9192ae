"""Planar segment and polyline primitives against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_block_pruning_equivalence():
    # the pruned scans must agree exactly with the all-pairs oracle: a
    # 600-point lemniscate and a random walk spanning several blocks, neither
    # a multiple of BLOCK_SIZE segments long
    t = np.linspace(0.0, 2.0 * math.pi, 600)
    lemniscate = np.stack([np.sin(2.0 * t) / 2.0, np.sin(t)], axis=1)
    walk = np.cumsum(np.random.default_rng(503).normal(size=(3 * geo.BLOCK_SIZE + 6, 2)), axis=0)
    assert all((len(p) - 1) % geo.BLOCK_SIZE for p in (lemniscate, walk))
    for pts in (lemniscate, walk / 8.0):
        for other in (pts[::-1] + 0.05, pts + [3.0, 0.0], np.flip(pts, axis=1)):
            d = all_pair_distances(pts, other)
            assert geo.polyline_pair_min_distance(pts, other) == float(d.min())
            for tol in (1e-9, 2e-2):
                want = [(int(i), int(j), float(d[i, j])) for i, j in np.argwhere(d < tol)]
                assert geo.polyline_pair_intersections(pts, other, tol) == want
        d = all_pair_distances(pts, pts)
        for tol in (1e-9, 2e-2):
            want = [(int(i), int(j), float(d[i, j]))
                    for i, j in np.argwhere(d < tol) if j - i > 1]
            assert geo.polyline_self_intersections(pts, tol) == want
            assert want


def test_polyline_input_validation():
    with pytest.raises(ValueError):
        geo.polyline_self_intersections(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        geo.polyline_self_intersections(np.zeros((5, 3)))
    with pytest.raises(ValueError):
        geo.polyline_pair_min_distance(np.zeros((3, 2)), np.zeros((4,)))
