"""Which zmcnoid functions the traced run wraps, and the per-layer metrics.

Every per-layer metric is a value per traced pass, named
``<module>.<function>.<stat>``:

- ``calls``: spans of the function.
- ``self_s``: summed self time (duration minus the union of child spans).
- ``points`` / ``pairs`` / ``bytes``: summed work size, as defined by the
  function's size probe below.

A function that a workload never calls reports 0 for every stat.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict

import numpy as np

from spans import END, NAME, PARENT, POOL_TASK, SIZE, START, self_times, union_length


def _size(x) -> float:
    return float(np.size(x))


def _grid_points(n, u, theta, *rest, **kw) -> float:
    return float(math.prod(np.broadcast_shapes(np.shape(u), np.shape(theta))))


def _segment_pairs(a0, a1, b0, b1) -> float:
    shape = np.broadcast_shapes(*(np.shape(x) for x in (a0, a1, b0, b1)))
    return float(math.prod(shape[:-1]))


def _candidate_pairs(points_a, points_b, *rest, **kw) -> float:
    return float((len(points_a) - 1) * (len(points_b) - 1))


def _self_candidate_pairs(points, *rest, **kw) -> float:
    return float((len(points) - 1) ** 2)


def _file_bytes(mesh_or_curves, path) -> float:
    return float(os.path.getsize(path))


def _obj_bytes(mesh, path) -> float:
    return float(os.path.getsize(path) + os.path.getsize(path + ".causal.csv"))


# qualified name -> (stats, size probe at entry, size probe at exit)
TARGETS = {
    "chebyshev.invert_T": (("calls", "self_s", "points"),
                           lambda n, y, *r, **k: _size(y), None),
    "chebyshev.eval_T": (("calls", "self_s"), None, None),
    "quadrature.integrate_polyline": (("calls", "self_s"), None, None),
    "weierstrass.alpha": (("calls", "self_s"), None, None),
    "weierstrass.integrate_lift_numeric": (("calls", "self_s"), None, None),
    "weierstrass.lift_closed_form": (("calls", "self_s"), None, None),
    "weierstrass.loop_integral": (("self_s",), None, None),
    "weierstrass.f_polar": (("self_s",), None, None),
    "extension.eval_extended_grid": (("calls", "self_s", "points"), _grid_points, None),
    "extension.log_factors": (("self_s",), None, None),
    "extension.omega_lower_bound": (("calls", "self_s"), None, None),
    "extension.causal_type_grid": (("calls", "self_s"), None, None),
    "extension.first_fundamental_grid": (("self_s",), None, None),
    "analysis.mean_curvature_residual": (("calls", "self_s"), None, None),
    "analysis.contour_u": (("calls", "self_s", "points"),
                           lambda n, h, theta: _size(theta), None),
    "analysis.level_curve": (("self_s",), None, None),
    "analysis.region_Dh_certificate": (("self_s",), None, None),
    "analysis.embeddedness_scan": (("self_s",), None, None),
    "geometry.segment_pair_distance": (("calls", "self_s", "pairs"), _segment_pairs, None),
    "geometry.polyline_pair_min_distance": (("calls", "self_s"), _candidate_pairs, None),
    "geometry.polyline_pair_intersections": (("calls", "self_s"), _candidate_pairs, None),
    "geometry.polyline_self_intersections": (("calls", "self_s"), _self_candidate_pairs, None),
    "meshio.tessellate": (("calls", "self_s"), None, None),
    "meshio.export_ply": (("self_s", "bytes"), None, _file_bytes),
    "meshio.export_obj": (("self_s", "bytes"), None, _obj_bytes),
    "meshio.export_level_curves": (("self_s", "bytes"), None, _file_bytes),
    "cli.run": (("self_s",), None, None),
}

POLYLINE_CALLS = (
    "geometry.polyline_pair_min_distance",
    "geometry.polyline_pair_intersections",
    "geometry.polyline_self_intersections",
)

# the 20 checks of verify.REGISTRY at the commit that defined the benchmark;
# the list is fixed so that the traced run prints the same metric names on
# every commit (a check that disappears reports 0)
VERIFY_CHECKS = (
    "chebyshev.trig_identities",
    "chebyshev.invert_roundtrip",
    "chebyshev.monotonicity",
    "chebyshev.positivity",
    "weierstrass.null_form",
    "weierstrass.lift_agreement",
    "weierstrass.polar_symmetries",
    "weierstrass.fold_symmetry",
    "weierstrass.period_condition",
    "extension.denominator_positivity",
    "extension.group_decomposition",
    "extension.infinity_decay",
    "extension.group_lorentz_invariance",
    "extension.graph_identity_n2",
    "analysis.derivative_agreement",
    "analysis.jacobian_sum_identity",
    "analysis.contour_roundtrip",
    "analysis.height_nonnegative_fundamental",
    "analysis.level_curve_mirror",
    "analysis.zero_mean_curvature",
)

_UNITS = {"calls": "count", "self_s": "s", "points": "count", "pairs": "count",
          "bytes": "B"}


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in the order they are printed."""
    out = []
    for qualname, (stats, _, _) in TARGETS.items():
        out.extend((f"{qualname}.{stat}", _UNITS[stat]) for stat in stats)
        if qualname == "meshio.tessellate":
            out += [("meshio.tessellate.pool_busy_s", "s"),
                    ("meshio.tessellate.parallelism", "ratio")]
    out += [("geometry.pairs_evaluated_frac", "ratio"),
            ("geometry.pairs_candidates", "count")]
    out += [(f"verify.{check}.s", "s") for check in VERIFY_CHECKS]
    out += [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
            ("trace.overhead_s", "s")]
    return out


def target_list():
    """(qualified name, size probe, exit probe) triples for Tracer.install."""
    return [(name, size, after) for name, (_, size, after) in TARGETS.items()]


def aggregate(spans, passes: int) -> dict[str, float]:
    """Per-pass per-layer values from the spans of `passes` traced passes."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    size = defaultdict(float)
    duration = defaultdict(float)
    pool_intervals = []
    for s, own in zip(spans, selfs):
        name = s[NAME]
        calls[name] += 1
        self_s[name] += own
        size[name] += s[SIZE]
        duration[name] += s[END] - s[START]
        if name == POOL_TASK:
            pool_intervals.append((s[START], s[END]))

    # segment pairs that reach segment_pair_distance from a polyline scan
    evaluated = 0.0
    for s in spans:
        if s[NAME] != "geometry.segment_pair_distance":
            continue
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] not in POLYLINE_CALLS:
            parent = spans[parent][PARENT]
        if parent >= 0:
            evaluated += s[SIZE]
    candidates = sum(size[name] for name in POLYLINE_CALLS)

    values = {}
    for qualname, (stats, _, _) in TARGETS.items():
        for stat in stats:
            if stat == "calls":
                v = calls[qualname]
            elif stat == "self_s":
                v = self_s[qualname]
            else:
                v = size[qualname]
            values[f"{qualname}.{stat}"] = v / passes
    busy = duration[POOL_TASK]
    covered = union_length(pool_intervals)
    values["meshio.tessellate.pool_busy_s"] = busy / passes
    values["meshio.tessellate.parallelism"] = busy / covered if covered > 0 else 0.0
    values["geometry.pairs_evaluated_frac"] = evaluated / candidates if candidates else 0.0
    values["geometry.pairs_candidates"] = candidates / passes
    for check in VERIFY_CHECKS:
        values[f"verify.{check}.s"] = duration[f"verify.{check}"] / passes
    return values
