"""The three workloads: seeded op lists, the ops, and the checks of their outputs.

Each workload turns a seed into a fixed list of operations.  Every pass of a
run replays the same list in the same order, one op at a time (a closed loop
with a single client).  An op is timed around the library call alone; its
output is checked right after, outside the timed interval.

Ops look library functions up on their module at call time (``cli.run``,
``meshio.tessellate``), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """An op ran but its output is wrong."""


@dataclass(frozen=True)
class Size:
    """Input sizes of the three workloads."""

    verify_args: tuple         # extra `zmcnoid verify` arguments
    verify_records: int        # check records each report must hold
    embed_orders: tuple        # one nonzero-height slice per order
    embed_ray_order: int       # order of the h = 0 ray scan in every pass
    embed_samples: int
    mesh_grid: tuple
    mesh_bands: tuple          # one PLY order is drawn from each band
    level_bands: tuple         # one level-curve order is drawn from each band
    level_samples: int


FULL = Size(
    verify_args=(),
    verify_records=150,
    embed_orders=(3, 4, 5, 6, 7, 8),
    embed_ray_order=8,
    embed_samples=2048,
    mesh_grid=(256, 768),
    mesh_bands=((2, 3), (4, 5), (6, 8), (9, 12), (13, 17)),
    level_bands=((3, 4), (5, 6), (7, 8)),
    level_samples=512,
)

# for the benchmark's own tests: every code path, seconds instead of minutes
TINY = Size(
    verify_args=("--n", "2"),
    verify_records=62,
    embed_orders=(3,),
    embed_ray_order=4,
    embed_samples=256,
    mesh_grid=(32, 96),
    mesh_bands=((2, 3), (13, 17)),
    level_bands=((3, 4),),
    level_samples=64,
)

SIZES = {"full": FULL, "tiny": TINY}

# nonzero magnitudes of the acceptance heights of the embeddedness sweep
EMBED_MAGNITUDES = (0.01, 0.1, 1.0, 10.0)
LEVEL_HEIGHTS = (0.01, 0.5, 1.0, -0.5, -1.0)   # as in scripts/generate_gallery.py
OBJ_BAND = (2, 5)   # the OBJ order is drawn from this band
SCAN_TOLERANCE = 1e-9


@dataclass
class Op:
    """One operation: run() does the timed work, check() validates it.

    units is the work the op does at its stated size.  check(result, deep)
    raises CheckFailed or returns (digest, deferred): digest must be the
    same on every pass; deferred is None or a callable run once after the
    timed passes (for checks whose memory would otherwise inflate the
    measured peak RSS).
    """

    label: str
    units: int
    run: Callable[[], object]
    check: Callable[[object, bool], tuple]


def _sha256(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# verify: seeded verification reports through the CLI
# ---------------------------------------------------------------------------

def _verify_op(zm, report_seed: int, size: Size, outdir: Path) -> Op:
    path = outdir / f"verify-{report_seed}.json"
    argv = ["verify", "--seed", str(report_seed), *size.verify_args, "--out", str(path)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return zm.cli.run(argv)

    def check(rc, deep):
        _require(rc == 0, f"exit code {rc}")
        report = json.loads(path.read_bytes())
        records = report["checks"]
        _require(len(records) == size.verify_records,
                 f"{len(records)} records, expected {size.verify_records}")
        _require(all(r["pass"] for r in records) and report["pass"] is True,
                 "a check record failed")
        return _sha256(path), None

    return Op(f"verify seed={report_seed}", size.verify_records, run, check)


def verify_ops(zm, seed: int, size: Size, outdir: Path) -> list[Op]:
    # one report per pass keeps the warm-up pass short
    return [_verify_op(zm, random.Random(seed).randrange(1_000_000), size, outdir)]


# ---------------------------------------------------------------------------
# embed: embeddedness scans of single level slices
# ---------------------------------------------------------------------------

def _embed_op(zm, n: int, h: float, size: Size) -> Op:
    def run():
        return zm.analysis.embeddedness_scan(
            n, [h], samples=size.embed_samples, tol=SCAN_TOLERANCE)

    def check(report, deep):
        _require(report.passed, "report did not pass")
        for rec in report.records:
            _require(rec.self_intersections == 0 and rec.cross_intersections == 0,
                     f"intersections at h={rec.h}")
            _require(rec.min_cross_distance > 0.0, f"min_cross_distance <= 0 at h={rec.h}")
        text = json.dumps(report.as_dict(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest(), None

    return Op(f"embed n={n} h={h:g}", 1, run, check)


def embed_ops(zm, seed: int, size: Size, outdir: Path) -> list[Op]:
    # every order once, the magnitudes cycling through EMBED_MAGNITUDES,
    # plus the ray scan (h = 0) of the highest order, the slowest slice.
    # The seed draws the signs (a mirrored slice) and the op order.  The
    # magnitude is fixed per order because op_p50_s is the latency of a
    # single middle op: drawing its magnitude moved op_p50_s by up to 17%
    # from seed to seed, more than machine noise
    rng = random.Random(seed)
    slices = [(n, rng.choice((1.0, -1.0)) * EMBED_MAGNITUDES[i % len(EMBED_MAGNITUDES)])
              for i, n in enumerate(size.embed_orders)]
    slices.append((size.embed_ray_order, 0.0))
    rng.shuffle(slices)
    return [_embed_op(zm, n, h, size) for n, h in slices]


# ---------------------------------------------------------------------------
# mesh: the gallery recipe at a grid whose arrays exceed L2
# ---------------------------------------------------------------------------

def _mesh_checks(positions, count: int) -> None:
    _require(len(positions) == count, f"{len(positions)} vertices, expected {count}")
    _require(bool(np.all(np.isfinite(positions))), "non-finite coordinate")


def _ply_op(zm, n: int, size: Size, outdir: Path) -> Op:
    path = outdir / f"noid{n}.ply"
    count = size.mesh_grid[0] * size.mesh_grid[1]

    def run():
        mesh = zm.meshio.tessellate(n, u_max=4.0, eps=0.02, grid=size.mesh_grid)
        zm.meshio.export_ply(mesh, str(path))
        return mesh

    def check(mesh, deep):
        _mesh_checks(mesh.positions, count)
        if deep:
            positions, causal, faces = zm.meshio.read_ply(str(path))
            _require(np.array_equal(positions, mesh.positions)
                     and np.array_equal(causal, mesh.causal)
                     and np.array_equal(faces, mesh.faces), "PLY round trip differs")
        return _sha256(path), None

    return Op(f"ply n={n}", count, run, check)


def _obj_op(zm, n: int, size: Size, outdir: Path) -> Op:
    path = outdir / f"noid{n}.obj"
    sidecar = Path(str(path) + ".causal.csv")
    count = size.mesh_grid[0] * size.mesh_grid[1]

    def run():
        mesh = zm.meshio.tessellate(n, u_max=3.0, eps=0.02, grid=size.mesh_grid)
        zm.meshio.export_obj(mesh, str(path))
        return mesh

    def check(mesh, deep):
        _mesh_checks(mesh.positions, count)
        deferred = None
        if deep:
            expected_pos, expected_faces = mesh.positions.copy(), mesh.faces.copy()

            def deferred():
                # OBJ coordinates are written with repr(), which round-trips
                # float64, so the written precision is the full precision
                positions, faces = zm.meshio.read_obj(str(path))
                _require(positions.shape == expected_pos.shape
                         and np.allclose(positions, expected_pos,
                                         rtol=np.finfo(float).eps, atol=0.0)
                         and np.array_equal(faces, expected_faces),
                         "OBJ round trip differs")
                rows = sidecar.read_text(encoding="ascii").count("\n") - 1
                _require(rows == len(expected_pos), "causal sidecar row count")

        return _sha256(path, sidecar), deferred

    return Op(f"obj n={n}", count, run, check)


def _levels_op(zm, n: int, size: Size, outdir: Path) -> Op:
    levels = outdir / f"levels{n}.csv"
    rays = outdir / f"rays{n}.csv"
    # n copies per nonzero height plus 2n rays, each sampled level_samples times
    count = (len(LEVEL_HEIGHTS) * n + 2 * n) * size.level_samples

    def run():
        curves = []
        for h in LEVEL_HEIGHTS:
            curves.extend(zm.analysis.level_curve(n, h, size.level_samples))
        zm.meshio.export_level_curves(curves, str(levels))
        ray_set = zm.analysis.level_curve(n, 0.0, size.level_samples)
        zm.meshio.export_level_curves(ray_set, str(rays))
        return curves + ray_set

    def check(curves, deep):
        _mesh_checks(np.concatenate([c.points for c in curves]), count)
        if deep:
            written = sum(p.read_text(encoding="ascii").count("\n") - 1 for p in (levels, rays))
            _require(written == count, f"{written} CSV rows for {count} points")
        return _sha256(levels, rays), None

    return Op(f"levels n={n}", count, run, check)


def mesh_ops(zm, seed: int, size: Size, outdir: Path) -> list[Op]:
    # stratified draw: one order from each band covers small and large n
    # while keeping the cost of a pass nearly the same for every seed
    rng = random.Random(seed)
    ops = [_ply_op(zm, rng.randint(*band), size, outdir) for band in size.mesh_bands]
    ops.append(_obj_op(zm, rng.randint(*OBJ_BAND), size, outdir))
    ops += [_levels_op(zm, rng.randint(*band), size, outdir) for band in size.level_bands]
    return ops


BUILDERS = {"verify": verify_ops, "embed": embed_ops, "mesh": mesh_ops}

# what one unit of `units_per_s` is, per workload
UNIT_NAMES = {
    "verify": "check records",
    "embed": "slices",
    "mesh": "vertices written",
}


def build(workload: str, zm, seed: int, size: Size, outdir: Path) -> list[Op]:
    return BUILDERS[workload](zm, seed, size, outdir)


def tail(latencies) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With eleven or more
    samples the value is the eleventh largest; with fewer, no percentile
    has ten samples beyond it and the maximum is returned (0 beyond).
    """
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, 0
    k = count - 11
    return ordered[k], 100.0 * k / (count - 1), 10

