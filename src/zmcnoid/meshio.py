"""Mesh tessellation and deterministic artifact serialization.

Builds display meshes of the extended surface over truncated subdomains,
tags every vertex with its causal type, and writes OBJ / PLY / CSV / JSON
artifacts that are byte-identical across runs for identical inputs.

Display coordinates are ordered (x, y, t) so the rotational axis points up
in common viewers; the evaluator's native order is (t, x, y).
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .extension import CausalType, eval_extended_grid, omega_lower_bound

DEGENERATE_FACE_AREA = 1e-14
CAUSAL_NAMES = ("spacelike", "lightlike", "timelike")

# native (t, x, y) -> display (x, y, t)
_DISPLAY_ORDER = (1, 2, 0)


def thread_cap() -> int:
    """Worker limit for row-parallel tessellation, ZMC_NOID_THREADS wins."""
    raw = os.environ.get("ZMC_NOID_THREADS")
    if raw is not None:
        value = int(raw)
        if value < 1:
            raise ValueError(f"ZMC_NOID_THREADS must be positive, got {raw}")
        return value
    return os.cpu_count() or 1


@dataclass(frozen=True, eq=False)
class SurfaceMesh:
    """Triangulated truncation of one surface with per-vertex attributes.

    positions are display-ordered (x, y, t); domain rows are (u, theta);
    causal holds uint8 codes indexing CAUSAL_NAMES; faces are triangles of
    0-based vertex indices.
    """

    n: int
    positions: np.ndarray
    domain: np.ndarray
    causal: np.ndarray
    faces: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def vertex_count(self) -> int:
        return int(self.positions.shape[0])

    @property
    def face_count(self) -> int:
        return int(self.faces.shape[0])


def _split_quads(positions: np.ndarray, nu: int, ntheta: int) -> np.ndarray:
    # quad corners walk u-row i then i+1, with the theta seam closed by
    # index wraparound
    i = np.arange(nu - 1)[:, None]
    j = np.arange(ntheta)[None, :]
    jn = (j + 1) % ntheta
    a = (i * ntheta + j).ravel()
    b = (i * ntheta + jn).ravel()
    c = ((i + 1) * ntheta + jn).ravel()
    d = ((i + 1) * ntheta + j).ravel()

    diag_ac = np.linalg.norm(positions[a] - positions[c], axis=1)
    diag_bd = np.linalg.norm(positions[b] - positions[d], axis=1)
    use_ac = diag_ac <= diag_bd

    tri1 = np.where(use_ac[:, None], np.stack([a, b, c], 1), np.stack([b, c, d], 1))
    tri2 = np.where(use_ac[:, None], np.stack([a, c, d], 1), np.stack([b, d, a], 1))
    faces = np.concatenate([tri1, tri2], axis=0)

    e1 = positions[faces[:, 1]] - positions[faces[:, 0]]
    e2 = positions[faces[:, 2]] - positions[faces[:, 0]]
    area = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)
    return np.ascontiguousarray(faces[area > DEGENERATE_FACE_AREA], dtype=np.int32)


def tessellate(
    n: int,
    u_max: float = 4.0,
    eps: float = 0.02,
    grid: tuple[int, int] = (64, 192),
) -> SurfaceMesh:
    """Sample the surface over {max_j cos(theta - 2 pi j/n) + eps <= u <= u_max}.

    Each theta column gets its own linearly spaced u-line starting at the
    offset lower envelope, so the mesh hugs the domain boundary uniformly.
    Quads are split toward the shorter display-space diagonal; evaluation is
    chunked over u-rows across a thread pool with index-ordered assembly.
    Vertices are tagged by the sign of u - 1: the surface is space-like for
    u > 1, time-like for u < 1 and lightlike on the fold u = 1.
    """
    nu, ntheta = grid
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"boundary offset must be positive and finite, got {eps}")
    if not (math.isfinite(u_max) and u_max > 1.0 + eps):
        raise ValueError(f"u_max must be finite and exceed 1 + eps, got {u_max}")
    if nu < 8 or ntheta < 8:
        raise ValueError(f"grid must be at least 8x8, got {nu}x{ntheta}")

    thetas = 2.0 * math.pi * np.arange(ntheta) / ntheta
    lo = omega_lower_bound(n, thetas) + eps
    frac = np.linspace(0.0, 1.0, nu)[:, None]
    uu = lo[None, :] + (u_max - lo[None, :]) * frac
    tt = np.broadcast_to(thetas[None, :], (nu, ntheta))

    causal = np.select(
        [uu > 1.0, uu < 1.0],
        [CausalType.SPACELIKE, CausalType.TIMELIKE],
        CausalType.LIGHTLIKE,
    ).astype(np.uint8)
    native = np.empty((nu, ntheta, 3))
    workers = min(thread_cap(), nu)

    def fill(rows):
        a, b = rows
        native[a:b] = eval_extended_grid(n, uu[a:b], tt[a:b])

    chunk = max(1, -(-nu // (4 * workers)))
    spans = [(a, min(a + chunk, nu)) for a in range(0, nu, chunk)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, spans))
    else:
        for span in spans:
            fill(span)

    positions = native[..., _DISPLAY_ORDER].reshape(-1, 3)
    domain = np.stack([uu.ravel(), tt.ravel()], axis=1)
    faces = _split_quads(positions, nu, ntheta)
    return SurfaceMesh(
        n=n,
        positions=positions,
        domain=domain,
        causal=causal.ravel(),
        faces=faces,
        metadata={"n": n, "u_max": float(u_max), "eps": float(eps),
                  "nu": nu, "ntheta": ntheta},
    )


# ---------------------------------------------------------------------------
# OBJ
# ---------------------------------------------------------------------------

def export_obj(mesh: SurfaceMesh, path: str) -> None:
    """ASCII OBJ plus a `<path>.causal.csv` sidecar for the vertex tags.

    OBJ has no standard per-vertex scalar channel, so the causal attribute
    rides in a CSV of (vertex_index, causal) with 1-based indices matching
    the `f` records.
    """
    lines = []
    for x, y, t in mesh.positions:
        lines.append(f"v {float(x)!r} {float(y)!r} {float(t)!r}")
    for a, b, c in mesh.faces:
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    with open(path + ".causal.csv", "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex_index", "causal"])
        for i, code in enumerate(mesh.causal):
            writer.writerow([i + 1, CAUSAL_NAMES[code]])


def read_obj(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse `v`/`f` records back into (positions, faces), 0-based faces."""
    verts = []
    faces = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(p) for p in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(p.split("/")[0]) - 1 for p in parts[1:4]])
    return (
        np.asarray(verts, dtype=float).reshape(-1, 3),
        np.asarray(faces, dtype=np.int32).reshape(-1, 3),
    )


# ---------------------------------------------------------------------------
# PLY
# ---------------------------------------------------------------------------

_PLY_VERTEX_DTYPE = np.dtype(
    [("x", "<f8"), ("y", "<f8"), ("z", "<f8"), ("causal", "u1")]
)
_PLY_FACE_DTYPE = np.dtype(
    [("count", "u1"), ("a", "<i4"), ("b", "<i4"), ("c", "<i4")]
)


def export_ply(mesh: SurfaceMesh, path: str) -> None:
    """Binary little-endian PLY with a per-vertex uchar causal property."""
    header = "\n".join(
        [
            "ply",
            "format binary_little_endian 1.0",
            f"element vertex {mesh.vertex_count}",
            "property double x",
            "property double y",
            "property double z",
            "property uchar causal",
            f"element face {mesh.face_count}",
            "property list uchar int vertex_indices",
            "end_header",
        ]
    )
    verts = np.empty(mesh.vertex_count, dtype=_PLY_VERTEX_DTYPE)
    verts["x"] = mesh.positions[:, 0]
    verts["y"] = mesh.positions[:, 1]
    verts["z"] = mesh.positions[:, 2]
    verts["causal"] = mesh.causal
    faces = np.empty(mesh.face_count, dtype=_PLY_FACE_DTYPE)
    faces["count"] = 3
    faces["a"] = mesh.faces[:, 0]
    faces["b"] = mesh.faces[:, 1]
    faces["c"] = mesh.faces[:, 2]
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(b"\n")
        fh.write(verts.tobytes())
        fh.write(faces.tobytes())


def read_ply(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse the subset written by export_ply: (positions, causal, faces)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head, _, body = blob.partition(b"end_header\n")
    nvert = nface = 0
    for line in head.decode("ascii").splitlines():
        parts = line.split()
        if parts[:2] == ["element", "vertex"]:
            nvert = int(parts[2])
        elif parts[:2] == ["element", "face"]:
            nface = int(parts[2])
    verts = np.frombuffer(body, dtype=_PLY_VERTEX_DTYPE, count=nvert)
    faces = np.frombuffer(
        body[nvert * _PLY_VERTEX_DTYPE.itemsize:], dtype=_PLY_FACE_DTYPE, count=nface
    )
    positions = np.stack([verts["x"], verts["y"], verts["z"]], axis=1)
    tri = np.stack([faces["a"], faces["b"], faces["c"]], axis=1)
    return positions, np.asarray(verts["causal"]), tri


# ---------------------------------------------------------------------------
# level-curve CSV
# ---------------------------------------------------------------------------

def export_level_curves(curves, path: str) -> None:
    """RFC-4180 CSV of curve samples, sorted by (h, copy_index, param).

    Columns are (h, copy_index, param, x, y, t); the curve points arrive in
    native (t, x, y) order and are remapped here.
    """
    rows = []
    for curve in curves:
        for param, pt in zip(curve.params, curve.points):
            rows.append(
                (float(curve.h), int(curve.copy_index), float(param),
                 float(pt[1]), float(pt[2]), float(pt[0]))
            )
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h", "copy_index", "param", "x", "y", "t"])
        for h, k, param, x, y, t in rows:
            writer.writerow([repr(h), k, repr(param), repr(x), repr(y), repr(t)])


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckRecord:
    """One verification measurement: a residual against its tolerance."""

    name: str
    n: int | None
    parameters: dict
    measured: float
    tolerance: float
    passed: bool

    def as_dict(self):
        return {
            "name": self.name,
            "n": self.n,
            "parameters": self.parameters,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Named suite of check records; passes iff every record passes."""

    suite: str = ""
    prng: str = ""
    seed: int | None = None
    checks: tuple = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> dict:
        good = sum(1 for c in self.checks if c.passed)
        return {
            "total": len(self.checks),
            "passed": good,
            "failed": len(self.checks) - good,
        }

    def as_dict(self):
        # optional context keys are omitted when unset so that a bare empty
        # suite serializes to exactly {"checks": [], "pass": true}
        out = {}
        if self.suite:
            out["suite"] = self.suite
        if self.prng:
            out["prng"] = self.prng
        if self.seed is not None:
            out["seed"] = self.seed
        out["checks"] = [c.as_dict() for c in self.checks]
        if self.checks:
            out["summary"] = self.summary()
        out["pass"] = self.passed
        return out


def _json_fragment(obj) -> str:
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {_json_fragment(v)}" for k, v in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_fragment(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not math.isfinite(value):
            raise ValueError(f"non-finite number in report: {value}")
        return format(value, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"unserializable report entry of type {type(obj)!r}")


def report_json(report: VerificationReport) -> str:
    """Canonical JSON text: insertion-ordered keys, 17 significant digits."""
    return _json_fragment(report.as_dict())


def emit_report(report: VerificationReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report_json(report))
