"""Mesh tessellation and deterministic artifact serialization.

Builds display meshes of the extended surface over truncated subdomains,
tags every vertex with its causal type, and writes OBJ / PLY / CSV
artifacts that are byte-identical across runs for identical inputs.

Display coordinates are ordered (x, y, t) so the rotational axis points up
in common viewers; the evaluator's native order is (t, x, y).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .extension import CausalType, eval_extended_grid, omega_lower_bound

DEGENERATE_FACE_AREA = 1e-14
CAUSAL_NAMES = ("spacelike", "lightlike", "timelike")

# rows per `%` in the text writers: large enough to amortize the Python
# call, small enough to keep the formatted block out of the peak memory
_WRITE_BLOCK = 1 << 14

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
    # np.roll; the corner positions pa..pd serve both the diagonal choice
    # and the area filter
    grid = positions.reshape(nu, ntheta, 3)
    index = np.arange(nu * ntheta).reshape(nu, ntheta)
    pa, pd = grid[:-1], grid[1:]
    pb, pc = np.roll(pa, -1, axis=1), np.roll(pd, -1, axis=1)
    a, d = index[:-1], index[1:]
    b, c = np.roll(a, -1, axis=1), np.roll(d, -1, axis=1)
    corners = ((a, pa), (b, pb), (c, pc), (d, pd))

    use_ac = np.linalg.norm(pa - pc, axis=2) <= np.linalg.norm(pb - pd, axis=2)

    def corner(ac, bd):
        # the triangle corner when the quad is split along ac, else along bd
        (i_ac, p_ac), (i_bd, p_bd) = corners[ac], corners[bd]
        return np.where(use_ac, i_ac, i_bd), np.where(use_ac[..., None], p_ac, p_bd)

    faces, areas = [], []
    # (a, b, c) and (a, c, d) when split along ac, (b, c, d) and (b, d, a) along bd
    for slots in (((0, 1), (1, 2), (2, 3)), ((0, 1), (2, 3), (3, 0))):
        (i0, p0), (i1, p1), (i2, p2) = (corner(*slot) for slot in slots)
        faces.append(np.stack([i0, i1, i2], axis=2).reshape(-1, 3))
        areas.append(0.5 * np.linalg.norm(np.cross(p1 - p0, p2 - p0), axis=2).ravel())
    faces, area = np.concatenate(faces), np.concatenate(areas)
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
        with np.errstate(over="ignore", invalid="ignore"):  # caught below
            native[a:b] = eval_extended_grid(n, uu[a:b], tt[a:b])

    chunk = max(1, -(-nu // (4 * workers)))
    spans = [(a, min(a + chunk, nu)) for a in range(0, nu, chunk)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, spans))
    else:
        for span in spans:
            fill(span)
    if not np.isfinite(native).all():
        raise ValueError(f"n={n}, u_max={u_max!r}: the surface overflows float64 on this grid")

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

def _write_rows(fh, row: str, table: np.ndarray) -> None:
    """Write each row of a 2-D table through the template row.

    One `%` formats a block of _WRITE_BLOCK rows: the values come from
    tolist(), so `%r` sees Python floats and `%d` Python ints.
    """
    full = row * _WRITE_BLOCK
    for start in range(0, len(table), _WRITE_BLOCK):
        block = table[start:start + _WRITE_BLOCK]
        template = full if len(block) == _WRITE_BLOCK else row * len(block)
        fh.write(template % tuple(block.ravel().tolist()))


def _check_mesh(mesh: SurfaceMesh) -> None:
    """ValueError unless positions are finite and causal has one valid code per vertex."""
    if not np.isfinite(mesh.positions).all():
        raise ValueError("mesh positions must be finite")
    causal = np.asarray(mesh.causal)
    if causal.shape != (mesh.vertex_count,):
        raise ValueError(f"causal has shape {causal.shape}, need ({mesh.vertex_count},)")
    bad = np.flatnonzero((causal < 0) | (causal >= len(CAUSAL_NAMES)))
    if bad.size:
        raise ValueError(f"vertex {bad[0]} has causal code {causal[bad[0]]}, not in CAUSAL_NAMES")


def export_obj(mesh: SurfaceMesh, path: str) -> None:
    """ASCII OBJ plus a `<path>.causal.csv` sidecar for the vertex tags.

    OBJ has no standard per-vertex scalar channel, so the causal attribute
    rides in a CSV of (vertex_index, causal) with 1-based indices matching
    the `f` records.  A bad mesh raises ValueError before any file opens.
    """
    _check_mesh(mesh)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        _write_rows(fh, "v %r %r %r\n", mesh.positions.astype(np.float64, copy=False))
        _write_rows(fh, "f %d %d %d\n", mesh.faces.astype(np.int64) + 1)
        if mesh.vertex_count == 0 and mesh.face_count == 0:
            fh.write("\n")
    sidecar = np.empty((mesh.vertex_count, 2), dtype=object)
    sidecar[:, 0] = range(1, mesh.vertex_count + 1)
    sidecar[:, 1] = np.array(CAUSAL_NAMES, dtype=object)[mesh.causal]
    with open(path + ".causal.csv", "w", encoding="ascii", newline="") as fh:
        fh.write("vertex_index,causal\r\n")
        _write_rows(fh, "%d,%s\r\n", sidecar)


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
    """Binary little-endian PLY with a uchar causal per vertex; checks the mesh first."""
    _check_mesh(mesh)
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
    native (t, x, y) order and are remapped here.  Raises ValueError, before
    the file is opened, if any value is not finite.  The sort is stable and
    treats -0.0 and 0.0 as equal.
    """
    tables = [np.empty((0, 6))]
    for curve in curves:
        params = np.asarray(curve.params, dtype=np.float64)
        points = np.asarray(curve.points, dtype=np.float64)
        rows = np.empty((len(params), 6))
        rows[:, 0] = float(curve.h)
        rows[:, 1] = int(curve.copy_index)
        rows[:, 2] = params
        rows[:, 3:] = points[:, _DISPLAY_ORDER]
        tables.append(rows)
    table = np.concatenate(tables)
    if not np.isfinite(table[:, [0, 2, 3, 4, 5]]).all():
        raise ValueError("level curve samples must be finite")
    table = table[np.lexsort((table[:, 2], table[:, 1], table[:, 0]))]
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("h,copy_index,param,x,y,t\r\n")
        _write_rows(fh, "%r,%d,%r,%r,%r,%r\r\n", table)
