"""Tessellation and artifact round-trips."""

import csv
import dataclasses
import hashlib
import io
import math
import os
import pathlib
import runpy
import stat
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from zmcnoid import meshio as mio
from zmcnoid.analysis import LevelCurve, level_curve
from zmcnoid.extension import causal_type_grid, omega_lower_bound

GALLERY_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "generate_gallery.py"


@pytest.fixture
def small_mesh():
    return mio.tessellate(3, u_max=3.0, eps=0.02, grid=(16, 24))


# ---------------------------------------------------------------------------
# thread cap
# ---------------------------------------------------------------------------

def test_thread_cap_default():
    assert mio.thread_cap() >= 1


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity call")
def test_thread_cap_follows_cpu_affinity(monkeypatch):
    # a process pinned to one CPU gets one worker, however many the box has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert mio.thread_cap() == 1


def test_thread_cap_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert mio.thread_cap() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert mio.thread_cap() == 1


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every thread pool meshio starts, in order."""
    sizes = []

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return ThreadPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(mio, "ThreadPoolExecutor", recording_pool)
    return sizes


# ---------------------------------------------------------------------------
# tessellation
# ---------------------------------------------------------------------------

def test_tessellate_validation():
    with pytest.raises(ValueError):
        mio.tessellate(1)
    with pytest.raises(ValueError):
        mio.tessellate(3, eps=0.0)
    with pytest.raises(ValueError):
        mio.tessellate(3, u_max=1.01, eps=0.02)
    with pytest.raises(ValueError):
        mio.tessellate(3, grid=(4, 192))


def test_tessellate_rejects_a_grid_beyond_physical_memory(monkeypatch):
    # numpy commits pages lazily, so the grid is sized up front; the memory
    # figure is patched, as a real oversized grid gets the process killed
    need = 64 * 192 * mio._PEAK_BYTES_PER_VERTEX
    monkeypatch.setattr(mio, "_physical_memory", lambda: need)
    assert mio.tessellate(3, grid=(64, 192)).vertex_count == 64 * 192
    with pytest.raises(ValueError, match=r"^a 64x193 grid does not fit in memory: it needs about "
                                         r"0\.00\d+ GiB, of 0\.00\d+ GiB physical$"):
        mio.tessellate(3, grid=(64, 193))
    monkeypatch.setattr(mio, "_physical_memory", lambda: None)
    assert mio.tessellate(3, grid=(8, 8)).vertex_count == 64
    # the figure bounds what a grid really takes
    tracemalloc.start()
    try:
        mio.tessellate(3, grid=(96, 768))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 96 * 768 * mio._PEAK_BYTES_PER_VERTEX


def test_physical_memory_is_none_where_the_platform_does_not_report_it(monkeypatch):
    assert mio._physical_memory() > 0

    def unsupported(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(os, "sysconf", unsupported)
    assert mio._physical_memory() is None


def test_tessellate_checks_the_degree_first():
    # the cap error comes from eval_extended_grid inside the pool, which
    # checks the degree before it forms any factor; omega_lower_bound reads
    # two spokes per column, so nothing before it grows with n
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="order n=100000 is past 129, the largest supported order"):
            mio.tessellate(100000, grid=(8, 768))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20


def test_tessellate_counts_and_domain(small_mesh):
    assert small_mesh.vertex_count == 16 * 24
    assert small_mesh.positions.shape == (16 * 24, 3)
    assert small_mesh.domain.shape == (16 * 24, 2)
    assert small_mesh.causal.shape == (16 * 24,)
    assert small_mesh.face_count > 0
    assert small_mesh.faces.dtype == np.int32
    assert small_mesh.faces.min() >= 0
    assert small_mesh.faces.max() < small_mesh.vertex_count
    u, theta = small_mesh.domain[:, 0], small_mesh.domain[:, 1]
    assert np.all(u >= omega_lower_bound(3, theta) + 0.02 - 1e-12)
    assert np.all(u <= 3.0 + 1e-12)
    assert small_mesh.metadata["nu"] == 16


def test_tessellate_causal_banding(small_mesh):
    u = small_mesh.domain[:, 0]
    space = u > 1.0 + 1e-3
    timel = u < 1.0 - 1e-3
    assert space.sum() > 0 and timel.sum() > 0
    assert np.all(small_mesh.causal[space] == 0)
    assert np.all(small_mesh.causal[timel] == 2)


def test_tessellate_tags_match_metric_oracle():
    # the closed-form tags (sign of u - 1) agree with the finite-difference
    # classification of the induced metric at every vertex
    for n in (2, 3, 6, 17):
        mesh = mio.tessellate(n, u_max=4.0, eps=0.02, grid=(32, 96))
        u, theta = mesh.domain[:, 0], mesh.domain[:, 1]
        assert np.array_equal(mesh.causal, causal_type_grid(n, u, theta)), n


def test_tessellate_rotation_symmetry():
    # ntheta divisible by n: shifting the theta columns by one sector equals
    # rotating the display positions about the t-axis
    n, nu, ntheta = 3, 12, 24
    mesh = mio.tessellate(n, u_max=3.0, eps=0.05, grid=(nu, ntheta))
    grid = mesh.positions.reshape(nu, ntheta, 3)
    shift = ntheta // n
    c, s = math.cos(2 * math.pi / n), math.sin(2 * math.pi / n)
    rotated = np.stack([
        c * grid[..., 0] + s * grid[..., 1],
        -s * grid[..., 0] + c * grid[..., 1],
        grid[..., 2],
    ], axis=-1)
    assert np.max(np.abs(np.roll(grid, -shift, axis=1) - rotated)) < 1e-9


def test_tessellate_no_degenerate_faces(small_mesh):
    p = small_mesh.positions
    f = small_mesh.faces
    e1 = p[f[:, 1]] - p[f[:, 0]]
    e2 = p[f[:, 2]] - p[f[:, 0]]
    area = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)
    assert np.min(area) > 1e-14


def test_tessellate_n2_graph_relation():
    mesh = mio.tessellate(2, u_max=4.0, eps=0.02, grid=(24, 48))
    x, y, t = mesh.positions.T
    assert np.max(np.abs(t - x * np.tanh(2.0 * y))) < 1e-9


def test_tessellate_thread_count_invariance(monkeypatch, pool_sizes):
    monkeypatch.setattr(mio, "thread_cap", lambda: 1)
    serial = mio.tessellate(4, grid=(16, 32))
    monkeypatch.setattr(mio, "thread_cap", lambda: 4)
    threaded = mio.tessellate(4, grid=(16, 32))
    assert pool_sizes == [1, 4]
    assert serial.positions.tobytes() == threaded.positions.tobytes()
    assert serial.faces.tobytes() == threaded.faces.tobytes()
    assert serial.causal.tobytes() == threaded.causal.tobytes()


# The np.roll quad splitter that the seam-padded planes replaced, less its
# area filter, kept as the oracle: _split_quads must reproduce its faces exactly.

def oracle_split_quads(positions, nu, ntheta):
    grid = positions.reshape(nu, ntheta, 3)
    index = np.arange(nu * ntheta).reshape(nu, ntheta)
    pa, pd = grid[:-1], grid[1:]
    pb, pc = np.roll(pa, -1, axis=1), np.roll(pd, -1, axis=1)
    a, d = index[:-1], index[1:]
    b, c = np.roll(a, -1, axis=1), np.roll(d, -1, axis=1)
    corners = (a, b, c, d)
    use_ac = np.linalg.norm(pa - pc, axis=2) <= np.linalg.norm(pb - pd, axis=2)
    faces = []
    for slots in (((0, 1), (1, 2), (2, 3)), ((0, 1), (2, 3), (3, 0))):
        face = [np.where(use_ac, corners[ac], corners[bd]) for ac, bd in slots]
        faces.append(np.stack(face, axis=2).reshape(-1, 3))
    return np.ascontiguousarray(np.concatenate(faces), dtype=np.int32)


def assert_split_matches_oracle(positions, nu, ntheta):
    got = mio._split_quads(positions, nu, ntheta)
    assert got.dtype == np.int32 and got.flags.c_contiguous
    assert np.array_equal(got, oracle_split_quads(positions, nu, ntheta))
    return got


@pytest.mark.parametrize("scale", [1e-9, 1e-7, 1e-6, 1e-3, 10.0])
@pytest.mark.parametrize("lattice", [False, True])
def test_split_quads_matches_oracle_on_random_positions(scale, lattice):
    # face areas go as scale^2, down to 1e-18 and below; the small-integer
    # lattice makes exact diagonal ties common, and a vertex in three at the
    # origin collapses whole triangles, which stay faces all the same
    rng = np.random.default_rng(1203 + int(lattice))
    nu, ntheta = 24, 40
    if lattice:
        positions = rng.integers(-2, 3, (nu * ntheta, 3)).astype(float)
    else:
        positions = rng.standard_normal((nu * ntheta, 3))
    positions *= scale
    positions[rng.random(nu * ntheta) < 0.3] = 0.0
    faces = assert_split_matches_oracle(positions, nu, ntheta)
    assert len(faces) == 2 * (nu - 1) * ntheta


def test_split_quads_matches_oracle_on_collapsed_meshes():
    for positions in (np.zeros((8 * 9, 3)), np.full((8 * 9, 3), 2.5)):
        assert assert_split_matches_oracle(positions, 8, 9).shape == (2 * 7 * 9, 3)


def test_row_chunks_partition_the_rows(monkeypatch):
    # in order, no row twice or missing, at most four chunks a worker
    for threads in (1, 2, 3, 64):
        monkeypatch.setattr(mio, "thread_cap", lambda: threads)
        for rows in (7, 8, 33, 255, 256):
            chunks = mio._row_chunks(rows)
            covered = [r for chunk in chunks for r in range(*chunk.indices(rows))]
            assert covered == list(range(rows)), (threads, rows)
            assert len(chunks) <= 4 * min(threads, rows), (threads, rows)
        assert len(mio._row_chunks(256)) == 4 * threads


def rechunked(base_map, nu, size):
    # a map that runs the splitter over chunks of `size` quad rows instead of its own
    return lambda split, _: base_map(split, [slice(a, a + size) for a in range(0, nu - 1, size)])


def test_split_quads_does_not_depend_on_its_chunking():
    # chunk sizes that divide nu - 1 and that do not, serial and pooled (the
    # 8-worker pool with a short switch interval, so chunks interleave), on
    # lattice positions with exact diagonal ties and on collapsed meshes
    rng = np.random.default_rng(1305)
    nu, ntheta = 40, 24
    lattice = rng.integers(-2, 3, (nu * ntheta, 3)).astype(float)
    lattice[rng.random(nu * ntheta) < 0.3] = 0.0
    cases = [(lattice, nu, ntheta)] + [(np.full((8 * 9, 3), v), 8, 9) for v in (0.0, 2.5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pair, ThreadPoolExecutor(max_workers=8) as crowd:
            for positions, nu, ntheta in cases:
                expected = oracle_split_quads(positions, nu, ntheta)
                for size in (1, 5, 32, nu - 1):
                    for base_map in (map, pair.map, crowd.map):
                        got = mio._split_quads(positions, nu, ntheta,
                                               rechunked(base_map, nu, size))
                        assert np.array_equal(got, expected), (nu, size, base_map)
    finally:
        sys.setswitchinterval(interval)


# SHA-256 over the positions, domain, causal and faces bytes of
# tessellate(n, u_max, 0.02, (256, 768)), the benchmark's grid
TESSELLATION_DIGESTS = {
    (2, 3.0): "a30545739bd1a8edafc53df7264c0bb199aad70745eb342b2f943ba053cc22a5",
    (3, 3.0): "4b017a2357ed64c13ea272dbc87a34ed791cb75e13fea5373d8347c28b09a0a0",
    (5, 3.0): "230a32c6eaeff84cdf20fc320a33d3f8f4a6c9988c646a391f2322b93b70fe9d",
    (8, 3.0): "eb4f364cd1f2981a4be0cbb233ba313ddbf80eaa3a13fd3913a0a07ad9889397",
    (12, 3.0): "487ebc3fc23932eff6d458082dbc30f4c1737a3d2e7298dc177b20f4e6cca08e",
    (17, 3.0): "a98f8760b7fde70d426ed70322ed121fa8ecb222cb479c2d78ae6dee35a76ae3",
    (2, 4.0): "1d170596632efd971cdc3aca03d8e6c353c4b7e9aa24a96292845c2476bef760",
    (3, 4.0): "395764ed0ed4e3c41c7b1b7d206dd4ec75eaf4180d69e6dda357b9493972e65c",
    (5, 4.0): "5daffe024a7eac6a4bf23e0ee02396734d975e4f956e0d13951319a2a671ad1d",
    (8, 4.0): "467c0afec7a69f06111dd73eb52d3aea547cdb4ef38a9a298051f1b4fe94c5d9",
    (12, 4.0): "0e9dd1870e31d0870a3d63153a287af7915dc3f58f5135a90fccf5f142b96430",
    (17, 4.0): "7352908f18320a13679f6727da8db7d3393cc703e45954bc2fe0c25b93c35db8",
}


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 17])
def test_tessellation_keeps_its_bytes(n):
    for u_max in (3.0, 4.0):
        mesh = mio.tessellate(n, u_max, 0.02, (256, 768))
        digest = hashlib.sha256()
        for array in (mesh.positions, mesh.domain, mesh.causal, mesh.faces):
            digest.update(array.tobytes())
        assert digest.hexdigest() == TESSELLATION_DIGESTS[n, u_max], u_max
    # the oracle splitter gives the u_max = 4 faces too
    assert np.array_equal(mesh.faces, oracle_split_quads(mesh.positions, 256, 768))


@pytest.mark.parametrize("threads", [1, 2])
def test_tessellation_bytes_do_not_depend_on_threads(monkeypatch, pool_sizes, threads):
    monkeypatch.setattr(mio, "thread_cap", lambda: threads)
    mesh = mio.tessellate(3, 3.0, 0.02, (256, 768))
    assert pool_sizes == [threads]
    digest = hashlib.sha256()
    for array in (mesh.positions, mesh.domain, mesh.causal, mesh.faces):
        digest.update(array.tobytes())
    assert digest.hexdigest() == TESSELLATION_DIGESTS[3, 3.0]


def test_split_quads_keeps_every_face_of_a_real_grid():
    # no face of a tessellated grid is a sliver, so all 2 (nu - 1) ntheta stay
    nu, ntheta = 64, 192
    mesh = mio.tessellate(3, grid=(nu, ntheta))
    faces = assert_split_matches_oracle(mesh.positions, nu, ntheta)
    assert faces.shape == (2 * (nu - 1) * ntheta, 3)
    assert np.array_equal(mesh.faces, faces)


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("u_max", [1e5, 1e7])
def test_tessellate_keeps_every_face_toward_the_end_at_infinity(n, u_max):
    # the surface runs into the origin as u grows, so the faces near u_max
    # get tiny, down to areas far below 1e-14; each quad still gives two
    nu, ntheta = 64, 192
    mesh = mio.tessellate(n, u_max=u_max, grid=(nu, ntheta))
    assert mesh.face_count == 2 * (nu - 1) * ntheta == 24192
    assert np.array_equal(mesh.faces, oracle_split_quads(mesh.positions, nu, ntheta))


def test_tessellate_positions_have_contiguous_columns():
    # the OBJ writer formats each display coordinate as one contiguous column
    mesh = mio.tessellate(3, grid=(16, 24))
    assert mesh.positions.shape == (16 * 24, 3)
    assert all(column.flags.c_contiguous for column in mesh.positions.T)


# ---------------------------------------------------------------------------
# OBJ
# ---------------------------------------------------------------------------

def test_obj_roundtrip(small_mesh, tmp_path):
    path = str(tmp_path / "mesh.obj")
    mio.export_obj(small_mesh, path)
    verts, faces = mio.read_obj(path)
    # repr() floats parse back bit-exactly
    assert np.array_equal(verts, small_mesh.positions)
    assert np.array_equal(faces, small_mesh.faces)


def test_read_obj_skips_blank_and_other_lines(tmp_path):
    path = tmp_path / "hand.obj"
    path.write_text("# by hand\n\nv 0 0 0\nv 1 0 0\n\nv 0 1 0\nvn 0 0 1\nf 1//1 2//1 3//1\n\n",
                    encoding="ascii")
    verts, faces = mio.read_obj(str(path))
    assert verts.tolist() == [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    assert faces.tolist() == [[0, 1, 2]]


def test_obj_causal_sidecar(small_mesh, tmp_path):
    path = str(tmp_path / "mesh.obj")
    mio.export_obj(small_mesh, path)
    with open(path + ".causal.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["vertex_index", "causal"]
    assert len(rows) == small_mesh.vertex_count + 1
    assert rows[1][0] == "1"
    names = {r[1] for r in rows[1:]}
    assert names <= set(mio.CAUSAL_NAMES)


def test_obj_byte_determinism(small_mesh, tmp_path):
    p1, p2 = str(tmp_path / "a.obj"), str(tmp_path / "b.obj")
    mio.export_obj(small_mesh, p1)
    mio.export_obj(small_mesh, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


# The per-row writers that the block writers replaced, kept as oracles: the
# block writers must reproduce their bytes exactly.

def oracle_export_obj(mesh, path):
    if not np.isfinite(mesh.positions).all():
        raise ValueError("mesh positions must be finite")
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
            writer.writerow([i + 1, mio.CAUSAL_NAMES[code]])


def oracle_export_level_curves(curves, path):
    rows = []
    for curve in curves:
        for param, pt in zip(curve.params, curve.points):
            rows.append(
                (float(curve.h), int(curve.copy_index), float(param),
                 float(pt[1]), float(pt[2]), float(pt[0]))
            )
    if not all(math.isfinite(v) for r in rows for v in (r[0], *r[2:])):
        raise ValueError("level curve samples must be finite")
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h", "copy_index", "param", "x", "y", "t"])
        for h, k, param, x, y, t in rows:
            writer.writerow([repr(h), k, repr(param), repr(x), repr(y), repr(t)])


def assert_obj_matches_oracle(mesh, tmp_path):
    new, old = str(tmp_path / "new.obj"), str(tmp_path / "old.obj")
    mio.export_obj(mesh, new)
    oracle_export_obj(mesh, old)
    for suffix in ("", ".causal.csv"):
        assert open(new + suffix, "rb").read() == open(old + suffix, "rb").read(), suffix


def assert_levels_match_oracle(curves, tmp_path):
    new, old = str(tmp_path / "new.csv"), str(tmp_path / "old.csv")
    mio.export_level_curves(curves, new)
    oracle_export_level_curves(curves, old)
    assert open(new, "rb").read() == open(old, "rb").read()


def test_obj_matches_per_row_oracle_across_blocks(tmp_path):
    mesh = mio.tessellate(5, u_max=4.0, eps=0.02, grid=(96, 200))
    for count in (mesh.vertex_count, mesh.face_count):
        assert count > mio._WRITE_BLOCK and count % mio._WRITE_BLOCK
    assert_obj_matches_oracle(mesh, tmp_path)


def test_obj_matches_per_row_oracle_with_small_blocks(small_mesh, tmp_path, monkeypatch):
    # many blocks and a ragged last one, for every block size tried
    for block in (1, 7, 64):
        monkeypatch.setattr(mio, "_WRITE_BLOCK", block)
        assert_obj_matches_oracle(small_mesh, tmp_path)


def test_obj_matches_per_row_oracle_on_extreme_floats(tmp_path):
    values = [-0.0, 5e-324, 1e-300, 0.1, 3.0, 1e16, 1e22]
    coords = np.array(values + [-v for v in values] + [1.0 / 3.0])
    positions = coords.reshape(-1, 3)
    count = len(positions)
    mesh = mio.SurfaceMesh(
        n=3, positions=positions, domain=np.zeros((count, 2)),
        causal=np.arange(count, dtype=np.uint8) % 3,
        faces=np.array([[0, 1, 2], [count - 1, 3, 0]], dtype=np.int32),
    )
    assert_obj_matches_oracle(mesh, tmp_path)


def test_obj_matches_per_row_oracle_on_empty_meshes(tmp_path):
    empty = mio.SurfaceMesh(
        n=3, positions=np.empty((0, 3)), domain=np.empty((0, 2)),
        causal=np.empty(0, dtype=np.uint8), faces=np.empty((0, 3), dtype=np.int32),
    )
    assert_obj_matches_oracle(empty, tmp_path)
    # the lone newline of the old "\n".join of no lines
    assert open(tmp_path / "new.obj", "rb").read() == b"\n"
    no_faces = mio.SurfaceMesh(
        n=3, positions=np.array([[0.5, -0.0, 2.0]]), domain=np.zeros((1, 2)),
        causal=np.array([1], dtype=np.uint8), faces=np.empty((0, 3), dtype=np.int32),
    )
    assert_obj_matches_oracle(no_faces, tmp_path)


def test_obj_face_indices_do_not_wrap_in_narrow_dtypes(tmp_path):
    # index 255 of a uint8 face array is written as 256, as from int32 faces
    positions = np.random.default_rng(7).standard_normal((256, 3))
    faces = np.array([[0, 1, 255], [255, 127, 128]])
    mesh = mio.SurfaceMesh(n=3, positions=positions, domain=np.zeros((256, 2)),
                           causal=np.zeros(256, dtype=np.uint8), faces=faces.astype(np.int32))
    assert_obj_matches_oracle(mesh, tmp_path)
    wide = open(tmp_path / "new.obj", "rb").read()
    for dtype in (np.uint8, np.int16):
        mio.export_obj(dataclasses.replace(mesh, faces=faces.astype(dtype)), str(tmp_path / "narrow.obj"))
        assert open(tmp_path / "narrow.obj", "rb").read() == wide, dtype
    # 1-based indices that all have three digits: the face block has no NUL byte
    assert_obj_matches_oracle(dataclasses.replace(mesh, faces=np.int32([[99, 100, 255], [255, 127, 128]])),
                              tmp_path)


# ---------------------------------------------------------------------------
# writer pool
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def block_mesh():
    # 3 full blocks of vertices and a ragged fourth; 6 of faces and a seventh
    mesh = mio.tessellate(5, u_max=3.0, eps=0.02, grid=(64, 800))
    assert mesh.vertex_count // mio._WRITE_BLOCK == 3 and mesh.vertex_count % mio._WRITE_BLOCK
    assert mesh.face_count // mio._WRITE_BLOCK == 6 and mesh.face_count % mio._WRITE_BLOCK
    return mesh


def _long_levels():
    # one table of 3 full blocks and a ragged fourth
    curves = level_curve(6, 0.5, 2731) + level_curve(6, 0.0, 2731)
    assert sum(len(c.params) for c in curves) == 3 * mio._WRITE_BLOCK + 6
    return curves


def test_writer_bytes_do_not_depend_on_threads(monkeypatch, pool_sizes, block_mesh, tmp_path):
    curves = _long_levels()
    written = {}
    for threads in (1, 2, 3):
        monkeypatch.setattr(mio, "thread_cap", lambda: threads)
        del pool_sizes[:]
        obj, csv_path = tmp_path / f"{threads}.obj", tmp_path / f"{threads}.csv"
        mio.export_obj(block_mesh, str(obj))
        mio.export_level_curves(curves, str(csv_path))
        # the vertex, face and sidecar tables, then the level table: each
        # has two full blocks or more, so each has a pool unless one CPU
        assert pool_sizes == ([] if threads == 1 else [threads] * 4)
        written[threads] = [p.read_bytes() for p in (obj, csv_path, tmp_path / f"{threads}.obj.causal.csv")]
    assert written[1] == written[2] == written[3]


def test_writer_pools_only_tables_of_two_full_blocks(monkeypatch, pool_sizes):
    monkeypatch.setattr(mio, "thread_cap", lambda: 2)
    for rows, pools in ((2 * mio._WRITE_BLOCK - 1, []), (2 * mio._WRITE_BLOCK, [2])):
        del pool_sizes[:]
        out = io.BytesIO()
        mio._write_rows(out, "{},{}\n", np.arange(rows), np.linspace(-1.0, 1.0, rows))
        assert pool_sizes == pools
        expected = "".join(f"{i},{v!r}\n" for i, v in enumerate(np.linspace(-1.0, 1.0, rows).tolist()))
        assert out.getvalue() == expected.encode()


class _Refused(Exception):
    pass


def _refuse_blocks_holding(monkeypatch, marker):
    # the float formatter raises on the block that holds the marker value
    formatter = mio._FIELDS["f"]

    def refusing(column):
        if (column == marker).any():
            raise _Refused(marker)
        return formatter(column)

    monkeypatch.setitem(mio._FIELDS, "f", refusing)


@pytest.mark.parametrize("threads, k", [(1, 1), (2, 0), (2, 2)])
def test_a_failed_block_stops_the_writes(monkeypatch, block_mesh, tmp_path, threads, k):
    monkeypatch.setattr(mio, "thread_cap", lambda: threads)
    marker = 1234.5
    row = k * mio._WRITE_BLOCK + 7
    positions = block_mesh.positions.copy()
    positions[row, 1] = marker
    mesh = dataclasses.replace(block_mesh, positions=positions)
    curve = LevelCurve(n=3, h=0.5, copy_index=0, is_ray=False,
                       params=np.arange(3.0 * mio._WRITE_BLOCK), points=positions[:3 * mio._WRITE_BLOCK])
    obj, levels = tmp_path / "m.obj", tmp_path / "m.csv"
    _refuse_blocks_holding(monkeypatch, marker)
    for stale in (False, True):
        if stale:
            # longer files from complete exports before: none of their tail may stay
            mio.export_obj(block_mesh, str(obj))
            mio.export_level_curves([dataclasses.replace(curve, points=block_mesh.positions[:len(curve.params)])],
                                    str(levels))
            assert len(obj.read_bytes().splitlines()) > k * mio._WRITE_BLOCK
            assert len(levels.read_bytes().splitlines()) > 1 + k * mio._WRITE_BLOCK
        with pytest.raises(_Refused):
            mio.export_obj(mesh, str(obj))
        # blocks 0..k-1 of the vertex table, and nothing after them
        lines = obj.read_bytes().splitlines(keepends=True)
        assert len(lines) == k * mio._WRITE_BLOCK
        assert lines == [f"v {x!r} {y!r} {t!r}\n".encode() for x, y, t in positions[:len(lines)].tolist()]

        with pytest.raises(_Refused):
            mio.export_level_curves([curve], str(levels))
        lines = levels.read_bytes().splitlines(keepends=True)
        assert len(lines) == 1 + k * mio._WRITE_BLOCK
        assert lines[1:] == [f"0.5,0,{float(i)!r},{x!r},{y!r},{t!r}\r\n".encode()
                             for i, (t, x, y) in enumerate(positions[:len(lines) - 1].tolist())]


# ---------------------------------------------------------------------------
# row formatter against repr and str, value by value
# ---------------------------------------------------------------------------

def assert_rows_match(column, text=repr):
    out = io.BytesIO()
    mio._write_rows(out, "{}\n", column)
    assert out.getvalue().decode().split("\n")[:-1] == [text(v) for v in column.tolist()]


def repr_digits(value):
    return len(repr(abs(value)).split("e")[0].replace(".", "").lstrip("0"))


def test_floats_match_repr_on_random_bit_patterns():
    rng = np.random.default_rng(20261018)
    values = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    assert_rows_match(values[np.isfinite(values)])


def test_floats_match_repr_on_log_uniform_magnitudes():
    rng = np.random.default_rng(7)
    values = 10.0 ** rng.uniform(-6.0, 17.0, 200_000) * rng.choice([-1.0, 1.0], 200_000)
    assert_rows_match(values)


def test_floats_match_repr_at_edges_and_powers():
    tiny = [0.0, 5e-324, np.finfo(float).tiny, 1e-4, 1e15]
    twos = [2.0**k for k in range(-30, 61)]  # all 63 powers of two in [1e-4, 1e15) among them
    tens = np.array([float(f"1e{k}") for k in range(-5, 17)])
    near = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    values = np.array(tiny + twos + near.tolist())
    assert_rows_match(np.concatenate([values, -values]))


def test_floats_match_repr_at_decimal_ties():
    # dyadic values whose 15-, 16- or 17-digit rounding is an exact tie,
    # which repr breaks to even
    base = np.array([2.0**49, 2.0**47, 1e14, 1e13, 1e12, 0.5, 3.0])
    values = (base[:, None] + np.spacing(base)[:, None] * np.arange(-400, 400)).ravel()
    assert_rows_match(values)


def test_floats_match_repr_at_15_16_and_17_digits():
    rng = np.random.default_rng(11)
    mantissas = rng.integers(10**14, 10**15, 20_000)
    mantissas = mantissas[mantissas % 10 != 0]
    fifteen = np.array([float(f"{m}e{e}") for m, e in
                        zip(mantissas.tolist(), rng.integers(-18, 1, len(mantissas)).tolist())])
    values = np.concatenate([fifteen, 10.0 ** rng.uniform(-4.0, 15.0, 50_000)])
    counts = np.bincount([repr_digits(v) for v in values.tolist()], minlength=18)
    assert counts[15] > 10_000 and counts[16] > 10_000 and counts[17] > 10_000
    assert_rows_match(values)


def test_floats_match_repr_from_1e15_to_1e16():
    rng = np.random.default_rng(23)
    values = 10.0 ** rng.uniform(15.0, 16.0, 30_000)
    values = np.concatenate([values, np.floor(values), np.nextafter(1e16, 0.0) - np.arange(64.0)])
    assert_rows_match(np.concatenate([values, -values]))


def test_floats_match_repr_at_every_power_of_ten():
    tens = np.array([float(f"1e{k}") for k in range(-307, 309)])
    near = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    extremes = [0.0, 5e-324, 2.2250738585072009e-308, np.finfo(float).tiny, np.finfo(float).max]
    values = np.concatenate([near, extremes, np.ldexp(1.0, np.arange(-1074, 1024))])
    assert_rows_match(np.concatenate([values, -values]))


def test_floats_match_repr_at_decimal_ties_in_the_exponent_range():
    # m 10^k is halfway between two doubles when m 5^k is odd and has 54
    # bits; the nearest double and its neighbours need 16 or 17 digits
    ties = [float(f"{m}e{k}") for k in range(17, 24)
            for m in range(-(-2**53 // 5**k) | 1, 2**54 // 5**k + 1, 2)]
    assert len(ties) > 7000
    ties = np.array(ties)
    values = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
    assert_rows_match(np.concatenate([values, -values]))


def test_floats_match_repr_at_exact_16_digit_ties_without_repr():
    # exact 17-digit decimals ending in 5: about a fifth of these draws from
    # [1e15, 1e16) and 0.8% of those from [1e-4, 1e15); repr keeps 17 digits
    # where neither 16-digit neighbour reads back and rounds half to even
    # where both do, as for k + j/2^16 in [8, 10).  Of the integers in
    # [1e16, 1e17), 30% have a 16- or 15-digit candidate exactly half an ulp
    # away, which reads back iff the significand is even
    rng = np.random.default_rng(0)
    wide = 10.0 ** rng.uniform(15.0, 16.0, 200_000)
    low = 10.0 ** rng.uniform(-4.0, 15.0, 10**6)
    midpoints = 10.0 ** np.random.default_rng(0).uniform(16.0, 17.0, 200_000)
    dyadic = (np.arange(8.0, 10.0)[:, None] + (2 * np.arange(2000) + 1) / 2.0**16).ravel()
    for values in (wide, low, midpoints, dyadic):
        digits, _, slow = mio._shortest_digits(values)
        assert not slow.any(), values[slow][:5]
        assert_rows_match(values)
    assert np.all(digits % 20 == 0)  # 16 digits, the last one even


def test_floats_of_the_recipes_never_go_through_repr():
    # exact zeros, tiny t and the h = 0 rays' noise print in the scientific
    # layout too; none of them is subnormal or a near tie
    tables = [mio.tessellate(n, 3.0, 0.02, (64, 192)).positions for n in (2, 3, 4, 5)]
    for n in range(3, 9):
        rays = level_curve(n, 0.0, 512)
        tables.append(np.concatenate([np.concatenate([r.params, r.points.ravel()]) for r in rays]))
    for values in tables:
        values = np.abs(values.ravel())
        assert ((values < 1e-4) | (values >= 1e16)).any()
        _, _, slow = mio._shortest_digits(values)
        assert not slow.any(), values[slow][:5]


def test_ints_match_str():
    edges = [0, 9, 10, 99, 100, 2**31 - 1, -1, -10, -(2**31), 10**17, -(10**18)]
    assert_rows_match(np.array(edges, dtype=np.int64), text=str)
    assert_rows_match(np.arange(-1000, 1001), text=str)
    assert_rows_match(np.array([7], dtype=np.int32), text=str)


def test_level_curves_match_per_row_oracle_on_negative_copy_index(tmp_path):
    points = np.arange(12.0).reshape(4, 3) / 7.0
    curves = [_curve(0.5, -3, [0.1, 0.2], points[:2]), _curve(0.5, -12, [0.3, 0.4], points[2:]),
              _curve(0.5, 10, [0.5, 0.6], points[:2])]
    assert_levels_match_oracle(curves, tmp_path)


# ---------------------------------------------------------------------------
# PLY
# ---------------------------------------------------------------------------

def test_ply_roundtrip(small_mesh, tmp_path):
    path = str(tmp_path / "mesh.ply")
    mio.export_ply(small_mesh, path)
    pos, causal, faces = mio.read_ply(path)
    assert np.array_equal(pos, small_mesh.positions)
    assert np.array_equal(causal, small_mesh.causal)
    assert np.array_equal(faces, small_mesh.faces)


def test_ply_header_layout(small_mesh, tmp_path):
    path = str(tmp_path / "mesh.ply")
    mio.export_ply(small_mesh, path)
    head = open(path, "rb").read().partition(b"end_header\n")[0].decode().splitlines()
    assert head[0] == "ply"
    assert head[1] == "format binary_little_endian 1.0"
    assert f"element vertex {small_mesh.vertex_count}" in head
    assert f"element face {small_mesh.face_count}" in head
    assert "property uchar causal" in head
    assert "property list uchar int vertex_indices" in head


def test_ply_byte_determinism(small_mesh, tmp_path):
    p1, p2 = str(tmp_path / "a.ply"), str(tmp_path / "b.ply")
    mio.export_ply(small_mesh, p1)
    mio.export_ply(small_mesh, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def oracle_ply_bytes(mesh):
    # the whole-mesh record arrays that the block writer replaced
    verts = np.empty(mesh.vertex_count, dtype=mio._PLY_VERTEX_DTYPE)
    for k, name in enumerate("xyz"):
        verts[name] = mesh.positions[:, k]
    verts["causal"] = mesh.causal
    faces = np.empty(mesh.face_count, dtype=mio._PLY_FACE_DTYPE)
    faces["count"] = 3
    for k, name in enumerate("abc"):
        faces[name] = mesh.faces[:, k]
    header = (f"ply\nformat binary_little_endian 1.0\nelement vertex {mesh.vertex_count}\n"
              "property double x\nproperty double y\nproperty double z\nproperty uchar causal\n"
              f"element face {mesh.face_count}\nproperty list uchar int vertex_indices\n"
              "end_header\n")
    return header.encode("ascii") + verts.tobytes() + faces.tobytes()


def test_ply_matches_whole_mesh_records_across_blocks(small_mesh, tmp_path, monkeypatch):
    # more than one block of vertices, and a face count off the block size
    mesh = mio.tessellate(3, grid=(72, 256))
    assert mesh.vertex_count > mio._WRITE_BLOCK and mesh.face_count % mio._WRITE_BLOCK
    path = str(tmp_path / "mesh.ply")
    mio.export_ply(mesh, path)
    assert open(path, "rb").read() == oracle_ply_bytes(mesh)
    # many blocks and a ragged last one
    for block in (1, 7, 64):
        monkeypatch.setattr(mio, "_WRITE_BLOCK", block)
        mio.export_ply(small_mesh, path)
        assert open(path, "rb").read() == oracle_ply_bytes(small_mesh), block


def test_ply_matches_whole_mesh_records_without_faces(small_mesh, tmp_path):
    path = str(tmp_path / "mesh.ply")
    for mesh in (dataclasses.replace(small_mesh, faces=np.empty((0, 3), dtype=np.int32)),
                 dataclasses.replace(small_mesh, positions=np.empty((0, 3)),
                                     causal=np.empty(0, dtype=np.uint8),
                                     faces=np.empty((0, 3), dtype=np.int32))):
        mio.export_ply(mesh, path)
        assert open(path, "rb").read() == oracle_ply_bytes(mesh)


def test_ply_writes_in_blocks_of_bounded_memory(tmp_path):
    # the records go out a block at a time: whole-mesh record arrays of a
    # 256x768 grid would take about 10 MB
    mesh = mio.tessellate(3, grid=(256, 768))
    tracemalloc.start()
    try:
        mio.export_ply(mesh, str(tmp_path / "mesh.ply"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_mesh_writers_refuse_non_finite_positions(small_mesh, tmp_path):
    positions = small_mesh.positions.copy()
    positions[5, 1] = np.nan
    bad = mio.SurfaceMesh(n=3, positions=positions, domain=small_mesh.domain,
                          causal=small_mesh.causal, faces=small_mesh.faces)
    for writer, name in ((mio.export_ply, "x.ply"), (mio.export_obj, "x.obj")):
        with pytest.raises(ValueError):
            writer(bad, str(tmp_path / name))
        assert not (tmp_path / name).exists()


def test_mesh_writers_refuse_bad_causal_before_opening(tmp_path):
    def mesh(causal):
        return mio.SurfaceMesh(n=3, positions=np.zeros((2, 3)), domain=np.zeros((2, 2)),
                               causal=np.array(causal, dtype=np.uint8),
                               faces=np.empty((0, 3), dtype=np.int32))

    for causal, message in (([0, 7], "vertex 1 has causal code 7"), ([0], r"shape \(1,\)")):
        for writer in (mio.export_obj, mio.export_ply):
            with pytest.raises(ValueError, match=message):
                writer(mesh(causal), str(tmp_path / "bad"))
    assert list(tmp_path.iterdir()) == []


def test_mesh_writers_refuse_bad_faces_before_opening(tmp_path):
    def mesh(faces, dtype=np.int32):
        return mio.SurfaceMesh(n=3, positions=np.zeros((2, 3)), domain=np.zeros((2, 2)),
                               causal=np.zeros(2, dtype=np.uint8),
                               faces=np.array(faces, dtype=dtype))

    cases = (
        (mesh([[0, 1, 5], [-1, 0, 1]]), r"face 0 has vertex indices \[0, 1, 5\], not all in \[0, 2\)"),
        (mesh([[0, 1, 1], [-1, 0, 1]]), r"face 1 has vertex indices \[-1, 0, 1\]"),
        (mesh([[0, 1]]), r"faces must be \(k, 3\) integer"),
        (mesh([[0, 1, 1]], dtype=float), r"faces must be \(k, 3\) integer"),
    )
    for bad, message in cases:
        for writer in (mio.export_obj, mio.export_ply):
            with pytest.raises(ValueError, match=message):
                writer(bad, str(tmp_path / "bad"))
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# writing over existing outputs
# ---------------------------------------------------------------------------

def _export_all(mesh, curves, stem):
    """Write every output of the four writers at stem.*; return their paths."""
    mio.export_ply(mesh, f"{stem}.ply")
    mio.export_obj(mesh, f"{stem}.obj")
    mio.export_level_curves(curves, f"{stem}.csv")
    return [f"{stem}.ply", f"{stem}.obj", f"{stem}.obj.causal.csv", f"{stem}.csv"]


def test_a_shorter_rewrite_leaves_no_stale_tail(small_mesh, tmp_path):
    curves = level_curve(3, 0.5, 16)
    fresh = _export_all(small_mesh, curves, tmp_path / "fresh")
    larger = mio.tessellate(3, u_max=3.0, eps=0.02, grid=(32, 48))
    old = _export_all(larger, level_curve(3, 0.5, 64) + level_curve(3, 0.0, 64), tmp_path / "old")
    sizes = [os.path.getsize(p) for p in old]
    assert all(os.path.getsize(p) < size for p, size in zip(fresh, sizes))
    rewritten = _export_all(small_mesh, curves, tmp_path / "old")
    assert [pathlib.Path(p).read_bytes() for p in rewritten] == [pathlib.Path(p).read_bytes() for p in fresh]


def test_ply_and_level_curves_write_to_devnull(small_mesh):
    mio.export_ply(small_mesh, os.devnull)
    mio.export_level_curves(level_curve(3, 0.5, 16), os.devnull)


def test_obj_and_its_sidecar_write_to_devnull(small_mesh, monkeypatch):
    # path + ".causal.csv" would be a real file under /dev; refuse it before it opens
    opened = []
    real_open = os.open

    def spy(path, *args):
        if os.fspath(path) == os.devnull + ".causal.csv":
            raise AssertionError(f"export_obj opened {path}")
        opened.append(path)
        return real_open(path, *args)

    monkeypatch.setattr(os, "open", spy)
    mio.export_obj(small_mesh, os.devnull)
    assert opened == [os.devnull, os.devnull]


def test_a_symlinked_output_is_written_through(small_mesh, tmp_path):
    curves = level_curve(3, 0.5, 16)
    fresh = _export_all(small_mesh, curves, tmp_path / "fresh")
    links = [tmp_path / f"link{suffix}" for suffix in (".ply", ".obj", ".obj.causal.csv", ".csv")]
    targets = [tmp_path / f"target{i}" for i in range(len(links))]
    for link, target in zip(links, targets):
        target.write_bytes(b"stale\n" * 10**5)
        link.symlink_to(target)
    _export_all(small_mesh, curves, tmp_path / "link")
    for link, target, path in zip(links, targets, fresh):
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == pathlib.Path(path).read_bytes()


def test_an_existing_output_keeps_its_mode(small_mesh, tmp_path):
    curves = level_curve(3, 0.5, 16)
    for path in _export_all(small_mesh, curves, tmp_path / "m"):
        os.chmod(path, 0o640)
    for path in _export_all(small_mesh, curves, tmp_path / "m"):
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640


def test_every_output_is_rewritten_without_truncation(small_mesh, tmp_path, monkeypatch):
    # O_TRUNC on a file that holds data makes ext4 flush the new file on
    # close (auto_da_alloc); a writer that goes back to open(path, "wb")
    # opens without os.open, and drops out of the list below
    curves = level_curve(3, 0.5, 16)
    paths = _export_all(small_mesh, curves, tmp_path / "m")
    opened, os_open = [], os.open

    def spy(path, flags, *args, **kwargs):
        opened.append((str(path), flags))
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    _export_all(small_mesh, curves, tmp_path / "m")
    opened = [(path, flags) for path, flags in opened if path.startswith(str(tmp_path))]
    assert [path for path, _ in opened] == paths
    for path, flags in opened:
        assert flags & os.O_CREAT and not flags & os.O_TRUNC, path


# ---------------------------------------------------------------------------
# level-curve CSV
# ---------------------------------------------------------------------------

def test_level_curve_csv(tmp_path):
    from zmcnoid.analysis import level_curve
    curves = level_curve(3, 0.5, 16) + level_curve(3, -0.5, 16)
    path = str(tmp_path / "levels.csv")
    mio.export_level_curves(curves, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["h", "copy_index", "param", "x", "y", "t"]
    assert len(rows) == 1 + 6 * 16
    hs = [float(r[0]) for r in rows[1:]]
    assert hs == sorted(hs)
    # every sample's t column equals its curve height
    for r in rows[1:]:
        assert abs(float(r[5]) - float(r[0])) < 1e-10
    # spot-check one row against the curve data, including (x, y, t) order
    first = curves[0]
    row = next(r for r in rows[1:]
               if float(r[0]) == 0.5 and r[1] == "0"
               and float(r[2]) == float(first.params[0]))
    assert float(row[3]) == float(first.points[0, 1])
    assert float(row[4]) == float(first.points[0, 2])
    assert float(row[5]) == float(first.points[0, 0])


def _curve(h, copy_index, params, points):
    return LevelCurve(n=3, h=h, copy_index=copy_index, is_ray=False,
                      params=np.asarray(params, dtype=float),
                      points=np.asarray(points, dtype=float).reshape(-1, 3))


def test_level_curves_match_per_row_oracle(tmp_path, monkeypatch):
    curves = level_curve(4, 0.5, 40) + level_curve(4, -0.5, 40) + level_curve(4, 0.0, 40)
    assert_levels_match_oracle(curves, tmp_path)
    for block in (1, 7, 64):
        monkeypatch.setattr(mio, "_WRITE_BLOCK", block)
        assert_levels_match_oracle(curves, tmp_path)


def test_level_curves_match_per_row_oracle_on_ties(tmp_path):
    # -0.0 and 0.0 heights compare equal, so both sorts keep their input
    # order; repeated (h, copy_index, param) keys keep it too
    points = np.arange(18.0).reshape(6, 3)
    curves = [
        _curve(0.0, 1, [0.5, -0.0, 0.5], points[:3]),
        _curve(-0.0, 1, [0.0, 0.5, 0.25], points[3:] * -1e-300),
        _curve(-0.0, 0, [0.5, 0.5], points[:2] + 0.1),
        _curve(0.0, 0, [0.5, 5e-324], points[4:] * 1e22),
        _curve(-1.0, 2, [1e16], points[:1]),
        # same t bits, params that differ only in the sign of a zero
        _curve(2.0, 0, [-0.0, 0.5], points[:2]),
        _curve(2.0, 1, [0.0, 0.5], points[:2]),
    ]
    assert_levels_match_oracle(curves, tmp_path)
    assert_levels_match_oracle(curves[::-1], tmp_path)
    rows = open(tmp_path / "new.csv", "rb").read().splitlines()
    assert b"2.0,0,-0.0,1.0,2.0,0.0" in rows and b"2.0,1,0.0,1.0,2.0,0.0" in rows


def test_level_curves_format_each_distinct_param_and_t_segment_once(tmp_path, monkeypatch):
    # the 5 copies of each height share their params and t, the mirrored
    # heights their params, and the 10 rays their params by parity: of the
    # 40 segments of the 20 curves, 3 params and 12 t are distinct
    curves = level_curve(5, 0.5, 64) + level_curve(5, -0.5, 64) + level_curve(5, 0.0, 64)
    segments = {c.params.tobytes() for c in curves} | {c.points[:, 0].tobytes() for c in curves}
    assert len(segments) == 15
    formatter, formatted = mio._float_field, []

    def counting(column):
        formatted.append(len(column))
        return formatter(column)

    monkeypatch.setattr(mio, "_float_field", counting)
    monkeypatch.setitem(mio._FIELDS, "f", counting)
    mio.export_level_curves(curves, str(tmp_path / "levels.csv"))
    rows = sum(len(c.params) for c in curves)
    # x and y once per row, each distinct segment once, in one call
    assert sorted(formatted) == sorted([rows, rows, 64 * len(segments)])
    monkeypatch.undo()
    assert_levels_match_oracle(curves, tmp_path)


def test_level_curves_match_per_row_oracle_on_no_curves(tmp_path):
    assert_levels_match_oracle([], tmp_path)
    assert open(tmp_path / "new.csv", "rb").read() == b"h,copy_index,param,x,y,t\r\n"


@pytest.mark.parametrize("column", ["x", "param"])
def test_level_curves_refuse_non_finite_samples(tmp_path, column):
    params, points = np.linspace(0.0, 1.0, 5), np.ones((5, 3))
    if column == "x":
        points[3, 1] = np.nan  # native (t, x, y): x is column 1
    else:
        params[2] = np.nan
    curves = [_curve(0.5, 0, [0.0], [[0.5, 1.0, 2.0]]), _curve(0.5, 1, params, points)]
    path = tmp_path / "levels.csv"
    with pytest.raises(ValueError):
        mio.export_level_curves(curves, str(path))
    assert not path.exists()


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------

# SHA-256 of every file that scripts/generate_gallery.py writes at 64x192
GALLERY_DIGESTS = {
    "levels3.csv": "e245c9d2495beb6eb57bd8bdb9ab92bd7183dac349c5fc42a79e037f1bfc289a",
    "levels4.csv": "0a3f9082b2cd816580326eb22b6759497857903b277aa91cd55669e342ac79f4",
    "levels6.csv": "39092c871151988f9497040f521da0d5a116a7c992fc875cea3be988a294c26f",
    "noid17.ply": "1cf10ad2ca8196ecc269fc046382e7b3f0115faef2d79ec0d3d1ca899e965385",
    "noid2.ply": "9ae7fe438d2ef30dd05d1c9099b55d1cbbe2953471a02bfb5dbab5eea9c70bd9",
    "noid3.obj": "ba7c02cc831238da6227624729a38dfe57f125df1b1c72e062084a1be84a0a59",
    "noid3.obj.causal.csv": "5e95c25af3af476c9b7bc924966c9d1848ea66f267f45ad61923fee8be29f687",
    "noid3.ply": "504134844a4489e96e2d7bc82c13d899a18f865185fd314629c4fcaee3a5f917",
    "noid4.ply": "6126c909a0fff9f7752f279f10e20c4163d00c90ddca250d08cb5ee68ff17969",
    "noid6.ply": "ff580e3320f1de6896772b72bbb5c5427eaf201126c94849b83c07ca48e35a49",
    "rays3.csv": "fb36355917e8c62c7e91945bc68ab04db55a5f6bf929e0ac29216c8d8c5e7561",
    "rays4.csv": "a94b5fd73752721d60dff4d84041f1dbd983677712694dd5a32f7989a3b46aeb",
    "rays6.csv": "bf5ddb9f85da34243bad5ac034fa52630c4837d7296958c4672a2d540ccbd608",
}


@pytest.mark.parametrize("grid", ["abc", "4x4"])
def test_gallery_rejects_a_bad_grid_in_one_line(tmp_path, monkeypatch, capsys, grid):
    out = tmp_path / "gallery"
    monkeypatch.setattr(sys, "argv", [str(GALLERY_SCRIPT), "--out", str(out), "--grid", grid])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(GALLERY_SCRIPT), run_name="__main__")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error: " in err.splitlines()[-1] and grid in err.splitlines()[-1]
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


@pytest.mark.parametrize("grid", ["abc", "4x4"])
def test_gallery_makes_no_directory_on_a_usage_error(tmp_path, monkeypatch, grid):
    out = tmp_path / "gallery" / "deeper"
    monkeypatch.setattr(sys, "argv", [str(GALLERY_SCRIPT), "--out", str(out), "--grid", grid])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(GALLERY_SCRIPT), run_name="__main__")
    assert exc.value.code == 2
    assert not (tmp_path / "gallery").exists()


def test_gallery_keeps_its_bytes(tmp_path, monkeypatch):
    out = tmp_path / "gallery"
    monkeypatch.setattr(sys, "argv", [str(GALLERY_SCRIPT), "--out", str(out),
                                      "--grid", "64x192"])
    runpy.run_path(str(GALLERY_SCRIPT), run_name="__main__")
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == GALLERY_DIGESTS
