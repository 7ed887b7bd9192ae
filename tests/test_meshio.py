"""Tessellation, artifact round-trips, and canonical report JSON."""

import csv
import math

import numpy as np
import pytest

from zmcnoid import meshio as mio
from zmcnoid.extension import causal_type_grid, omega_lower_bound


@pytest.fixture
def small_mesh():
    return mio.tessellate(3, u_max=3.0, eps=0.02, grid=(16, 24))


# ---------------------------------------------------------------------------
# thread cap
# ---------------------------------------------------------------------------

def test_thread_cap_env_override(monkeypatch):
    monkeypatch.setenv("ZMC_NOID_THREADS", "3")
    assert mio.thread_cap() == 3


def test_thread_cap_rejects_nonpositive(monkeypatch):
    monkeypatch.setenv("ZMC_NOID_THREADS", "0")
    with pytest.raises(ValueError):
        mio.thread_cap()


def test_thread_cap_default(monkeypatch):
    monkeypatch.delenv("ZMC_NOID_THREADS", raising=False)
    assert mio.thread_cap() >= 1


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
    assert np.min(area) > mio.DEGENERATE_FACE_AREA


def test_tessellate_n2_graph_relation():
    mesh = mio.tessellate(2, u_max=4.0, eps=0.02, grid=(24, 48))
    x, y, t = mesh.positions.T
    assert np.max(np.abs(t - x * np.tanh(2.0 * y))) < 1e-9


def test_tessellate_thread_count_invariance(monkeypatch):
    monkeypatch.setenv("ZMC_NOID_THREADS", "1")
    serial = mio.tessellate(4, grid=(16, 32))
    monkeypatch.setenv("ZMC_NOID_THREADS", "4")
    threaded = mio.tessellate(4, grid=(16, 32))
    assert serial.positions.tobytes() == threaded.positions.tobytes()
    assert serial.faces.tobytes() == threaded.faces.tobytes()
    assert serial.causal.tobytes() == threaded.causal.tobytes()


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


# ---------------------------------------------------------------------------
# verification report JSON
# ---------------------------------------------------------------------------

def make_record(name="demo.check", passed=True, measured=1.5e-12):
    return mio.CheckRecord(
        name=name, n=3, parameters={"samples": 10},
        measured=measured, tolerance=1e-10, passed=passed,
    )


def test_check_record_dict_uses_pass_key():
    d = make_record().as_dict()
    assert d["pass"] is True
    assert d["name"] == "demo.check"
    assert d["n"] == 3


def test_empty_report_canonical_bytes():
    assert mio.report_json(mio.VerificationReport()) == '{"checks": [], "pass": true}'


def test_report_key_order_and_summary():
    rep = mio.VerificationReport(
        suite="verify", prng="numpy-pcg64", seed=42,
        checks=(make_record(), make_record(passed=False)),
    )
    text = mio.report_json(rep)
    assert text.startswith('{"suite": "verify", "prng": "numpy-pcg64", "seed": 42, "checks": [')
    assert text.endswith('"pass": false}')
    assert '"summary": {"total": 2, "passed": 1, "failed": 1}' in text
    assert not rep.passed


def test_report_float_formatting():
    rep = mio.VerificationReport(checks=(make_record(measured=0.1),))
    text = mio.report_json(rep)
    assert '"measured": 0.10000000000000001' in text
    assert '"tolerance": 1e-10' in text


def test_report_rejects_non_finite():
    rep = mio.VerificationReport(checks=(make_record(measured=math.inf),))
    with pytest.raises(ValueError):
        mio.report_json(rep)


def test_report_rejects_unserializable():
    rec = mio.CheckRecord(
        name="bad", n=None, parameters={"obj": object()},
        measured=0.0, tolerance=1.0, passed=True,
    )
    with pytest.raises(TypeError):
        mio.report_json(mio.VerificationReport(checks=(rec,)))


def test_report_numpy_scalars_serialize():
    rec = mio.CheckRecord(
        name="np", n=int(np.int64(4)), parameters={"count": np.int64(7)},
        measured=np.float64(2.0e-9), tolerance=1e-8, passed=True,
    )
    text = mio.report_json(mio.VerificationReport(checks=(rec,)))
    assert '"count": 7' in text
    assert '"measured": 2.0000000000000001e-09' in text


def test_emit_report_no_trailing_newline(tmp_path):
    path = str(tmp_path / "report.json")
    mio.emit_report(mio.VerificationReport(), path)
    blob = open(path, "rb").read()
    assert blob == b'{"checks": [], "pass": true}'
