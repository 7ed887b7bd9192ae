"""Exit codes, artifact emission, and byte determinism of the CLI."""

import csv
import hashlib
import json
import re

import numpy as np
import pytest

from zmcnoid import cli, meshio, verify
from zmcnoid.meshio import read_obj, read_ply


def run_cli(argv):
    return cli.run(argv)


def run_expect_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    return exc.value.code


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------

def test_mesh_obj_export(tmp_path, capsys):
    out = str(tmp_path / "noid.obj")
    assert run_cli(["mesh", "--n", "3", "--grid", "16x24", "--out", out]) == 0
    verts, faces = read_obj(out)
    assert verts.shape == (16 * 24, 3)
    assert faces.shape[0] > 0
    assert (tmp_path / "noid.obj.causal.csv").exists()
    assert "vertices" in capsys.readouterr().out


def test_mesh_ply_from_suffix(tmp_path):
    out = str(tmp_path / "noid.ply")
    assert run_cli(["mesh", "--n", "4", "--grid", "12x16", "--out", out]) == 0
    pos, causal, faces = read_ply(out)
    assert pos.shape == (12 * 16, 3)
    assert causal.shape == (12 * 16,)
    assert faces.shape[0] > 0


def test_mesh_has_no_format_option(tmp_path, capsys):
    out = tmp_path / "x.obj"
    assert run_expect_usage_error(["mesh", "--n", "3", "--format", "obj", "--out", str(out)]) == 2
    assert "unrecognized arguments: --format obj" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["x.dat", "x.obj.bak", "noext"])
def test_mesh_takes_its_format_from_the_out_suffix(tmp_path, capsys, name):
    out = str(tmp_path / name)
    assert run_expect_usage_error(["mesh", "--n", "3", "--grid", "8x8", "--out", out]) == 2
    assert capsys.readouterr().err.rstrip("\n").splitlines()[-1] == (
        f"zmcnoid: error: mesh: --out must end in .obj or .ply, got {out!r}")
    assert not list(tmp_path.iterdir())


def test_mesh_large_order(tmp_path):
    out = str(tmp_path / "noid17.ply")
    assert run_cli(["mesh", "--n", "17", "--grid", "10x40", "--out", out]) == 0
    pos, _, _ = read_ply(out)
    assert np.all(np.isfinite(pos))


@pytest.mark.parametrize("u_max, grid, counts", [("1e7", "64x192", (12288, 24192)),
                                                  ("1e150", "8x8", (64, 112))])
def test_mesh_keeps_every_face_near_the_end_at_infinity(tmp_path, capsys, u_max, grid, counts):
    # faces shrink toward the origin as u grows; every quad still writes two
    out = str(tmp_path / "x.ply")
    assert run_cli(["mesh", "--n", "3", "--u-max", u_max, "--grid", grid, "--out", out]) == 0
    assert capsys.readouterr().out == f"{out}: {counts[0]} vertices, {counts[1]} faces\n"
    pos, _, faces = read_ply(out)
    assert faces.shape == (counts[1], 3)
    assert np.isfinite(pos).all()


def test_mesh_byte_determinism(tmp_path):
    a, b = str(tmp_path / "a.ply"), str(tmp_path / "b.ply")
    run_cli(["mesh", "--n", "3", "--grid", "12x16", "--out", a])
    run_cli(["mesh", "--n", "3", "--grid", "12x16", "--out", b])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_mesh_usage_errors(tmp_path):
    out = str(tmp_path / "x.obj")
    assert run_expect_usage_error(["mesh", "--out", out]) == 2
    assert run_expect_usage_error(["mesh", "--n", "1", "--out", out]) == 2
    assert run_expect_usage_error(["mesh", "--n", "3", "--grid", "64", "--out", out]) == 2
    assert run_expect_usage_error(["mesh", "--n", "3", "--grid", "4x8", "--out", out]) == 2
    assert run_expect_usage_error(["mesh", "--n", "3", "--eps", "-1", "--out", out]) == 2
    assert run_expect_usage_error(
        ["mesh", "--n", "3", "--u-max", "0.5", "--out", out]) == 2
    assert run_expect_usage_error(
        ["mesh", "--n", "3", "--out", str(tmp_path / "noext")]) == 2


def test_mesh_rejects_non_finite_and_oversized_input(tmp_path, capsys):
    out = tmp_path / "x.ply"
    for argv in (
        ["mesh", "--n", "3", "--eps", "nan", "--out", str(out)],
        ["mesh", "--n", "3", "--u-max", "inf", "--out", str(out)],
        ["mesh", "--n", "200", "--grid", "8x8", "--out", str(out)],
    ):
        assert run_expect_usage_error(argv) == 2, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.rstrip("\n").splitlines()[-1].startswith("zmcnoid: error: mesh: ")
        assert not out.exists()


@pytest.mark.parametrize("command", ["mesh", "levels"])
def test_orders_past_the_degree_cap_are_one_line_errors(tmp_path, capsys, command):
    # n = 2000: 2^(n - 1) of the factored denominator overflows a float
    out = tmp_path / ("x.ply" if command == "mesh" else "x.csv")
    extra = ["--grid", "8x8"] if command == "mesh" else ["--h", "0"]
    assert run_expect_usage_error([command, "--n", "2000", *extra, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.rstrip("\n").splitlines()
    assert not any("Traceback" in line for line in lines)
    assert lines[-1] == f"zmcnoid: error: {command}: order n=2000 is past 129, the largest supported order"
    assert not out.exists()


def test_mesh_checks_the_degree_before_the_domain_edge(tmp_path, capsys):
    # the cap error comes from eval_extended_grid inside the tessellate pool,
    # which checks the degree before it forms any factor; the domain's lower
    # edge reads two spokes per column, so nothing before it grows with n
    out = tmp_path / "x.ply"
    argv = ["mesh", "--n", "100000", "--grid", "8x768", "--out", str(out)]
    assert run_expect_usage_error(argv) == 2
    lines = capsys.readouterr().err.rstrip("\n").splitlines()
    assert not any("Traceback" in line for line in lines)
    assert lines[-1] == "zmcnoid: error: mesh: order n=100000 is past 129, the largest supported order"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_mesh_rejects_overflowing_surface(tmp_path, capsys):
    # both grids evaluate to NaN coordinates in float64 (112 of 192 at n = 17)
    out = tmp_path / "x.ply"
    for n, u_max in (("17", "1e20"), ("3", "1e160")):
        argv = ["mesh", "--n", n, "--u-max", u_max, "--grid", "8x8", "--out", str(out)]
        assert run_expect_usage_error(argv) == 2, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err
        last = err.rstrip("\n").splitlines()[-1]
        assert last.startswith("zmcnoid: error: mesh: ")
        assert f"n={n}" in last and "u_max=" in last
        assert not out.exists()


@pytest.mark.parametrize("stage", ["tessellate", "export_ply"])
def test_mesh_reports_a_grid_that_does_not_fit(tmp_path, capsys, monkeypatch, stage):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, stage, out_of_memory)
    out = tmp_path / "x.ply"
    grid = "100000x100000" if stage == "tessellate" else "8x8"
    assert run_expect_usage_error(["mesh", "--n", "3", "--grid", grid, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.rstrip("\n").splitlines()[-1] == (
        f"zmcnoid: error: mesh: a {grid} grid does not fit in memory")
    assert not out.exists()


def test_mesh_rejects_a_grid_beyond_physical_memory(tmp_path, capsys, monkeypatch):
    # a small grid against a patched 1 MiB of memory stands in for a grid
    # too large for the machine, which would get the process killed
    monkeypatch.setattr(meshio, "_physical_memory", lambda: 2 ** 20)
    out = tmp_path / "x.ply"
    argv = ["mesh", "--n", "3", "--grid", "64x192", "--out", str(out)]
    assert run_expect_usage_error(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.rstrip("\n").splitlines()[-1] == (
        "zmcnoid: error: mesh: a 64x192 grid does not fit in memory: "
        "it needs about 0.00172 GiB, of 0.000977 GiB physical")
    assert not out.exists()


def test_mesh_io_error(tmp_path):
    out = str(tmp_path / "missing" / "deep" / "x.obj")
    assert run_cli(["mesh", "--n", "3", "--grid", "12x16", "--out", out]) == 3


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_stdout_json(capsys):
    code = run_cli(["verify", "--n", "3", "--seed", "42"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith('{"suite": "verify", "prng": "numpy-pcg64", "seed": 42,')
    assert out.rstrip("\n").endswith('"pass": true}')


def test_verify_stdout_byte_identical(capsys):
    run_cli(["verify", "--n", "4", "--seed", "42"])
    first = capsys.readouterr().out
    run_cli(["verify", "--n", "4", "--seed", "42"])
    second = capsys.readouterr().out
    assert first == second


# SHA-256 of `verify --seed S` stdout; any change to the draws or their
# order moves these bytes
VERIFY_DIGESTS = {
    42: "9de5148400b9f50481cf5df2cc5b3666a1b901d2d9c45832efeba91e0d81f574",
    0: "812ac0a3c09243c523f73eadbdc120ec6c7efca74e92730885330a588b429d24",
    7: "8c5ca188dab58f96c63dddd7b313b78b10a0b0cf65c31c180bfb1b246615bc51",
}


@pytest.mark.parametrize("seed", VERIFY_DIGESTS)
def test_verify_stdout_digest(capsys, seed):
    assert run_cli(["verify", "--seed", str(seed)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == VERIFY_DIGESTS[seed]


def test_verify_n_restricts_surface_checks(capsys):
    run_cli(["verify", "--n", "3", "--seed", "42"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c["n"] for c in checks if not c["name"].startswith("chebyshev.")} == {3}
    run_cli(["verify", "--n", "2", "--seed", "42"])
    assert len(json.loads(capsys.readouterr().out)["checks"]) == 62


def test_verify_timings_go_to_stderr(capsys):
    run_cli(["verify", "--n", "3", "--seed", "42"])
    plain = capsys.readouterr()
    run_cli(["verify", "--n", "3", "--seed", "42", "--timings"])
    timed = capsys.readouterr()
    assert timed.out == plain.out and plain.err == ""
    lines = timed.err.splitlines()
    assert [line.split(": ")[0] for line in lines] == list(verify.registry_ids())
    assert all(re.fullmatch(r"[\w.]+: \d+\.\d{3} s", line) for line in lines)


def test_verify_out_file(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    assert run_cli(["verify", "--n", "3", "--seed", "1", "--out", out]) == 0
    blob = open(out, "rb").read()
    assert blob.startswith(b'{"suite": "verify"')
    assert not blob.endswith(b"\n")
    assert "checks passed" in capsys.readouterr().out


def test_verify_out_prints_a_residual_row_per_record(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli(["verify", "--n", "3", "--seed", "1", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    report = verify.run_checks(seed=1, ns=[3])
    assert out.read_text(encoding="utf-8") == verify.report_json(report)
    assert len(lines) == len(report.checks) + 1 == 62
    for line, record in zip(lines, report.checks):
        row = re.fullmatch(r"(\S+) +n=(\d+) +measured= *(\S+) tol= *(\S+)  (ok|FAIL)", line)
        assert row, line
        name, order, measured, tol, verdict = row.groups()
        assert (name, int(order), verdict) == (record.name, record.n, "ok")
        assert float(measured) == float(f"{record.measured:.5e}")
        assert float(tol) == float(f"{record.tolerance:.2e}")
    assert lines[-1] == f"{out}: 61/61 checks passed"


@pytest.mark.parametrize("grid", ["8", "8x", "8x8x8", "axb"])
def test_mesh_rejects_a_malformed_grid(tmp_path, capsys, grid):
    out = tmp_path / "x.ply"
    assert run_expect_usage_error(["mesh", "--n", "3", "--grid", grid, "--out", str(out)]) == 2
    assert capsys.readouterr().err.rstrip("\n").splitlines()[-1] == (
        f"zmcnoid mesh: error: argument --grid: grid must look like 64x192, got {grid!r}")
    assert not out.exists()


def test_verify_failure_exit_code(capsys):
    code = run_cli(["verify", "--n", "3", "--seed", "0",
                    "--tol", "weierstrass.null_form=1e-30"])
    assert code == 1
    assert '"pass": false' in capsys.readouterr().out


def test_verify_tol_validation():
    assert run_expect_usage_error(["verify", "--tol", "nosuch.check=1e-3"]) == 2
    assert run_expect_usage_error(["verify", "--tol", "chebyshev.positivity=1e-3"]) == 2
    assert run_expect_usage_error(["verify", "--tol", "badformat"]) == 2
    assert run_expect_usage_error(["verify", "--tol", "weierstrass.null_form=-1"]) == 2
    assert run_expect_usage_error(["verify", "--n", "0"]) == 2
    assert run_expect_usage_error(["verify", "--n", "20"]) == 2


def test_verify_rejects_negative_seed(capsys):
    assert run_expect_usage_error(["verify", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.rstrip("\n").splitlines()[-1].startswith("zmcnoid: error: verify: ")


def test_verify_rejects_a_tolerance_that_is_not_a_number(capsys):
    assert run_expect_usage_error(["verify", "--tol", "weierstrass.null_form=tight"]) == 2
    last = capsys.readouterr().err.rstrip("\n").splitlines()[-1]
    assert last == "zmcnoid verify: error: argument --tol: tolerance value 'tight' is not a number"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_rejects_non_finite_tolerance(capsys, value):
    argv = ["verify", "--n", "2", "--tol", f"weierstrass.lift_agreement={value}"]
    assert run_expect_usage_error(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.rstrip("\n").splitlines()[-1]
    assert last.startswith("zmcnoid verify: error: argument --tol: ")
    assert "weierstrass.lift_agreement" in last and value.lstrip("-") in last


def test_levels_guard_error_names_the_point(capsys, tmp_path):
    out = tmp_path / "x.csv"
    assert run_expect_usage_error(["levels", "--n", "3", "--h", "1e8", "--out", str(out)]) == 2
    last = capsys.readouterr().err.rstrip("\n").splitlines()[-1]
    assert last.startswith("zmcnoid: error: levels: n=3: (u, theta) = (")
    assert "1e-14" in last
    assert not out.exists()


def test_verify_io_error(tmp_path):
    out = str(tmp_path / "nodir" / "report.json")
    assert run_cli(["verify", "--n", "3", "--out", out]) == 3


# ---------------------------------------------------------------------------
# levels
# ---------------------------------------------------------------------------

def test_levels_copy_count(tmp_path):
    out = str(tmp_path / "levels.csv")
    assert run_cli(["levels", "--n", "6", "--h", "0.01", "--out", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["h", "copy_index", "param", "x", "y", "t"]
    copies = {r[1] for r in rows[1:]}
    assert copies == {str(k) for k in range(6)}
    assert len(rows) == 1 + 6 * 512


def test_levels_rays_and_dedup(tmp_path, capsys):
    out = str(tmp_path / "rays.csv")
    code = run_cli(["levels", "--n", "6", "--h", "0", "--h", "0", "--out", out])
    assert code == 0
    assert "12 curves" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 12 * 512


def test_levels_takes_the_largest_order_off_height_zero(tmp_path, capsys):
    out = str(tmp_path / "levels.csv")
    assert run_cli(["levels", "--n", "129", "--h", "1", "--out", out]) == 0
    assert "129 curves" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 129 * 512
    assert np.isfinite(np.array([r[2:] for r in rows], dtype=float)).all()


def test_levels_has_no_format_option(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["levels", "--n", "3", "--h", "1", "--format", "csv", "--out", str(out)]
    assert run_expect_usage_error(argv) == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
    assert not out.exists()


def test_levels_mixed_heights(tmp_path):
    out = str(tmp_path / "mix.csv")
    assert run_cli(["levels", "--n", "3", "--h", "0.5", "--h", "-0.5",
                    "--out", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    hs = sorted({float(r[0]) for r in rows[1:]})
    assert hs == [-0.5, 0.5]


def test_levels_usage_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    assert run_expect_usage_error(["levels", "--n", "2", "--h", "1", "--out", out]) == 2
    assert run_expect_usage_error(["levels", "--n", "3", "--out", out]) == 2
    assert run_expect_usage_error(
        ["levels", "--n", "3", "--h", "1", "--u-max", "0.5", "--out", out]) == 2


@pytest.mark.filterwarnings("error")
def test_levels_rejects_heights_without_finite_output(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for h in ("nan", "1e-320", "1e300", "inf"):
        assert run_expect_usage_error(
            ["levels", "--n", "3", "--h", h, "--out", str(out)]) == 2, h
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.rstrip("\n").splitlines()[-1].startswith("zmcnoid: error: levels: ")
        assert not out.exists()


def test_levels_names_itself_when_u_max_is_at_most_1(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for u_max in ("1", "0.5", "-inf"):
        assert run_expect_usage_error(
            ["levels", "--n", "3", "--h", "1", f"--u-max={u_max}", "--out", str(out)]) == 2, u_max
        last = capsys.readouterr().err.rstrip("\n").splitlines()[-1]
        assert last == f"zmcnoid: error: levels: --u-max must exceed 1, got {float(u_max)}"
        assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_levels_rejects_u_max_without_finite_rays(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for u_max in ("nan", "inf", "1e300"):
        assert run_expect_usage_error(
            ["levels", "--n", "3", "--h", "0", "--u-max", u_max, "--out", str(out)]) == 2, u_max
        last = capsys.readouterr().err.rstrip("\n").splitlines()[-1]
        assert last.startswith("zmcnoid: error: levels: ")
        assert repr(float(u_max)) in last
        assert not out.exists()


def test_levels_takes_a_negative_exponent_height_as_a_value(tmp_path):
    # argparse alone reads -1e4 as an option and exits 2
    spaced, glued = str(tmp_path / "spaced.csv"), str(tmp_path / "glued.csv")
    assert run_cli(["levels", "--n", "3", "--h", "-1e4", "--out", spaced]) == 0
    assert run_cli(["levels", "--n", "3", "--h=-1e4", "--out", glued]) == 0
    with open(spaced, "rb") as a, open(glued, "rb") as b:
        assert a.read() == b.read()


@pytest.mark.parametrize("head, option, value", [
    (["levels", "--n", "3"], "--h", "-1e300"),
    (["levels", "--n", "3", "--h", "1"], "--u-max", "-inf"),
    (["mesh", "--n", "3"], "--u-max", "-inf"),
    (["mesh", "--n", "3"], "--eps", "-1e-3"),
])
def test_negative_float_values_fail_like_their_equals_form(tmp_path, capsys, head, option, value):
    out = tmp_path / ("x.csv" if head[0] == "levels" else "x.ply")
    lines = []
    for argv in ([option, value], [f"{option}={value}"]):
        assert run_expect_usage_error([*head, *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines.append(err.rstrip("\n").splitlines()[-1])
        assert not out.exists()
    assert lines[0] == lines[1] and lines[0].startswith("zmcnoid: error: ")


def test_levels_io_error(tmp_path):
    out = str(tmp_path / "nope" / "x.csv")
    assert run_cli(["levels", "--n", "3", "--h", "1", "--out", out]) == 3


# ---------------------------------------------------------------------------
# report, parser plumbing
# ---------------------------------------------------------------------------

def test_report_stdout(capsys):
    assert run_cli(["report", "--n", "4"]) == 0
    text = capsys.readouterr().out
    assert "zmcnoid mesh --n 4" in text
    assert "zmcnoid verify" in text
    assert "8 straight rays" in text


def test_report_to_file(tmp_path):
    out = str(tmp_path / "recipes.md")
    assert run_cli(["report", "--out", out]) == 0
    text = open(out).read()
    assert text.startswith("# Surface artifact recipes (n = 3)")


def test_unknown_subcommand():
    assert run_expect_usage_error(["frobnicate"]) == 2
    assert run_expect_usage_error([]) == 2


def test_main_exits_with_run_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["zmcnoid", "report"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 0
    assert "recipes" in capsys.readouterr().out
