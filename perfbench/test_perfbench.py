"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest perfbench -q

They use the tiny input size, so the whole file runs in well under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from spans import END, PARENT, POOL_TASK, START, Tracer, self_times  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*extra, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seed", "3",
           "--seconds", "1", "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _printed_metrics(stdout: str) -> dict:
    return {m.group(1): m.group(3) for m in
            re.finditer(r"^metric (\S+) = (\S+) (\S+)$", stdout, re.M)}


@pytest.mark.parametrize("workload", ["verify", "embed", "mesh"])
def test_tiny_run_prints_every_end_to_end_metric(workload):
    res = _run("--workload", workload, "--trace", "0")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert _printed_metrics(res.stdout) == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    res = _run("--workload", "mesh", "--trace", "1")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert _printed_metrics(res.stdout) == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(v >= 0 for k, v in values.items() if k.endswith("self_s"))
    assert values["meshio.tessellate.calls"] > 0
    assert values["extension.eval_extended_grid.points"] > 0
    assert values["meshio.export_obj.bytes"] > 0


def test_benchmark_json_lists_the_per_layer_metrics():
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == layers.per_layer_metrics()


def test_traced_pass_leaves_outputs_identical(tmp_path):
    """Verify reports and mesh files have the same bytes with tracing on."""
    zm = run.import_zmcnoid()
    from workloads import TINY, build

    for workload in ("verify", "mesh"):
        ops = build(workload, zm, 5, TINY, tmp_path)
        registry, grid = zm.verify.REGISTRY, zm.analysis.eval_extended_grid
        plain = [op.check(op.run(), True)[0] for op in ops]
        tracer = Tracer()
        tracer.install(vars(zm), layers.target_list(), registry_module=zm.verify)
        try:
            traced = [op.check(op.run(), False)[0] for op in ops]
        finally:
            tracer.uninstall()
        assert traced == plain
        assert tracer.spans
        assert zm.verify.REGISTRY is registry
        assert zm.analysis.eval_extended_grid is grid


def test_self_time_subtracts_union_of_overlapping_children():
    # parent on one thread, two children on two other threads overlapping
    # in [2, 8]: the sum of child durations (13) exceeds the parent (10)
    spans = [
        ["parent", 0.0, 10.0, -1, 1, 0, 0.0],
        ["child", 1.0, 8.0, 0, 2, 0, 0.0],
        ["child", 2.0, 9.0, 0, 3, 0, 0.0],
    ]
    assert self_times(spans) == [pytest.approx(2.0), 7.0, 7.0]


def test_pool_tasks_are_parented_to_the_submitting_span():
    tracer = Tracer()
    executor = tracer.executor_class()
    barrier = threading.Barrier(2, timeout=10)

    def work(_):
        barrier.wait()          # both tasks run at the same time
        time.sleep(0.05)

    parent = tracer.open("meshio.tessellate")
    with executor(max_workers=2) as pool:
        list(pool.map(work, range(2)))
    tracer.close(parent)

    tasks = [s for s in tracer.spans if s[0] == POOL_TASK]
    assert len(tasks) == 2 and all(s[PARENT] == parent for s in tasks)
    assert len({s[4] for s in tasks}) == 2
    own = self_times(tracer.spans)[parent]
    p = tracer.spans[parent]
    lo = min(s[START] for s in tasks)
    hi = max(s[END] for s in tasks)
    assert own >= 0.0
    assert own == pytest.approx((p[END] - p[START]) - (hi - lo), abs=1e-9)
    assert sum(s[END] - s[START] for s in tasks) > hi - lo   # they overlapped


def test_exit_probe_runs_only_after_a_normal_return():
    tracer = Tracer()
    probed = []

    def fail(path):
        raise PermissionError(path)

    traced = tracer.wrap("meshio.export_ply", fail, after=lambda path: probed.append(path))
    with pytest.raises(PermissionError):
        traced("out.ply")
    assert probed == []
    assert tracer.spans[0][END] >= tracer.spans[0][START]


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _run("--workload", "embed", "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


def test_reference_scale_cancels_a_uniform_slowdown():
    import reference

    # a machine half as fast doubles the op and both kernel runs around it
    fast = 1.5 * reference.scale(0.05, 0.07)
    slow = 3.0 * reference.scale(0.10, 0.14)
    assert fast == pytest.approx(slow)
    assert 1.5 * reference.scale(reference.REF_S, reference.REF_S) == pytest.approx(1.5)


def test_tail_has_ten_samples_beyond():
    from workloads import tail

    values = [float(i) for i in range(1, 31)]
    value, pct, beyond = tail(values)
    assert value == 20.0 and beyond == 10
    assert sum(v > value for v in values) == 10
    assert tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)
