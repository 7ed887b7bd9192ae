#!/usr/bin/env python3
"""zmcnoid benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {verify,embed,mesh} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a zmcnoid source tree; the library is imported from
``src/`` of that tree and from nowhere else.

--trace 0 measures the end-to-end metrics with tracing off.  Every time
is in reference seconds (see reference.py): each op and each set-up probe
is scaled by a fixed kernel timed right before and after it, which takes
the speed of a shared machine out of the figures.  The raw seconds are
printed on the lines before the result.

- setup_s: median time of fresh processes that import zmcnoid and
  generate the workload's inputs (CLI users pay this on every call);
- wall_s: median time of one pass over the op list, after an untimed
  warm-up pass;
- units_per_s: units of work per pass divided by wall_s;
- op_p50_s / op_tail_s: median per-op latency, and the highest per-op
  percentile with at least ten samples beyond it;
- peak_rss_mb: peak resident set size of this process.

--trace 1 alternates untraced and traced passes, prints the per-layer
metrics of the traced passes, and the tracing overhead (the median of
traced minus untraced pass time over adjacent pairs).  The spans are
written to .bench_out/.

The last line of standard output is the JSON result; the lines before it
give the environment, the output digests and every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import layers
import reference
from spans import Tracer
from workloads import SIZES, UNIT_NAMES, CheckFailed, build, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 21   # fresh processes per run; setup_s is their median
WORKLOADS = ("verify", "embed", "mesh")
MODULES = ("chebyshev", "quadrature", "weierstrass", "extension", "analysis",
           "geometry", "meshio", "verify", "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="import and generate inputs, then exit (the setup_s probe)")
    return p.parse_args(argv)


def import_zmcnoid():
    """Import zmcnoid from this tree's src/; refuse any other copy."""
    if not (SRC / "zmcnoid" / "__init__.py").is_file():
        raise SystemExit(f"error: no zmcnoid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib
    mods = {name: importlib.import_module(f"zmcnoid.{name}") for name in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"error: zmcnoid imported from {origin}, not from {SRC}")
    return argparse.Namespace(**mods)


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (
                index / "size").read_text().strip()
        except OSError:
            continue
    return out


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def environment(zm) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_cap": zm.meshio.thread_cap(),
        "ZMC_NOID_THREADS": os.environ.get("ZMC_NOID_THREADS", "unset"),
        "caches": cache_sizes(),
        "note": "CPUs not pinned, caches not dropped",
    }


def measure_setup(args, kernel) -> tuple[float, float]:
    """Median time of fresh processes that import and build the inputs.

    Returns it in seconds and in reference seconds (each probe scaled by
    the reference kernel timed before and after it).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size]
    times, times_ref = [], []
    kernel.time_s()   # the first run also starts the kernel's threads
    ref_before = kernel.time_s()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms, which
        # would quantize the measured time
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        dt = time.perf_counter() - t0
        ref_after = kernel.time_s()
        times.append(dt)
        times_ref.append(dt * reference.scale(ref_before, ref_after))
        ref_before = ref_after
    return statistics.median(times), statistics.median(times_ref)


class Runner:
    """Runs passes over one op list and keeps the outcome of every op."""

    def __init__(self, ops, kernel):
        self.ops = ops
        self.kernel = kernel
        self.digests = [None] * len(ops)
        self.deferred = []
        self.attempted = 0
        self.failures = []
        self.latencies = [[] for _ in ops]   # timed run times of each op, reference s
        self.passes = 0

    def run_pass(self, tracer=None, timed=True) -> tuple[float, float]:
        """One pass over the ops; returns its time in seconds and in reference seconds."""
        deep = self.passes == 0
        self.passes += 1
        total = total_ref = 0.0
        ref_before = self.kernel.time_s()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = self.attempted
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failing op is counted, the run goes on
                result = exc
            dt = time.perf_counter() - t0
            ref_after = self.kernel.time_s()
            dt_ref = dt * reference.scale(ref_before, ref_after)
            ref_before = ref_after
            total += dt
            total_ref += dt_ref
            if timed:
                self.latencies[i].append(dt_ref)
            if isinstance(result, Exception):
                self.failures.append(f"{op.label}: raised {result!r}")
                continue
            try:
                digest, deferred = op.check(result, deep)
            except CheckFailed as exc:
                self.failures.append(f"{op.label}: {exc}")
                continue
            if deferred is not None:
                self.deferred.append((op.label, deferred))
            if self.digests[i] is None:
                self.digests[i] = digest
            elif digest != self.digests[i]:
                self.failures.append(f"{op.label}: output differs from the first pass")
        return total, total_ref

    def run_deferred(self) -> None:
        for label, check in self.deferred:
            try:
                check()
            except CheckFailed as exc:
                self.failures.append(f"{label}: {exc}")


def measure(args, zm, ops, kernel):
    """Warm-up pass, then timed passes within --seconds.

    Another pass (or untraced + traced pair) starts only while the previous
    one would still fit in the time left, so a run measures for at most
    --seconds, and for at least one pass.
    """
    runner = Runner(ops, kernel)
    runner.run_pass(timed=False)
    walls, traced_walls = [], []
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        walls.append(runner.run_pass(timed=not args.trace))
        if tracer is not None:
            tracer.install(vars(zm), layers.target_list(), registry_module=zm.verify)
            try:
                traced_walls.append(runner.run_pass(tracer=tracer, timed=False))
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    return runner, walls, traced_walls, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    zm = import_zmcnoid()
    size = SIZES[args.size]
    outdir = OUT / f"{args.workload}-{os.getpid()}"
    if args.setup_only:
        build(args.workload, zm, args.seed, size, outdir)
        return 0

    env = environment(zm)
    print("env " + json.dumps(env, sort_keys=True))
    load_before = read_loadavg()
    with reference.Kernel() as kernel:
        setup_raw_s, setup_s = (None, None) if args.trace else measure_setup(args, kernel)
        outdir.mkdir(parents=True, exist_ok=True)
        try:
            ops = build(args.workload, zm, args.seed, size, outdir)
            runner, walls, traced_walls, tracer = measure(args, zm, ops, kernel)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            runner.run_deferred()
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
    load_after = read_loadavg()

    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(ops)} ops per pass, {len(walls)} untraced and "
          f"{len(traced_walls)} traced passes after one warm-up pass; "
          f"closed loop, one client")
    print(f"loadavg before {load_before} | after {load_after}")
    for op, digest in zip(ops, runner.digests):
        print(f"output {op.label} sha256 {digest}")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    failed = len(runner.failures)
    print(f"failed_frac = {failed}/{runner.attempted} = {failed / runner.attempted!r}")

    if args.trace:
        # per-layer times are raw seconds, so the pass times here are too
        walls = [raw for raw, _ in walls]
        traced_walls = [raw for raw, _ in traced_walls]
        values = layers.aggregate(tracer.spans, len(traced_walls))
        values["trace.wall_s"] = statistics.median(traced_walls)
        values["trace.untraced_wall_s"] = statistics.median(walls)
        # each traced pass follows an untraced one; the median of the paired
        # differences cancels machine speed drift between pairs
        values["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced_walls, walls))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.per_layer_metrics()}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(str(spans_path))
        print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        print(f"tracing overhead on {args.workload}: {values['trace.overhead_s']!r} s "
              f"per pass ({values['trace.wall_s']!r} s traced, "
              f"{values['trace.untraced_wall_s']!r} s untraced)")
    else:
        wall_s = statistics.median(ref for _, ref in walls)
        units = sum(op.units for op in ops)
        # an op's latency is the median of its replays, so that the number
        # of passes a run fits in does not decide which op is the tail
        per_op = [statistics.median(t) for t in runner.latencies if t]
        p50 = statistics.median(per_op)
        tail_s, pct, beyond = tail(per_op)
        print(f"pass times, s: {[round(raw, 4) for raw, _ in walls]}; median "
              f"{statistics.median(raw for raw, _ in walls)!r}")
        print(f"pass times, reference s: {[round(ref, 4) for _, ref in walls]}")
        print(f"setup, s: {setup_raw_s!r}")
        print(f"units per pass: {units} {UNIT_NAMES[args.workload]}")
        print(f"op_tail_s is p{pct:.1f} of {len(per_op)} op latencies, each the "
              f"median of {len(walls)} timed runs ({beyond} beyond it)")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "units_per_s": {"value": units / wall_s, "unit": "1/s"},
            "op_p50_s": {"value": p50, "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"metric {name} = {float(m['value'])!r} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
