#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload embed --seeds 1-10 [--json out.json]

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  Runs one seed at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(p) for p in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(p) for p in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="a range 1-10 or a list 1,5,9")
    p.add_argument("--json", help="write the per-seed results here")
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = []
    for seed in parse_seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if res.returncode != 0:
            print(res.stdout, res.stderr, file=sys.stderr)
            return 1
        last = json.loads(res.stdout.strip().splitlines()[-1])
        last["seed"] = seed
        results.append(last)
        print(f"seed {seed}: correct={last['correct']} failed={last['failed']}/"
              f"{last['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()),
              flush=True)

    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        print(f"{name:12s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f} bound {bound} "
              f"({'ok' if spread < bound / 3 else 'WIDE'})")
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
