"""Command-line interface: mesh export, verification, level curves, recipes.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
Identical argv (and seed) produce byte-identical artifacts; mesh evaluation
and quad splitting run on a thread pool with one worker for each CPU the
process may use, each chunk writing its own rows, whatever the schedule.
The text writers format tables of two or more blocks on such a pool too,
and write the blocks in order.
"""

from __future__ import annotations

import argparse
import math
import sys

from .analysis import level_curve
from .chebyshev import check_order
from .meshio import export_level_curves, export_obj, export_ply, tessellate
from .verify import check_arguments, emit_report, report_json, run_checks

CHECK_FAILURE = 1
IO_ERROR = 3


def parse_grid(text: str) -> tuple[int, int]:
    try:
        nu, ntheta = (int(part) for part in text.lower().split("x"))
    except ValueError:  # also when there are not two parts to unpack
        raise argparse.ArgumentTypeError(f"grid must look like 64x192, got {text!r}")
    return nu, ntheta


def _parse_tol(text: str) -> tuple[str, float]:
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"tolerance override must be NAME=VALUE, got {text!r}")
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance value {raw!r} is not a number")
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            f"tolerance for {name} must be finite and > 0, got {value}")
    return name, value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zmcnoid",
        description="Evaluate, verify, and export the maximal n-noid surface family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mesh = sub.add_parser("mesh", help="tessellate one surface and write OBJ or PLY")
    mesh.add_argument("--n", type=int, required=True, help="surface order, >= 2")
    mesh.add_argument("--u-max", type=float, default=4.0, help="radial truncation")
    mesh.add_argument("--eps", type=float, default=0.02, help="boundary offset")
    mesh.add_argument("--grid", type=parse_grid, default=(64, 192), metavar="NUxNT")
    mesh.add_argument("--out", required=True, help="output path ending in .obj or .ply")

    ver = sub.add_parser("verify", help="run the registered invariant checks")
    ver.add_argument("--n", type=int, help="restrict surface checks to this order")
    ver.add_argument("--seed", type=int, default=0, help="PCG64 sampling seed")
    ver.add_argument("--out", help="write the JSON report here and print a residual table")
    ver.add_argument(
        "--tol", type=_parse_tol, action="append", default=[], metavar="NAME=VALUE",
        help="override a residual tolerance by check id (repeatable)",
    )
    ver.add_argument("--timings", action="store_true",
                     help="print each check's wall time to stderr")

    levels = sub.add_parser("levels", help="sample level curves and write CSV")
    levels.add_argument("--n", type=int, required=True, help="surface order, >= 3")
    levels.add_argument(
        "--h", type=float, action="append", required=True,
        help="height to slice at (repeatable; 0 gives the 2n rays)",
    )
    levels.add_argument("--u-max", type=float, default=10.0, help="ray extent for h = 0")
    levels.add_argument("--out", required=True, help="output CSV path")

    rep = sub.add_parser("report", help="write a markdown recipe sheet")
    rep.add_argument("--n", type=int, default=3, help="surface order used in recipes")
    rep.add_argument("--out", help="write markdown here instead of stdout")
    return parser


def _cmd_mesh(args, parser) -> int:
    suffix = args.out[-4:].lower()
    if suffix not in (".obj", ".ply"):
        parser.error(f"mesh: --out must end in .obj or .ply, got {args.out!r}")
    try:
        mesh = tessellate(args.n, u_max=args.u_max, eps=args.eps, grid=args.grid)
        (export_obj if suffix == ".obj" else export_ply)(mesh, args.out)
    except MemoryError:
        parser.error("mesh: a {}x{} grid does not fit in memory".format(*args.grid))
    print(f"{args.out}: {mesh.vertex_count} vertices, {mesh.face_count} faces")
    return 0


def _cmd_verify(args, parser) -> int:
    ns = None if args.n is None else [args.n]
    overrides = dict(args.tol)
    try:
        check_arguments(ns=ns, tol_overrides=overrides, seed=args.seed)
    except KeyError as exc:
        parser.error(f"verify: {exc.args[0]}")
    timings = {} if args.timings else None
    report = run_checks(seed=args.seed, ns=ns, tol_overrides=overrides, timings=timings)
    for check_id, seconds in (timings or {}).items():
        print(f"{check_id}: {seconds:.3f} s", file=sys.stderr)
    if args.out:
        emit_report(report, args.out)
        width = max(len(c.name) for c in report.checks)
        for c in report.checks:
            print(f"{c.name:<{width}}  n={c.n:<3} measured={c.measured:12.5e} "
                  f"tol={c.tolerance:9.2e}  {'ok' if c.passed else 'FAIL'}")
        summary = report.summary()
        print(f"{args.out}: {summary['passed']}/{summary['total']} checks passed")
    else:
        print(report_json(report))
    return 0 if report.passed else CHECK_FAILURE


def _cmd_levels(args, parser) -> int:
    if args.u_max <= 1.0:
        parser.error(f"levels: --u-max must exceed 1, got {args.u_max}")
    check_order(args.n, 3)
    curves = []
    for h in dict.fromkeys(args.h):
        curves.extend(level_curve(args.n, h, 512, u_max=args.u_max))
    export_level_curves(curves, args.out)
    print(f"{args.out}: {len(curves)} curves")
    return 0


_REPORT_TEMPLATE = """\
# Surface artifact recipes (n = {n})

Deterministic command lines for the standard artifact set.  Rerunning any
of them with the same flags reproduces the output byte for byte.

## Surface mesh

    zmcnoid mesh --n {n} --u-max 4 --eps 0.02 --grid 64x192 --out noid{n}.ply

Binary PLY with per-vertex causal tags (0 spacelike, 1 lightlike,
2 timelike); u > 1 maps to the space-like sheet, u < 1 to the time-like
sheet inside the fold.  An `.obj` path writes ASCII OBJ instead, plus a
`.causal.csv` sidecar.

## Wide truncation of the same surface

    zmcnoid mesh --n {n} --u-max 8 --eps 0.02 --grid 96x288 --out noid{n}_wide.ply

The planar ends flatten toward the n directions theta = 2 pi k / n.

## Level curve sets

    zmcnoid levels --n {n} --h 0.01 --out levels{n}_near0.csv
    zmcnoid levels --n {n} --h 1 --h -1 --out levels{n}_pm1.csv
    zmcnoid levels --n {n} --h 0 --out levels{n}_rays.csv

Each nonzero height yields {n} disjoint open arcs (one per rotation copy);
height 0 yields the {two_n} straight rays through the common limit point at
the origin.  Columns are (h, copy_index, param, x, y, t).

## Verification report

    zmcnoid verify --seed 42 --out verify{n}.json

Runs every registered invariant check with PCG64-seeded sampling and exits
nonzero if any residual exceeds its tolerance.  `--n {n}` restricts the
per-surface checks to this order; `--tol NAME=VALUE` loosens or tightens a
single residual bound.
"""


def _cmd_report(args, parser) -> int:
    check_order(args.n, 2)
    text = _REPORT_TEMPLATE.format(n=args.n, two_n=2 * args.n)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"{args.out}: recipe sheet written")
    else:
        print(text, end="")
    return 0


_COMMANDS = {
    "mesh": _cmd_mesh,
    "verify": _cmd_verify,
    "levels": _cmd_levels,
    "report": _cmd_report,
}


def run(argv=None) -> int:
    parser = build_parser()
    # argparse reads -1e4 or -inf as an option (it passes -1 and -.5): glue it on
    glued = []
    for arg in sys.argv[1:] if argv is None else argv:
        if (glued and glued[-1] in ("--u-max", "--eps", "--h")
                and arg.startswith("-") and not arg.startswith("--")):
            glued[-1] += "=" + arg
        else:
            glued.append(arg)
    args = parser.parse_args(glued)
    try:
        return _COMMANDS[args.command](args, parser)
    except ValueError as exc:
        parser.error(f"{args.command}: {exc}")
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return IO_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
