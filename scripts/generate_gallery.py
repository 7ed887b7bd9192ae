#!/usr/bin/env python3
"""Regenerate the standard artifact gallery into an output directory.

Writes, for a handful of surface orders: a PLY mesh with causal tags, an
OBJ mesh with the causal CSV sidecar, level-curve CSVs near and away from
the fold, and the ray set at height zero.  Everything is deterministic, so
rerunning refreshes the gallery in place byte for byte.
"""

from __future__ import annotations

import argparse
import pathlib

from zmcnoid.analysis import level_curve
from zmcnoid.cli import parse_grid
from zmcnoid.meshio import export_level_curves, export_obj, export_ply, tessellate

MESH_ORDERS = (2, 3, 4, 6, 17)
LEVEL_ORDERS = (3, 4, 6)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="gallery", help="output directory")
    parser.add_argument("--grid", type=parse_grid, default="64x192", help="mesh grid as NUxNT")
    args = parser.parse_args()
    out = pathlib.Path(args.out)

    def surface(n, u_max):
        # the output directory is made once a mesh exists, so a usage error
        # leaves nothing behind
        try:
            mesh = tessellate(n, u_max=u_max, eps=0.02, grid=args.grid)
        except ValueError as exc:
            parser.error(str(exc))
        out.mkdir(parents=True, exist_ok=True)
        return mesh

    for n in MESH_ORDERS:
        mesh = surface(n, 4.0)
        export_ply(mesh, str(out / f"noid{n}.ply"))
        print(f"noid{n}.ply: {mesh.vertex_count} vertices, {mesh.face_count} faces")
    export_obj(surface(3, 3.0), str(out / "noid3.obj"))
    print("noid3.obj + causal sidecar")

    for n in LEVEL_ORDERS:
        curves = []
        for h in (0.01, 0.5, 1.0, -0.5, -1.0):
            curves.extend(level_curve(n, h, 512))
        export_level_curves(curves, str(out / f"levels{n}.csv"))
        export_level_curves(level_curve(n, 0.0, 512), str(out / f"rays{n}.csv"))
        print(f"levels{n}.csv / rays{n}.csv")


if __name__ == "__main__":
    main()
