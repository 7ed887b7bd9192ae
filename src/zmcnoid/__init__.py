"""Evaluable zero-mean-curvature n-noid surfaces in Lorentz-Minkowski 3-space.

The package constructs a one-integer family of surfaces with n planar ends,
their real-analytic extensions across the lightlike fold locus, certifies the
geometric claims that admit numeric checks (symmetries, closed-form lift,
immersion bounds, vanishing mean curvature, embedded level curves,
properness), and exports meshes plus machine-readable verification reports.

Module map:

- ``chebyshev``    recurrence evaluation and closed-form monotone inverse
- ``quadrature``   adaptive Gauss-Kronrod contour integration
- ``weierstrass``  holomorphic data, closed-form lift, polar surface
- ``extension``    extended surface on the (u, theta) domain, isometry group
- ``analysis``     derivatives, level curves, embeddedness and properness
- ``geometry``     planar polyline scans over box-tree forests
- ``meshio``       tessellation and OBJ/PLY/CSV export
- ``verify``       enumerable registry of invariant checks, JSON reports
- ``cli``          mesh / verify / levels / report subcommands
"""

from __future__ import annotations

__version__ = "0.1.0"

from .weierstrass import JorgeMeeksData, LorentzVec3, lorentz_inner
from .extension import CausalType

__all__ = [
    "__version__",
    "JorgeMeeksData",
    "LorentzVec3",
    "lorentz_inner",
    "CausalType",
]
