"""Seeded, enumerable verification suites over the library's invariants.

Every numeric invariant of the math modules is registered here once, under
a stable dotted id with its orders and tolerance; its runner measures one
order.  Checks draw their sample points from a single PCG64 generator
threaded through the registry in declaration order, then order by order, so
a fixed seed fixes every sampled point and the emitted report byte-for-byte.

``run_checks`` assembles a ``VerificationReport`` and ``report_json``
serializes it canonically; the test suite enumerates ``REGISTRY`` to
guarantee nothing is silently dropped.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import (
    contour_u,
    mean_curvature_residual,
    surface_partials,
    zmc_verification_grid,
)
from .chebyshev import eval_T, eval_U, invert_T, psi
from .extension import (
    _height,
    eval_extended_grid,
    fold_to_fundamental,
    group_elements,
    omega_lower_bound,
    reflection_matrix,
    rotation_matrix,
)
from .weierstrass import (
    JorgeMeeksData,
    alpha,
    f_polar,
    integrate_lift_numeric,
    lift_closed_form,
    lorentz_inner,
    period_residual,
    _segment_puncture_distance,
)

PRNG_NAME = "numpy-pcg64"

SURFACE_NS = tuple(range(2, 9))
CHEBYSHEV_NS = tuple(range(2, 13))
ZMC_NS = tuple(range(2, 7))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckRecord:
    """One verification measurement: a residual against its tolerance."""

    name: str
    n: int | None
    parameters: dict
    measured: float
    tolerance: float
    passed: bool

    def as_dict(self):
        return {
            "name": self.name,
            "n": self.n,
            "parameters": self.parameters,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Named suite of check records; passes iff every record passes."""

    suite: str
    prng: str
    seed: int
    checks: tuple = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> dict:
        good = sum(1 for c in self.checks if c.passed)
        return {
            "total": len(self.checks),
            "passed": good,
            "failed": len(self.checks) - good,
        }

    def as_dict(self):
        return {
            "suite": self.suite,
            "prng": self.prng,
            "seed": self.seed,
            "checks": [c.as_dict() for c in self.checks],
            "summary": self.summary(),
            "pass": self.passed,
        }


def _json_fragment(obj) -> str:
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {_json_fragment(v)}" for k, v in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_fragment(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not math.isfinite(value):
            raise ValueError(f"non-finite number in report: {value}")
        return format(value, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"unserializable report entry of type {type(obj)!r}")


def report_json(report: VerificationReport) -> str:
    """Canonical JSON text: insertion-ordered keys, 17 significant digits."""
    return _json_fragment(report.as_dict())


def emit_report(report: VerificationReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report_json(report))


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------

def _sample_domain(rng, n, count, gap_lo=1e-3, gap_hi=3.0):
    """Random in-domain (u, theta), gaps log-uniform above the boundary."""
    theta = rng.uniform(0.0, 2.0 * math.pi, count)
    gap = 10.0 ** rng.uniform(math.log10(gap_lo), math.log10(gap_hi), count)
    u = omega_lower_bound(n, theta) + gap
    return u, theta


def _sample_z(rng, n, count, clearance=1e-2):
    """Random z in the two annuli, kept off the puncture set."""
    out = np.empty(count, dtype=complex)
    have = 0
    while have < count:
        inner = rng.random(count) < 0.5
        r = np.where(
            inner,
            rng.uniform(0.05, 0.95, count),
            rng.uniform(1.05, 3.0, count),
        )
        t = rng.uniform(0.0, 2.0 * math.pi, count)
        z = r * np.exp(1j * t)
        ok = np.abs(z ** n - 1.0) > clearance
        take = z[ok][: count - have]
        out[have:have + take.size] = take
        have += take.size
    return out


# ---------------------------------------------------------------------------
# check runners: each measures one order n and returns (parameters,
# measured), or (parameters, measured, passed) for a sign check
# ---------------------------------------------------------------------------

def _check_trig_identities(rng, n):
    phi = rng.uniform(0.0, 2.0 * math.pi, 1000)
    x = np.cos(phi)
    res_t = np.max(np.abs(eval_T(n, x) - np.cos(n * phi)))
    res_u = np.max(np.abs(eval_U(n, x) * np.sin(phi) - np.sin((n + 1) * phi)))
    return {"samples": 1000}, max(res_t, res_u)


def _check_invert_roundtrip(rng, n):
    y = -1.0 + 10.0 ** rng.uniform(-6.0, math.log10(1001.0), 1000)
    back = eval_T(n, invert_T(n, y))
    return {"samples": 1000}, np.max(np.abs(back - y) / np.maximum(1.0, np.abs(y)))


def _check_monotonicity(rng, n):
    gt = np.linspace(math.cos(math.pi / n), 4.0, 1000)
    gu = np.linspace(math.cos(math.pi / (n - 1)), 4.0, 1000)
    worst = min(
        float(np.min(np.diff(eval_T(n, gt)))),
        float(np.min(np.diff(eval_U(n - 1, gu)))),
    )
    return {"grid": 1000}, worst, worst > 0.0


def _check_positivity(rng, n):
    x = np.linspace(math.cos(math.pi / n) + 1e-9, 4.0, 1000)
    worst = min(float(np.min(eval_U(m, x))) for m in range(n))
    return {"grid": 1000, "max_degree": n - 1}, worst, worst > 0.0


def _check_null_form(rng, n):
    a = alpha(JorgeMeeksData(n), _sample_z(rng, n, 1000))
    num = np.abs(lorentz_inner(a.T, a.T))
    den = np.abs(a[0]) ** 2 + np.abs(a[1]) ** 2 + np.abs(a[2]) ** 2
    return {"samples": 1000}, np.max(num / den)


def _check_lift_agreement(rng, n):
    data = JorgeMeeksData(n)
    zs = []
    while len(zs) < 100:
        z = _sample_z(rng, n, 100)
        # the quadrature oracle integrates along the segment [0, z]
        clearance = _segment_puncture_distance(0j, z[:, None], data.punctures)
        zs.extend(z[clearance.min(axis=1) > 0.06])
    zs = np.array(zs[:100])
    numeric = np.array(integrate_lift_numeric(data, zs))
    closed = np.array(lift_closed_form(data, zs))
    return {"samples": 100}, np.max(np.abs(closed.real - numeric.real))


def _check_polar_symmetries(rng, n):
    data = JorgeMeeksData(n)
    z = _sample_z(rng, n, 1000)
    r, theta = np.abs(z), np.angle(z)
    base, flipped, turned = f_polar(
        data, np.stack([r, r, r]), np.stack([theta, -theta, theta + 2.0 * math.pi / n])
    )
    s_err = np.max(np.abs(flipped - base @ reflection_matrix().T))
    r_err = np.max(np.abs(turned - base @ rotation_matrix(n).T))
    return {"samples": 1000}, max(s_err, r_err)


def _check_fold_symmetry(rng, n):
    data = JorgeMeeksData(n)
    z = _sample_z(rng, n, 1000)
    r, theta = np.abs(z), np.angle(z)
    outer, inner = f_polar(data, np.stack([r, 1.0 / r]), np.stack([theta, theta]))
    return {"samples": 1000}, np.max(np.abs(outer - inner))


def _check_period_condition(rng, n):
    data = JorgeMeeksData(n)
    return {"punctures": n}, float(np.max(period_residual(data, range(n))))


def _check_denominator_positivity(rng, n):
    u, theta = _sample_domain(rng, n, 10_000, gap_lo=1e-4)
    worst = float(np.min(psi(n, u, theta)))
    return {"samples": 10_000}, worst, worst > 0.0


def _check_group_decomposition(rng, n):
    u, theta = _sample_domain(rng, n, 1000)
    folded, mats = fold_to_fundamental(n, theta)
    worst = math.inf
    if np.all((folded >= 0.0) & (folded <= math.pi / n + 1e-12)):
        wedge, direct = eval_extended_grid(n, np.stack([u, u]), np.stack([folded, theta]))
        rebuilt = (mats @ wedge[..., None])[..., 0]
        worst = float(np.max(np.abs(direct - rebuilt)))
    return {"samples": 1000}, worst


def _check_infinity_decay(rng, n):
    theta = np.concatenate(
        [np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False),
         rng.uniform(0.0, 2.0 * math.pi, 256)]
    )
    scale = 1.25  # headroom over the u = 100 fit for the slowly varying tail
    us = (100.0, 1e3, 1e4)
    pts = eval_extended_grid(n, np.stack([np.full_like(theta, u) for u in us]), theta)
    fitted = scale * float(np.max(np.linalg.norm(pts[0], axis=-1)) * 100.0)
    worst = float(np.max(np.linalg.norm(pts[1:], axis=-1) * np.array(us[1:])[:, None] / fitted))
    return {"fit_u": 100.0, "C": fitted}, worst


def _check_group_lorentz_invariance(rng, n):
    v = rng.normal(size=(100, 3))
    w = rng.normal(size=(100, 3))
    base = lorentz_inner(v, w)
    worst = 0.0
    for g in group_elements(n):
        moved = lorentz_inner(v @ g.T, w @ g.T)
        worst = max(worst, float(np.max(np.abs(moved - base))))
    return {"pairs": 100, "elements": 2 * n}, worst


def _check_graph_identity_n2(rng, n):
    theta = rng.uniform(0.0, 2.0 * math.pi, 1000)
    lb = omega_lower_bound(n, theta)
    # half the samples forced below u = 1 so the time-like sheet is covered
    inside = rng.random(1000) < 0.5
    u = np.where(
        inside,
        lb + (1.0 - lb) * np.clip(rng.random(1000), 1e-3, 1.0 - 1e-3),
        1.0 + 10.0 ** rng.uniform(-3.0, 0.5, 1000),
    )
    t, x, y = eval_extended_grid(n, u, theta).T
    return ({"samples": 1000, "timelike": int(np.sum(u < 1.0))},
            np.max(np.abs(t - x * np.tanh(2.0 * y))))


def _weierstrass_partials(n, u, theta):
    """(f_u, J01, J02) as ``surface_partials`` gives them, from alpha alone.

    With F' = alpha, the space-like sheet u = cosh s > 1 is Re F at
    z = e^(-s + i theta), and the time-like sheet u = cos phi < 1 is
    (gamma(theta + phi) + gamma(theta - phi)) / 2 with gamma(t) = Re F(e^(it)),
    a sum of two null curves.  Each sample takes alpha at two points (a
    space-like one twice), all in one call.  At u = 1 both forms are 0/0, so
    that sample is taken one ulp up, on the space-like side.
    """
    u = np.where(u == 1.0, np.nextafter(1.0, 2.0), u)
    space = u > 1.0
    root = np.sqrt(np.abs((u - 1.0) * (u + 1.0)))  # sinh s, or sin phi
    phi = np.arccos(np.minimum(u, 1.0))  # 0 on the space-like sheet
    z = np.where(space, 1.0 / (u + root), 1.0) * np.exp(1j * (theta + np.stack([phi, -phi])))
    w = alpha(JorgeMeeksData(n), z) * z  # r dF/dr = w and dF/dtheta = i w
    f_u = (np.where(space, -w[:, 0].real, 0.5 * (w[:, 0] - w[:, 1]).imag) / root).T
    f_t = -0.5 * (w[:, 0] + w[:, 1]).imag.T
    return f_u, *(f_u[:, 0] * f_t[:, k] - f_u[:, k] * f_t[:, 0] for k in (1, 2))


def _check_derivative_agreement(rng, n):
    u, theta = _sample_domain(rng, n, 1000, gap_lo=1e-2)
    worst = max(
        float(np.max(np.abs(closed - oracle) / np.maximum(1.0, np.abs(closed))))
        for closed, oracle in zip(surface_partials(n, u, theta), _weierstrass_partials(n, u, theta))
    )
    return {"samples": 1000}, worst


def _check_jacobian_sum_identity(rng, n):
    u, theta = _sample_domain(rng, n, 1000, gap_lo=1e-2)
    _, j01, j02 = surface_partials(n, u, theta)
    total = j01 ** 2 + j02 ** 2
    target = eval_U(n - 2, u) ** 2 / psi(n, u, theta) ** 4
    rel = np.max(np.abs(total - target) / target)
    return {"samples": 1000}, rel, rel < 1e-10 and bool(np.all(total > 0.0))


def _check_contour_roundtrip(rng, n):
    wedge = math.pi / n
    heights = (0.01, 0.1, 1.0, 10.0)
    # representation floor of the tip factor u - cos theta is about
    # eps * n^2 h^2 / theta, so large heights get a raised grid start
    thetas = [np.linspace(min(0.5, max(1e-3, 2.2e-5 * n * n * h * h / wedge)) * wedge,
                          (1.0 - 1e-3) * wedge, 200) for h in heights]
    x0 = _height(n, np.stack([contour_u(n, h, t) for h, t in zip(heights, thetas)]),
                 np.stack(thetas))[0]
    worst = float(np.max(np.abs(x0 - np.array(heights)[:, None])))
    return {"theta_grid": 200, "heights": list(heights)}, worst


def _check_height_nonnegative(rng, n):
    theta = rng.uniform(0.0, math.pi / n, 10_000)
    gap = 10.0 ** rng.uniform(-6.0, math.log10(3.0), 10_000)
    u = np.cos(theta) + gap
    worst = float(np.min(_height(n, u, theta)[0]))
    return {"samples": 10_000}, worst, worst >= -1e-12


def _check_level_curve_mirror(rng, n):
    wedge = math.pi / n
    theta = np.linspace(1e-3 * wedge, (1.0 - 1e-3) * wedge, 200)
    u = [contour_u(n, h, theta) for h in (0.01, 1.0)]
    pts = eval_extended_grid(n, np.stack([u[0], u[0], u[1], u[1]]),
                             np.stack([theta, 2.0 * math.pi - theta] * 2))
    worst = float(np.max(np.abs(pts[::2] @ reflection_matrix().T - pts[1::2])))
    return {"theta_grid": 200, "heights": [0.01, 1.0]}, worst


def _check_zero_mean_curvature(rng, n):
    uu, tt = zmc_verification_grid(n, nu=10, ntheta=30)
    return {"grid_points": int(uu.size)}, np.max(mean_curvature_residual(n, uu, tt))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """One registered invariant, run once per order in ``orders``.

    A record passes when its measured residual is below ``tolerance``.  A
    ``sign`` check certifies a sign condition instead: its runner returns
    the verdict, its tolerance is only reported, and it takes no override.
    Checks whose orders all lie in SURFACE_NS follow ``run_checks``'s ns;
    the chebyshev.* checks run over polynomial degrees and ignore it.
    """

    id: str
    description: str
    runner: Callable
    orders: tuple
    tolerance: float
    sign: bool = False


REGISTRY: tuple[Check, ...] = (
    Check("chebyshev.trig_identities",
          "T(n, cos phi) = cos n phi and U(n, cos phi) sin phi = sin (n+1) phi",
          _check_trig_identities, tuple(range(0, 13)), 1e-11),
    Check("chebyshev.invert_roundtrip",
          "T(n, invert_T(n, y)) returns y on the increasing branch",
          _check_invert_roundtrip, CHEBYSHEV_NS, 1e-9),
    Check("chebyshev.monotonicity",
          "T_n and U_{n-1} strictly increase right of their last extremum",
          _check_monotonicity, CHEBYSHEV_NS, 0.0, sign=True),
    Check("chebyshev.positivity",
          "U_m > 0 on (cos(pi/n) + 1e-9, 4] for all m < n",
          _check_positivity, CHEBYSHEV_NS, 0.0, sign=True),
    Check("weierstrass.null_form",
          "alpha is isotropic: -a0^2 + a1^2 + a2^2 = 0",
          _check_null_form, SURFACE_NS, 1e-12),
    Check("weierstrass.lift_agreement",
          "closed-form primitive matches adaptive quadrature in real part",
          _check_lift_agreement, SURFACE_NS, 1e-8),
    Check("weierstrass.polar_symmetries",
          "conjugation and 2 pi/n rotation act by the S and R isometries",
          _check_polar_symmetries, SURFACE_NS, 1e-11),
    Check("weierstrass.fold_symmetry",
          "f(r, theta) = f(1/r, theta): the surface folds across |z| = 1",
          _check_fold_symmetry, SURFACE_NS, 1e-11),
    Check("weierstrass.period_condition",
          "real parts of all puncture loop integrals vanish",
          _check_period_condition, SURFACE_NS, 1e-8),
    Check("extension.denominator_positivity",
          "T_n(u) - cos n theta > 0 on the extended domain",
          _check_denominator_positivity, SURFACE_NS, 0.0, sign=True),
    Check("extension.group_decomposition",
          "every point is an isometry image of a fundamental-wedge point",
          _check_group_decomposition, SURFACE_NS, 1e-9),
    Check("extension.infinity_decay",
          "|f(u, theta)| < C/u toward the puncture at infinity",
          _check_infinity_decay, SURFACE_NS, 1.0),
    Check("extension.group_lorentz_invariance",
          "all 2n group elements preserve the Lorentz inner product",
          _check_group_lorentz_invariance, SURFACE_NS, 1e-12),
    Check("extension.graph_identity_n2",
          "the n = 2 extension is the entire graph t = x tanh 2y",
          _check_graph_identity_n2, (2,), 1e-10),
    Check("analysis.derivative_agreement",
          "closed-form partials and Jacobian minors match the Weierstrass data",
          _check_derivative_agreement, SURFACE_NS, 1e-6),
    Check("analysis.jacobian_sum_identity",
          "J01^2 + J02^2 = U_{n-2}^2 / Psi^4, hence never both zero",
          _check_jacobian_sum_identity, SURFACE_NS, 1e-10, sign=True),
    Check("analysis.contour_roundtrip",
          "the height coordinate returns h along the solved contour",
          _check_contour_roundtrip, SURFACE_NS, 1e-10),
    Check("analysis.height_nonnegative_fundamental",
          "x0 >= 0 on the closed fundamental wedge",
          _check_height_nonnegative, SURFACE_NS, -1e-12, sign=True),
    Check("analysis.level_curve_mirror",
          "S maps the height-h slice onto the height -h slice",
          _check_level_curve_mirror, SURFACE_NS, 1e-10),
    Check("analysis.zero_mean_curvature",
          "finite-difference mean curvature residual vanishes on mixed grids",
          _check_zero_mean_curvature, ZMC_NS, 1e-4),
)


def registry_ids() -> tuple[str, ...]:
    return tuple(check.id for check in REGISTRY)


# a sign check's pass rule does not consume a tolerance, so it rejects
# overrides instead of silently ignoring them
NON_OVERRIDABLE = frozenset(check.id for check in REGISTRY if check.sign)


def check_arguments(ids=None, ns=None, tol_overrides=None, seed=0) -> None:
    """Validate the arguments of ``run_checks`` without running anything.

    Raises KeyError for an unknown check id or tolerance name, and ValueError
    for an order outside SURFACE_NS, a tolerance given to a check in
    NON_OVERRIDABLE, a tolerance that is not finite and > 0, or a negative
    seed (PCG64 takes none).
    """
    unknown = set(ids or ()) - set(registry_ids())
    if unknown:
        raise KeyError(f"unknown check ids: {sorted(unknown)}")
    tols = set(tol_overrides or ())
    bad = tols - set(registry_ids())
    if bad:
        raise KeyError(f"unknown tolerance names: {sorted(bad)}")
    fixed = tols & NON_OVERRIDABLE
    if fixed:
        raise ValueError(
            f"checks {sorted(fixed)} certify a sign condition and take no tolerance"
        )
    for name, value in (tol_overrides or {}).items():
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"tolerance for {name} must be finite and > 0, got {value!r}")
    if set(ns or ()) - set(SURFACE_NS):
        raise ValueError(f"orders {ns} must lie in {SURFACE_NS[0]}..{SURFACE_NS[-1]}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def run_checks(ids=None, seed: int = 0, ns=None, tol_overrides=None,
               timings=None) -> VerificationReport:
    """Run registered checks (all by default) with a single seeded stream.

    ids filters by exact check id.  ns restricts every check over surface
    orders (all but the chebyshev.* checks, graph_identity_n2 included) to
    the given orders; such a check runs, draws and records nothing at the
    orders left out.  tol_overrides replaces residual tolerances by check
    id.  ``check_arguments`` says which arguments are rejected.  The PCG64
    stream is consumed in registry order, then order by order, so identical
    arguments reproduce the report exactly.  A timings dict, when given,
    receives the wall seconds of each check run, by check id; they stay out
    of the report.
    """
    check_arguments(ids, ns, tol_overrides, seed)
    wanted = set(registry_ids() if ids is None else ids)
    tols = dict(tol_overrides or {})
    rng = np.random.default_rng(seed)
    records = []
    for check in REGISTRY:
        if check.id not in wanted:
            continue
        start = time.perf_counter()
        orders = check.orders
        if ns is not None and set(orders) <= set(SURFACE_NS):
            orders = [n for n in orders if n in ns]
        tol = tols.get(check.id, check.tolerance)
        for n in orders:
            parameters, measured, *verdict = check.runner(rng, n)
            measured = float(measured)
            passed = verdict[0] if check.sign else measured < tol
            records.append(CheckRecord(check.id, n, parameters, measured, tol, bool(passed)))
        if timings is not None:
            timings[check.id] = time.perf_counter() - start
    return VerificationReport(
        suite="verify", prng=PRNG_NAME, seed=seed, checks=tuple(records)
    )
