"""Seeded, enumerable verification suites over the library's invariants.

Every numeric invariant of the math modules is registered here under a
stable dotted id.  Checks draw their sample points from a single PCG64
generator threaded through the registry in declaration order, so a fixed
seed fixes every sampled point and the emitted report byte-for-byte.

``run_checks`` assembles a ``VerificationReport`` and ``report_json``
serializes it canonically; the test suite enumerates ``REGISTRY`` to
guarantee nothing is silently dropped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .analysis import (
    contour_u,
    jacobian01,
    jacobian02,
    mean_curvature_residual,
    x0_u,
    x1_u,
    x2_u,
    zmc_verification_grid,
)
from .chebyshev import eval_T, eval_U, invert_T, psi
from .extension import (
    eval_extended_grid,
    first_partials_grid,
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

    suite: str = ""
    prng: str = ""
    seed: int | None = None
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
        # optional context keys are omitted when unset so that a bare empty
        # suite serializes to exactly {"checks": [], "pass": true}
        out = {}
        if self.suite:
            out["suite"] = self.suite
        if self.prng:
            out["prng"] = self.prng
        if self.seed is not None:
            out["seed"] = self.seed
        out["checks"] = [c.as_dict() for c in self.checks]
        if self.checks:
            out["summary"] = self.summary()
        out["pass"] = self.passed
        return out


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


def _restrict(default_ns, ns):
    return default_ns if ns is None else tuple(n for n in default_ns if n in ns)


def _record(name, n, params, measured, tol, passed=None):
    measured = float(measured)
    if passed is None:
        passed = measured < tol
    return CheckRecord(name, n, params, measured, tol, bool(passed))


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------

def _sample_domain(rng, n, count, wedge_only=False, gap_lo=1e-3, gap_hi=3.0):
    """Random in-domain (u, theta), gaps log-uniform above the boundary."""
    if wedge_only:
        theta = rng.uniform(0.0, math.pi / n, count)
    else:
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
# chebyshev checks
# ---------------------------------------------------------------------------

def _check_trig_identities(rng, ns):
    records = []
    for n in range(0, 13):
        phi = rng.uniform(0.0, 2.0 * math.pi, 1000)
        x = np.cos(phi)
        res_t = np.max(np.abs(eval_T(n, x) - np.cos(n * phi)))
        res_u = np.max(np.abs(eval_U(n, x) * np.sin(phi) - np.sin((n + 1) * phi)))
        records.append(
            _record("chebyshev.trig_identities", n, {"samples": 1000},
                    max(res_t, res_u), 1e-11)
        )
    return records


def _check_invert_roundtrip(rng, ns):
    records = []
    for n in CHEBYSHEV_NS:
        y = -1.0 + 10.0 ** rng.uniform(-6.0, math.log10(1001.0), 1000)
        back = eval_T(n, invert_T(n, y))
        rel = np.max(np.abs(back - y) / np.maximum(1.0, np.abs(y)))
        records.append(
            _record("chebyshev.invert_roundtrip", n, {"samples": 1000}, rel, 1e-9)
        )
    return records


def _check_monotonicity(rng, ns):
    records = []
    for n in CHEBYSHEV_NS:
        gt = np.linspace(math.cos(math.pi / n), 4.0, 1000)
        gu = np.linspace(math.cos(math.pi / (n - 1)), 4.0, 1000)
        worst = min(
            float(np.min(np.diff(eval_T(n, gt)))),
            float(np.min(np.diff(eval_U(n - 1, gu)))),
        )
        records.append(
            _record("chebyshev.monotonicity", n, {"grid": 1000},
                    worst, 0.0, passed=worst > 0.0)
        )
    return records


def _check_positivity(rng, ns):
    records = []
    for n in CHEBYSHEV_NS:
        x = np.linspace(math.cos(math.pi / n) + 1e-9, 4.0, 1000)
        worst = min(float(np.min(eval_U(m, x))) for m in range(n))
        records.append(
            _record("chebyshev.positivity", n, {"grid": 1000, "max_degree": n - 1},
                    worst, 0.0, passed=worst > 0.0)
        )
    return records


# ---------------------------------------------------------------------------
# weierstrass checks
# ---------------------------------------------------------------------------

def _check_null_form(rng, ns):
    records = []
    for n in _restrict(SURFACE_NS, ns):
        data = JorgeMeeksData(n)
        a = alpha(data, _sample_z(rng, n, 1000))
        num = np.abs(-a[0] ** 2 + a[1] ** 2 + a[2] ** 2)
        den = np.abs(a[0]) ** 2 + np.abs(a[1]) ** 2 + np.abs(a[2]) ** 2
        records.append(
            _record("weierstrass.null_form", n, {"samples": 1000},
                    np.max(num / den), 1e-12)
        )
    return records


def _check_lift_agreement(rng, ns):
    records = []
    for n in _restrict(SURFACE_NS, ns):
        data = JorgeMeeksData(n)
        punctures = [complex(p) for p in data.punctures]
        worst = 0.0
        have = 0
        while have < 100:
            for z in _sample_z(rng, n, 100):
                if have >= 100:
                    break
                # the quadrature oracle integrates along the segment [0, z]
                clearance = min(
                    _segment_puncture_distance(0j, complex(z), p) for p in punctures
                )
                if clearance <= 0.06:
                    continue
                closed = lift_closed_form(data, z)
                numeric = integrate_lift_numeric(data, z)
                worst = max(
                    worst,
                    max(abs(c.real - q.real) for c, q in zip(closed, numeric)),
                )
                have += 1
        records.append(
            _record("weierstrass.lift_agreement", n, {"samples": 100}, worst, 1e-8)
        )
    return records


def _check_polar_symmetries(rng, ns):
    records = []
    for n in _restrict(SURFACE_NS, ns):
        data = JorgeMeeksData(n)
        z = _sample_z(rng, n, 1000)
        r, theta = np.abs(z), np.angle(z)
        base = f_polar(data, r, theta)
        s_err = np.max(np.abs(f_polar(data, r, -theta) - base @ reflection_matrix().T))
        r_err = np.max(
            np.abs(f_polar(data, r, theta + 2.0 * math.pi / n) - base @ rotation_matrix(n).T)
        )
        records.append(
            _record("weierstrass.polar_symmetries", n, {"samples": 1000},
                    max(s_err, r_err), 1e-11)
        )
    return records


def _check_fold_symmetry(rng, ns):
    records = []
    for n in _restrict(SURFACE_NS, ns):
        data = JorgeMeeksData(n)
        z = _sample_z(rng, n, 1000)
        r, theta = np.abs(z), np.angle(z)
        err = np.max(np.abs(f_polar(data, r, theta) - f_polar(data, 1.0 / r, theta)))
        records.append(
            _record("weierstrass.fold_symmetry", n, {"samples": 1000}, err, 1e-11)
        )
    return records


def _check_period_condition(rng, ns):
    records = []
    for n in _restrict(SURFACE_NS, ns):
        data = JorgeMeeksData(n)
        worst = max(period_residual(data, j) for j in range(n))
        records.append(
            _record("weierstrass.period_condition", n, {"punctures": n}, worst, 1e-8)
        )
    return records


# ---------------------------------------------------------------------------
# extension checks
# ---------------------------------------------------------------------------

def _check_denominator_positivity(rng, ns):
    records = []
    for n in _restrict(SURFACE_NS, ns):
        u, theta = _sample_domain(rng, n, 10_000, gap_lo=1e-4)
        worst = float(np.min(psi(n, u, theta)))
        records.append(
            _record("extension.denominator_positivity", n, {"samples": 10_000},
                    worst, 0.0, passed=worst > 0.0)
        )
    return records


def _check_group_decomposition(rng, ns):
    records = []
    for n in _restrict(SURFACE_NS, ns):
        u, theta = _sample_domain(rng, n, 1000)
        folded, mats = fold_to_fundamental(n, theta)
        worst = math.inf
        if np.all((folded >= 0.0) & (folded <= math.pi / n + 1e-12)):
            rebuilt = (mats @ eval_extended_grid(n, u, folded)[..., None])[..., 0]
            worst = float(np.max(np.abs(eval_extended_grid(n, u, theta) - rebuilt)))
        records.append(
            _record("extension.group_decomposition", n, {"samples": 1000}, worst, 1e-9)
        )
    return records


def _check_infinity_decay(rng, ns):
    records = []
    for n in _restrict(SURFACE_NS, ns):
        theta = np.concatenate(
            [np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False),
             rng.uniform(0.0, 2.0 * math.pi, 256)]
        )
        scale = 1.25  # headroom over the u = 100 fit for the slowly varying tail
        fitted = scale * float(
            np.max(np.linalg.norm(eval_extended_grid(n, np.full_like(theta, 100.0), theta), axis=-1)) * 100.0
        )
        worst = 0.0
        for u in (1e3, 1e4):
            norms = np.linalg.norm(eval_extended_grid(n, np.full_like(theta, u), theta), axis=-1)
            worst = max(worst, float(np.max(norms) * u / fitted))
        records.append(
            _record("extension.infinity_decay", n,
                    {"fit_u": 100.0, "C": fitted}, worst, 1.0)
        )
    return records


def _check_group_lorentz_invariance(rng, ns):
    records = []
    for n in _restrict(SURFACE_NS, ns):
        v = rng.normal(size=(100, 3))
        w = rng.normal(size=(100, 3))
        base = lorentz_inner(v, w)
        worst = 0.0
        for g in group_elements(n):
            moved = lorentz_inner(v @ g.T, w @ g.T)
            worst = max(worst, float(np.max(np.abs(moved - base))))
        records.append(
            _record("extension.group_lorentz_invariance", n,
                    {"pairs": 100, "elements": 2 * n}, worst, 1e-12)
        )
    return records


def _check_graph_identity_n2(rng, ns):
    theta = rng.uniform(0.0, 2.0 * math.pi, 1000)
    lb = omega_lower_bound(2, theta)
    # half the samples forced below u = 1 so the time-like sheet is covered
    inside = rng.random(1000) < 0.5
    u = np.where(
        inside,
        lb + (1.0 - lb) * np.clip(rng.random(1000), 1e-3, 1.0 - 1e-3),
        1.0 + 10.0 ** rng.uniform(-3.0, 0.5, 1000),
    )
    t, x, y = eval_extended_grid(2, u, theta).T
    worst = np.max(np.abs(t - x * np.tanh(2.0 * y)))
    return [
        _record("extension.graph_identity_n2", 2,
                {"samples": 1000, "timelike": int(np.sum(u < 1.0))}, worst, 1e-10)
    ]


# ---------------------------------------------------------------------------
# analysis checks
# ---------------------------------------------------------------------------

def _check_derivative_agreement(rng, ns):
    records = []
    for n in _restrict(SURFACE_NS, ns):
        u, theta = _sample_domain(rng, n, 1000, gap_lo=1e-2)
        gap = u - omega_lower_bound(n, theta)
        # Richardson-combined central differences at s and 2s: truncation is
        # O((n s/gap)^4), so s = 1e-3 gap keeps rounding noise off the minors
        s = 1e-3 * gap
        du, dth = first_partials_grid(n, u, theta, s)
        du2, dth2 = first_partials_grid(n, u, theta, 2.0 * s)
        du, dth = (4.0 * du - du2) / 3.0, (4.0 * dth - dth2) / 3.0
        worst = 0.0
        for col, formula in ((0, x0_u), (1, x1_u), (2, x2_u)):
            closed = formula(n, u, theta)
            rel = np.max(np.abs(closed - du[:, col]) / np.maximum(1.0, np.abs(closed)))
            worst = max(worst, float(rel))
        # the 2x2 minors cancel two pole orders, so the finite-difference
        # determinant is only decisive away from the denominator's zero set
        decisive = psi(n, u, theta) >= 0.4
        fd_j01 = du[:, 0] * dth[:, 1] - du[:, 1] * dth[:, 0]
        fd_j02 = du[:, 0] * dth[:, 2] - du[:, 2] * dth[:, 0]
        for fd, formula in ((fd_j01, jacobian01), (fd_j02, jacobian02)):
            closed = formula(n, u, theta)[decisive]
            rel = np.max(np.abs(closed - fd[decisive]) / np.maximum(1.0, np.abs(closed)))
            worst = max(worst, float(rel))
        records.append(
            _record("analysis.derivative_agreement", n,
                    {"samples": 1000, "minor_samples": int(np.sum(decisive))},
                    worst, 1e-6)
        )
    return records


def _check_jacobian_sum_identity(rng, ns):
    records = []
    for n in _restrict(SURFACE_NS, ns):
        u, theta = _sample_domain(rng, n, 1000, gap_lo=1e-2)
        total = jacobian01(n, u, theta) ** 2 + jacobian02(n, u, theta) ** 2
        target = eval_U(n - 2, u) ** 2 / psi(n, u, theta) ** 4
        rel = np.max(np.abs(total - target) / target)
        positive = bool(np.all(total > 0.0))
        records.append(
            _record("analysis.jacobian_sum_identity", n, {"samples": 1000},
                    rel, 1e-10, passed=rel < 1e-10 and positive)
        )
    return records


def _check_contour_roundtrip(rng, ns):
    records = []
    for n in _restrict(SURFACE_NS, ns):
        wedge = math.pi / n
        worst = 0.0
        for h in (0.01, 0.1, 1.0, 10.0):
            # representation floor of the tip factor u - cos theta is about
            # eps * n^2 h^2 / theta, so large heights get a raised grid start
            frac = min(0.5, max(1e-3, 2.2e-5 * n * n * h * h / wedge))
            theta = np.linspace(frac * wedge, (1.0 - 1e-3) * wedge, 200)
            pts = eval_extended_grid(n, contour_u(n, h, theta), theta)
            worst = max(worst, float(np.max(np.abs(pts[:, 0] - h))))
        records.append(
            _record("analysis.contour_roundtrip", n,
                    {"theta_grid": 200, "heights": [0.01, 0.1, 1.0, 10.0]},
                    worst, 1e-10)
        )
    return records


def _check_height_nonnegative(rng, ns):
    records = []
    for n in _restrict(SURFACE_NS, ns):
        theta = rng.uniform(0.0, math.pi / n, 10_000)
        gap = 10.0 ** rng.uniform(-6.0, math.log10(3.0), 10_000)
        u = np.cos(theta) + gap
        worst = float(np.min(eval_extended_grid(n, u, theta)[:, 0]))
        records.append(
            _record("analysis.height_nonnegative_fundamental", n,
                    {"samples": 10_000}, worst, -1e-12, passed=worst >= -1e-12)
        )
    return records


def _check_level_curve_mirror(rng, ns):
    records = []
    S = reflection_matrix()
    for n in _restrict(SURFACE_NS, ns):
        wedge = math.pi / n
        theta = np.linspace(1e-3 * wedge, (1.0 - 1e-3) * wedge, 200)
        worst = 0.0
        for h in (0.01, 1.0):
            u = contour_u(n, h, theta)
            mirrored = eval_extended_grid(n, u, theta) @ S.T
            direct = eval_extended_grid(n, u, 2.0 * math.pi - theta)
            worst = max(worst, float(np.max(np.abs(mirrored - direct))))
        records.append(
            _record("analysis.level_curve_mirror", n,
                    {"theta_grid": 200, "heights": [0.01, 1.0]}, worst, 1e-10)
        )
    return records


def _check_zero_mean_curvature(rng, ns):
    records = []
    for n in _restrict(ZMC_NS, ns):
        uu, tt = zmc_verification_grid(n, nu=10, ntheta=30)
        worst = np.max(mean_curvature_residual(n, uu, tt))
        records.append(
            _record("analysis.zero_mean_curvature", n,
                    {"grid_points": int(uu.size)}, worst, 1e-4)
        )
    return records


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    id: str
    description: str
    runner: Callable


REGISTRY: tuple[Check, ...] = (
    Check("chebyshev.trig_identities",
          "T(n, cos phi) = cos n phi and U(n, cos phi) sin phi = sin (n+1) phi",
          _check_trig_identities),
    Check("chebyshev.invert_roundtrip",
          "T(n, invert_T(n, y)) returns y on the increasing branch",
          _check_invert_roundtrip),
    Check("chebyshev.monotonicity",
          "T_n and U_{n-1} strictly increase right of their last extremum",
          _check_monotonicity),
    Check("chebyshev.positivity",
          "U_m > 0 on (cos(pi/n) + 1e-9, 4] for all m < n",
          _check_positivity),
    Check("weierstrass.null_form",
          "alpha is isotropic: -a0^2 + a1^2 + a2^2 = 0",
          _check_null_form),
    Check("weierstrass.lift_agreement",
          "closed-form primitive matches adaptive quadrature in real part",
          _check_lift_agreement),
    Check("weierstrass.polar_symmetries",
          "conjugation and 2 pi/n rotation act by the S and R isometries",
          _check_polar_symmetries),
    Check("weierstrass.fold_symmetry",
          "f(r, theta) = f(1/r, theta): the surface folds across |z| = 1",
          _check_fold_symmetry),
    Check("weierstrass.period_condition",
          "real parts of all puncture loop integrals vanish",
          _check_period_condition),
    Check("extension.denominator_positivity",
          "T_n(u) - cos n theta > 0 on the extended domain",
          _check_denominator_positivity),
    Check("extension.group_decomposition",
          "every point is an isometry image of a fundamental-wedge point",
          _check_group_decomposition),
    Check("extension.infinity_decay",
          "|f(u, theta)| < C/u toward the puncture at infinity",
          _check_infinity_decay),
    Check("extension.group_lorentz_invariance",
          "all 2n group elements preserve the Lorentz inner product",
          _check_group_lorentz_invariance),
    Check("extension.graph_identity_n2",
          "the n = 2 extension is the entire graph t = x tanh 2y",
          _check_graph_identity_n2),
    Check("analysis.derivative_agreement",
          "closed-form partials and Jacobian minors match finite differences",
          _check_derivative_agreement),
    Check("analysis.jacobian_sum_identity",
          "J01^2 + J02^2 = U_{n-2}^2 / Psi^4, hence never both zero",
          _check_jacobian_sum_identity),
    Check("analysis.contour_roundtrip",
          "the height coordinate returns h along the solved contour",
          _check_contour_roundtrip),
    Check("analysis.height_nonnegative_fundamental",
          "x0 >= 0 on the closed fundamental wedge",
          _check_height_nonnegative),
    Check("analysis.level_curve_mirror",
          "S maps the height-h slice onto the height -h slice",
          _check_level_curve_mirror),
    Check("analysis.zero_mean_curvature",
          "finite-difference mean curvature residual vanishes on mixed grids",
          _check_zero_mean_curvature),
)


def registry_ids() -> tuple[str, ...]:
    return tuple(check.id for check in REGISTRY)


# sign-condition checks certify strict positivity rather than a residual
# bound; their pass rule does not consume a tolerance, so they reject
# overrides instead of silently ignoring them
NON_OVERRIDABLE = frozenset(
    {
        "chebyshev.monotonicity",
        "chebyshev.positivity",
        "extension.denominator_positivity",
        "analysis.jacobian_sum_identity",
        "analysis.height_nonnegative_fundamental",
    }
)


def check_arguments(ids=None, ns=None, tol_overrides=None, seed=0) -> None:
    """Validate the arguments of ``run_checks`` without running anything.

    Raises KeyError for an unknown check id or tolerance name, and ValueError
    for an order outside SURFACE_NS, a tolerance given to a check in
    NON_OVERRIDABLE, or a negative seed (PCG64 takes none).
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
    if set(ns or ()) - set(SURFACE_NS):
        raise ValueError(f"orders {ns} must lie in {SURFACE_NS[0]}..{SURFACE_NS[-1]}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def run_checks(ids=None, seed: int = 0, ns=None, tol_overrides=None) -> VerificationReport:
    """Run registered checks (all by default) with a single seeded stream.

    ids filters by exact check id; ns restricts per-surface checks to the
    given orders, and a check whose own range holds none of them emits no
    records; tol_overrides remaps residual tolerances by check id and
    re-judges the affected records.  ``check_arguments`` says which
    arguments are rejected.  The PCG64 stream is consumed in registry order,
    so identical arguments reproduce the report exactly.
    """
    check_arguments(ids, ns, tol_overrides, seed)
    wanted = set(registry_ids() if ids is None else ids)
    tols = dict(tol_overrides or {})
    rng = np.random.default_rng(seed)
    records = []
    for check in REGISTRY:
        if check.id in wanted:
            records.extend(check.runner(rng, ns))
    records = [
        replace(r, tolerance=tols[r.name], passed=r.measured < tols[r.name])
        if r.name in tols else r
        for r in records
    ]
    return VerificationReport(
        suite="verify", prng=PRNG_NAME, seed=seed, checks=tuple(records)
    )
