"""Check registry, seeding determinism, override policing, report JSON."""

import math
from dataclasses import replace

import numpy as np
import pytest

from zmcnoid import analysis, extension, verify
from zmcnoid.verify import CheckRecord, VerificationReport, emit_report, report_json

EXPECTED_IDS = (
    "chebyshev.trig_identities",
    "chebyshev.invert_roundtrip",
    "chebyshev.monotonicity",
    "chebyshev.positivity",
    "weierstrass.null_form",
    "weierstrass.lift_agreement",
    "weierstrass.polar_symmetries",
    "weierstrass.fold_symmetry",
    "weierstrass.period_condition",
    "extension.denominator_positivity",
    "extension.group_decomposition",
    "extension.infinity_decay",
    "extension.group_lorentz_invariance",
    "extension.graph_identity_n2",
    "analysis.derivative_agreement",
    "analysis.jacobian_sum_identity",
    "analysis.contour_roundtrip",
    "analysis.height_nonnegative_fundamental",
    "analysis.level_curve_mirror",
    "analysis.zero_mean_curvature",
)


def test_registry_ids_exact():
    assert tuple(verify.registry_ids()) == EXPECTED_IDS


def test_registry_descriptions_nonempty():
    for check in verify.REGISTRY:
        assert check.description
        assert check.id in EXPECTED_IDS


def test_non_overridable_subset():
    assert verify.NON_OVERRIDABLE == {
        "chebyshev.monotonicity",
        "chebyshev.positivity",
        "extension.denominator_positivity",
        "analysis.jacobian_sum_identity",
        "analysis.height_nonnegative_fundamental",
    }
    assert verify.NON_OVERRIDABLE < set(EXPECTED_IDS)


def test_run_single_check():
    rep = verify.run_checks(ids=["chebyshev.trig_identities"], seed=7)
    assert isinstance(rep, VerificationReport)
    assert rep.suite == "verify"
    assert rep.prng == "numpy-pcg64"
    assert rep.seed == 7
    assert rep.passed
    assert all(c.name == "chebyshev.trig_identities" for c in rep.checks)


def test_unknown_id_rejected():
    with pytest.raises(KeyError):
        verify.run_checks(ids=["chebyshev.does_not_exist"])


def test_unknown_tolerance_rejected():
    with pytest.raises(KeyError):
        verify.run_checks(ids=["chebyshev.trig_identities"],
                          tol_overrides={"nope": 1e-3})


def test_sign_check_tolerance_rejected():
    with pytest.raises(ValueError):
        verify.run_checks(ids=["chebyshev.positivity"],
                          tol_overrides={"chebyshev.positivity": 1e-3})


def test_non_finite_or_non_positive_tolerance_rejected():
    for value in (math.nan, math.inf, 0.0, -1e-3):
        with pytest.raises(ValueError, match=f"weierstrass.lift_agreement .*got {value!r}"):
            verify.run_checks(ids=["weierstrass.lift_agreement"], ns=[2],
                              tol_overrides={"weierstrass.lift_agreement": value})


def test_tolerance_override_applies():
    base = verify.run_checks(ids=["weierstrass.null_form"], seed=0)
    tight = verify.run_checks(ids=["weierstrass.null_form"], seed=0,
                              tol_overrides={"weierstrass.null_form": 1e-30})
    assert base.passed
    assert not tight.passed
    assert all(c.tolerance == 1e-30 for c in tight.checks)
    # the residuals themselves must not depend on the tolerance
    assert [c.measured for c in base.checks] == [c.measured for c in tight.checks]


def test_seed_determinism_and_variation():
    a = verify.run_checks(ids=["weierstrass.null_form"], seed=3)
    b = verify.run_checks(ids=["weierstrass.null_form"], seed=3)
    c = verify.run_checks(ids=["weierstrass.null_form"], seed=4)
    ma = [r.measured for r in a.checks]
    assert ma == [r.measured for r in b.checks]
    assert ma != [r.measured for r in c.checks]


def test_subset_preserves_stream_position():
    # one PCG64 stream runs through the checks in registry order: leaving out
    # checks that draw nothing keeps a later check's records whole, leaving
    # out one that draws shifts them
    graph = "extension.graph_identity_n2"

    def graph_records(*earlier):
        report = verify.run_checks(ids=[*earlier, graph], seed=11)
        return [c for c in report.checks if c.name == graph]

    solo = graph_records()
    assert graph_records("chebyshev.monotonicity", "chebyshev.positivity") == solo
    assert graph_records("chebyshev.invert_roundtrip") != solo


@pytest.mark.parametrize("target", ["f_u.t", "f_u.x", "f_u.y", "j01", "j02"])
def test_perturbed_kernel_fails_every_derivative_record(monkeypatch, target):
    # scaling one output of the closed-form kernel by 1 + 1e-5 must fail
    # every order of the checks that compare it, so no comparison is dropped
    exact = verify.surface_partials

    def perturbed(n, u, theta):
        f_u, j01, j02 = exact(n, u, theta)
        if target == "j01":
            return f_u, j01 * (1.0 + 1e-5), j02
        if target == "j02":
            return f_u, j01, j02 * (1.0 + 1e-5)
        f_u = f_u.copy()
        f_u[..., "txy".index(target[-1])] *= 1.0 + 1e-5
        return f_u, j01, j02

    monkeypatch.setattr(verify, "surface_partials", perturbed)
    ids = ["analysis.derivative_agreement", "analysis.jacobian_sum_identity"]
    report = verify.run_checks(ids=ids, seed=42)
    passed = {i: [c.passed for c in report.checks if c.name == i] for i in ids}
    assert passed[ids[0]] == [False] * 7
    # the sum identity reads only the minors
    assert passed[ids[1]] == [target.startswith("f_u")] * 7


@pytest.mark.parametrize("minor", [1, 2])
def test_a_minor_off_by_1e_9_fails_every_immersion_record(monkeypatch, minor):
    # immersion, max(|J01|, |J02|) >= U_{n-2} / (sqrt(2) Psi^2) > 0, follows
    # from the sum identity, so that record must see a relative 1e-9 in either
    # minor: it reads 2.0e-9 against 1e-10 then, and 4.7e-16..6.9e-16 unmutated
    exact = verify.surface_partials

    def scaled(n, u, theta):
        out = list(exact(n, u, theta))
        out[minor] = out[minor] * (1.0 + 1e-9)
        return tuple(out)

    monkeypatch.setattr(verify, "surface_partials", scaled)
    records = [c for c in verify.run_checks(seed=42).checks
               if c.name == "analysis.jacobian_sum_identity"]
    assert [(c.n, c.passed) for c in records] == [(n, False) for n in range(2, 9)]


def test_perturbed_weierstrass_data_fails_every_derivative_record(monkeypatch):
    # the oracle side of derivative_agreement is alpha alone: an error of
    # 1e-5 in one of its components must show at every order
    exact = verify.alpha

    def perturbed(data, z):
        a = exact(data, z)
        a[1] *= 1.0 + 1e-5
        return a

    monkeypatch.setattr(verify, "alpha", perturbed)
    report = verify.run_checks(ids=["analysis.derivative_agreement"], seed=42)
    assert [c.passed for c in report.checks] == [False] * 7


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("u", [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])
def test_weierstrass_partials_are_finite_at_the_fold(n, u):
    # both sheets' forms are 0/0 at u = 1, which _sample_domain can draw
    theta = np.array([0.3, 1.0, 1.7]) * math.pi / n
    u = np.full_like(theta, u)
    for oracle, closed in zip(verify._weierstrass_partials(n, u, theta),
                              analysis.surface_partials(n, u, theta)):
        assert np.all(np.isfinite(oracle))
        assert np.all(np.abs(oracle - closed) <= 1e-6 * np.maximum(1.0, np.abs(closed)))


def test_each_check_evaluates_the_surface_once_per_order(monkeypatch):
    # the checks stack the points they hold into one evaluator call; count
    # the calls of every check and order wherever the evaluator is imported
    calls, current = {}, [None]
    evaluate = extension.eval_extended_grid

    def counted(*args, **kwargs):
        calls[current[0]] = calls.get(current[0], 0) + 1
        return evaluate(*args, **kwargs)

    def tagged(check):
        def runner(rng, n):
            current[0] = (check.id, n)
            return check.runner(rng, n)
        return replace(check, runner=runner)

    for module in (extension, analysis, verify):
        monkeypatch.setattr(module, "eval_extended_grid", counted)
    monkeypatch.setattr(verify, "REGISTRY", tuple(tagged(c) for c in verify.REGISTRY))
    assert verify.run_checks(seed=42).passed
    assert calls and max(calls.values()) == 1, calls


def test_ns_restriction():
    rep = verify.run_checks(ids=["analysis.jacobian_sum_identity"], ns=[3])
    assert {c.n for c in rep.checks} == {3}
    wide = verify.run_checks(ids=["analysis.jacobian_sum_identity"])
    assert {c.n for c in wide.checks} == set(range(2, 9))
    # n = 7 is outside the mean-curvature range, so that check emits nothing
    seven = verify.run_checks(ids=["analysis.zero_mean_curvature"], ns=[7])
    assert seven.checks == ()
    # every check but the four over polynomial degrees follows ns, the
    # fixed-order graph_identity_n2 included
    three = verify.run_checks(ns=[3])
    assert {c.n for c in three.checks if not c.name.startswith("chebyshev.")} == {3}
    with pytest.raises(ValueError):
        verify.run_checks(ids=["analysis.jacobian_sum_identity"], ns=[20])


@pytest.mark.parametrize("k", [1, 5, 14, 15, 19])
def test_registry_prefix_reproduces_full_run(k):
    # draws follow registry order, then order by order, so running only the
    # first k checks reproduces the full run's first records exactly
    full = verify.run_checks(seed=11).checks
    prefix = verify.run_checks(ids=verify.registry_ids()[:k], seed=11).checks
    assert prefix and prefix == full[:len(prefix)]


def test_full_default_run_passes():
    rep = verify.run_checks(seed=0)
    assert rep.passed
    assert len(rep.checks) == 150
    assert {c.name for c in rep.checks} == set(EXPECTED_IDS)


@pytest.mark.parametrize("seed", [140891, 249523])
def test_report_seeds_pass_derivative_agreement(seed):
    # the finite-difference minors of these draws once carried 1e-6 of
    # rounding noise against a closed form that mpmath confirms
    assert verify.run_checks(seed=seed).passed


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        verify.check_arguments(seed=-1)
    with pytest.raises(ValueError):
        verify.run_checks(ids=["chebyshev.trig_identities"], seed=-1)


# ---------------------------------------------------------------------------
# verification report JSON
# ---------------------------------------------------------------------------

def make_record(name="demo.check", passed=True, measured=1.5e-12):
    return CheckRecord(
        name=name, n=3, parameters={"samples": 10},
        measured=measured, tolerance=1e-10, passed=passed,
    )


def test_check_record_dict_uses_pass_key():
    d = make_record().as_dict()
    assert d["pass"] is True
    assert d["name"] == "demo.check"
    assert d["n"] == 3


# a report with no records still writes every key
EMPTY_REPORT = ('{"suite": "verify", "prng": "numpy-pcg64", "seed": 0, "checks": [], '
                '"summary": {"total": 0, "passed": 0, "failed": 0}, "pass": true}')


def test_empty_report_canonical_bytes():
    assert report_json(VerificationReport("verify", "numpy-pcg64", 0)) == EMPTY_REPORT


def test_report_key_order_and_summary():
    rep = VerificationReport(
        suite="verify", prng="numpy-pcg64", seed=42,
        checks=(make_record(), make_record(passed=False)),
    )
    text = report_json(rep)
    assert text.startswith('{"suite": "verify", "prng": "numpy-pcg64", "seed": 42, "checks": [')
    assert text.endswith('"pass": false}')
    assert '"summary": {"total": 2, "passed": 1, "failed": 1}' in text
    assert not rep.passed


def test_report_float_formatting():
    rep = VerificationReport("verify", "numpy-pcg64", 0, (make_record(measured=0.1),))
    text = report_json(rep)
    assert '"measured": 0.10000000000000001' in text
    assert '"tolerance": 1e-10' in text


def test_report_rejects_non_finite():
    rep = VerificationReport("verify", "numpy-pcg64", 0, (make_record(measured=math.inf),))
    with pytest.raises(ValueError):
        report_json(rep)


def test_report_rejects_unserializable():
    rec = CheckRecord(
        name="bad", n=None, parameters={"obj": object()},
        measured=0.0, tolerance=1.0, passed=True,
    )
    with pytest.raises(TypeError):
        report_json(VerificationReport("verify", "numpy-pcg64", 0, (rec,)))


def test_report_numpy_scalars_serialize():
    rec = CheckRecord(
        name="np", n=int(np.int64(4)), parameters={"count": np.int64(7)},
        measured=np.float64(2.0e-9), tolerance=1e-8, passed=True,
    )
    text = report_json(VerificationReport("verify", "numpy-pcg64", 0, (rec,)))
    assert '"count": 7' in text
    assert '"measured": 2.0000000000000001e-09' in text


def test_emit_report_no_trailing_newline(tmp_path):
    path = str(tmp_path / "report.json")
    emit_report(VerificationReport("verify", "numpy-pcg64", 0), path)
    blob = open(path, "rb").read()
    assert blob == EMPTY_REPORT.encode()
