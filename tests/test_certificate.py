import math
from dataclasses import asdict

import numpy as np
import pytest

from anosov import (
    beta_alpha,
    certified_delta_threshold,
    certify,
    cone_preservation_max_delta,
    contraction_check,
    diffeo_margin,
    translate_bound_product,
)
from anosov.certificate import LAMBDA_S

ALPHA = 0.11872


def test_stable_eigenvalue_identity():
    assert LAMBDA_S * (1.0 / LAMBDA_S) == pytest.approx(1.0, abs=1e-15)
    # eigenvalue of the cat matrix
    assert LAMBDA_S**2 - 3 * LAMBDA_S + 1 == pytest.approx(0.0, abs=1e-14)


def test_diffeo_margin_values():
    s, ok = diffeo_margin(0.0)
    assert s == 0.0 and ok
    s, ok = diffeo_margin(0.0107)
    assert s < 1.0 and ok
    s, ok = diffeo_margin(0.02)
    assert s > 1.0 and not ok
    s, ok = diffeo_margin(1.0)  # 8 pi delta >= 1
    assert math.isinf(s) and not ok


def test_cone_preservation_values():
    assert cone_preservation_max_delta(ALPHA) == pytest.approx(0.0169, abs=1e-4)
    assert cone_preservation_max_delta(1e-9) < 1e-9
    lam = LAMBDA_S
    expect = (1 / lam - lam) / (16 * math.pi)
    assert cone_preservation_max_delta(1.0) == pytest.approx(expect, rel=1e-12)


def test_cone_preservation_unimodal_on_grid():
    alphas = np.linspace(0.005, 0.995, 200)
    vals = np.array([cone_preservation_max_delta(a) for a in alphas])
    signs = np.sign(np.diff(vals))
    # increases, then (possibly) decreases: at most one sign change, + to -
    changes = np.nonzero(np.diff(signs) != 0)[0]
    assert len(changes) <= 1
    if len(changes) == 1:
        assert signs[changes[0]] > 0 > signs[changes[0] + 1]


def test_contraction_check_delta_zero_closed_form():
    # at delta = 0, DT = diag(lambda, 1/lambda) in the eigenbasis, so
    # |DT(1, b)|^2 - |(1, b)|^2 = b^2 (1/lambda^2 - 1) + lambda^2 - 1
    lam = LAMBDA_S
    expect = max(b * b * (1 / lam**2 - 1) + lam * lam - 1 for b in (-ALPHA, ALPHA))
    for direction in ("forward", "inverse"):
        worst, ok = contraction_check(0.0, ALPHA, direction)
        assert worst == pytest.approx(expect, rel=1e-12)
        assert ok


def test_contraction_pass_at_small_delta():
    for direction in ("forward", "inverse"):
        worst, ok = contraction_check(0.01, ALPHA, direction)
        assert ok and worst < 0


def test_contraction_fail_at_large_delta():
    worst, ok = contraction_check(0.1, ALPHA, "forward")
    assert not ok and worst > 0


def test_contraction_check_against_sampled_jacobian(cone_excess):
    # Oracle: a dense sample of the appendix-form Jacobian.  Wherever it finds
    # a cone vector that is not contracted, the check must fail; the forward
    # value is the exact supremum over the (p, q) box, so it also bounds every
    # sample from above.
    grid = np.arange(64) / 64
    for direction, deltas in (
        ("forward", np.linspace(0.0, 0.06, 25)),
        ("inverse", np.linspace(0.0, 0.03, 25)),
    ):
        violations = 0
        for delta in deltas:
            excess = cone_excess(delta, ALPHA, direction, grid, grid)
            worst, ok = contraction_check(delta, ALPHA, direction)
            if excess >= 0.0:
                violations += 1
                assert not ok, (direction, delta, excess)
            if direction == "forward":
                assert excess <= worst + 1e-12, (delta, excess, worst)
        # the delta range reaches past the true limit, so the oracle has teeth
        assert violations > 0, direction


@pytest.mark.parametrize("delta", [-0.01, math.nan, math.inf], ids=["negative", "nan", "inf"])
def test_delta_checks_require_a_finite_nonnegative_value(delta):
    # a nan delta used to pass every comparison against its limits unrefuted
    for check in (
        diffeo_margin,
        lambda d: contraction_check(d, ALPHA),
        lambda d: certify(d, ALPHA),
    ):
        with pytest.raises(ValueError, match="delta must be finite and nonnegative"):
            check(delta)


@pytest.mark.parametrize("alpha", [0.0, math.nan, math.inf])
def test_cone_preservation_requires_a_finite_positive_alpha(alpha):
    # nan and inf used to give a nan bound
    with pytest.raises(ValueError, match="alpha must be finite and positive"):
        cone_preservation_max_delta(alpha)


def test_contraction_inverse_fails_without_positive_determinant():
    # at delta = 0.04 the Jacobian determinant changes sign on the box
    worst, ok = contraction_check(0.04, ALPHA, "inverse")
    assert math.isinf(worst) and not ok


def test_contraction_rejects_bad_arguments():
    with pytest.raises(ValueError):
        contraction_check(-0.01, ALPHA, "forward")
    with pytest.raises(ValueError):
        contraction_check(0.01, ALPHA, "sideways")


def test_beta_alpha_values():
    assert beta_alpha(1e-8) < 1e-7
    a = 0.5
    s = math.sqrt(2 + 3 * a * a)
    expect = math.sqrt(2) * a * (3 * a + s) * math.sqrt(1 + a * s)
    assert beta_alpha(a) == pytest.approx(expect, rel=1e-12)
    # norm-equivalence denominator positive at the working aperture
    assert (1 - ALPHA**2) ** 2 - beta_alpha(ALPHA) > 0


def test_translate_bound_values():
    prod, ok = translate_bound_product(0.11)
    assert ok and prod < 1
    prod, ok = translate_bound_product(0.13)
    assert not ok and prod >= 1
    prod, _ = translate_bound_product(1e-6)
    assert prod < 1e-4


def test_translate_bound_domain_error():
    with pytest.raises(ValueError):
        translate_bound_product(0.8)


def test_translate_bound_increasing_on_grid():
    alphas = np.linspace(0.005, 0.199, 80)
    vals = np.array([translate_bound_product(a)[0] for a in alphas])
    assert np.all(np.diff(vals) > 0)


def test_certify_examples():
    rep = certify(0.01, ALPHA)
    assert rep.overall
    rep = certify(0.02, ALPHA)
    assert not rep.overall and not rep.diffeo.passed
    rep = certify(0.0, ALPHA)
    assert rep.overall and rep.diffeo.margin == 0.0


def test_certify_monotone_in_delta():
    deltas = np.linspace(0.0, 0.05, 50)
    flags = [certify(d, ALPHA).overall for d in deltas]
    # once it fails it stays failed
    seen_fail = False
    for f in flags:
        if not f:
            seen_fail = True
        else:
            assert not seen_fail


def test_certified_threshold_brackets_reference():
    thr = certified_delta_threshold(ALPHA)
    assert 0.0105 <= thr <= 0.0111


def test_report_serialises():
    d = asdict(certify(0.01, ALPHA))
    assert d["overall"] is True
    assert list(d) == [
        "diffeo",
        "cone_preservation",
        "forward_contraction",
        "inverse_contraction",
        "translate_bound",
        "overall",
    ]
