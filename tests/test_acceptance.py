"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; the heavy table reproductions (criteria 1 and 2) take several
minutes on a single core.
"""

import numpy as np
import pytest

from anosov import (
    BumpKernel,
    FejerKernel,
    GridSpec,
    assemble,
    baseline,
    build_ulam,
    cat_map,
    certified_delta_threshold,
    certify,
    coarse_freqs,
    cone_preservation_max_delta,
    contraction_check,
    evaluate_on_fine,
    forward_transform,
    lambda_curve,
    match_epsilon,
    rate_function,
    restrict_to_coarse,
    translate_bound_product,
    ulam_variance,
    variance,
)
from anosov.grids import fine_points, freq_index

ALPHA = 0.11872


def _report(num, name, ok, detail=""):
    print(f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


# -- criterion 1: variance table reproduction --------------------------------

TABLE_TARGETS = {
    ("fejer", 32): 0.9447,
    ("fejer", 64): 0.9395,
    ("bump", 32): 0.9359,
    ("bump", 64): 0.9342,
}
BUMP_WIDTHS = {32: 0.0693, 64: 0.0378}


@pytest.fixture(scope="module")
def variance_table(perturbed_map, std_g):
    out = {}
    for n in (32, 64):
        grid = GridSpec(n, 512)
        for scheme, kernel in (("fejer", FejerKernel()), ("bump", BumpKernel(BUMP_WIDTHS[n]))):
            out[(scheme, n)] = variance(baseline(perturbed_map, kernel, std_g, grid)).sigma2
    return out


def test_criterion1_variance_table(variance_table):
    detail = []
    ok = True
    for key, target in TABLE_TARGETS.items():
        got = variance_table[key]
        hit = abs(got - target) <= 0.003
        ok &= hit
        detail.append(f"{key[0]}/n={key[1]}: {got:.4f} (target {target})")
    _report(1, "variance table", ok, "; ".join(detail))
    assert ok


# -- criterion 2: Ulam variance ----------------------------------------------

def test_criterion2_ulam_variance(perturbed_map, std_g):
    got64 = ulam_variance(perturbed_map, 64, 1600, std_g)[0].sigma2
    got128 = ulam_variance(perturbed_map, 128, 1600, std_g)[0].sigma2
    ok = abs(got64 - 0.9320) <= 0.005 and abs(got128 - 0.9307) <= 0.005
    _report(2, "Ulam variance", ok, f"m=64: {got64:.4f}, m=128: {got128:.4f}")
    assert ok


# -- criterion 3: linear-map oracle ------------------------------------------

def _series_sigma2(map_model, kernel, g, grid, terms):
    """Truncated Green-Kubo series, independent of the linear-solve path."""
    base = baseline(map_model, kernel, g, grid)
    M0, r = base.M0, base.eigen.right_vector.reshape(grid.n, grid.n)
    density = evaluate_on_fine(r, grid.N).real
    gs = g.sample(*fine_points(grid.N))
    gc = gs - np.mean(gs * density).real
    x = restrict_to_coarse(forward_transform(gc * density), grid.n).ravel()
    acc = np.mean(gc * gc * density)
    for _ in range(terms):
        x = M0.entries @ x
        acc = acc + 2.0 * np.mean(
            gc * evaluate_on_fine(x.reshape(grid.n, grid.n), grid.N)
        )
    return complex(acc).real


def test_criterion3_linear_map_oracle(linear_cat, std_g):
    grid = GridSpec(16, 256)
    solve = variance(baseline(linear_cat, FejerKernel(), std_g, grid)).sigma2
    series = _series_sigma2(linear_cat, FejerKernel(), std_g, grid, 60)
    ok = (
        abs(solve - 1.0) < 1e-6
        and abs(series - 1.0) < 1e-6
        and abs(solve - series) < 1e-6
    )
    _report(
        3,
        "linear-map oracle",
        ok,
        f"solve-1 = {solve - 1.0:.2e}, series-1 = {series - 1.0:.2e}",
    )
    assert ok


# -- criterion 4: spectral identities ----------------------------------------

def test_criterion4_spectral_identities(perturbed_map, std_g, conj_defect):
    from anosov import leading_eigenpair

    checks = []
    for n in (16, 32):
        grid = GridSpec(n, 256)
        kernels = [FejerKernel(), BumpKernel(0.1 if n == 16 else 0.0693)]
        for kern in kernels:
            M0 = assemble(perturbed_map, kern, std_g, 0.0, grid)
            lam = leading_eigenpair(M0).lam
            checks.append(abs(lam - 1.0) < 1e-10)
            e0 = np.zeros(n * n)
            e0[freq_index(0, 0, n)] = 1.0
            checks.append(np.abs(M0.dense()[freq_index(0, 0, n)] - e0).max() < 1e-10)
            checks.append(conj_defect(M0.dense(), n) < 1e-10)
    for z in (0.3, -0.5):
        Mz = assemble(perturbed_map, FejerKernel(), std_g, z, GridSpec(16, 256))
        checks.append(conj_defect(Mz.dense(), Mz.n) < 1e-10)
    ok = all(checks)
    _report(4, "spectral identities", ok, f"{sum(checks)}/{len(checks)} checks")
    assert ok


# -- criterion 5: LDP consistency suite --------------------------------------

@pytest.fixture(scope="module")
def ldp_grid():
    return GridSpec(16, 128)


def test_criterion5_ldp_suite(perturbed_map, std_g, ldp_grid):
    base = baseline(perturbed_map, FejerKernel(), std_g, ldp_grid)
    zs = [-1e-3, -1e-4, 0.0, 1e-4, 1e-3]
    lams = lambda_curve(base, zs)
    ll = {z: np.log(abs(lam)) for z, lam in zip(zs, lams)}
    d1 = (ll[1e-4] - ll[-1e-4]) / 2e-4
    d2 = (ll[1e-3] - 2 * ll[0.0] + ll[-1e-3]) / 1e-6
    sig = variance(base).sigma2

    small = rate_function(base, [-0.05, -0.025, 0.0, 0.025, 0.05])
    big = rate_function(base, [round(0.1 * i, 1) for i in range(19)])
    r_by_s = {row.s: row.r for row in big.rows}
    rs = np.array([row.r for row in big.rows])

    checks = {
        "Lambda'(0)": abs(d1) < 1e-4,
        "second-diff vs sigma2": abs(d2 - sig) / sig < 0.01,
        "r(0)": abs(r_by_s[0.0]) <= 1e-8,
        "nonnegativity": all(row.r >= -1e-8 for row in small.rows + big.rows),
        "convexity": np.diff(rs, 2).min() >= -1e-6,
        "small-s quadratic": all(
            abs(row.r - row.s**2 / (2 * sig)) / (row.s**2 / (2 * sig)) < 0.05
            for row in small.rows
            if row.s != 0.0
        ),
        "increasing to 1.8": np.all(np.diff(rs) > 0) and r_by_s[1.8] > r_by_s[1.0],
    }
    ok = all(checks.values())
    detail = ", ".join(k for k, v in checks.items() if not v) or f"sigma2={sig:.4f}"
    _report(5, "LDP consistency suite", ok, detail)
    assert ok


# -- criterion 6: certificate constants --------------------------------------

def test_criterion6a_certify_at_reference_point():
    rep = certify(0.01, ALPHA)
    ok = rep.overall
    _report("6a", "certify(0.01, 0.11872) passes", ok)
    assert ok


def test_criterion6b_certified_delta_threshold():
    thr = certified_delta_threshold(ALPHA)
    ok = 0.0105 <= thr <= 0.0111
    _report("6b", "certified delta threshold", ok, f"threshold {thr:.5f}")
    assert ok


def test_criterion6c_cone_preservation_constant():
    val = cone_preservation_max_delta(ALPHA)
    ok = 0.0168 <= val <= 0.0170
    _report("6c", "cone preservation bound", ok, f"{val:.5f}")
    assert ok


def _flip_threshold(fn, hi=0.2):
    lo = 0.0
    assert fn(lo) and not fn(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if fn(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion6d_contraction_thresholds(cone_excess):
    """Certified contraction ranges of the appendix-form map at alpha = 0.11872.

    The derivation in ``anosov.certificate.contraction_check`` works on the
    structured perturbation diag(p, q), |p| <= 2 pi delta, |q| <= 4 pi delta.
    Forward is the exact supremum (0.0438); inverse is the sound closed form
    with the box-minimum determinant (0.0121).  Each certified range must lie
    at or below the limit of a dense 200 x 200 sample of
    ``PerturbedCat.jacobian`` (about 0.0438 and 0.0207).

    The earlier reference figures 0.0536 / 0.0293 are not certifiable: below
    each of them a sampled Jacobian already expands a cone vector, at
    (delta, x) = (0.045, (0.25, 0.42)) forward and (0.022, (0.25, 0.17))
    inverse.
    """
    fwd = _flip_threshold(lambda d: contraction_check(d, ALPHA, "forward")[1])
    inv = _flip_threshold(lambda d: contraction_check(d, ALPHA, "inverse")[1])
    grid = np.arange(200) / 200
    fwd_sampled = _flip_threshold(
        lambda d: cone_excess(d, ALPHA, "forward", grid, grid) < 0.0, hi=0.1
    )
    # below delta = 0.03 the Jacobian determinant stays positive on the torus
    inv_sampled = _flip_threshold(
        lambda d: cone_excess(d, ALPHA, "inverse", grid, grid) < 0.0, hi=0.03
    )
    fwd_counter = cone_excess(0.045, ALPHA, "forward", 0.25, 0.42)
    inv_counter = cone_excess(0.022, ALPHA, "inverse", 0.25, 0.17)
    checks = {
        "forward value": abs(fwd - 0.0438) <= 0.001,
        "inverse value": abs(inv - 0.0121) <= 0.001,
        "forward below sampled limit": fwd <= fwd_sampled,
        "inverse below sampled limit": inv <= inv_sampled,
        "forward counterexample at delta 0.045 < 0.0536": fwd_counter > 0.0,
        "inverse counterexample at delta 0.022 < 0.0293": inv_counter > 0.0,
    }
    ok = all(checks.values())
    detail = (
        f"forward {fwd:.4f} (sampled {fwd_sampled:.4f}), "
        f"inverse {inv:.4f} (sampled {inv_sampled:.4f})"
    )
    failed = ", ".join(k for k, v in checks.items() if not v)
    _report("6d", "contraction thresholds", ok, f"{detail} {failed}".rstrip())
    assert ok


def test_criterion6e_translate_bound_crossing():
    lo, hi = 0.05, 0.2
    assert translate_bound_product(lo)[1] and not translate_bound_product(hi)[1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if translate_bound_product(mid)[1]:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    ok = 0.1185 <= crossing <= 0.1190
    _report("6e", "translate bound crossing", ok, f"alpha* = {crossing:.5f}")
    assert ok


# -- criterion 7: kernel matching --------------------------------------------

def test_criterion7_kernel_matching():
    eps = {n: match_epsilon(GridSpec(n, 512))[0] for n in (32, 64, 128)}
    windows = {32: (0.066, 0.073), 64: (0.036, 0.040), 128: (0.020, 0.022)}
    ok = all(windows[n][0] <= eps[n] <= windows[n][1] for n in eps)
    ok &= eps[32] > eps[64] > eps[128]
    _report(7, "kernel matching", ok, ", ".join(f"n={n}: {e:.4f}" for n, e in eps.items()))
    assert ok


# -- criterion 8: property suites without reference data ----------------------

def test_criterion8_property_suites(perturbed_map, std_g, rng):
    checks = {}

    # DFT round trip and Parseval
    v = (rng.standard_normal(64) + 1j * rng.standard_normal(64)).reshape(8, 8)
    back = restrict_to_coarse(forward_transform(evaluate_on_fine(v, 32)), 8)
    checks["round-trip"] = np.abs(back - v).max() < 1e-13
    samples = rng.standard_normal((64, 64))
    c = forward_transform(samples)
    checks["parseval"] = (
        abs(np.mean(samples**2) - np.sum(np.abs(c) ** 2)) < 1e-12 * np.mean(samples**2)
    )

    # delta structure of the linear-map operator
    grid = GridSpec(8, 64)
    M = assemble(cat_map(), FejerKernel(), std_g, 0.0, grid)
    q = FejerKernel().coefficients(grid).ravel()
    worst = 0.0
    At = np.array([[2, 1], [1, 1]]).T
    js = coarse_freqs(8)
    for a in js:
        for b in js:
            row = M.dense()[freq_index(int(a), int(b), 8)]
            k = At @ np.array([a, b])
            expected = np.zeros(64, dtype=complex)
            if js[0] <= k[0] <= js[-1] and js[0] <= k[1] <= js[-1]:
                expected[freq_index(int(k[0]), int(k[1]), 8)] = q[
                    freq_index(int(a), int(b), 8)
                ]
            worst = max(worst, np.abs(row - expected).max())
    checks["delta-structure"] = worst < 1e-12

    # Ulam row stochasticity and determinism
    P1 = build_ulam(perturbed_map, 8, 16)
    P2 = build_ulam(perturbed_map, 8, 16)
    sums = P1 @ np.ones(P1.shape[1])
    checks["ulam-stochastic"] = np.allclose(sums, 1.0, atol=1e-12)
    checks["ulam-deterministic"] = all(
        np.array_equal(getattr(P1, a), getattr(P2, a)) for a in ("rows", "cols", "data")
    )

    # certificate monotone in delta
    flags = [certify(d, ALPHA).overall for d in np.linspace(0.0, 0.05, 50)]
    first_fail = flags.index(False) if False in flags else len(flags)
    checks["certificate-monotone"] = all(flags[:first_fail]) and not any(
        flags[first_fail:]
    )

    ok = all(checks.values())
    detail = ", ".join(k for k, v in checks.items() if not v)
    _report(8, "property suites", ok, detail)
    assert ok
