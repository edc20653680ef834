import math

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse.linalg import ArpackNoConvergence

from anosov import (
    BumpKernel,
    FejerKernel,
    GridSpec,
    SpectralVector,
    TrigPolynomial,
    assemble,
    baseline,
    evaluate_on_fine,
    lambda_curve,
    leading_eigenpair,
    rate_function,
    restrict_to_coarse,
    riemann_integral,
    standard_observable,
    ulam_variance,
    variance,
)
from anosov.grids import fine_points, forward_transform, freq_index
from anosov.operators import OperatorMatrix, assemble_derivative
from anosov.stats import (
    SingularSolveError,
    _deflated_solve,
    _leading_lam,
    _legendre_point,
)


def _toy_matrix(diag):
    n = 2
    return OperatorMatrix(
        n=n,
        entries=np.diag(np.asarray(diag, dtype=complex)),
        map_label="toy",
        kernel_label="toy",
        z=0.0,
        grid=GridSpec(2, 4),
    )


def test_leading_eigenpair_toy_matrix():
    eig = leading_eigenpair(_toy_matrix([2.0, 1.0, 1.0, 1.0]))
    assert eig.lam == pytest.approx(2.0, abs=1e-14)
    assert eig.residual < 1e-14
    assert eig.method == "dense"


def test_leading_eigenpair_tie_break():
    eig = leading_eigenpair(_toy_matrix([-1.0, 1.0, 0.5, 0.25]))
    assert eig.lam == pytest.approx(1.0, abs=1e-14)  # largest real part wins the tie


def test_cat_map_srb_is_lebesgue(linear_cat, fejer, std_g):
    grid = GridSpec(16, 128)
    M0 = assemble(linear_cat, fejer, std_g, 0.0, grid)
    eig = leading_eigenpair(M0)
    assert abs(eig.lam - 1.0) < 1e-12
    e0 = np.zeros(16 * 16, dtype=complex)
    e0[freq_index(0, 0, 16)] = 1.0
    assert np.abs(eig.right_vector.coeffs - e0).max() < 1e-10
    srb = baseline(M0, std_g)
    assert np.allclose(srb.density, 1.0, atol=1e-10)


def test_perturbed_leading_eigenvalue_is_one(perturbed_map, fejer, std_g, small_grid):
    M0 = assemble(perturbed_map, fejer, std_g, 0.0, small_grid)
    eig = leading_eigenpair(M0)
    assert abs(eig.lam - 1.0) < 1e-10
    assert eig.residual < 1e-8


def test_srb_density_deterministic(perturbed_map, fejer, std_g, small_grid):
    M0 = assemble(perturbed_map, fejer, std_g, 0.0, small_grid)
    a = baseline(M0, std_g)
    b = baseline(M0, std_g)
    assert np.array_equal(a.density, b.density)
    assert riemann_integral(a.density) == pytest.approx(1.0, abs=1e-10)


def test_centered_observable_linear_map(linear_cat, fejer, std_g):
    grid = GridSpec(16, 128)
    M0 = assemble(linear_cat, fejer, std_g, 0.0, grid)
    cen = baseline(M0, std_g)
    assert abs(cen.shift) < 1e-12
    const = TrigPolynomial((((0, 0), 2.5),))
    cen = baseline(M0, const)
    assert cen.shift == pytest.approx(2.5, abs=1e-12)
    assert np.abs(cen.centered).max() < 1e-12


def test_variance_cat_map_analytic(linear_cat, fejer, std_g):
    res = variance(linear_cat, fejer, std_g, GridSpec(16, 128))
    assert res.sigma2 == pytest.approx(1.0, abs=1e-8)
    assert res.solve_residual < 1e-10


def test_variance_stable_under_fine_refinement(perturbed_map, fejer, std_g):
    r1 = variance(perturbed_map, fejer, std_g, GridSpec(16, 256))
    r2 = variance(perturbed_map, fejer, std_g, GridSpec(16, 512))
    assert abs(r1.sigma2 - r2.sigma2) < 1e-5


def test_variance_agrees_with_green_kubo_series(perturbed_map, fejer, std_g):
    grid = GridSpec(16, 128)
    res = variance(perturbed_map, fejer, std_g, grid)
    # independent truncated-series oracle
    M0 = assemble(perturbed_map, fejer, std_g, 0.0, grid)
    srb = baseline(M0, std_g)
    gs = std_g.sample(*fine_points(grid.N))
    gc = gs - riemann_integral(gs * srb.density).real
    x = restrict_to_coarse(forward_transform(gc * srb.density), grid.n).coeffs
    acc = riemann_integral(gc * gc * srb.density)
    for _ in range(60):
        x = M0.entries @ x
        acc = acc + 2.0 * riemann_integral(
            gc * evaluate_on_fine(SpectralVector(grid.n, x), grid.N)
        )
    assert abs(res.sigma2 - acc.real) < 1e-6


def test_lambda_curve_identities(perturbed_map, fejer, std_g, small_grid):
    pts = lambda_curve(
        perturbed_map, fejer, std_g, small_grid, [-1e-3, -1e-4, 0.0, 1e-4, 1e-3]
    )
    ll = {p.z: np.log(abs(p.lam)) for p in pts}
    assert abs(ll[0.0]) < 1e-10
    d1 = (ll[1e-4] - ll[-1e-4]) / 2e-4
    assert abs(d1) < 1e-4
    d2 = (ll[1e-3] - 2 * ll[0.0] + ll[-1e-3]) / 1e-6
    sig = variance(perturbed_map, fejer, std_g, small_grid).sigma2
    assert abs(d2 - sig) / sig < 0.01


def test_lambda_real_positive_and_convex(perturbed_map, fejer, std_g, small_grid):
    zs = np.linspace(-1.0, 1.0, 21)
    pts = lambda_curve(perturbed_map, fejer, std_g, small_grid, zs)
    lams = np.array([p.lam for p in pts])
    assert np.abs(lams.imag).max() < 1e-9
    assert np.all(lams.real > 0)
    ll = np.log(np.abs(lams))
    assert np.diff(ll, 2).min() >= -1e-7


def test_rate_function_basic(perturbed_map, fejer, std_g, small_grid):
    tab = rate_function(
        perturbed_map, fejer, std_g, small_grid, [0.0, 0.05, 0.1], (-4.0, 4.0)
    )
    rows = tab.rows
    assert [row.s for row in rows] == [0.0, 0.05, 0.1]
    assert rows[0].r <= 1e-8
    assert abs(rows[0].z_star) < 1e-4
    assert all(row.r >= -1e-8 for row in rows)
    assert not tab.bracket_expanded
    # small-s Legendre duality against the stored variance
    for row in rows[1:]:
        quad = row.s**2 / (2.0 * tab.sigma2)
        assert abs(row.r - quad) / quad < 0.05


def test_rate_function_boundary_flag(perturbed_map, fejer, std_g, small_grid):
    tab = rate_function(
        perturbed_map, fejer, std_g, small_grid, [1.0], (-0.05, 0.05)
    )
    assert tab.bracket_expanded
    assert tab.z_bracket == (-0.1, 0.1)
    assert tab.rows[0].at_bracket_boundary


@pytest.mark.parametrize(
    "run",
    [
        lambda m, k, g, grid: rate_function(m, k, g, grid, [0.0, 0.1]),
        lambda m, k, g, grid: lambda_curve(m, k, g, grid, [-0.1, 0.0, 0.1]),
    ],
    ids=["rate_function", "lambda_curve"],
)
def test_untwisted_baseline_computed_once(
    perturbed_map, fejer, std_g, monkeypatch, run
):
    import anosov.stats as stats_mod

    twists = {"assemble": [], "eig": []}
    assemble_orig = stats_mod.assemble
    eig_orig = stats_mod.leading_eigenpair

    def counting_assemble(*args, **kwargs):
        M = assemble_orig(*args, **kwargs)
        twists["assemble"].append(M.z)
        return M

    def counting_eig(M):
        twists["eig"].append(M.z)
        return eig_orig(M)

    monkeypatch.setattr(stats_mod, "assemble", counting_assemble)
    monkeypatch.setattr(stats_mod, "leading_eigenpair", counting_eig)
    run(perturbed_map, fejer, std_g, GridSpec(8, 64))
    assert twists["assemble"].count(0) == 1
    assert twists["eig"].count(0) == 1
    assert len(twists["eig"]) == len(twists["assemble"])


@pytest.mark.parametrize("kernel", [FejerKernel(), BumpKernel(0.1)], ids=["fejer", "bump"])
@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("z", [0.0, 0.7, -0.5])
def test_arpack_path_matches_dense(perturbed_map, std_g, monkeypatch, kernel, n, z):
    import anosov.stats as stats_mod

    M = assemble(perturbed_map, kernel, std_g, z, GridSpec(n, 64))
    eig = leading_eigenpair(M)
    monkeypatch.setattr(stats_mod, "DENSE_EIG_MAX_ORDER", n)
    ref = leading_eigenpair(M)
    assert (eig.method, ref.method) == ("arpack", "dense")
    assert abs(eig.lam - ref.lam) <= 1e-13
    assert np.abs(eig.right_vector.coeffs - ref.right_vector.coeffs).max() <= 1e-10
    assert eig.residual < 1e-12


def test_arpack_exact_start_vector_is_reproducible(linear_cat, fejer, std_g):
    # the zero mode is an exact eigenvector of the cat map's operator: M e0 = e0
    M0 = assemble(linear_cat, fejer, std_g, 0.0, GridSpec(16, 128))
    a, b = leading_eigenpair(M0), leading_eigenpair(M0)
    assert a.method == "arpack"
    assert a.lam == b.lam
    assert np.array_equal(a.right_vector.coeffs, b.right_vector.coeffs)
    assert abs(a.lam - 1.0) < 1e-12


def test_arpack_non_convergence_raises(perturbed_map, fejer, std_g, monkeypatch):
    import anosov.stats as stats_mod
    from anosov.stats import NonConvergenceError

    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("No convergence (2 iterations)", [], [])

    monkeypatch.setattr(stats_mod.spla, "eigs", stalled)
    M0 = assemble(perturbed_map, fejer, std_g, 0.0, GridSpec(8, 64))
    with pytest.raises(NonConvergenceError, match="No convergence"):
        leading_eigenpair(M0)


def test_deflated_solve_flags_singular():
    # M = Id does not mix: every term of the series equals x off the zero mode
    n = 4
    M = OperatorMatrix(
        n=n,
        entries=np.eye(n * n, dtype=complex),
        map_label="toy",
        kernel_label="toy",
        z=0.0,
        grid=GridSpec(4, 8),
    )
    x = np.zeros(n * n, dtype=complex)
    x[freq_index(1, 0, n)] = 1.0
    with pytest.raises(SingularSolveError, match="did not converge"):
        _deflated_solve(M, x)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_green_kubo_flags_what_does_not_solve_the_deflated_system():
    from anosov.stats import _green_kubo

    A = np.diag([1.0, 0.5, 0.25])

    def cut_mode(v):
        v[0] = 0.0
        return v

    w, residual, terms, rate = _green_kubo(A, np.ones(3), cut_mode)
    assert np.allclose(w, [0.0, 1.0, 1.0 / 3.0]) and residual <= 1e-15
    # halving each term as well sums a convergent series of the wrong system
    with pytest.raises(SingularSolveError, match="residual"):
        _green_kubo(A, np.ones(3), lambda v: 0.5 * cut_mode(v))
    # terms near the overflow threshold: the sum overflows while they decay
    with pytest.raises(SingularSolveError, match="non-finite"):
        _green_kubo(np.diag([1.0, 0.9, 0.9]), np.full(3, 1e308), cut_mode)


def _lu_deflated(M, x):
    """w from (Id - M) w = M x with the zero-mode row replaced by w_0 = 0, by
    dense LU: the oracle for the Green-Kubo series."""
    izero = freq_index(0, 0, M.n)
    A = np.eye(M.entries.shape[0], dtype=complex) - M.entries
    A[izero, :] = 0.0
    A[izero, izero] = 1.0
    b = M.entries @ x
    b[izero] = 0.0
    return sla.lu_solve(sla.lu_factor(A), b)


@pytest.mark.parametrize(
    "kernel, n, N",
    [(FejerKernel(), 8, 64), (FejerKernel(), 16, 128), (FejerKernel(), 32, 512)]
    + [(BumpKernel(0.1), 16, 256)],
    ids=["fejer-8", "fejer-16", "fejer-32", "bump-16"],
)
def test_deflated_solve_matches_lu_oracle(perturbed_map, std_g, kernel, n, N):
    base = baseline(assemble(perturbed_map, kernel, std_g, 0.0, GridSpec(n, N)), std_g)
    x = restrict_to_coarse(forward_transform(base.centered * base.density), n).coeffs
    w, residual, terms, rate = _deflated_solve(base.M0, x)
    assert w[freq_index(0, 0, n)] == 0.0
    assert np.abs(w - _lu_deflated(base.M0, x)).max() <= 1e-12
    assert residual <= 1e-12 and 0 < terms < 100 and 0.0 < rate < 1.0


def test_spectral_and_ulam_solves_share_the_series(perturbed_map, fejer, std_g, monkeypatch):
    import anosov.stats as stats_mod
    import anosov.ulam as ulam_mod

    assert ulam_mod._green_kubo is stats_mod._green_kubo
    series, calls = stats_mod._green_kubo, []

    def counted(*args):
        calls.append(type(args[0]).__name__)
        return series(*args)

    for mod in (stats_mod, ulam_mod):
        monkeypatch.setattr(mod, "_green_kubo", counted)
    variance(perturbed_map, fejer, std_g, GridSpec(8, 64))
    ulam_variance(perturbed_map, 16, 16, std_g)
    assert calls == ["ndarray", "csr_matrix"]


# -- Newton-Legendre rate function -------------------------------------------

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, xtol: float = 1e-6):
    """Golden-section maximisation on [lo, hi]; returns (x, f(x), iterations)."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    iters = 0
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        iters += 1
    x = c if fc >= fd else d
    return x, max(fc, fd), iters


def _bracket_from_seed(f, seed, lo, hi, step=0.25):
    """Expand around a seed until the maximum is interior or a bound is hit."""
    seed = min(max(seed, lo), hi)
    a = max(lo, seed - step)
    b = min(hi, seed + step)
    fa, fs, fb = f(a), f(seed), f(b)
    evals = 3
    while not (fs >= fa and fs >= fb):
        if fb > fs:
            a, fa = seed, fs
            seed, fs = b, fb
            step *= 2.0
            b = min(hi, seed + step)
            if b == seed:
                break
            fb = f(b)
        else:
            b, fb = seed, fs
            seed, fs = a, fa
            step *= 2.0
            a = max(lo, seed - step)
            if a == seed:
                break
            fa = f(a)
        evals += 1
    return a, b, evals


def _golden_rate_table(map_model, kernel, g, grid, s_values, z_bracket):
    """The rate table by warm-started golden section: the oracle for Newton.

    Returns ((s, z*, r, flag) rows, final bracket, expanded, log_lam) with the
    same bracket-doubling and boundary-flag rules as ``rate_function``.
    """
    base = baseline(assemble(map_model, kernel, g, 0.0, grid), g)
    gc = g.shifted(base.shift)
    memo = {}

    def log_lam(z):
        if z not in memo:
            memo[z] = np.log(abs(_leading_lam(base, map_model, kernel, gc, z)))
        return memo[z]

    z_lo, z_hi = z_bracket
    expanded, rows, seed, i = False, [], 0.0, 0
    s_values = sorted(s_values)
    while i < len(s_values):
        s = s_values[i]

        def phi(z):
            return s * z - log_lam(z)

        a, b, _ = _bracket_from_seed(phi, seed, z_lo, z_hi)
        z_star, r, _ = _golden_max(phi, a, b)
        on_edge = min(abs(z_star - z_lo), abs(z_star - z_hi)) < 1e-4
        if on_edge and not expanded:
            expanded, z_lo, z_hi = True, 2 * z_lo, 2 * z_hi
            continue
        rows.append((s, z_star, r, on_edge))
        seed = z_star
        i += 1
    return rows, (z_lo, z_hi), expanded, log_lam


@pytest.mark.parametrize("kernel", [FejerKernel(), BumpKernel(0.1)], ids=["fejer", "bump"])
def test_newton_rate_matches_golden_section_oracle(perturbed_map, std_g, kernel):
    grid, s_values = GridSpec(8, 64), [-0.9, -0.45, -0.1, 0.0, 0.2, 0.6, 0.9]
    tab = rate_function(perturbed_map, kernel, std_g, grid, s_values)
    rows, bracket, expanded, _ = _golden_rate_table(
        perturbed_map, kernel, std_g, grid, s_values, (-4.0, 4.0)
    )
    assert (tab.z_bracket, tab.bracket_expanded) == (bracket, expanded)
    for row, (s, z_star, r, flag) in zip(tab.rows, rows, strict=True):
        assert (row.s, row.at_bracket_boundary) == (s, flag)
        assert abs(row.z_star - z_star) <= 1e-6, s
        assert abs(row.r - r) <= 1e-10, s


def test_newton_rate_boundary_rows_match_oracle(perturbed_map, fejer, std_g):
    """Both ends hit: z* is the end, r its value there, the bracket doubled once."""
    grid, s_values = GridSpec(8, 64), [-1.0, 0.0, 1.0]
    tab = rate_function(perturbed_map, fejer, std_g, grid, s_values, (-0.05, 0.05))
    rows, bracket, expanded, log_lam = _golden_rate_table(
        perturbed_map, fejer, std_g, grid, s_values, (-0.05, 0.05)
    )
    assert (tab.z_bracket, tab.bracket_expanded) == (bracket, expanded) == ((-0.1, 0.1), True)
    assert [row.at_bracket_boundary for row in tab.rows] == [True, False, True]
    for row, (s, z_star, r, flag) in zip(tab.rows, rows, strict=True):
        assert row.at_bracket_boundary == flag
        assert abs(row.z_star - z_star) <= 1e-6, s
        if flag:
            # golden section stops within 1e-6 of the end, where dr/dz = s - Lambda'
            # is not 0: its r is good to about 1e-6, the end value to rounding
            assert row.z_star in bracket
            assert abs(row.r - (s * row.z_star - log_lam(row.z_star))) <= 1e-10
            assert abs(row.r - r) <= 1e-6
        else:
            assert abs(row.r - r) <= 1e-10


def test_newton_rate_at_an_eigenvalue_crossing(perturbed_map, std_g):
    """Bump, n = 8: two eigenvalues swap as the leading one near z = 3.05, so
    Lambda has a kink there and Lambda' jumps from about 1.0 to 1.6.  For s
    inside the jump the supremum sits on the kink: Newton's sign bracket closes
    on it, and golden section lands within 1e-6 of it."""
    kernel, grid, s_values = BumpKernel(0.1), GridSpec(8, 64), [1.1, 1.4]
    tab = rate_function(perturbed_map, kernel, std_g, grid, s_values)
    rows, _, _, log_lam = _golden_rate_table(
        perturbed_map, kernel, std_g, grid, s_values, (-4.0, 4.0)
    )
    kink = tab.rows[0].z_star
    h = 1e-4
    left = (log_lam(kink) - log_lam(kink - h)) / h
    right = (log_lam(kink + h) - log_lam(kink)) / h
    assert left < 1.01 and right > 1.6
    for row, (s, z_star, r, _) in zip(tab.rows, rows, strict=True):
        assert abs(row.z_star - kink) <= 1e-9
        assert abs(row.z_star - z_star) <= 1e-6
        # r is not smooth at the kink: golden's is only first-order close, and
        # never above the supremum Newton found
        assert r - 1e-12 <= row.r <= r + 1e-6


def _legendre_points(map_model, kernel, g, grid):
    """z -> (Lambda, Lambda', eigenvector overlap) at twist z, for g centered
    against the baseline as rate_function centers it."""
    base = baseline(assemble(map_model, kernel, g, 0.0, grid), g)
    gc = g.shifted(base.shift)

    def point(z):
        M = assemble(map_model, kernel, gc, z, grid)
        dM = assemble_derivative(map_model, kernel, gc, z, grid)
        return _legendre_point(M, leading_eigenpair(M), dM)

    return point


def _kink(map_model, kernel, g, grid, lo=3.0, hi=3.1):
    """The eigenvalue crossing where Lambda' jumps across 1.3, by bisection
    on the sign of the Hellmann-Feynman slope minus 1.3, to the last bit."""
    point = _legendre_points(map_model, kernel, g, grid)

    def slope(z):
        return point(z)[1]

    assert slope(lo) < 1.3 < slope(hi)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if slope(mid) < 1.3 else (lo, mid)
    return lo


@pytest.mark.parametrize(
    "s_values",
    [[round(0.1 * i, 1) for i in range(16)], [1.0]],
    ids=["table-0-1.5", "single-1.0"],
)
def test_newton_rate_closes_on_the_kink(perturbed_map, std_g, s_values):
    """Bump, n = 8: for s = 1.0 the supremum sits on the kink near z = 3.05.

    Secant steps across the jump in Lambda' used to creep in from one side
    and run into the evaluation cap; the rtsafe bisection rule and the
    kink acceptance close the bracket on it instead."""
    kernel, grid = BumpKernel(0.1), GridSpec(8, 64)
    kink = _kink(perturbed_map, kernel, std_g, grid)
    tab = rate_function(perturbed_map, kernel, std_g, grid, s_values)
    rows, _, _, _ = _golden_rate_table(
        perturbed_map, kernel, std_g, grid, s_values, (-4.0, 4.0)
    )
    assert [row.s for row in tab.rows] == s_values
    for row, (s, z_star, _, _) in zip(tab.rows, rows, strict=True):
        if s >= 1.0:
            assert abs(row.z_star - kink) <= 1e-9, s
        assert abs(row.z_star - z_star) <= 1e-6, s
    # 36 (table) and 41 (single row) evaluations at s = 1.0, of the cap of
    # 60; without the halving rule for secants across s it takes 48 and 49
    assert max(row.iterations for row in tab.rows) <= 45


def test_eigenvector_overlap_vanishes_at_the_kink(perturbed_map, std_g):
    """Bump, n = 8: one step past the crossing at z = 3.0505, ARPACK's left and
    right eigenvectors belong to different eigenvalues, so <l, r> vanishes
    and the Hellmann-Feynman slope is meaningless.  Away from it the overlap
    stays above 0.02 (0.031 at the last z before the crossing, 0.030 for
    Fejer at z = 8)."""
    kernel, grid = BumpKernel(0.1), GridSpec(8, 64)
    point = _legendre_points(perturbed_map, kernel, std_g, grid)
    kink = _kink(perturbed_map, kernel, std_g, grid)
    _, slope, overlap = point(np.nextafter(kink, 4.0))
    assert overlap < 1e-12 and abs(slope) > 1e9
    for z in (0.0, 1.0, 3.0, 3.1, kink):
        assert point(z)[2] > 0.02, z
    fejer = _legendre_points(perturbed_map, FejerKernel(), std_g, grid)
    for z in (0.0, 2.0, 4.0, 8.0):
        assert fejer(z)[2] > 0.02, z


def test_rate_table_reports_convexity_and_complex_eigenvalues(perturbed_map, fejer, std_g):
    """Fejer, n = 8: Lambda' is monotone up to s = 1.8, where lambda is complex.
    Bump, n = 8: past the kink at z = 3.05, Lambda' decreases."""
    grid = GridSpec(8, 64)
    s_values = [round(0.1 * i, 1) for i in range(19)]
    tab = rate_function(perturbed_map, fejer, std_g, grid, s_values)
    assert tab.slope_monotone
    assert tab.lambda_imag_max > 1e-3
    assert 0.02 < tab.eigvec_overlap_min <= 1.0
    bump = rate_function(perturbed_map, BumpKernel(0.1), std_g, grid, s_values[:16])
    assert not bump.slope_monotone
    assert 0.0 <= bump.lambda_imag_max < 1.0
    assert 0.0 <= bump.eigvec_overlap_min <= 1.0


def test_rate_table_legendre_budget(perturbed_map, fejer, std_g):
    s_values = [round(0.1 * i, 1) for i in range(19)]
    tab = rate_function(perturbed_map, fejer, std_g, GridSpec(8, 64), s_values)
    assert tab.bracket_expanded and tab.z_bracket == (-8.0, 8.0)
    assert tab.legendre_evals <= 100
    # every evaluation is charged to the row that made it, except z = 0
    assert sum(row.iterations for row in tab.rows) == tab.legendre_evals - 1
    assert 0 < tab.solve_terms < 100 and 0.0 < tab.solve_rate < 1.0


def test_newton_evaluation_cap_raises(perturbed_map, fejer, std_g, monkeypatch):
    import anosov.stats as stats_mod
    from anosov.stats import NonConvergenceError

    monkeypatch.setattr(stats_mod, "_NEWTON_MAX_EVALS", 2)
    with pytest.raises(NonConvergenceError, match="s = 0.5 took 2 evaluations"):
        rate_function(perturbed_map, fejer, std_g, GridSpec(8, 64), [0.5])


_MIXED = TrigPolynomial(
    (
        ((1, 1), 0.25),
        ((-1, -1), 0.25),
        ((2, 0), 0.5),
        ((-2, 0), 0.5),
        ((0, 1), -0.5j),
        ((0, -1), 0.5j),
    )
)


@pytest.mark.parametrize("g", [standard_observable(), _MIXED], ids=["standard", "mixed"])
def test_hellmann_feynman_slope_matches_central_difference(perturbed_map, fejer, g):
    grid, h = GridSpec(8, 64), 1e-4
    assert (g.separable_parts() is None) == (g is _MIXED)
    base = baseline(assemble(perturbed_map, fejer, g, 0.0, grid), g)
    gc = g.shifted(base.shift)
    for z in (-0.5, 0.0, 0.3, 1.0, 3.0):
        M = assemble(perturbed_map, fejer, gc, z, grid)
        dM = assemble_derivative(perturbed_map, fejer, gc, z, grid)
        log_lam, slope, _ = _legendre_point(M, leading_eigenpair(M), dM)
        assert log_lam == math.log(abs(leading_eigenpair(M).lam))
        lo, hi = lambda_curve(perturbed_map, fejer, g, grid, [z - h, z + h])
        central = (np.log(abs(hi.lam)) - np.log(abs(lo.lam))) / (2 * h)
        assert abs(slope - central) <= 1e-8, z


def test_variance_reports_solve_terms_and_rate(perturbed_map, fejer, std_g):
    res = variance(perturbed_map, fejer, std_g, GridSpec(8, 64))
    assert 0 < res.solve_terms < 100 and 0.0 < res.solve_rate < 1.0
    summary = res.to_dict()
    assert (summary["solve_terms"], summary["solve_rate"]) == (res.solve_terms, res.solve_rate)
