import numpy as np
import pytest
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
    variance,
)
from anosov.grids import fine_points, forward_transform, freq_index
from anosov.operators import OperatorMatrix
from anosov.stats import SingularSolveError, _deflated_solve


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


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_deflated_solve_flags_singular():
    n = 4
    M = OperatorMatrix(
        n=n,
        entries=np.eye(n * n, dtype=complex),
        map_label="toy",
        kernel_label="toy",
        z=0.0,
        grid=GridSpec(4, 8),
    )
    with pytest.raises(SingularSolveError):
        _deflated_solve(M, np.zeros(n * n, dtype=complex))
