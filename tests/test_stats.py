import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from anosov import (
    BumpKernel,
    CallableObservable,
    FejerKernel,
    GridSpec,
    TrigPolynomial,
    assemble,
    baseline,
    evaluate_on_fine,
    lambda_curve,
    leading_eigenpair,
    rate_function,
    restrict_to_coarse,
    standard_observable,
    ulam_variance,
    variance,
)
from anosov.grids import fine_points, forward_transform, freq_index
from anosov.operators import OperatorMatrix
from anosov.stats import (
    SingularSolveError,
    _arnoldi_leading,
    _deflated_solve,
    _dominant_pair,
    _legendre_point,
    _zero_mode,
)


def _density(base):
    """The invariant density sampled on the fine grid, built here
    independently of the statistics: the real part of the eigenvector's
    function."""
    n = base.M0.n
    return evaluate_on_fine(base.eigen.right_vector.reshape(n, n), base.M0.grid.N).real


def test_leading_eigenpair_toy_matrix():
    # n = 2: the zero mode, the Arnoldi start vector, is entry 0 and the top
    # eigenvector; it spans an invariant subspace at once, after one apply
    A = np.diag([2.0, 1.0, 1.0, 1.0]).astype(complex)
    apply, calls = _counted(A.__matmul__)
    lam, v = _arnoldi_leading(apply, _zero_mode(2))
    assert lam == pytest.approx(2.0, abs=1e-14) and calls == [1]
    assert np.linalg.norm(A @ v - lam * v) < 1e-14


@pytest.mark.parametrize("kernel", [FejerKernel(), BumpKernel(0.25)], ids=["fejer", "bump"])
@pytest.mark.parametrize("n", [2, 4, 8, 16])
@pytest.mark.parametrize("linear", [False, True], ids=["perturbed", "cat"])
def test_untwisted_eigenpair_from_the_series(perturbed_map, linear_cat, std_g, kernel, n, linear):
    """The z = 0 pair without an eigen-solver: lam = (L_0 v)_0 is exactly 1,
    and v agrees with the Arnoldi mass-normalised eigenvector to rounding."""
    map_model = linear_cat if linear else perturbed_map
    M0 = assemble(map_model, kernel, std_g, 0.0, GridSpec(n, max(16, 4 * n)))
    eig = leading_eigenpair(M0)
    assert eig.lam == 1.0 and eig.method == "series"
    assert eig.residual < 1e-14
    izero = freq_index(0, 0, n)
    assert eig.right_vector[izero] == 1.0
    _, v = _arnoldi_leading(M0.entries.__matmul__, _zero_mode(n))
    assert np.abs(eig.right_vector - v / v[izero]).max() < 1e-14


@pytest.mark.parametrize("kernel", [FejerKernel(), BumpKernel(0.25)], ids=["fejer", "bump"])
@pytest.mark.parametrize("n", [2, 4, 8, 16])
@pytest.mark.parametrize("linear", [False, True], ids=["perturbed", "cat"])
def test_leading_eigenpair_at_zero_twist_never_runs_arnoldi(
    perturbed_map, linear_cat, std_g, kernel, n, linear, monkeypatch
):
    """At z = 0 the one eigen entry point sums the series: lam is exactly 1
    and the Arnoldi iteration is never called."""
    import anosov.stats as stats_mod

    def no_arnoldi(*args):
        raise AssertionError("the Arnoldi iteration ran at z = 0")

    map_model = linear_cat if linear else perturbed_map
    M0 = assemble(map_model, kernel, std_g, 0.0, GridSpec(n, max(16, 4 * n)))
    monkeypatch.setattr(stats_mod, "_arnoldi_leading", no_arnoldi)
    eig = leading_eigenpair(M0)
    assert eig.lam == 1.0 and eig.method == "series"


def test_arpack_never_runs_at_zero_twist(perturbed_map, fejer, std_g, monkeypatch):
    """rate_function makes two Arnoldi solves (right and left eigenvector) per
    twisted evaluation and none at z = 0, from one plan per baseline;
    variance makes none."""
    import anosov.stats as stats_mod

    arpack_orig, legendre_orig = stats_mod._arnoldi_leading, stats_mod._legendre_point
    eig_orig, plan_cls = stats_mod.leading_eigenpair, stats_mod.TwistPlan
    twist, arpack, plans = [None], [], []

    def at_twist(solve):
        def traced(M, *args):
            twist[0] = M.z
            return solve(M, *args)

        return traced

    def counting_arpack(apply, v0):
        arpack.append(twist[0])
        return arpack_orig(apply, v0)

    def counting_plan(*args):
        plans.append(args)
        return plan_cls(*args)

    monkeypatch.setattr(stats_mod, "_arnoldi_leading", counting_arpack)
    monkeypatch.setattr(stats_mod, "_legendre_point", at_twist(legendre_orig))
    monkeypatch.setattr(stats_mod, "leading_eigenpair", at_twist(eig_orig))
    monkeypatch.setattr(stats_mod, "TwistPlan", counting_plan)
    base = baseline(perturbed_map, fejer, std_g, GridSpec(8, 64))
    assert variance(base).sigma2 > 0.0 and arpack == [] and len(plans) == 1
    tab = rate_function(base, [0.0, 0.5, 1.0])
    assert len(arpack) == 2 * (tab.legendre_evals - 1) and 0 not in arpack
    assert len(plans) == 1


def test_cat_map_srb_is_lebesgue(linear_cat, fejer, std_g):
    grid = GridSpec(16, 128)
    M0 = assemble(linear_cat, fejer, std_g, 0.0, grid)
    eig = leading_eigenpair(M0)
    assert abs(eig.lam - 1.0) < 1e-12
    e0 = np.zeros(16 * 16, dtype=complex)
    e0[freq_index(0, 0, 16)] = 1.0
    assert np.abs(eig.right_vector - e0).max() < 1e-10
    srb = baseline(linear_cat, fejer, std_g, grid)
    assert np.allclose(_density(srb), 1.0, atol=1e-10)


def test_perturbed_leading_eigenvalue_is_one(perturbed_map, fejer, std_g, small_grid):
    M0 = assemble(perturbed_map, fejer, std_g, 0.0, small_grid)
    eig = leading_eigenpair(M0)
    assert abs(eig.lam - 1.0) < 1e-10
    assert eig.residual < 1e-8


def test_srb_density_deterministic(perturbed_map, fejer, std_g, small_grid):
    a = _density(baseline(perturbed_map, fejer, std_g, small_grid))
    b = _density(baseline(perturbed_map, fejer, std_g, small_grid))
    assert np.array_equal(a, b)
    assert np.mean(a) == pytest.approx(1.0, abs=1e-10)


def test_centered_observable_linear_map(linear_cat, fejer, std_g):
    grid = GridSpec(16, 128)
    cen = baseline(linear_cat, fejer, std_g, grid)
    assert abs(cen.shift) < 1e-12
    const = TrigPolynomial((((0, 0), 2.5),))
    cen = baseline(linear_cat, fejer, const, grid)
    assert cen.shift == pytest.approx(2.5, abs=1e-12)
    assert cen.plan.g == const.shifted(cen.shift)
    assert np.abs(cen.plan.g.sample(*fine_points(grid.N))).max() < 1e-12


def test_variance_cat_map_analytic(linear_cat, fejer, std_g):
    res = variance(baseline(linear_cat, fejer, std_g, GridSpec(16, 128)))
    assert res.sigma2 == pytest.approx(1.0, abs=1e-8)
    assert res.solve_residual < 1e-10


def test_variance_stable_under_fine_refinement(perturbed_map, fejer, std_g):
    r1 = variance(baseline(perturbed_map, fejer, std_g, GridSpec(16, 256)))
    r2 = variance(baseline(perturbed_map, fejer, std_g, GridSpec(16, 512)))
    assert abs(r1.sigma2 - r2.sigma2) < 1e-5


def test_variance_agrees_with_green_kubo_series(perturbed_map, fejer, std_g):
    base = baseline(perturbed_map, fejer, std_g, GridSpec(16, 128))
    grid, res = base.M0.grid, variance(base)
    # independent truncated-series oracle
    M0, density = base.M0, _density(base)
    gs = std_g.sample(*fine_points(grid.N))
    gc = gs - np.mean(gs * density).real
    x = restrict_to_coarse(forward_transform(gc * density), grid.n).ravel()
    acc = np.mean(gc * gc * density)
    for _ in range(60):
        x = M0.entries @ x
        acc = acc + 2.0 * np.mean(
            gc * evaluate_on_fine(x.reshape(grid.n, grid.n), grid.N)
        )
    assert abs(res.sigma2 - acc.real) < 1e-6


def test_lambda_curve_identities(perturbed_map, fejer, std_g, small_grid):
    zs = [-1e-3, -1e-4, 0.0, 1e-4, 1e-3]
    lams = lambda_curve(baseline(perturbed_map, fejer, std_g, small_grid), zs)
    ll = {z: np.log(abs(lam)) for z, lam in zip(zs, lams)}
    assert abs(ll[0.0]) < 1e-10
    d1 = (ll[1e-4] - ll[-1e-4]) / 2e-4
    assert abs(d1) < 1e-4
    d2 = (ll[1e-3] - 2 * ll[0.0] + ll[-1e-3]) / 1e-6
    sig = variance(baseline(perturbed_map, fejer, std_g, small_grid)).sigma2
    assert abs(d2 - sig) / sig < 0.01


def test_lambda_curve_lists_the_leading_eigenvalue_of_each_z(perturbed_map, fejer, std_g):
    """A twisted z gives the Arnoldi eigenvalue of the one-shot assembly, bit for
    bit; z = 0 gives the baseline's series eigenvalue, exactly 1."""
    grid, zs = GridSpec(8, 64), [0.5, -0.25, 0.0, 1.0]
    base = baseline(perturbed_map, fejer, std_g, grid)
    lams = lambda_curve(base, zs)
    assert [type(lam) for lam in lams] == [complex] * len(zs)
    for z, lam in zip(zs, lams):
        if z == 0.0:
            assert lam == base.eigen.lam == 1.0 and base.eigen.method == "series"
        else:
            M = assemble(perturbed_map, fejer, base.plan.g, z, grid)
            assert lam == leading_eigenpair(M).lam


def test_lambda_real_positive_and_convex(perturbed_map, fejer, std_g, small_grid):
    zs = np.linspace(-1.0, 1.0, 21)
    lams = np.array(lambda_curve(baseline(perturbed_map, fejer, std_g, small_grid), zs))
    assert np.abs(lams.imag).max() < 1e-9
    assert np.all(lams.real > 0)
    ll = np.log(np.abs(lams))
    assert np.diff(ll, 2).min() >= -1e-7


def test_rate_function_basic(perturbed_map, fejer, std_g, small_grid):
    tab = rate_function(
        baseline(perturbed_map, fejer, std_g, small_grid),
        [0.0, 0.05, 0.1],
        (-4.0, 4.0),
    )
    rows = tab.rows
    assert [row.s for row in rows] == [0.0, 0.05, 0.1]
    assert rows[0].r <= 1e-8
    assert abs(rows[0].z_star) < 1e-4
    assert all(row.r >= -1e-8 for row in rows)
    assert not tab.bracket_expanded
    # small-s Legendre duality against the stored variance
    for row in rows[1:]:
        quad = row.s**2 / (2.0 * tab.variance.sigma2)
        assert abs(row.r - quad) / quad < 0.05


def test_rate_function_boundary_flag(perturbed_map, fejer, std_g, small_grid):
    tab = rate_function(
        baseline(perturbed_map, fejer, std_g, small_grid),
        [1.0],
        (-0.05, 0.05),
    )
    assert tab.bracket_expanded
    assert tab.z_bracket == (-0.1, 0.1)
    assert tab.rows[0].at_bracket_boundary


def _every_statistic(base):
    """One baseline serves variance, lambda_curve and rate_function."""
    return variance(base), lambda_curve(base, [-0.1, 0.0, 0.1]), rate_function(base, [0.0, 0.1])


@pytest.mark.parametrize(
    "run",
    [
        lambda m, k, g, grid: rate_function(baseline(m, k, g, grid), [0.0, 0.1]),
        lambda m, k, g, grid: lambda_curve(baseline(m, k, g, grid), [-0.1, 0.0, 0.1]),
        lambda m, k, g, grid: _every_statistic(baseline(m, k, g, grid)),
    ],
    ids=["rate_function", "lambda_curve", "every_statistic"],
)
def test_untwisted_baseline_computed_once(
    perturbed_map, fejer, std_g, monkeypatch, run
):
    """One z = 0 assembly, one z = 0 eigen-solve (the series) and one twist
    plan per baseline; every twisted operator comes from the plan, and z = 0
    reaches leading_eigenpair once."""
    import anosov.stats as stats_mod

    twists = {"assemble": [], "eig": [], "plan": 0}
    assemble_orig, eig_orig = stats_mod.assemble, stats_mod.leading_eigenpair

    def counting_assemble(*args, **kwargs):
        M = assemble_orig(*args, **kwargs)
        twists["assemble"].append(M.z)
        return M

    def counting_eig(M):
        twists["eig"].append(M.z)
        return eig_orig(M)

    class CountingPlan(stats_mod.TwistPlan):
        def __init__(self, *args):
            twists["plan"] += 1
            super().__init__(*args)

    monkeypatch.setattr(stats_mod, "assemble", counting_assemble)
    monkeypatch.setattr(stats_mod, "leading_eigenpair", counting_eig)
    monkeypatch.setattr(stats_mod, "TwistPlan", CountingPlan)
    run(perturbed_map, fejer, std_g, GridSpec(8, 64))
    assert twists["assemble"] == [0] and twists["plan"] == 1
    assert twists["eig"][0] == 0 and twists["eig"].count(0) == 1
    assert len(twists["eig"]) > 1


@pytest.mark.parametrize("kernel", [FejerKernel(), BumpKernel(0.1)], ids=["fejer", "bump"])
@pytest.mark.parametrize("n", [2, 4, 8, 16])
@pytest.mark.parametrize("z", [0.0, 0.7, -0.5])
def test_arpack_path_matches_dense(perturbed_map, std_g, kernel, n, z):
    """The leading eigenpair against the dense oracle: every eigenvalue by
    np.linalg.eig, the one of largest modulus, its vector scaled to zero-mode
    coefficient 1.  z = 0 takes the series, any other z Arnoldi."""
    M = assemble(perturbed_map, kernel, std_g, z, GridSpec(n, 64))
    eig = leading_eigenpair(M)
    vals, vecs = np.linalg.eig(M.dense())
    top = np.argsort(np.abs(vals))[::-1]
    assert abs(vals[top[1]]) < 0.9 * abs(vals[top[0]])  # simple and isolated
    izero = freq_index(0, 0, n)
    ref = vecs[:, top[0]]
    assert abs(ref[izero]) > 0.1 * np.linalg.norm(ref)
    assert eig.method == ("series" if z == 0.0 else "arnoldi")
    assert abs(eig.lam - vals[top[0]]) <= 1e-13
    assert eig.right_vector.shape == (n * n,)  # the C-order ravel of (n, n)
    assert np.abs(eig.right_vector - ref / ref[izero]).max() <= 1e-10
    assert eig.residual < 1e-12


def test_arpack_exact_start_vector_is_reproducible(linear_cat, fejer, std_g):
    # the zero mode is an exact eigenvector of the cat map's operator: M e0 = e0
    M0 = assemble(linear_cat, fejer, std_g, 0.0, GridSpec(16, 128))
    (a_lam, a), (b_lam, b) = (_arnoldi_leading(M0.entries.__matmul__, _zero_mode(16)) for _ in "ab")
    assert a_lam == b_lam
    assert np.array_equal(a, b)
    assert abs(a_lam - 1.0) < 1e-12


def test_arpack_non_convergence_raises(perturbed_map, fejer, std_g, monkeypatch):
    """A budget too small for the first convergence check runs out: the
    Arnoldi iteration raises NonConvergenceError, no stub needed."""
    import anosov.stats as stats_mod
    from anosov.stats import NonConvergenceError

    monkeypatch.setattr(stats_mod, "_ARNOLDI_BUDGET", 5)
    M = assemble(perturbed_map, fejer, std_g, 0.5, GridSpec(8, 64))
    with pytest.raises(NonConvergenceError, match="did not converge in 5 applies"):
        leading_eigenpair(M)
    with pytest.raises(NonConvergenceError, match="did not converge in 5 applies"):
        stats_mod._arnoldi_leading(M.adjoint, stats_mod._zero_mode(8))


def _counted(apply):
    """(apply wrapped to count its calls, the count in a one-element list)."""
    calls = [0]

    def counting(v):
        calls[0] += 1
        return apply(v)

    return counting, calls


@pytest.mark.parametrize("kernel", [FejerKernel(), BumpKernel(0.1)], ids=["fejer", "bump"])
@pytest.mark.parametrize("n", [2, 4, 8, 16])
@pytest.mark.parametrize("z", [0.7, -0.5, 4.0, 8.0])
def test_arnoldi_matches_dense_and_arpack(perturbed_map, std_g, kernel, n, z):
    """The right eigenpair at a twisted z against np.linalg.eig of the dense
    matrix, and against ARPACK on the same operator from the same zero-mode
    start: lam to 1e-13 and the mass-normalised vector to 1e-10, relative, in
    no more applies than ARPACK takes.  Where the dense oracle is not that
    good, the error may be twice ARPACK's against it: bump, n = 16, z = 8,
    where ||M|| = 3e6, |lam| = 4e3 and lam's condition number is 7e3, so
    dense, ARPACK and Arnoldi differ by 2e-11 to 4e-11 in lam."""
    import anosov.stats as stats_mod

    M = assemble(perturbed_map, kernel, std_g, z, GridSpec(n, 64))
    vals, vecs = np.linalg.eig(M.dense())
    top = np.argmax(np.abs(vals))
    izero = freq_index(0, 0, n)
    ref = vecs[:, top] / vecs[izero, top]

    def errors(lam, v):
        """lam's and the mass-normalised v's errors, relative to the oracle."""
        dv = np.abs(v / v[izero] - ref).max() / np.abs(ref).max()
        return abs(lam - vals[top]) / abs(vals[top]), dv

    apply, ours = _counted(M.entries.__matmul__)
    lam, v = stats_mod._arnoldi_leading(apply, stats_mod._zero_mode(n))
    eig = leading_eigenpair(M)
    assert eig.method == "arnoldi" and eig.lam == lam
    matvec, theirs = _counted(M.entries.__matmul__)
    op = spla.LinearOperator(M.entries.shape, matvec=matvec, dtype=complex)
    arpack_vals, arpack_vecs = spla.eigs(op, k=1, v0=stats_mod._zero_mode(n), rng=0)
    arpack_lam, arpack_v = errors(arpack_vals[0], arpack_vecs[:, 0])
    lam_err, v_err = errors(eig.lam, eig.right_vector)
    assert lam_err <= max(1e-13, 2.0 * arpack_lam)
    assert v_err <= max(1e-10, 2.0 * arpack_v)
    assert np.array_equal(eig.right_vector, v / v[izero])
    assert ours[0] <= theirs[0]


@pytest.mark.parametrize("kernel", [FejerKernel(), BumpKernel(0.1)], ids=["fejer", "bump"])
@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("z", [0.7, -0.5, 4.0, 8.0])
def test_left_vector_matches_the_dense_left_eigenvector(perturbed_map, std_g, kernel, n, z):
    """_legendre_point's left vector, the Arnoldi iteration on the adjoint
    apply, against the dense left eigenvector (np.linalg.eig of M^H): the
    conjugate eigenvalue to 1e-13 and the zero-mode-normalised vector to
    1e-10, relative.  (At n = 16 the dense oracle's own left vector is off by
    1e-6, so the grid stops at n = 8.)"""
    import anosov.stats as stats_mod

    M = assemble(perturbed_map, kernel, std_g, z, GridSpec(n, 64))
    vals, vecs = np.linalg.eig(M.dense().conj().T)
    top = np.argmax(np.abs(vals))
    izero = freq_index(0, 0, n)
    ref = vecs[:, top] / vecs[izero, top]
    mu, left = stats_mod._arnoldi_leading(M.adjoint, stats_mod._zero_mode(n))
    assert abs(mu - vals[top]) <= 1e-13 * abs(vals[top])
    assert abs(mu.conjugate() - leading_eigenpair(M).lam) <= 1e-13 * abs(mu)
    assert np.abs(left / left[izero] - ref).max() <= 1e-10 * np.abs(ref).max()


def test_arnoldi_reruns_are_bitwise_equal(perturbed_map, std_g):
    """The start vector and every step are fixed: a twisted bump operator's
    right and left vectors come out bit for bit the same on a rerun."""
    import anosov.stats as stats_mod

    M = assemble(perturbed_map, BumpKernel(0.1), std_g, 4.0, GridSpec(16, 64))
    for apply in (M.entries.__matmul__, M.adjoint):
        (a_lam, a), (b_lam, b) = (stats_mod._arnoldi_leading(apply, stats_mod._zero_mode(16)) for _ in "ab")
        assert a_lam == b_lam and np.array_equal(a, b)


def test_arnoldi_restarts_from_the_ritz_vector(perturbed_map, fejer, std_g, monkeypatch):
    """A full basis restarts the iteration from the Ritz vector.  The package's
    runs converge within the first 40 applies, so a basis of 6, first checked
    at 4 (below the basis, so a restart starts from a checked Ritz vector, not
    e_0), forces restarts on a twisted n = 8 operator: right and left vectors
    take more applies than one basis holds, and agree with the full-basis
    solve to 1e-12, zero-mode normalised; reruns are bitwise equal."""
    import anosov.stats as stats_mod

    M = assemble(perturbed_map, fejer, std_g, 0.7, GridSpec(8, 64))
    izero, applies = freq_index(0, 0, 8), (M.entries.__matmul__, M.adjoint)

    def solve(apply):
        counting, calls = _counted(apply)
        lam, v = stats_mod._arnoldi_leading(counting, stats_mod._zero_mode(8))
        return lam, v / v[izero], calls[0]

    full = [solve(apply) for apply in applies]
    monkeypatch.setattr(stats_mod, "_ARNOLDI_FIRST", 4)
    monkeypatch.setattr(stats_mod, "_ARNOLDI_BASIS", 6)
    for apply, (full_lam, full_v, _) in zip(applies, full):
        (lam, v, calls), (b_lam, b, _) = solve(apply), solve(apply)
        assert calls > 6
        assert abs(lam - full_lam) <= 1e-12 * abs(full_lam)
        assert np.abs(v - full_v).max() <= 1e-12 * np.abs(full_v).max()
        assert lam == b_lam and np.array_equal(v, b)


def _hessenberg_with(rng, lam, upper):
    """A complex upper-Hessenberg matrix with eigenvalues ``lam``: a triangular
    matrix with ``upper`` times Gaussian entries above the diagonal, in a
    random unitary basis, reduced by scipy's Householder Hessenberg form."""
    m = len(lam)
    T = np.diag(lam) + upper * np.triu(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)), 1)
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return sla.hessenberg(Q @ T @ Q.conj().T)


def _counting_eig(monkeypatch):
    """Patch np.linalg.eig to count its calls; return the count list."""
    eig, calls = np.linalg.eig, []

    def counting(a):
        calls.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting)
    return calls


@pytest.mark.parametrize("ratio", [0.1, 0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("m", [8, 20, 40])
def test_dominant_pair_from_powers_matches_eig(m, ratio, monkeypatch):
    """A planted dominant eigenvalue of modulus 1, the next of modulus
    ``ratio`` and the rest below it, all of random phase: the squared powers
    of H give LAPACK's largest-modulus pair to 1e-12 (the vector up to its
    phase) with no eig call."""
    rng = np.random.default_rng(1000 * m + int(10 * ratio))
    lam = np.exp(2j * np.pi * rng.random(m)) * np.r_[1.0, ratio, ratio * rng.random(m - 2)]
    H = _hessenberg_with(rng, lam, 1.0 / math.sqrt(m))
    vals, vecs = np.linalg.eig(H)
    i = np.argmax(np.abs(vals))
    calls = _counting_eig(monkeypatch)
    theta, y = _dominant_pair(H)
    assert calls == []
    assert abs(theta - vals[i]) <= 1e-12 and abs(np.linalg.norm(y) - 1.0) <= 1e-14
    phase = np.vdot(vecs[:, i], y) / abs(np.vdot(vecs[:, i], y))
    assert np.abs(y - phase * vecs[:, i]).max() <= 1e-12


def _real_with_pair(rng, m):
    """A real Hessenberg matrix whose top eigenvalues 0.6 +- 0.8i tie in modulus."""
    T = np.diag(np.r_[0.0, 0.0, 0.5 * rng.random(m - 2)]) + np.triu(rng.standard_normal((m, m)), 1) / m
    T[:2, :2] = [[0.6, -0.8], [0.8, 0.6]]
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return sla.hessenberg(Q @ T @ Q.T)


@pytest.mark.parametrize("m", [8, 20])
@pytest.mark.parametrize("case", ["ratio 0.999", "conjugate pair", "jordan block", "nilpotent"])
def test_dominant_pair_falls_back_to_eig_at_ties(m, case, monkeypatch):
    """Where the powers do not settle by H^1024 the pair is LAPACK's: a
    modulus ratio of 0.999, a real H whose top eigenvalues are an exact
    complex-conjugate pair, and a 2 x 2 Jordan block on top (a double
    eigenvalue 1 under a nonzero upper entry) each make one eig call and
    return its largest-modulus pair.  So does a nilpotent H, whose powers
    vanish, with no division by zero on the way."""
    rng = np.random.default_rng(m)
    if case == "conjugate pair":
        H = _real_with_pair(rng, m)
    elif case == "nilpotent":
        H = np.triu(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)), 1)
    else:
        lam = np.r_[1.0, 0.999 if case == "ratio 0.999" else 1.0, 0.5 * rng.random(m - 2)]
        H = _hessenberg_with(rng, np.exp(2j * np.pi * rng.random()) * lam, 1.0 / math.sqrt(m))
    vals, vecs = np.linalg.eig(H)
    i = np.argmax(np.abs(vals))
    calls = _counting_eig(monkeypatch)
    with np.errstate(all="raise"):
        theta, y = _dominant_pair(H)
    assert calls == [(m, m)]
    assert theta == vals[i] and np.array_equal(y, vecs[:, i])


def test_fejer_rate_table_runs_no_eig(perturbed_map, fejer, std_g, monkeypatch):
    """The n = 8 Fejer rate table (the CLI's 19 values of s) takes every
    Ritz pair from H's powers: no eig call, and exactly as many Arnoldi
    applies as with LAPACK's pair forced at every check; z* agrees to 1e-11."""
    import anosov.stats as stats_mod

    arnoldi, applies = stats_mod._arnoldi_leading, [0]

    def counting_arnoldi(apply, v0):
        def counted(v):
            applies[0] += 1
            return apply(v)

        return arnoldi(counted, v0)

    def lapack_pair(H):
        thetas, Y = np.linalg.eig(H)
        i = np.argmax(np.abs(thetas))
        return thetas[i], Y[:, i]

    monkeypatch.setattr(stats_mod, "_arnoldi_leading", counting_arnoldi)
    base = baseline(perturbed_map, fejer, std_g, GridSpec(8, 64))
    s_values = np.linspace(0.0, 1.8, 19)
    calls = _counting_eig(monkeypatch)
    ours = rate_function(base, s_values)
    assert calls == [] and ours.legendre_evals == 82
    ours_applies, applies[0] = applies[0], 0
    monkeypatch.setattr(stats_mod, "_dominant_pair", lapack_pair)
    theirs = rate_function(base, s_values)
    assert len(calls) > 0 and applies[0] == ours_applies
    for a, b in zip(ours.rows, theirs.rows):
        assert abs(a.z_star - b.z_star) <= 1e-11 and abs(a.r - b.r) <= 1e-11


def test_deflated_solve_flags_singular():
    # M = Id does not mix: every term of the series equals x off the zero mode
    n = 4
    M = OperatorMatrix(
        entries=np.eye(n * n, dtype=complex),
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
    A = np.eye(M.dense().shape[0], dtype=complex) - M.dense()
    A[izero, :] = 0.0
    A[izero, izero] = 1.0
    b = M.dense() @ x
    b[izero] = 0.0
    return sla.lu_solve(sla.lu_factor(A), b)


@pytest.mark.parametrize(
    "kernel, n, N",
    [(FejerKernel(), 8, 64), (FejerKernel(), 16, 128), (FejerKernel(), 32, 512)]
    + [(BumpKernel(0.1), 16, 256)],
    ids=["fejer-8", "fejer-16", "fejer-32", "bump-16"],
)
def test_deflated_solve_matches_lu_oracle(perturbed_map, std_g, kernel, n, N):
    base = baseline(perturbed_map, kernel, std_g, GridSpec(n, N))
    density = _density(base)
    gc = std_g.sample(*fine_points(N)) - base.shift
    x = restrict_to_coarse(forward_transform(gc * density), n).ravel()
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
    variance(baseline(perturbed_map, fejer, std_g, GridSpec(8, 64)))
    ulam_variance(perturbed_map, 16, 16, std_g)
    # the baseline's eigenvector, the variance's Green-Kubo sum, then Ulam's
    # density (the series of P^T) and its Green-Kubo sum
    assert calls == ["SeparableOperator", "SeparableOperator", "TransitionMatrix", "TransitionMatrix"]


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
    base = baseline(map_model, kernel, g, grid)
    memo = {}

    def log_lam(z):
        if z not in memo:
            memo[z] = np.log(abs(lambda_curve(base, [z])[0]))
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
    tab = rate_function(baseline(perturbed_map, kernel, std_g, grid), s_values)
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
    tab = rate_function(baseline(perturbed_map, fejer, std_g, grid), s_values, (-0.05, 0.05))
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
    tab = rate_function(baseline(perturbed_map, kernel, std_g, grid), s_values)
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
    """z -> (Lambda, Lambda', eigenvector overlap, |Im lambda| / |lambda|) at
    twist z, for g centered against the baseline as rate_function centers it."""
    plan = baseline(map_model, kernel, g, grid).plan

    def point(z):
        M = assemble(map_model, kernel, plan.g, z, grid)
        dM = plan.operator(z, derivative=True)
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
    tab = rate_function(baseline(perturbed_map, kernel, std_g, grid), s_values)
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
    """Bump, n = 8: at the crossing near z = 3.0505, the Arnoldi left and right
    eigenvectors can belong to different eigenvalues, so <l, r> vanishes and
    the Hellmann-Feynman slope is meaningless.  Which floats of the crossing
    do so is up to rounding (they alternate with floats of overlap 0.03), so
    the claim is that one within 16 ulps of the bisected kink does.  Away
    from it the overlap stays above 0.02 (0.031 and 0.035 at 1e-12 either
    side of the kink, 0.030 for Fejer at z = 8)."""
    kernel, grid = BumpKernel(0.1), GridSpec(8, 64)
    point = _legendre_points(perturbed_map, kernel, std_g, grid)
    kink = _kink(perturbed_map, kernel, std_g, grid)
    # the spacing of floats is constant on [2, 4), so these are consecutive
    near = [point(z) for z in kink + np.spacing(kink) * np.arange(-16, 17)]
    assert any(overlap < 1e-12 and abs(slope) > 1e9 for _, slope, overlap, _ in near)
    for z in (0.0, 1.0, 3.0, 3.1, kink - 1e-12, kink + 1e-12):
        assert point(z)[2] > 0.02, z
    fejer = _legendre_points(perturbed_map, FejerKernel(), std_g, grid)
    for z in (0.0, 2.0, 4.0, 8.0):
        assert fejer(z)[2] > 0.02, z


def test_rate_table_reports_convexity_and_complex_eigenvalues(perturbed_map, fejer, std_g):
    """Fejer, n = 8: Lambda' is monotone up to s = 1.8, where lambda is complex.
    Bump, n = 8: past the kink at z = 3.05, Lambda' decreases."""
    grid = GridSpec(8, 64)
    s_values = [round(0.1 * i, 1) for i in range(19)]
    tab = rate_function(baseline(perturbed_map, fejer, std_g, grid), s_values)
    assert tab.slope_monotone
    assert tab.lambda_imag_max > 1e-3
    assert 0.02 < tab.eigvec_overlap_min <= 1.0
    bump = rate_function(baseline(perturbed_map, BumpKernel(0.1), std_g, grid), s_values[:16])
    assert not bump.slope_monotone
    assert 0.0 <= bump.lambda_imag_max < 1.0
    assert 0.0 <= bump.eigvec_overlap_min <= 1.0


def test_rate_table_legendre_budget(perturbed_map, fejer, std_g):
    s_values = [round(0.1 * i, 1) for i in range(19)]
    tab = rate_function(baseline(perturbed_map, fejer, std_g, GridSpec(8, 64)), s_values)
    assert tab.bracket_expanded and tab.z_bracket == (-8.0, 8.0)
    assert tab.legendre_evals <= 100
    # every evaluation is charged to the row that made it, except z = 0
    assert sum(row.iterations for row in tab.rows) == tab.legendre_evals - 1
    assert 0 < tab.variance.solve_terms < 100 and 0.0 < tab.variance.solve_rate < 1.0


def test_newton_evaluation_cap_raises(perturbed_map, fejer, std_g, monkeypatch):
    import anosov.stats as stats_mod
    from anosov.stats import NonConvergenceError

    monkeypatch.setattr(stats_mod, "_NEWTON_MAX_EVALS", 2)
    with pytest.raises(NonConvergenceError, match="s = 0.5 took 2 evaluations"):
        rate_function(baseline(perturbed_map, fejer, std_g, GridSpec(8, 64)), [0.5])


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
    base = baseline(perturbed_map, fejer, g, grid)
    gc = base.plan.g
    for z in (-0.5, 0.0, 0.3, 1.0, 3.0):
        M = assemble(perturbed_map, fejer, gc, z, grid)
        dM = base.plan.operator(z, derivative=True)
        log_lam, slope, _, imag = _legendre_point(M, leading_eigenpair(M), dM)
        lam = leading_eigenpair(M).lam
        assert log_lam == math.log(abs(lam)) and imag == abs(lam.imag) / abs(lam)
        lo, hi = lambda_curve(base, [z - h, z + h])
        central = (np.log(abs(hi)) - np.log(abs(lo))) / (2 * h)
        assert abs(slope - central) <= 1e-8, z


def test_variance_reports_solve_terms_and_rate(perturbed_map, fejer, std_g):
    res = variance(baseline(perturbed_map, fejer, std_g, GridSpec(8, 64)))
    assert 0 < res.solve_terms < 100 and 0.0 < res.solve_rate < 1.0
    summary = asdict(res)
    assert (summary["solve_terms"], summary["solve_rate"]) == (res.solve_terms, res.solve_rate)


def test_statistics_never_build_the_dense_operator(perturbed_map, fejer, std_g, monkeypatch):
    """For a separable g, variance, lambda_curve and rate_function work from
    the factor form: neither dense() nor the dense product is ever called."""
    import anosov.operators as ops

    def refuse(*args):
        raise AssertionError("the dense operator was built")

    monkeypatch.setattr(ops, "_product", refuse)
    monkeypatch.setattr(ops.SeparableOperator, "dense", refuse)
    monkeypatch.setattr(OperatorMatrix, "dense", refuse)
    base = baseline(perturbed_map, fejer, std_g, GridSpec(8, 64))
    assert variance(base).sigma2 > 0.0
    assert len(lambda_curve(base, [-0.5, 0.0, 0.5])) == 3
    tab = rate_function(base, [0.0, 0.5, 1.0])
    assert len(tab.rows) == 3 and tab.legendre_evals > 3


def test_fejer_variance_at_n128_in_bounded_memory(perturbed_map, fejer, std_g):
    """n = 128, N = 512: the factor form's peak stays far below the 4.3 GB
    the dense n^4 matrix would take, and sigma^2 continues the convergence in n
    (0.9448 at n = 32, 0.9395 at n = 64)."""
    tracemalloc.start()
    try:
        res = variance(baseline(perturbed_map, fejer, std_g, GridSpec(128, 512)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.sigma2 == pytest.approx(0.93665838, abs=1e-7)
    assert peak < 400 * 2**20


def _fine_grid_oracle(base, g):
    """(sigma^2, shift) with every product formed pointwise on the N x N
    grid: the density, g and the Green-Kubo solution w sampled there."""
    n, N = base.M0.n, base.M0.grid.N
    density = _density(base)
    gs = np.asarray(g.sample(*fine_points(N)), dtype=float)
    shift = float(np.mean(gs * density).real)
    gc = gs - shift
    x = restrict_to_coarse(forward_transform(gc * density), n).ravel()
    w = _deflated_solve(base.M0, x)[0]
    w_spatial = evaluate_on_fine(w.reshape(n, n), N)
    sigma2 = complex(np.mean(gc * gc * density + 2.0 * gc * w_spatial)).real
    return sigma2, shift


_ROUGH = CallableObservable(lambda x1, x2: np.abs(np.mod(x1 - x2, 1.0) - 0.5) - 0.25)
# the bump needs 16 fine points in its disk: no width below 1/2 finds them on
# a 4 x 4 grid, and at N = 16 the width is 1/4
_ORACLE_CASES = [(FejerKernel(), 2, 4), (FejerKernel(), 8, 16), (BumpKernel(0.25), 8, 16)] + [
    (kernel, n, N)
    for n, N in [(8, 64), (16, 256), (32, 512)]
    for kernel in (FejerKernel(), BumpKernel(0.1))
]


@pytest.mark.parametrize(
    "kernel, n, N",
    _ORACLE_CASES,
    ids=[f"{type(k).__name__[:-6].lower()}-{n}-{N}" for k, n, N in _ORACLE_CASES],
)
@pytest.mark.parametrize(
    "g", [standard_observable(), _MIXED, _ROUGH], ids=["standard", "mixed", "callable"]
)
def test_variance_matches_the_fine_grid_oracle(perturbed_map, g, kernel, n, N):
    """sigma^2 and the shift from coefficients equal the fine-grid Riemann
    sums, for separable, mixed-mode and callable g."""
    base = baseline(perturbed_map, kernel, g, GridSpec(n, N))
    res = variance(base)
    sigma2, shift = _fine_grid_oracle(base, g)
    assert abs(res.mean_shift - shift) <= 1e-15
    assert abs(res.sigma2 - sigma2) <= 1e-14 * abs(sigma2)


def test_variance_never_allocates_a_fine_grid_array(perturbed_map, fejer, std_g):
    """n = 32, N = 512: the peak stays below one 512^2 complex array (4 MiB);
    the mean shift and sigma^2 need only coarse and 2n x 2n arrays."""
    grid = GridSpec(32, 512)
    tracemalloc.start()
    try:
        res = variance(baseline(perturbed_map, fejer, std_g, grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.sigma2 == pytest.approx(0.9448165794443963, abs=1e-12)
    assert peak < 16 * grid.N**2
