import functools

import numpy as np
import pytest
import scipy.fft as sfft

from anosov import (
    BumpKernel,
    FejerKernel,
    GridSpec,
    bump_coefficients,
    coarse_freqs,
    fejer_coefficients,
    kernels,
    match_epsilon,
    summability_check,
)
from anosov.kernels import NoRootError, ResolutionError, bump_spatial


def _torus_radius2(N):
    """Squared torus distance of each fine point to the origin."""
    a = np.arange(N) / N
    r = np.where(a >= 0.5, a - 1.0, a)
    return np.add.outer(r * r, r * r)


def _full_grid_bump(epsilon, N):
    """Oracle: the unnormalised bump evaluated on all N^2 fine points."""
    u2 = _torus_radius2(N) / (epsilon * epsilon)
    inside = u2 < 1.0
    q = np.zeros((N, N))
    q[inside] = np.exp(-1.0 / (1.0 - u2[inside]))
    return q


@functools.lru_cache(maxsize=8192)
def _rfft2_block(epsilon, N, jmax):
    """Oracle: rows -jmax..jmax, columns 0..jmax of the normalised rfft2 of the bump.

    Its smallest modulus is the matching objective as a full-grid transform.
    """
    C = sfft.rfft2(_full_grid_bump(epsilon, N))
    C = C / C[0, 0].real
    return C[np.arange(-jmax, jmax + 1) % N, : jmax + 1]


def _fft2_coefficients(epsilon, grid):
    """Oracle: coarse-grid bump coefficients read from the full-grid fft2."""
    C = sfft.fft2(_full_grid_bump(epsilon, grid.N)) / (grid.N * grid.N)
    C = C / C[0, 0].real
    js = coarse_freqs(grid.n) % grid.N
    return C[np.ix_(js, js)]


def test_fejer_closed_form():
    v = fejer_coefficients(32)
    assert v.get(0, 0) == 1.0
    assert v.get(16, 0) == pytest.approx(1 / 17, rel=1e-14)
    assert v.get(16, 16) == pytest.approx(1 / 289, rel=1e-14)
    vals = v.coeffs.real
    assert vals.min() == pytest.approx(1 / 289, rel=1e-14)
    assert np.all(vals > 0) and np.all(vals <= 1)


def test_fejer_spatial_closed_form():
    # F_K(x) = (1/K) (sin(pi K x) / sin(pi x))^2 with K = n/2 + 1, and F_K(0) = K
    n, N = 8, 64
    K = n // 2 + 1
    x = np.arange(N) / N
    with np.errstate(divide="ignore", invalid="ignore"):
        F = np.where(x == 0, K, (np.sin(np.pi * K * x) / np.sin(np.pi * x)) ** 2 / K)
    q = FejerKernel().spatial(GridSpec(n, N))
    assert np.abs(q - np.outer(F, F)).max() <= 1e-12
    assert q.mean() == pytest.approx(1.0, abs=1e-12)


def test_fejer_symmetry():
    v = fejer_coefficients(16)
    for j1 in range(-7, 8):
        for j2 in range(-7, 8):
            assert v.get(j1, j2) == pytest.approx(v.get(abs(j1), abs(j2)), rel=1e-14)


def test_bump_zero_mode_exact():
    grid = GridSpec(16, 256)
    v = bump_coefficients(0.1, grid)
    assert v.get(0, 0) == 1.0  # exact by construction
    assert np.abs(v.coeffs.imag).max() == 0.0
    assert v.conjugate_symmetry_defect() < 1e-12


def test_bump_spatial_properties():
    N, eps = 256, 0.1
    q = bump_spatial(eps, N)
    assert np.all(q >= 0)
    assert np.mean(q) == pytest.approx(1.0, abs=1e-13)
    a = np.arange(N) / N
    r = np.where(a >= 0.5, a - 1.0, a)
    r1, r2 = np.meshgrid(r, r, indexing="ij")
    outside = r1 * r1 + r2 * r2 >= eps * eps
    assert np.all(q[outside] == 0.0)


class _PointMass:
    """A kernel whose whole mass sits on the fine point (a, b)."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def spatial(self, grid):
        q = np.zeros((grid.N, grid.N))
        q[self.a, self.b] = grid.N * grid.N
        return q


@pytest.mark.parametrize(
    "point, d2",
    [((0, 32), 0.25), ((0, 16), 1 / 16), ((60, 61), 25 / 64**2), ((63, 63), 2 / 64**2)],
    ids=["half", "quarter", "wrapped-4-3", "wrapped-1-1"],
)
def test_summability_check_measures_torus_distance(point, d2):
    """A point mass counts as outside B_eta(0) exactly when its squared torus
    distance d2 is at least eta^2: (0, 32) sits at 1/2, and (60, 61) and
    (63, 63) wrap to (-4, -3)/64 and (-1, -1)/64."""
    grid, kernel = GridSpec(8, 64), _PointMass(*point)
    eta = np.sqrt(d2)
    for e in (np.nextafter(eta, 0.0), eta, np.nextafter(eta, 1.0)):
        if e < 0.5:
            assert summability_check(kernel, e, grid) == float(d2 >= e * e), e


def test_bump_resolution_guard():
    with pytest.raises(ResolutionError):
        bump_spatial(0.005, 64)
    with pytest.raises(ValueError):
        bump_spatial(0.7, 256)


def test_summability_bump():
    grid = GridSpec(16, 256)
    k = BumpKernel(0.05)
    assert summability_check(k, 0.1, grid) == 0.0  # support inside eta
    # as eta shrinks toward the grid scale, the outside mass approaches 1
    near_all = summability_check(k, 0.002, grid)
    assert near_all == pytest.approx(1.0, abs=0.05)
    with pytest.raises(ValueError):
        summability_check(k, 0.6, grid)


def test_summability_fejer_decreases_with_n():
    big = summability_check(FejerKernel(), 0.1, GridSpec(16, 256))
    small = summability_check(FejerKernel(), 0.1, GridSpec(64, 256))
    assert small < big


def test_match_epsilon_no_root_for_tiny_order():
    # at n = 2 the Fejer minimum is 1/4, and every bump width in the scan keeps
    # all its coarse coefficients above it
    with pytest.raises(NoRootError, match=r"at n = 2, N = 64 up to epsilon = 0\.25"):
        match_epsilon(2, GridSpec(2, 64))
    # at n = 32, N = 64 the scan starts at 8/N = 0.125, already too wide: every
    # width has a coefficient below the Fejer minimum 3.460e-03
    with pytest.raises(NoRootError) as err:
        match_epsilon(32, GridSpec(32, 64))
    msg = str(err.value)
    assert "n = 32, N = 64" in msg and "minimum 3.460e-03" in msg
    assert "best min |q_hat| is 9.083e-04, short by 2.552e-03" in msg
    assert "8/N = 0.125" in msg and "larger N lowers that floor" in msg


def test_window_bump_equals_full_grid_bump():
    for epsilon, N in [(0.1, 256), (0.067, 512), (0.038, 512), (0.3, 64), (0.49, 128)]:
        q = _full_grid_bump(epsilon, N)
        assert np.array_equal(bump_spatial(epsilon, N), q * (N * N / q.sum()))


@pytest.mark.parametrize("n, N", [(8, 64), (16, 256)])
def test_matching_objective_matches_rfft2_over_the_scan(n, N):
    target = float(np.abs(fejer_coefficients(n).coeffs).min())
    cos = kernels._cosine_table(N, n // 2)
    for eps in np.arange(8.0 / N, 0.25, 1e-4):
        got = float(np.abs(kernels._bump_cosine_block(eps, N, cos)).min())
        want = float(np.abs(_rfft2_block(eps, N, n // 2)).min())
        assert abs(got - want) <= 1e-14, eps
        assert (got - target >= 0) == (want - target >= 0), eps


@pytest.mark.parametrize("n, N", [(8, 64), (16, 128), (16, 256)])
def test_match_epsilon_matches_rfft2_matching(monkeypatch, n, N):
    eps = match_epsilon(n, GridSpec(n, N))
    monkeypatch.setattr(
        kernels, "_bump_cosine_block", lambda e, N, cos: _rfft2_block(e, N, cos.shape[0] - 1)
    )
    assert abs(eps - match_epsilon(n, GridSpec(n, N))) <= 1e-12


@pytest.mark.parametrize("n, N, epsilon", [(16, 256, 0.1), (32, 512, 0.067), (64, 512, 0.038)])
def test_bump_coefficients_match_fft2(n, N, epsilon):
    grid = GridSpec(n, N)
    got = bump_coefficients(epsilon, grid).coeffs.reshape(n, n)
    assert np.abs(got - _fft2_coefficients(epsilon, grid)).max() <= 1e-14
    assert np.abs(got.imag).max() == 0.0


def test_bump_cosine_block_resolution_guard():
    cos = kernels._cosine_table(64, 4)
    with pytest.raises(ResolutionError, match="covers only"):
        kernels._bump_cosine_block(0.005, 64, cos)
    with pytest.raises(ValueError):
        kernels._bump_cosine_block(0.7, 64, cos)


def test_match_epsilon_pins_the_cli_bump_width():
    # the bump width of `anosov variance --scheme bump --n 16 --fine 256`
    eps, residual = match_epsilon(16, GridSpec(16, 256), full_output=True)
    assert abs(eps - 0.09523105128506545) <= 1e-10
    assert abs(residual) <= 1e-13
