import functools
import json
import tracemalloc

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
    operators,
    summability_check,
)
from anosov.cli import main
from anosov.grids import freq_index
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
    vals = fejer_coefficients(32)
    v = vals.ravel()
    assert v[freq_index(0, 0, 32)] == 1.0
    assert v[freq_index(16, 0, 32)] == pytest.approx(1 / 17, rel=1e-14)
    assert v[freq_index(16, 16, 32)] == pytest.approx(1 / 289, rel=1e-14)
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
    v = fejer_coefficients(16).ravel()
    for j1 in range(-7, 8):
        for j2 in range(-7, 8):
            want = v[freq_index(abs(j1), abs(j2), 16)]
            assert v[freq_index(j1, j2, 16)] == pytest.approx(want, rel=1e-14)


def test_bump_zero_mode_exact(conj_defect):
    grid = GridSpec(16, 256)
    c = bump_coefficients(0.1, grid)
    assert c.ravel()[freq_index(0, 0, 16)] == 1.0  # exact by construction
    assert conj_defect(c.ravel(), 16) < 1e-12


@pytest.mark.parametrize("kernel", [FejerKernel(), BumpKernel(0.1)], ids=["fejer", "bump"])
@pytest.mark.parametrize("n", [2, 8, 16])
def test_kernel_coefficients_are_real_coarse_arrays(kernel, n):
    """Real float64 (n, n) arrays, zero mode at [n/2 - 1, n/2 - 1] exactly 1."""
    c = kernel.coefficients(GridSpec(n, 256))
    assert c.dtype == np.float64 and c.shape == (n, n)
    assert c[n // 2 - 1, n // 2 - 1] == 1.0


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
        match_epsilon(GridSpec(2, 64))
    # at n = 32, N = 64 the scan starts at 8/N = 0.125, already too wide: every
    # width has a coefficient below the Fejer minimum 3.460e-03
    with pytest.raises(NoRootError) as err:
        match_epsilon(GridSpec(32, 64))
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
    """Each group of scan widths that share the window h = floor(eps N) is one
    batched block; every width's minimum agrees with the full-grid rfft2."""
    target = float(fejer_coefficients(n).min())
    cos = kernels._cosine_table(N, n // 2)
    scan = np.arange(8.0 / N, 0.25, 1e-4)
    h = (scan * N).astype(int)
    for widths in (scan[h == k] for k in np.unique(h)):
        got = np.abs(kernels._bump_cosine_block(widths, N, cos)).min(axis=(1, 2))
        for eps, g in zip(widths, got):
            want = float(np.abs(_rfft2_block(eps, N, n // 2)).min())
            assert abs(g - want) <= 1e-14, eps
            assert (g - target >= 0) == (want - target >= 0), eps


@pytest.mark.parametrize("n, N", [(8, 64), (16, 128), (16, 256)])
def test_match_epsilon_matches_rfft2_matching(monkeypatch, n, N):
    eps, _ = match_epsilon(GridSpec(n, N))

    def oracle(widths, N, cos, work=None):
        return np.array([_rfft2_block(e, N, cos.shape[0] - 1) for e in np.atleast_1d(widths)])

    monkeypatch.setattr(kernels, "_bump_cosine_block", oracle)
    assert abs(eps - match_epsilon(GridSpec(n, N))[0]) <= 1e-12


@pytest.mark.parametrize(
    "n, N, epsilon",
    [
        (8, 64, 0.1520224129855905),
        (16, 128, 0.09523420563492524),
        (16, 256, 0.09523105128506545),
        (32, 512, 0.06707628247964093),
        (64, 512, 0.03654342296251824),
        (128, 512, 0.020027170877014853),
    ],
)
def test_match_epsilon_keeps_its_widths(n, N, epsilon):
    """The matched widths of the one-width-at-a-time full-window scan, to the bit."""
    assert match_epsilon(GridSpec(n, N))[0] == epsilon


def test_match_epsilon_empty_scan_has_no_root():
    # at N = 32 the scan [8/N, 0.25) holds no width at all
    with pytest.raises(NoRootError, match=r"8/N = 0\.25"):
        match_epsilon(GridSpec(8, 32))


@pytest.mark.parametrize("n, N", [(8, 32), (4, 16)])
def test_match_epsilon_empty_scan_claims_no_best_coefficient(n, N):
    """An empty scan computed no min |q_hat|, so the refusal reports none:
    it says that no width was scanned, and where the scan would start."""
    with pytest.raises(NoRootError) as err:
        match_epsilon(GridSpec(n, N))
    msg = str(err.value)
    assert "no bump width is scanned" in msg and f"n = {n}, N = {N}" in msg
    assert "best min |q_hat|" not in msg and "short by" not in msg


def test_match_epsilon_scans_in_one_window_buffer():
    """The scan and the bisection write every window into one buffer sized
    for the largest group: the traced peak stays near that one window, where
    a fresh window per group, with its temporaries, peaks at twice it."""
    grid = GridSpec(16, 256)
    scan = np.arange(8.0 / grid.N, 0.25, 1e-4)
    h = (scan * grid.N).astype(int)
    window = 8 * max(np.count_nonzero(h == k) * (k + 1) ** 2 for k in np.unique(h))
    match_epsilon(grid)  # warm
    tracemalloc.start()
    try:
        match_epsilon(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * window, (peak, window)


@pytest.mark.parametrize("kernel", [FejerKernel(), BumpKernel(0.1)], ids=["fejer", "bump"])
def test_summability_check_reserves_its_fine_grids(monkeypatch, kernel):
    """At N = 2048 the kernel's N x N samples and the check's mask take tens
    of MiB; a 4 MiB budget refuses them before they exist."""
    budget = 4 * 2**20
    monkeypatch.setattr(operators, "MEMORY_BUDGET", budget)
    grid = GridSpec(8, 2048)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="the summability mask"):
            summability_check(kernel, 0.1, grid)
        with pytest.raises(MemoryError, match="fine-grid"):
            kernel.spatial(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget


def test_match_epsilon_reserves_the_bump_window(monkeypatch, tmp_path, capsys):
    """The window arrays are checked against the budget before allocation;
    the CLI reports the refusal with exit code 2."""
    monkeypatch.setattr(operators, "MEMORY_BUDGET", 2**20)
    with pytest.raises(MemoryError, match="the bump window needs"):
        match_epsilon(GridSpec(256, 2048))
    argv = ["variance", "--scheme", "bump", "--n", "256", "--fine", "2048"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "MemoryError"


@pytest.mark.parametrize("n, N, epsilon", [(16, 256, 0.1), (32, 512, 0.067), (64, 512, 0.038)])
def test_bump_coefficients_match_fft2(n, N, epsilon):
    grid = GridSpec(n, N)
    got = bump_coefficients(epsilon, grid)
    assert np.abs(got - _fft2_coefficients(epsilon, grid)).max() <= 1e-14
    assert got.dtype == np.float64


def test_bump_cosine_block_resolution_guard():
    cos = kernels._cosine_table(64, 4)
    with pytest.raises(ResolutionError, match="covers only"):
        kernels._bump_cosine_block(0.005, 64, cos)
    # a batch is refused when its narrowest width is under-resolved
    with pytest.raises(ResolutionError, match="width 0.005 covers only"):
        kernels._bump_cosine_block(np.array([0.0155, 0.005]), 64, cos)
    with pytest.raises(ValueError):
        kernels._bump_cosine_block(0.7, 64, cos)


def test_match_epsilon_pins_the_cli_bump_width():
    # the bump width of `anosov variance --scheme bump --n 16 --fine 256`
    eps, residual = match_epsilon(GridSpec(16, 256))
    assert abs(eps - 0.09523105128506545) <= 1e-10
    assert abs(residual) <= 1e-13
