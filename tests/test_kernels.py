import numpy as np
import pytest

from anosov import (
    BumpKernel,
    FejerKernel,
    GridSpec,
    bump_coefficients,
    fejer_coefficients,
    match_epsilon,
    summability_check,
)
from anosov.kernels import NoRootError, ResolutionError, _torus_radius2, bump_spatial


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


def test_torus_radius2_is_shared_read_only():
    d2 = _torus_radius2(64)
    assert not d2.flags.writeable
    with pytest.raises(ValueError):
        d2[0, 0] = 1.0
    assert _torus_radius2(64) is d2
    assert d2[0, 32] == 0.25 and d2[63, 63] == 2 / 64**2


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
    # at n = 2 the Fejer minimum is 1/4, far above any bump coefficient
    with pytest.raises(NoRootError):
        match_epsilon(2, GridSpec(2, 64))
