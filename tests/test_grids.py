import numpy as np
import pytest

from anosov import (
    GridSpec,
    coarse_freqs,
    evaluate_on_fine,
    forward_transform,
    restrict_to_coarse,
)
from anosov.grids import (
    fine_points,
    freq_index,
    read_grid,
    write_grid,
    write_grid_csv,
)


def test_gridspec_validation():
    GridSpec(16, 64)
    with pytest.raises(ValueError):
        GridSpec(12, 64)
    with pytest.raises(ValueError):
        GridSpec(16, 48)
    with pytest.raises(ValueError):
        GridSpec(32, 16)
    # operator assembly needs the fine grid to hold frequency differences
    with pytest.raises(ValueError, match="N >= 2n"):
        GridSpec(16, 16)
    # {-n/2+1, ..., n/2} is empty at n = 1, and ARPACK needs order n^2 >= 3
    assert coarse_freqs(1).size == 0
    for N in (1, 8):
        with pytest.raises(ValueError, match="coarse order n must be at least 2"):
            GridSpec(1, N)
    GridSpec(2, 4)


def test_coarse_freqs_asymmetric_range():
    js = coarse_freqs(8)
    assert js[0] == -3 and js[-1] == 4
    assert len(js) == 8
    assert freq_index(0, 0, 8) == 3 * 8 + 3
    with pytest.raises(IndexError):
        freq_index(-4, 0, 8)


def test_forward_transform_constant():
    N = 32
    c = forward_transform(np.ones((N, N)))
    m = np.zeros((N, N))
    m[0, 0] = 1.0  # FFT index of frequency 0
    assert np.allclose(c, m, atol=1e-15)


def test_forward_transform_pure_mode():
    N = 32
    X1, _ = fine_points(N)
    c = forward_transform(np.exp(2j * np.pi * X1))
    assert c[1, 0] == pytest.approx(1.0, abs=1e-13)  # (1, 0)
    c[1, 0] = 0.0
    assert np.abs(c).max() < 1e-13


def test_forward_transform_cosine():
    N = 64
    X1, _ = fine_points(N)
    c = restrict_to_coarse(forward_transform(np.cos(4 * np.pi * X1)), 8).ravel()
    assert c[freq_index(2, 0, 8)] == pytest.approx(0.5, abs=1e-14)
    assert c[freq_index(-2, 0, 8)] == pytest.approx(0.5, abs=1e-14)


def test_restrict_keeps_positive_nyquist_only():
    N, n = 32, 8
    fine = np.zeros((N, N), dtype=complex)
    fine[n // 2, 0] = 1.0  # frequency (n/2, 0)
    c = restrict_to_coarse(fine, n)
    assert c.ravel()[freq_index(n // 2, 0, n)] == 1.0
    fine = np.zeros((N, N), dtype=complex)
    fine[N - n // 2, 0] = 1.0  # frequency (-n/2, 0): dropped
    c = restrict_to_coarse(fine, n)
    assert np.abs(c).max() == 0.0


def test_restrict_lays_coarse_coefficients_out_by_freq_index():
    """An (n, n) array whose C-order ravel holds frequency j at freq_index(j),
    read from the fine spectrum's FFT-order index j mod N."""
    n, N = 8, 32
    gen = np.random.default_rng(7)
    F = gen.standard_normal((N, N)) + 1j * gen.standard_normal((N, N))
    c = restrict_to_coarse(F, n)
    assert c.shape == (n, n)
    for j1 in coarse_freqs(n):
        for j2 in coarse_freqs(n):
            assert c.ravel()[freq_index(j1, j2, n)] == F[j1 % N, j2 % N]


def test_evaluate_constant_and_cosine():
    c = np.zeros(64)
    c[freq_index(0, 0, 8)] = 1.0
    grid = evaluate_on_fine(c.reshape(8, 8), 32)
    assert np.allclose(grid, 1.0, atol=1e-14)
    c = np.zeros(64)
    c[[freq_index(2, 0, 8), freq_index(-2, 0, 8)]] = 0.5
    X1, _ = fine_points(32)
    cosine = evaluate_on_fine(c.reshape(8, 8), 32).real
    assert np.allclose(cosine, np.cos(4 * np.pi * X1), atol=1e-13)


def test_round_trip_band_limited(rng):
    n, N = 8, 32
    c = (rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)).reshape(n, n)
    back = restrict_to_coarse(forward_transform(evaluate_on_fine(c, N)), n)
    assert np.abs(back - c).max() < 1e-13


def test_parseval_fine_scale(rng):
    N = 64
    samples = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    c = forward_transform(samples)
    lhs = np.mean(np.abs(samples) ** 2)
    rhs = np.sum(np.abs(c) ** 2)
    assert abs(lhs - rhs) < 1e-12 * lhs


def test_forward_transform_linear(rng):
    N = 32
    f = rng.standard_normal((N, N))
    g = rng.standard_normal((N, N))
    lhs = forward_transform(2.5 * f - 1.25j * g)
    rhs = 2.5 * forward_transform(f) - 1.25j * forward_transform(g)
    assert np.abs(lhs - rhs).max() < 1e-13


def test_conjugate_symmetry_defect_of_real_function(rng, conj_defect):
    N, n = 64, 16
    samples = rng.standard_normal((N, N))
    c = restrict_to_coarse(forward_transform(samples), n)
    assert conj_defect(c.ravel(), n) < 1e-13
    # a complex function is not conjugate-symmetric
    c = restrict_to_coarse(forward_transform(1j * samples), n)
    assert conj_defect(c.ravel(), n) > 1e-3


def test_grid_dump_round_trip(tmp_path, rng):
    real = rng.standard_normal((8, 8))
    cplx = real + 1j * rng.standard_normal((8, 8))
    p1 = tmp_path / "real.grid"
    p2 = tmp_path / "cplx.grid"
    write_grid(p1, real)
    write_grid(p2, cplx)
    assert np.array_equal(read_grid(p1), real)
    assert np.array_equal(read_grid(p2), cplx)
    # on-disk layout: ASCII header line, row-major little-endian float64,
    # complex entries as interleaved (re, im) pairs
    pairs = np.empty((8, 8, 2))
    pairs[..., 0] = cplx.real
    pairs[..., 1] = cplx.imag
    assert p1.read_bytes() == b"GRID 8 8 real\n" + real.astype("<f8").tobytes()
    assert p2.read_bytes() == b"GRID 8 8 complex\n" + pairs.astype("<f8").tobytes()
    csv_path = tmp_path / "real.csv"
    write_grid_csv(csv_path, real)
    loaded = np.loadtxt(csv_path, delimiter=",")
    assert np.array_equal(loaded, real)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("change", ["truncated", "padded"])
def test_grid_dump_payload_size_checked(tmp_path, kind, change):
    samples = np.arange(12.0).reshape(3, 4)
    if kind == "complex":
        samples = samples + 1j
    path = tmp_path / "g.grid"
    write_grid(path, samples)
    data = path.read_bytes()
    path.write_bytes(data[:-8] if change == "truncated" else data + bytes(8))
    with pytest.raises(ValueError, match="GRID payload is"):
        read_grid(path)
