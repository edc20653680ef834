import numpy as np
import pytest

from anosov import (
    BumpKernel,
    FejerKernel,
    GridSpec,
    SpectralVector,
    apply,
    assemble,
    cat_map,
    coarse_freqs,
)
from anosov.grids import freq_index
from anosov.operators import get_assembler, read_opmat, write_opmat


def _index_pairs(n):
    js = coarse_freqs(n)
    return [(int(a), int(b)) for a in js for b in js]


def test_linear_map_delta_structure(fejer, std_g):
    n = 8
    grid = GridSpec(n, 64)
    M = assemble(cat_map(), fejer, std_g, 0.0, grid)
    q = fejer.coefficients(grid).coeffs.real
    A_T = np.array([[2, 1], [1, 1]]).T
    lo, hi = -(n // 2) + 1, n // 2
    for (j1, j2) in _index_pairs(n):
        row = M.entries[freq_index(j1, j2, n)]
        k1, k2 = A_T @ np.array([j1, j2])
        expected = np.zeros(n * n, dtype=complex)
        if lo <= k1 <= hi and lo <= k2 <= hi:
            expected[freq_index(int(k1), int(k2), n)] = q[freq_index(j1, j2, n)]
        assert np.abs(row - expected).max() < 1e-12


def test_zero_mode_row_is_coordinate_vector(perturbed_map, fejer, std_g):
    n = 8
    M = assemble(perturbed_map, fejer, std_g, 0.0, GridSpec(n, 64))
    e0 = np.zeros(n * n)
    e0[freq_index(0, 0, n)] = 1.0
    assert np.abs(M.entries[freq_index(0, 0, n)] - e0).max() < 1e-12


def test_apply_matches_delta_structure(fejer, std_g):
    n = 8
    grid = GridSpec(n, 64)
    M = assemble(cat_map(), fejer, std_g, 0.0, grid)
    q = fejer.coefficients(grid).coeffs.real
    # A^T (1, 1) = (3, 2) lies in the coarse range
    v = SpectralVector.from_modes(n, {(3, 2): 1.0})
    out = apply(M, v)
    expected = np.zeros(n * n, dtype=complex)
    expected[freq_index(1, 1, n)] = q[freq_index(1, 1, n)]
    assert np.abs(out.coeffs - expected).max() < 1e-12
    zero = apply(M, SpectralVector(n, np.zeros(n * n)))
    assert np.abs(zero.coeffs).max() == 0.0


def test_zero_mode_preservation_random(perturbed_map, fejer, std_g, rng):
    n = 8
    M = assemble(perturbed_map, fejer, std_g, 0.0, GridSpec(n, 64))
    for _ in range(20):
        v = SpectralVector(n, rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n))
        out = apply(M, v)
        assert abs(out.get(0, 0) - v.get(0, 0)) < 1e-10 * np.linalg.norm(v.coeffs)


def _conjugate_symmetry_defect(M):
    n = M.n
    worst = 0.0
    js = [j for j in coarse_freqs(n) if -j in coarse_freqs(n)]
    for j1 in js:
        for j2 in js:
            r1 = freq_index(j1, j2, n)
            r2 = freq_index(-j1, -j2, n)
            for k1 in js:
                for k2 in js:
                    c1 = M.entries[r1, freq_index(k1, k2, n)]
                    c2 = M.entries[r2, freq_index(-k1, -k2, n)]
                    worst = max(worst, abs(c2 - np.conj(c1)))
    return worst


@pytest.mark.parametrize("z", [0.0, 0.3, -0.5])
def test_conjugate_symmetry_real_twists(perturbed_map, fejer, std_g, z):
    M = assemble(perturbed_map, fejer, std_g, z, GridSpec(8, 64))
    assert _conjugate_symmetry_defect(M) < 1e-10


def test_kernel_factorisation(perturbed_map, std_g):
    grid = GridSpec(8, 64)
    Ma = assemble(perturbed_map, FejerKernel(), std_g, 0.0, grid)
    Mb = assemble(perturbed_map, BumpKernel(0.1), std_g, 0.0, grid)
    qa = FejerKernel().coefficients(grid).coeffs.real
    qb = BumpKernel(0.1).coefficients(grid).coeffs.real
    mask = (np.abs(Ma.entries) > 1e-12) & (np.abs(Mb.entries) > 1e-12)
    ratio = np.where(mask, Ma.entries / np.where(mask, Mb.entries, 1.0), 0.0)
    expected = (qa / qb)[:, None] * mask
    assert np.abs(ratio - expected).max() < 1e-9


def test_convergence_in_fine_order(perturbed_map, fejer, std_g):
    n = 16
    M1 = assemble(perturbed_map, fejer, std_g, 0.0, GridSpec(n, 256))
    M2 = assemble(perturbed_map, fejer, std_g, 0.0, GridSpec(n, 512))
    assert np.abs(M1.entries - M2.entries).max() < 1e-6


def test_guards(perturbed_map, fejer, std_g):
    with pytest.raises(ValueError):
        assemble(perturbed_map, fejer, std_g, 0.0, GridSpec(32, 32))
    with pytest.raises(MemoryError):
        assemble(perturbed_map, fejer, std_g, 0.0, GridSpec(256, 512))
    with pytest.raises(OverflowError):
        assemble(perturbed_map, fejer, std_g, 400.0, GridSpec(8, 64))


def test_opmat_round_trip(tmp_path, perturbed_map, fejer, std_g):
    M = assemble(perturbed_map, fejer, std_g, 0.25, GridSpec(8, 64))
    path = tmp_path / "op.bin"
    write_opmat(path, M)
    n, z, entries = read_opmat(path)
    assert n == 8 and z == 0.25 + 0.0j
    assert np.array_equal(entries, M.entries)
    pairs = np.empty((64, 64, 2))
    pairs[..., 0] = M.entries.real
    pairs[..., 1] = M.entries.imag
    assert path.read_bytes() == b"OPMAT 8 0.25 0.0\n" + pairs.astype("<f8").tobytes()


def test_assembler_cache_keeps_the_two_most_recently_used(perturbed_map):
    g1, g2, g3 = GridSpec(8, 64), GridSpec(8, 128), GridSpec(16, 64)
    first = get_assembler(perturbed_map, g1)
    assert get_assembler(perturbed_map, g1) is first
    get_assembler(perturbed_map, g2)
    assert get_assembler(perturbed_map, g1) is first  # g1 is now the most recent
    get_assembler(perturbed_map, g3)  # evicts g2, the least recently used
    assert get_assembler.cache_info().currsize <= 2
    assert get_assembler(perturbed_map, g1) is first
