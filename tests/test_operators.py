import numpy as np
import pytest
import scipy.special

from anosov import (
    BumpKernel,
    CallableObservable,
    FejerKernel,
    GridSpec,
    LinearToral,
    PerturbedCat,
    SpectralVector,
    TrigPolynomial,
    apply,
    assemble,
    backend,
    cat_map,
    coarse_freqs,
    standard_observable,
)
from anosov.grids import fine_points, freq_index
from anosov.kernels import ResolutionError
from anosov.operators import EXP_GUARD, get_assembler, read_opmat, write_opmat


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


def _generic_entries(map_model, kernel, g, z, grid):
    """The generic path run alone: the cached base matrix scaled by q_hat."""
    z = complex(z)
    if z == 0:
        w = np.ones((grid.N, grid.N), dtype=complex)
    else:
        w = np.exp(z * g.sample(*fine_points(grid.N)))
    q = kernel.coefficients(grid).coeffs.real
    return q[:, None] * get_assembler(map_model, grid).base_matrix(w)


@pytest.mark.parametrize("n, N", [(8, 16), (8, 64), (16, 256)])
@pytest.mark.parametrize(
    "map_model",
    [
        PerturbedCat(0.01, "section7"),
        PerturbedCat(0.01, "appendix"),
        cat_map(),
        LinearToral(1, 1, 1, 2),
        LinearToral(2, 1, 3, 2),  # not symmetric: tells A^T j from A j
    ],
    ids=["section7", "appendix", "cat", "linear-1112", "linear-2132"],
)
def test_factored_assembly_matches_generic(map_model, n, N, std_g):
    grid = GridSpec(n, N)
    for z in (0.0, 0.3, -0.5, 0.2 + 0.1j):
        for kernel in (FejerKernel(), BumpKernel(0.1)):
            if isinstance(kernel, BumpKernel) and N == 16:
                # 9 fine points inside the support: refused before dispatch
                with pytest.raises(ResolutionError):
                    assemble(map_model, kernel, std_g, z, grid)
                continue
            M = assemble(map_model, kernel, std_g, z, grid)
            expected = _generic_entries(map_model, kernel, std_g, z, grid)
            assert np.abs(M.entries - expected).max() <= 1e-13


def test_factored_assembly_near_the_exp_guard(perturbed_map, fejer):
    """exp(z g) passes the guard while exp(z g2) alone would overflow."""
    N = 64
    x = np.arange(N) / N
    spike = sum(np.cos(2 * np.pi * k * x) for k in range(1, 5))  # max 4, min -1.5
    const = -(spike.max() + spike.min()) / 2
    modes = [((0, k), 0.5) for k in (1, 2, 3, 4, -1, -2, -3, -4)] + [((0, 0), const)]
    g = TrigPolynomial(tuple(modes))
    z = 690.0 / np.abs(g.sample(*fine_points(N))).max()
    assert z * spike.max() > 710.0
    grid = GridSpec(8, N)
    M = assemble(perturbed_map, fejer, g, z, grid)
    expected = _generic_entries(perturbed_map, fejer, g, z, grid)
    assert np.isfinite(M.entries).all()
    assert np.abs(M.entries - expected).max() <= 1e-13 * np.abs(expected).max()


def test_exp_guard_from_separable_parts(monkeypatch, perturbed_map, fejer):
    """The 1-D guard decides as the N x N guard does, and never samples g on N x N."""
    grid, g = GridSpec(8, 64), standard_observable()
    wrapped = CallableObservable(g.sample)
    z_edge = EXP_GUARD / np.abs(g.sample(*fine_points(grid.N))).max()
    for z in (z_edge * (1 - 1e-9), z_edge * (1 + 1e-9), -z_edge * (1 + 1e-9)):
        raised = []
        for obs in (g, wrapped):
            try:
                assemble(perturbed_map, fejer, obs, z, grid)
                raised.append(False)
            except OverflowError:
                raised.append(True)
        assert raised[0] == raised[1] == (abs(z) > z_edge), z

    shapes = []
    sample = TrigPolynomial.sample

    def recording_sample(self, x1, x2):
        shapes.append(np.broadcast(x1, x2).shape)
        return sample(self, x1, x2)

    monkeypatch.setattr(TrigPolynomial, "sample", recording_sample)
    for z in (0.0, 0.3, -0.5, 0.2 + 0.1j):
        assemble(perturbed_map, fejer, g, z, grid)
    assert shapes and all(shape == (grid.N,) for shape in shapes)


def _jacobi_anger_factors(delta, amp, n, freqs):
    """Closed-form U1[j1, p] and U2[j2, p] at z = 0 for the perturbed cat map.

    exp(-i b cos 2 pi x) = sum_m (-i)^m J_m(b) e^{2 pi i m x} with
    b = 2 pi j1 amp delta, and exp(-i b sin t) = sum_m J_m(b) e^{-i m t} with
    t = 4 pi x + 1 and b = 2 pi j2 delta, so frequency p = -2m.
    """
    js = coarse_freqs(n)
    U1 = (-1j) ** freqs * scipy.special.jv(freqs, 2 * np.pi * amp * delta * js[:, None])
    half = -freqs // 2
    U2 = np.where(
        freqs % 2 == 0,
        scipy.special.jv(half, 2 * np.pi * delta * js[:, None]) * np.exp(-1j * half),
        0.0,
    )
    return U1, U2


def test_jacobi_anger_cross_check_at_zero_twist(std_g):
    """U at z = 0 from its Bessel expansion, independent of both assembly paths."""
    m = PerturbedCat(0.01, "section7")
    n, N = 8, 64
    js = coarse_freqs(n)
    freqs = np.arange(-(N // 2) + 1, N // 2 + 1)
    U1, U2 = _jacobi_anger_factors(m.delta, m.cos_amp, n, freqs)
    _, phi1, phi2 = m.separable_parts()
    x = np.arange(N) / N
    for phi, U in ((phi1, U1), (phi2, U2)):
        sampled = np.fft.fft(np.exp(-2j * np.pi * js[:, None] * phi(x)), axis=-1) / N
        assert np.abs(sampled[:, freqs % N] - U).max() <= 1e-12

    # the whole matrix: L[j, k] = q(j) U1[j1, (A^T j)_1 - k1] U2[j2, (A^T j)_2 - k2]
    q = FejerKernel().coefficients(GridSpec(n, N)).coeffs.real
    col = {int(p): i for i, p in enumerate(freqs)}
    expected = np.empty((n * n, n * n), dtype=complex)
    for i1, j1 in enumerate(js):
        for i2, j2 in enumerate(js):
            m1, m2 = 2 * j1 + j2, j1 + j2
            u1 = U1[i1, [col[m1 - k] for k in js]]
            u2 = U2[i2, [col[m2 - k] for k in js]]
            expected[i1 * n + i2] = q[i1 * n + i2] * np.outer(u1, u2).ravel()
    M = assemble(m, FejerKernel(), std_g, 0.0, GridSpec(n, N))
    assert np.abs(M.entries - expected).max() <= 1e-12


def test_assembly_dispatch(monkeypatch, perturbed_map, fejer):
    calls = [0]
    fill = backend.twisted_rows

    def counting_fill(*args):
        calls[0] += 1
        return fill(*args)

    monkeypatch.setattr(backend, "twisted_rows", counting_fill)
    grid, z = GridSpec(8, 64), 0.3
    std = standard_observable()
    observables = {
        "standard": (std, True),
        "shifted": (std.shifted(0.1), True),
        "mixed": (
            TrigPolynomial((((1, 1), 0.25), ((-1, -1), 0.25), ((2, 0), 0.5), ((-2, 0), 0.5))),
            False,
        ),
        "callable": (CallableObservable(lambda x1, x2: std.sample(x1, x2)), False),
    }
    results = {}
    for name, (g, factored) in observables.items():
        get_assembler.cache_clear()
        calls[0] = 0
        M = assemble(perturbed_map, fejer, g, z, grid)
        assert (calls[0] == 0) == factored, name
        generic = _generic_entries(perturbed_map, fejer, g, z, grid)
        if factored:
            assert np.abs(M.entries - generic).max() <= 1e-13, name
        else:
            assert np.array_equal(M.entries, generic), name
        results[name] = M.entries
    # the callable wraps the standard observable: same operator either way
    assert np.abs(results["callable"] - results["standard"]).max() <= 1e-13
