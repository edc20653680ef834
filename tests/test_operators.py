import tracemalloc

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
    TrigPolynomial,
    assemble,
    backend,
    baseline,
    cat_map,
    coarse_freqs,
    standard_observable,
)
from anosov import operators
from anosov.grids import fine_points, freq_index
from anosov.kernels import ResolutionError
from anosov.operators import (
    EXP_GUARD,
    OperatorAssembler,
    SeparableOperator,
    read_opmat,
    write_opmat,
)

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


def _index_pairs(n):
    js = coarse_freqs(n)
    return [(int(a), int(b)) for a in js for b in js]


def test_linear_map_delta_structure(fejer, std_g):
    n = 8
    grid = GridSpec(n, 64)
    M = assemble(cat_map(), fejer, std_g, 0.0, grid)
    q = fejer.coefficients(grid).ravel()
    A_T = np.array([[2, 1], [1, 1]]).T
    lo, hi = -(n // 2) + 1, n // 2
    for (j1, j2) in _index_pairs(n):
        row = M.dense()[freq_index(j1, j2, n)]
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
    assert np.abs(M.dense()[freq_index(0, 0, n)] - e0).max() < 1e-12


def test_apply_matches_delta_structure(fejer, std_g):
    n = 8
    grid = GridSpec(n, 64)
    M = assemble(cat_map(), fejer, std_g, 0.0, grid)
    q = fejer.coefficients(grid).ravel()
    # A^T (1, 1) = (3, 2) lies in the coarse range
    v = np.zeros(n * n, dtype=complex)
    v[freq_index(3, 2, n)] = 1.0
    out = M.entries @ v
    expected = np.zeros(n * n, dtype=complex)
    expected[freq_index(1, 1, n)] = q[freq_index(1, 1, n)]
    assert np.abs(out - expected).max() < 1e-12


def test_zero_mode_preservation_random(perturbed_map, fejer, std_g, rng):
    n = 8
    M = assemble(perturbed_map, fejer, std_g, 0.0, GridSpec(n, 64))
    izero = freq_index(0, 0, n)
    for _ in range(20):
        v = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
        out = M.entries @ v
        assert abs(out[izero] - v[izero]) < 1e-10 * np.linalg.norm(v)


@pytest.mark.parametrize("z", [0.0, 0.3, -0.5])
def test_conjugate_symmetry_real_twists(perturbed_map, fejer, std_g, conj_defect, z):
    M = assemble(perturbed_map, fejer, std_g, z, GridSpec(8, 64))
    assert conj_defect(M.dense(), M.n) < 1e-10


def test_kernel_factorisation(perturbed_map, std_g):
    grid = GridSpec(8, 64)
    Ma = assemble(perturbed_map, FejerKernel(), std_g, 0.0, grid)
    Mb = assemble(perturbed_map, BumpKernel(0.1), std_g, 0.0, grid)
    qa = FejerKernel().coefficients(grid).ravel()
    qb = BumpKernel(0.1).coefficients(grid).ravel()
    mask = (np.abs(Ma.dense()) > 1e-12) & (np.abs(Mb.dense()) > 1e-12)
    ratio = np.where(mask, Ma.dense() / np.where(mask, Mb.dense(), 1.0), 0.0)
    expected = (qa / qb)[:, None] * mask
    assert np.abs(ratio - expected).max() < 1e-9


def test_convergence_in_fine_order(perturbed_map, fejer, std_g):
    n = 16
    M1 = assemble(perturbed_map, fejer, std_g, 0.0, GridSpec(n, 256))
    M2 = assemble(perturbed_map, fejer, std_g, 0.0, GridSpec(n, 512))
    assert np.abs(M1.dense() - M2.dense()).max() < 1e-6


def test_guards(perturbed_map, fejer, std_g):
    with pytest.raises(ValueError):
        assemble(perturbed_map, fejer, std_g, 0.0, GridSpec(32, 32))
    # the mixed-mode weight is summed densely: 68 GB at n = 256, refused
    with pytest.raises(MemoryError, match="dense operator"):
        assemble(perturbed_map, fejer, _MIXED, 0.3, GridSpec(256, 512))
    with pytest.raises(OverflowError):
        assemble(perturbed_map, fejer, std_g, 400.0, GridSpec(8, 64))


def test_mixed_weight_samples_are_reserved(monkeypatch, perturbed_map, fejer):
    """n = 8, N = 512: the dense operator's 0.6 MiB fits a 1 MiB budget, the
    N x N samples of g and of exp(z g) do not; the assembly refuses first."""
    monkeypatch.setattr(operators, "MEMORY_BUDGET", 2**20)
    tracemalloc.start()
    try:
        for derivative in (False, True):
            plan = operators.TwistPlan(perturbed_map, fejer, _MIXED, GridSpec(8, 512))
            with pytest.raises(MemoryError, match="the dense operator needs 17 MiB"):
                plan.operator(0.5, derivative=derivative)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_twist_plan_reserves_its_phases(monkeypatch, perturbed_map, fejer, std_g):
    """n = 8, N = 2^16: the plan's two n x N phase tables take 16 MiB; a 4 MiB
    budget refuses the baseline before they, or anything N-sized, exist."""
    monkeypatch.setattr(operators, "MEMORY_BUDGET", 4 * 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="the twist plan's phases needs 16 MiB"):
            baseline(perturbed_map, fejer, std_g, GridSpec(8, 2**16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("derivative", [False, True])
def test_term_block_transforms_are_reserved(monkeypatch, perturbed_map, fejer, std_g, derivative):
    """n = 8, N = 2^14, the plan built: a 4 MiB budget refuses one term
    block's transform input, output and wrap, R n (2N + n) complex entries
    (just over 4 MiB for L_z, R = 1; 8 MiB for dL/dz, R = 2), before the
    transform."""
    plan = operators.TwistPlan(perturbed_map, fejer, std_g, GridSpec(8, 2**14))
    budget = 4 * 2**20
    monkeypatch.setattr(operators, "MEMORY_BUDGET", budget)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="a term block's transforms"):
            plan.operator(0.3, derivative=derivative)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget


def test_dense_request_is_refused_before_allocation(tmp_path, perturbed_map, fejer, std_g):
    """At n = 128 the factors fit the budget and the 4.3 GB matrix does not:
    dense() and the OPMAT dump raise MemoryError and write nothing."""
    M = assemble(perturbed_map, fejer, std_g, 0.0, GridSpec(128, 256))
    assert isinstance(M.entries, SeparableOperator) and M.entries.shape == (128**2,) * 2
    with pytest.raises(MemoryError, match="dense operator needs 4096 MiB"):
        M.dense()
    path = tmp_path / "op.bin"
    with pytest.raises(MemoryError):
        write_opmat(path, M)
    assert not path.exists()


@pytest.mark.parametrize(
    "derivative, R", [(False, 1), (True, 2)], ids=["operator-1", "derivative-2"]
)
def test_factor_assembly_peak_within_its_byte_estimate(perturbed_map, fejer, std_g, derivative, R):
    """The guard's estimate for the factor form, 3 R n^3 complex entries (two
    factors and one apply's work array), bounds the assembly's own peak: the
    gather allocates nothing of n^3 size besides the factors."""
    n = 128
    tracemalloc.start()
    try:
        plan = operators.TwistPlan(perturbed_map, fejer, std_g, GridSpec(n, 512))
        M = plan.operator(0.3, derivative=derivative)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.entries.G1.shape == (n * n, R, n) and M.entries.G1.flags.c_contiguous
    assert peak <= 3 * 16 * R * n**3


def test_opmat_round_trip(tmp_path, perturbed_map, fejer, std_g):
    M = assemble(perturbed_map, fejer, std_g, 0.25, GridSpec(8, 64))
    path = tmp_path / "op.bin"
    write_opmat(path, M)
    n, z, entries = read_opmat(path)
    assert n == 8 and z == 0.25 + 0.0j
    assert np.array_equal(entries, M.dense())
    pairs = np.empty((64, 64, 2))
    pairs[..., 0] = M.dense().real
    pairs[..., 1] = M.dense().imag
    assert path.read_bytes() == b"OPMAT 8 0.25 0.0\n" + pairs.astype("<f8").tobytes()


def _reference_base(reference, g, z, derivative=False):
    """The brute-force reference's kernel-free base matrix for the weight
    exp(z g), or g exp(z g) with ``derivative``; row j of the operator is
    q_hat(j) times row j of it."""
    gs = g.sample(*fine_points(reference.grid.N))
    w = np.exp(complex(z) * gs)
    return reference.base_matrix(gs * w if derivative else w)


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
    """The one-term weight against the brute-force reference."""
    grid = GridSpec(n, N)
    reference = OperatorAssembler(map_model, grid)
    for z in (0.0, 0.3, -0.5, 0.2 + 0.1j):
        base = _reference_base(reference, std_g, z)
        for kernel in (FejerKernel(), BumpKernel(0.1)):
            if isinstance(kernel, BumpKernel) and N == 16:
                # 9 fine points inside the support: refused before assembly
                with pytest.raises(ResolutionError):
                    assemble(map_model, kernel, std_g, z, grid)
                continue
            q = kernel.coefficients(grid).ravel()
            M = assemble(map_model, kernel, std_g, z, grid)
            assert np.abs(M.dense() - q[:, None] * base).max() <= 1e-13


@pytest.mark.parametrize("n, N", [(8, 64), (16, 256)])
@pytest.mark.parametrize(
    "map_model",
    [PerturbedCat(0.01, "section7"), LinearToral(2, 1, 3, 2)],
    ids=["section7", "linear-2132"],
)
def test_factored_derivative_matches_generic(map_model, n, N, std_g):
    """d/dz L: the two-term weight g1 e^{zg1} e^{zg2} + e^{zg1} g2 e^{zg2}
    against the reference's weight g exp(z g)."""
    grid = GridSpec(n, N)
    reference = OperatorAssembler(map_model, grid)
    g = std_g.shifted(0.1)  # a constant in g1, as in the centered observable
    for z in (0.0, 0.3, -0.5):
        base = _reference_base(reference, g, z, derivative=True)
        for kernel in (FejerKernel(), BumpKernel(0.1)):
            q = kernel.coefficients(grid).ravel()
            dM = operators.TwistPlan(map_model, kernel, g, grid).operator(z, derivative=True)
            assert dM.z == z
            assert np.abs(dM.dense() - q[:, None] * base).max() <= 1e-13


@pytest.mark.parametrize("n, N", [(8, 64), (16, 256)])
@pytest.mark.parametrize(
    "map_model",
    [PerturbedCat(0.01, "section7"), LinearToral(2, 1, 3, 2)],
    ids=["section7", "linear-2132"],
)
def test_column_terms_match_reference(map_model, n, N):
    """A weight that does not separate, from a mixed-mode polynomial or a
    callable: N terms, one per fine column, for L and d/dz L against the
    reference.  The callable wraps the polynomial, so both share one base;
    each takes one of the two kernels."""
    grid = GridSpec(n, N)
    reference = OperatorAssembler(map_model, grid)
    observables = (_MIXED, CallableObservable(_MIXED.sample))
    for z in (0.0, -0.4 + 0.1j):
        for derivative in (False, True):
            base = _reference_base(reference, _MIXED, z, derivative)
            for g, kernel in zip(observables, (FejerKernel(), BumpKernel(0.1))):
                q = kernel.coefficients(grid).ravel()
                plan = operators.TwistPlan(map_model, kernel, g, grid)
                M = plan.operator(z, derivative=derivative)
                assert np.abs(M.dense() - q[:, None] * base).max() <= 1e-13


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("g", [standard_observable(), _MIXED], ids=["separable", "mixed"])
def test_apply_and_adjoint_match_reference(perturbed_map, g, n, rng):
    """entries @ v, the adjoint apply and dense() against the brute-force
    reference.  A separable g, and the mixed one at z = 0, give the factor
    form; the mixed one at z != 0 the dense blocked sum."""
    grid = GridSpec(n, 8 * n)
    reference = OperatorAssembler(perturbed_map, grid)
    v, u = (rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n) for _ in "vu")
    v, u = v / np.linalg.norm(v), u / np.linalg.norm(u)
    for z in (0.0, 0.7, -0.5):
        base = _reference_base(reference, g, z)
        for kernel in (FejerKernel(), BumpKernel(0.3)):
            expected = kernel.coefficients(grid).ravel()[:, None] * base
            M = assemble(perturbed_map, kernel, g, z, grid)
            separable = g is not _MIXED or z == 0.0
            assert isinstance(M.entries, SeparableOperator) == separable
            assert np.abs(M.dense() - expected).max() <= 1e-13
            assert np.abs(M.entries @ v - expected @ v).max() <= 1e-13
            assert np.abs(M.adjoint(u) - expected.conj().T @ u).max() <= 1e-13


@pytest.mark.parametrize("n", [4, 8, 16])
def test_derivative_apply_matches_its_dense_form(perturbed_map, std_g, n, rng):
    """The two-term factor form of d/dz L, applied and adjoint-applied, against
    its own dense() (which the reference tests above check)."""
    grid, g = GridSpec(n, 4 * n), std_g.shifted(0.1)
    v = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
    for z in (0.0, 0.7, -0.5):
        for kernel in (FejerKernel(), BumpKernel(0.3)):
            dM = operators.TwistPlan(perturbed_map, kernel, g, grid).operator(z, derivative=True)
            assert isinstance(dM.entries, SeparableOperator)
            assert dM.entries.G1.shape == (n * n, 2, n)
            D = dM.dense()
            scale = np.abs(D).max() * np.linalg.norm(v)
            assert np.abs(dM.entries @ v - D @ v).max() <= 1e-13 * scale
            assert np.abs(dM.adjoint(v) - D.conj().T @ v).max() <= 1e-13 * scale


@pytest.mark.parametrize(
    "g",
    [
        standard_observable(),
        TrigPolynomial((((1, 1), 0.25), ((-1, -1), 0.25), ((2, 0), 0.5), ((-2, 0), 0.5))),
    ],
    ids=["factored", "generic"],
)
def test_derivative_is_the_central_difference(perturbed_map, fejer, g):
    grid, h = GridSpec(8, 64), 1e-5
    plan = operators.TwistPlan(perturbed_map, fejer, g, grid)
    for z in (0.0, 0.7):
        dM = plan.operator(z, derivative=True).dense()
        hi = assemble(perturbed_map, fejer, g, z + h, grid).dense()
        lo = assemble(perturbed_map, fejer, g, z - h, grid).dense()
        assert np.abs(dM - (hi - lo) / (2 * h)).max() <= 1e-8 * np.abs(dM).max()


_SEPARABLE = TrigPolynomial(
    (((1, 0), 0.3), ((-1, 0), 0.3), ((0, 3), 0.2j), ((0, -3), -0.2j), ((0, 0), -0.1))
)


@pytest.mark.parametrize("n, N", [(8, 64), (16, 256)])
@pytest.mark.parametrize("kernel", [FejerKernel(), BumpKernel(0.1)], ids=["fejer", "bump"])
@pytest.mark.parametrize("g", [standard_observable(), _SEPARABLE], ids=["standard", "separable"])
def test_plan_pair_equals_the_one_shot_assemblies(perturbed_map, kernel, g, n, N):
    """One plan's L_z and dL/dz, from one batch of transforms, are the
    one-shot plans' operator(z) and operator(z, derivative=True) bit for bit,
    and so is its own operator()."""
    grid = GridSpec(n, N)
    plan = operators.TwistPlan(perturbed_map, kernel, g, grid)
    for z in (0.0, 0.3, -2.0, 5.0, 0.2 + 0.1j):
        L, dL = plan.pair(z)
        for got, want in (
            (L, assemble(perturbed_map, kernel, g, z, grid)),
            (plan.operator(z), assemble(perturbed_map, kernel, g, z, grid)),
            (dL, operators.TwistPlan(perturbed_map, kernel, g, grid).operator(z, derivative=True)),
        ):
            assert got.z == want.z == z
            assert got.entries.G1.flags.c_contiguous and got.entries.G2.flags.c_contiguous
            assert np.array_equal(got.entries.G1, want.entries.G1), z
            assert np.array_equal(got.entries.G2, want.entries.G2), z


def test_plan_pair_of_a_mixed_observable_is_the_two_operators(perturbed_map, fejer):
    """The N-term path keeps its arithmetic: its pair is the dense L_z and dL/dz."""
    grid = GridSpec(8, 64)
    plan = operators.TwistPlan(perturbed_map, fejer, _MIXED, grid)
    for z in (0.0, 0.3):
        L, dL = plan.pair(z)
        assert np.array_equal(L.dense(), assemble(perturbed_map, fejer, _MIXED, z, grid).dense())
        one_off = operators.TwistPlan(perturbed_map, fejer, _MIXED, grid)
        want = one_off.operator(z, derivative=True).dense()
        assert isinstance(dL.entries, np.ndarray) and np.array_equal(dL.entries, want)


def test_plan_pair_is_reserved_with_its_copies(monkeypatch, perturbed_map, fejer, std_g):
    """The pair holds the derivative's factors, its apply's work array and
    L_z's two copied columns, 8 n^3 entries: a budget that admits dL/dz's
    6 n^3 refuses the pair before anything is transformed."""
    n = 16
    plan = operators.TwistPlan(perturbed_map, fejer, std_g, GridSpec(n, 64))
    monkeypatch.setattr(operators, "MEMORY_BUDGET", 16 * 7 * n**3)
    assert plan.operator(0.3, derivative=True).entries.G1.shape == (n * n, 2, n)
    with pytest.raises(MemoryError, match="the operator's factors"):
        plan.pair(0.3)


def test_derivative_shares_the_assembly_guards(perturbed_map, fejer, std_g):
    def derivative(g, z, grid):
        return operators.TwistPlan(perturbed_map, fejer, g, grid).operator(z, derivative=True)

    with pytest.raises(OverflowError):
        derivative(std_g, 400.0, GridSpec(8, 64))
    with pytest.raises(ValueError, match="N >= 2n"):
        derivative(std_g, 0.0, GridSpec(8, 8))
    with pytest.raises(MemoryError, match="dense operator"):
        derivative(_MIXED, 0.0, GridSpec(256, 512))


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
    q = fejer.coefficients(grid).ravel()
    expected = q[:, None] * _reference_base(OperatorAssembler(perturbed_map, grid), g, z)
    assert np.isfinite(M.dense()).all()
    assert np.abs(M.dense() - expected).max() <= 1e-13 * np.abs(expected).max()


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
    q = FejerKernel().coefficients(GridSpec(n, N)).ravel()
    col = {int(p): i for i, p in enumerate(freqs)}
    expected = np.empty((n * n, n * n), dtype=complex)
    for i1, j1 in enumerate(js):
        for i2, j2 in enumerate(js):
            m1, m2 = 2 * j1 + j2, j1 + j2
            u1 = U1[i1, [col[m1 - k] for k in js]]
            u2 = U2[i2, [col[m2 - k] for k in js]]
            expected[i1 * n + i2] = q[i1 * n + i2] * np.outer(u1, u2).ravel()
    M = assemble(m, FejerKernel(), std_g, 0.0, GridSpec(n, N))
    assert np.abs(M.dense() - expected).max() <= 1e-12


def test_assembly_dispatch(monkeypatch, perturbed_map, fejer):
    """Every observable goes through the separable-term sum: the reference's
    row fill is never called."""
    calls = [0]
    fill = backend.twisted_rows

    def counting_fill(*args):
        calls[0] += 1
        return fill(*args)

    monkeypatch.setattr(backend, "twisted_rows", counting_fill)
    grid, z = GridSpec(8, 64), 0.3
    std = standard_observable()
    observables = {
        "standard": std,
        "shifted": std.shifted(0.1),
        "mixed": _MIXED,
        "callable": CallableObservable(lambda x1, x2: std.sample(x1, x2)),
    }
    results = {}
    for name, g in observables.items():
        M = assemble(perturbed_map, fejer, g, z, grid)
        dM = operators.TwistPlan(perturbed_map, fejer, g, grid).operator(z, derivative=True)
        assert calls[0] == 0, name
        assert np.isfinite(M.dense()).all() and np.isfinite(dM.dense()).all(), name
        results[name] = M.dense()
    # the callable wraps the standard observable: same operator either way
    assert np.abs(results["callable"] - results["standard"]).max() <= 1e-13
