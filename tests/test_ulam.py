import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import anosov.ulam as ulam_mod
from anosov import (
    CallableObservable,
    LinearToral,
    PerturbedCat,
    build_ulam,
    cat_map,
    ulam_srb,
    ulam_variance,
)
from anosov.cli import main
from anosov.stats import SingularSolveError
from anosov.torus import MapModel, mod1


class Translation(MapModel):
    """Test helper: rigid translation of the torus.

    ``image_arrays`` is spelled out for the pointwise oracle; the build reads
    ``separable_parts``, whose sums (1 x1 + 0 x2) + t1 round as x1 + t1 does.
    """

    def __init__(self, t1, t2):
        self.t1, self.t2 = t1, t2

    def image_arrays(self, x1, x2):
        return mod1(x1 + self.t1), mod1(x2 + self.t2)

    def separable_parts(self):
        return (
            np.eye(2, dtype=np.int64),
            lambda x1: np.full_like(x1, self.t1),
            lambda x2: np.full_like(x2, self.t2),
        )


def _csr(P):
    """A TransitionMatrix as a scipy csr_matrix, for the oracles and dense views."""
    return sp.csr_matrix((P.data, (P.rows, P.cols)), shape=P.shape)


def _power_srb(P, tol=1e-14, max_iter=100_000):
    """Reference density: power iteration on P^T from the uniform vector.

    Stops when the normalised update moves by less than tol in l1.
    """
    nboxes = P.shape[0]
    PT = _csr(P).T.tocsr()
    pi = np.full(nboxes, 1.0 / nboxes)
    for _ in range(max_iter):
        new = PT @ pi
        new /= new.sum()
        if np.abs(new - pi).sum() < tol:
            return new * nboxes
        pi = new
    raise AssertionError("reference power iteration did not converge")


def test_identity_map_gives_identity_matrix():
    P = build_ulam(LinearToral(1, 0, 0, 1), 4, 16)
    assert np.array_equal(_csr(P).toarray(), np.eye(16))


def test_row_sums_exact():
    P = build_ulam(cat_map(), 2, 4)
    sums = np.asarray(_csr(P).sum(axis=1)).ravel()
    assert np.allclose(sums, 1.0, atol=1e-12)
    data = _csr(P).toarray()
    assert np.all(data >= 0) and np.all(data <= 1)


def test_translation_gives_permutation():
    m = 8
    P = _csr(build_ulam(Translation(1.0 / m, 0.0), m, 16)).toarray()
    perm = np.zeros((m * m, m * m))
    for i1 in range(m):
        for i2 in range(m):
            perm[i1 * m + i2, ((i1 + 1) % m) * m + i2] = 1.0
    assert np.array_equal(P, perm)


def test_stochastic_leading_eigenvalue():
    vals = np.linalg.eigvals(_csr(build_ulam(cat_map(), 8, 16)).toarray())
    assert np.abs(vals).max() == pytest.approx(1.0, abs=1e-12)


def test_srb_uniform_for_linear_map():
    density = ulam_srb(build_ulam(cat_map(), 16, 100))
    assert np.allclose(density, 1.0, atol=1e-8)
    assert density.sum() == pytest.approx(16 * 16, rel=1e-12)
    assert density.min() >= -1e-12


def test_build_deterministic(perturbed_map):
    a = build_ulam(perturbed_map, 8, 16)
    b = build_ulam(perturbed_map, 8, 16)
    for attr in ("rows", "cols", "data"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr


@pytest.mark.parametrize("m", [2, 8, 16])
def test_build_returns_the_csr_transition_matrix(perturbed_map, m):
    """P is a TransitionMatrix whose entries are in csr order: by row, then by
    column, each (row, column) once; its applies are those of scipy's csr."""
    P = build_ulam(perturbed_map, m, 16)
    assert isinstance(P, ulam_mod.TransitionMatrix)
    assert P.shape == (m * m, m * m) and P.data.dtype == np.float64
    keys = P.rows * m * m + P.cols
    assert np.all(np.diff(keys) > 0)
    csr = _csr(P)
    assert np.array_equal(csr.indices, P.cols) and np.array_equal(csr.data, P.data)
    v = np.random.default_rng(0).standard_normal(m * m)
    assert np.allclose(P @ v, csr @ v, rtol=1e-15, atol=1e-15)
    assert np.allclose(P.T @ v, csr.T @ v, rtol=1e-15, atol=1e-15)


def test_build_validates_arguments(perturbed_map):
    with pytest.raises(ValueError):
        build_ulam(perturbed_map, 12, 16)
    with pytest.raises(ValueError):
        build_ulam(perturbed_map, 8, 15)
    # one box partitions nothing; no samples, no counts
    for m, k in ((1, 16), (8, 0), (8, -4)):
        with pytest.raises(ValueError, match=f"got {min(m, k)}"):
            build_ulam(perturbed_map, m, k)


def test_build_reserves_its_arrays(tmp_path, capsys):
    """The row buffers (m k samples) and the m^2 arrays are checked against
    the budget before anything is allocated; the CLI exits 2."""
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="the Ulam matrix needs"):
            build_ulam(cat_map(), 32768, 1)  # 2^30 boxes
        argv = ["ulam", "--boxes", "2", "--samples", str(2**40)]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MemoryError" and "the Ulam matrix needs" in err["message"]
    assert not (tmp_path / "ulam_density.grid").exists()


@pytest.mark.parametrize("m", [16, 32])
def test_ulam_srb_refuses_a_chain_that_does_not_mix(perturbed_map, m):
    """One sample per box makes P a map of the boxes into themselves; its
    cycles leave P^T eigenvalues of modulus one besides 1, and the density
    series raises instead of returning a density."""
    with pytest.raises(SingularSolveError, match="did not converge"):
        ulam_srb(build_ulam(perturbed_map, m, 1))


@pytest.mark.parametrize("m, k", [(16, 100), (8, 16), (64, 1600)])
def test_ulam_srb_keeps_the_uniform_density_of_mixing_cat_chains(linear_cat, m, k):
    """The cat map preserves area, so P is doubly stochastic and its series
    from the uniform start stops at once; the chain mixes, so the check from a
    non-constant start passes and the density stays exactly uniform."""
    P = build_ulam(linear_cat, m, k)
    assert np.all(np.asarray(_csr(P).sum(axis=0)).ravel() == 1.0)
    assert np.array_equal(ulam_srb(P), np.ones(m * m))


@pytest.mark.parametrize(
    "map_model, m, k",
    [(cat_map(), 16, 1), (LinearToral(1, 0, 0, 1), 8, 16), (LinearToral(2, 1, 3, 2), 32, 4)],
    ids=["cat-permutation", "identity", "linear-two-unit-modes"],
)
def test_ulam_srb_refuses_a_doubly_stochastic_chain_that_does_not_mix(map_model, m, k):
    """P^T fixes the uniform vector here as well, but has another eigenvalue
    of modulus one, so the invariant density is not unique."""
    P = build_ulam(map_model, m, k)
    assert np.all(np.asarray(_csr(P).sum(axis=0)).ravel() == 1.0)
    with pytest.raises(SingularSolveError, match="did not converge"):
        ulam_srb(P)


def test_ulam_variance_linear_oracle(linear_cat, std_g):
    res, _ = ulam_variance(linear_cat, 64, 1600, std_g)
    assert res.sigma2 == pytest.approx(1.0, abs=0.02)
    assert abs(res.mean_shift) < 1e-10


def test_ulam_srb_perturbed_density_positive(perturbed_map):
    density = ulam_srb(build_ulam(perturbed_map, 16, 64))
    assert density.min() >= -1e-12
    assert density.sum() == pytest.approx(256.0, rel=1e-12)


@pytest.mark.parametrize("m", [16, 32])
def test_ulam_srb_matches_power_iteration(perturbed_map, std_g, monkeypatch, m):
    P = build_ulam(perturbed_map, m, 64)
    density = ulam_srb(P)
    assert np.abs(density - _power_srb(P)).max() <= 1e-12
    sigma2 = ulam_variance(perturbed_map, m, 64, std_g)[0].sigma2
    monkeypatch.setattr(ulam_mod, "ulam_srb", _power_srb)
    assert abs(ulam_variance(perturbed_map, m, 64, std_g)[0].sigma2 - sigma2) <= 1e-12


@pytest.mark.parametrize("m", [16, 32])
def test_separable_box_means_match_sampled_means(perturbed_map, std_g, m):
    # CallableObservable has no separable parts, so it samples every box.
    sampled = CallableObservable(std_g.sample)
    _, gbox = ulam_mod._build(perturbed_map, m, 1600, std_g)
    _, oracle = ulam_mod._build(perturbed_map, m, 1600, sampled)
    assert np.abs(gbox - oracle).max() <= 1e-14
    a, a_density = ulam_variance(perturbed_map, m, 1600, std_g)
    b, b_density = ulam_variance(perturbed_map, m, 1600, sampled)
    assert abs(a.sigma2 - b.sigma2) <= 1e-12
    assert np.array_equal(a_density, b_density)


# -- oracles: the pointwise build and the sparse LU solve ---------------------


def _pointwise_build(map_model, m, k, g):
    """(P, box means of g) with every sample coordinate spelled out.

    Each row of boxes evaluates the map on full (m, k) coordinate arrays, and
    a g without separable parts is sampled on them: the oracle for the
    broadcast lattice of ``ulam._build``.
    """
    ks = int(round(np.sqrt(k)))
    off = (np.arange(ks) + 0.5) / (m * ks)
    o1, o2 = (o.ravel() for o in np.meshgrid(off, off, indexing="ij"))
    nboxes = m * m
    keys, counts = [], []
    parts = g.separable_parts()
    gbox = np.empty(nboxes)
    if parts is not None:
        x = (np.arange(m)[:, None] / m + off).ravel()
        g1, g2 = (gi(x).reshape(m, ks).mean(axis=1) for gi in parts)
        gbox = np.add.outer(g1, g2).ravel()
    for i1 in range(m):
        x1 = (i1 / m + o1)[None, :] + np.zeros((m, 1))
        x2 = (np.arange(m)[:, None] / m) + o2[None, :]
        y1, y2 = map_model.image_arrays(x1, x2)
        dest = (y1 * m).astype(np.int64) % m * m + (y2 * m).astype(np.int64) % m
        if parts is None:
            gbox[i1 * m : (i1 + 1) * m] = g.sample(x1, x2).mean(axis=1)
        boxes = np.arange(i1 * m, (i1 + 1) * m, dtype=np.int64)
        uniq, c = np.unique((boxes[:, None] * nboxes + dest).ravel(), return_counts=True)
        keys.append(uniq)
        counts.append(c)
    rows, cols = np.divmod(np.concatenate(keys), nboxes)
    data = np.concatenate(counts) / k
    return sp.csr_matrix((data, (rows, cols)), shape=(nboxes, nboxes)), gbox


def _spsolve_deflated(P, gc):
    """w from (Id - P) w = P g_c with the first row replaced by w[0] = 0, by
    sparse LU: the oracle for the Green-Kubo series."""
    nboxes = P.shape[0]
    rhs = P @ gc
    rhs[0] = 0.0
    A = (sp.eye(nboxes, format="csr") - P).tolil()
    A[0, :] = 0.0
    A[0, 0] = 1.0
    return spla.spsolve(A.tocsc(), rhs)


def _centred(map_model, m, k, g):
    """(P, pi, g_c) as ``ulam_variance`` forms them."""
    P, gbox = ulam_mod._build(map_model, m, k, g)
    pi = ulam_srb(P) / P.shape[0]
    return P, pi, gbox - pi @ gbox


def _series(P, pi, x):
    """The Green-Kubo series with the constant mode cut, as ``ulam_variance``
    sums it: (w, residual, terms, rate)."""
    return ulam_mod._green_kubo(P, x, lambda v: v - pi @ v)


_MAPS = {
    "section7": PerturbedCat(0.01, "section7"),
    "appendix": PerturbedCat(0.01, "appendix"),
    "cat": cat_map(),
    "translation": Translation(0.3, 0.7),
}


@pytest.mark.parametrize("sampled", [False, True], ids=["separable-g", "callable-g"])
@pytest.mark.parametrize("m", [8, 16, 32])
@pytest.mark.parametrize("name", list(_MAPS))
def test_build_matches_pointwise_oracle(std_g, name, m, sampled):
    g = CallableObservable(std_g.sample) if sampled else std_g
    P, gbox = ulam_mod._build(_MAPS[name], m, 100, g)
    oracle_P, oracle = _pointwise_build(_MAPS[name], m, 100, g)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(_csr(P), attr), getattr(oracle_P, attr)), attr
    assert np.array_equal(gbox, oracle)


@pytest.mark.parametrize("sampled", [False, True], ids=["separable-g", "callable-g"])
def test_build_matches_pointwise_oracle_with_wide_keys(std_g, sampled):
    """At m = 512 the destinations m^2 - 1 no longer fit 16 bits; the build
    sorts them as uint32."""
    assert np.min_scalar_type(512 * 512 - 1) == np.uint32
    g = CallableObservable(std_g.sample) if sampled else std_g
    P, gbox = ulam_mod._build(_MAPS["section7"], 512, 4, g)
    oracle_P, oracle = _pointwise_build(_MAPS["section7"], 512, 4, g)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(_csr(P), attr), getattr(oracle_P, attr)), attr
    assert np.array_equal(gbox, oracle)


@pytest.mark.parametrize("m", [16, 32, 64])
def test_green_kubo_matches_spsolve_oracle(perturbed_map, std_g, m):
    P, pi, gc = _centred(perturbed_map, m, 1600, std_g)
    w, residual, terms, rate = _series(P, pi, gc)
    oracle = _spsolve_deflated(_csr(P), gc)
    # the series sums off the constant mode; the oracle pins w[0] = 0 instead
    assert abs(pi @ w) <= 1e-15
    assert np.abs(w - w[0] - oracle).max() <= 1e-12
    assert 0 < terms < 100 and 0.0 < rate < 1.0 and residual <= 1e-12
    res, _ = ulam_variance(perturbed_map, m, 1600, std_g)
    sigma2 = float(pi @ (gc * gc + 2.0 * gc * oracle))
    assert abs(res.sigma2 - sigma2) <= 1e-12
    assert (res.solve_terms, res.solve_rate) == (terms, rate)
    assert asdict(res)["solve_terms"] == terms
    assert asdict(res)["solve_rate"] == rate


def test_green_kubo_ignores_the_constant_mode(perturbed_map, std_g):
    # the projection deflates the constant mode: without it a constant in
    # g_c would never decay and the series would not converge
    P, pi, gc = _centred(perturbed_map, 16, 64, std_g)
    w, _, terms, _ = _series(P, pi, gc)
    w_shifted, _, terms_shifted, _ = _series(P, pi, gc + 0.5)
    assert np.abs(w_shifted - w).max() <= 1e-12
    assert abs(terms_shifted - terms) <= 2


def test_non_mixing_map_raises(std_g):
    # the identity map gives P = I: nothing mixes, so the series cannot converge
    with pytest.raises(SingularSolveError, match="did not converge"):
        ulam_variance(LinearToral(1, 0, 0, 1), 8, 16, std_g)
