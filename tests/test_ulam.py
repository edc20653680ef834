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
from anosov.stats import SingularSolveError
from anosov.torus import MapModel, mod1


class Translation(MapModel):
    """Test helper: rigid translation of the torus."""

    def __init__(self, t1, t2):
        self.t1, self.t2 = t1, t2

    def image_arrays(self, x1, x2):
        return mod1(x1 + self.t1), mod1(x2 + self.t2)

    @property
    def label(self):
        return f"translation[{self.t1},{self.t2}]"


def _power_srb(U, tol=1e-14, max_iter=100_000):
    """Reference density: power iteration on P^T from the uniform vector.

    Stops when the normalised update moves by less than tol in l1.
    """
    nboxes = U.m * U.m
    PT = U.P.T.tocsr()
    pi = np.full(nboxes, 1.0 / nboxes)
    for _ in range(max_iter):
        new = PT @ pi
        new /= new.sum()
        if np.abs(new - pi).sum() < tol:
            return new * nboxes
        pi = new
    raise AssertionError("reference power iteration did not converge")


def test_identity_map_gives_identity_matrix():
    U = build_ulam(LinearToral(1, 0, 0, 1), 4, 16)
    assert np.array_equal(U.P.toarray(), np.eye(16))


def test_row_sums_exact():
    U = build_ulam(cat_map(), 2, 4)
    sums = np.asarray(U.P.sum(axis=1)).ravel()
    assert np.allclose(sums, 1.0, atol=1e-12)
    data = U.P.toarray()
    assert np.all(data >= 0) and np.all(data <= 1)


def test_translation_gives_permutation():
    m = 8
    U = build_ulam(Translation(1.0 / m, 0.0), m, 16)
    P = U.P.toarray()
    perm = np.zeros((m * m, m * m))
    for i1 in range(m):
        for i2 in range(m):
            perm[i1 * m + i2, ((i1 + 1) % m) * m + i2] = 1.0
    assert np.array_equal(P, perm)


def test_stochastic_leading_eigenvalue():
    U = build_ulam(cat_map(), 8, 16)
    vals = np.linalg.eigvals(U.P.toarray())
    assert np.abs(vals).max() == pytest.approx(1.0, abs=1e-12)


def test_srb_uniform_for_linear_map():
    U = build_ulam(cat_map(), 16, 100)
    density = ulam_srb(U)
    assert np.allclose(density, 1.0, atol=1e-8)
    assert density.sum() == pytest.approx(16 * 16, rel=1e-12)
    assert density.min() >= -1e-12


def test_build_deterministic(perturbed_map):
    a = build_ulam(perturbed_map, 8, 16)
    b = build_ulam(perturbed_map, 8, 16)
    assert np.array_equal(a.P.indices, b.P.indices)
    assert np.array_equal(a.P.data, b.P.data)


def test_build_validates_arguments(perturbed_map):
    with pytest.raises(ValueError):
        build_ulam(perturbed_map, 12, 16)
    with pytest.raises(ValueError):
        build_ulam(perturbed_map, 8, 15)


def test_ulam_variance_linear_oracle(linear_cat, std_g):
    res = ulam_variance(linear_cat, 64, 1600, std_g)
    assert res.sigma2 == pytest.approx(1.0, abs=0.02)
    assert abs(res.shift) < 1e-10


def test_ulam_srb_perturbed_density_positive(perturbed_map):
    U = build_ulam(perturbed_map, 16, 64)
    density = ulam_srb(U)
    assert density.min() >= -1e-12
    assert density.sum() == pytest.approx(256.0, rel=1e-12)


@pytest.mark.parametrize("m", [16, 32])
def test_ulam_srb_matches_power_iteration(perturbed_map, std_g, monkeypatch, m):
    U = build_ulam(perturbed_map, m, 64)
    density = ulam_srb(U)
    assert np.abs(density - _power_srb(U)).max() <= 1e-12
    sigma2 = ulam_variance(perturbed_map, m, 64, std_g).sigma2
    monkeypatch.setattr(ulam_mod, "ulam_srb", _power_srb)
    assert abs(ulam_variance(perturbed_map, m, 64, std_g).sigma2 - sigma2) <= 1e-12


@pytest.mark.parametrize("m", [16, 32])
def test_separable_box_means_match_sampled_means(perturbed_map, std_g, m):
    # CallableObservable has no separable parts, so it samples every box.
    sampled = CallableObservable(std_g.sample)
    _, gbox = ulam_mod._build(perturbed_map, m, 1600, std_g)
    _, oracle = ulam_mod._build(perturbed_map, m, 1600, sampled)
    assert np.abs(gbox - oracle).max() <= 1e-14
    a = ulam_variance(perturbed_map, m, 1600, std_g)
    b = ulam_variance(perturbed_map, m, 1600, sampled)
    assert abs(a.sigma2 - b.sigma2) <= 1e-12
    assert np.array_equal(a.density, b.density)


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
    U, gbox = ulam_mod._build(map_model, m, k, g)
    pi = ulam_srb(U) / (m * m)
    return U.P, pi, gbox - pi @ gbox


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
    U, gbox = ulam_mod._build(_MAPS[name], m, 100, g)
    P, oracle = _pointwise_build(_MAPS[name], m, 100, g)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(U.P, attr), getattr(P, attr)), attr
    assert np.array_equal(gbox, oracle)


@pytest.mark.parametrize("m", [16, 32, 64])
def test_green_kubo_matches_spsolve_oracle(perturbed_map, std_g, m):
    P, pi, gc = _centred(perturbed_map, m, 1600, std_g)
    w, residual, terms, rate = _series(P, pi, gc)
    oracle = _spsolve_deflated(P, gc)
    # the series sums off the constant mode; the oracle pins w[0] = 0 instead
    assert abs(pi @ w) <= 1e-15
    assert np.abs(w - w[0] - oracle).max() <= 1e-12
    assert 0 < terms < 100 and 0.0 < rate < 1.0 and residual <= 1e-12
    res = ulam_variance(perturbed_map, m, 1600, std_g)
    sigma2 = float(pi @ (gc * gc + 2.0 * gc * oracle))
    assert abs(res.sigma2 - sigma2) <= 1e-12
    assert (res.solve_terms, res.solve_rate) == (terms, rate)
    assert res.to_dict()["solve_terms"] == terms
    assert res.to_dict()["solve_rate"] == rate


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
