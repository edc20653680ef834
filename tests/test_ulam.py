import numpy as np
import pytest

import anosov.ulam as ulam_mod
from anosov import (
    LinearToral,
    build_ulam,
    cat_map,
    ulam_srb,
    ulam_variance,
)
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
