import os

import numpy as np
import pytest

from anosov import (
    FejerKernel,
    GridSpec,
    PerturbedCat,
    cat_map,
    coarse_freqs,
    standard_observable,
)
from anosov.grids import freq_index


def _blas_record():
    """numpy's version, its BLAS and the thread pins, so run times compare."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pins = (f"{v}={os.environ.get(v, 'unset')}" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}, {', '.join(pins)}"


def pytest_report_header(config):
    return _blas_record()


def pytest_terminal_summary(terminalreporter, config):
    if config.get_verbosity() < 0:  # -q hides the header; the Tier-1 command runs -q
        terminalreporter.write_line(_blas_record())


@pytest.fixture(scope="session")
def std_g():
    return standard_observable()


@pytest.fixture(scope="session")
def perturbed_map():
    return PerturbedCat(0.01, "section7")


@pytest.fixture(scope="session")
def linear_cat():
    return cat_map()


@pytest.fixture(scope="session")
def fejer():
    return FejerKernel()


@pytest.fixture(scope="session")
def small_grid():
    return GridSpec(16, 128)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240612)


def _appendix_jacobians(delta, x1, x2):
    """PerturbedCat(delta, "appendix").jacobian on the grid x1 x x2, shape
    (len(x1), len(x2), 2, 2)."""
    return PerturbedCat(delta, "appendix").jacobian(x1[:, None], x2[None, :])


def _cone_excess(delta, alpha, direction, x1, x2):
    """Largest non-contraction of a cone vector over the Jacobian grid.

    Forward: max of |DT v|^2 - |v|^2 over stable-cone vectors
    v = e_s + beta e_u.  Inverse: max of |DT^-1 w|^2 - |w|^2 over
    unstable-cone vectors w = e_u + beta e_s.  beta runs over nine points of
    [-alpha, alpha], endpoints included; (e_s, e_u) is the orthonormal
    eigenbasis of the cat matrix.  Negative means every sampled vector is
    contracted.
    """
    J = _appendix_jacobians(delta, np.atleast_1d(x1), np.atleast_1d(x2))
    _, V = np.linalg.eigh(np.array([[2.0, 1.0], [1.0, 1.0]]))
    e_s, e_u = V[:, 0], V[:, 1]
    if direction == "inverse":
        J = np.linalg.inv(J)
        e_s, e_u = e_u, e_s
    worst = -np.inf
    for beta in np.linspace(-alpha, alpha, 9):
        v = e_s + beta * e_u
        worst = max(worst, float((np.sum((J @ v) ** 2, axis=-1) - v @ v).max()))
    return worst


@pytest.fixture(scope="session")
def cone_excess():
    return _cone_excess


def _conjugate_symmetry_defect(a, n):
    """max |a(-j) - conj(a(j))| along every axis of ``a``, over the coarse
    frequencies j = (j1, j2) whose negative is in range too.

    For n^2 coefficients of a real function, c(-j) against conj c(j); for an
    operator matrix that maps real functions to real ones, entry (-j, -k)
    against conj (j, k).
    """
    a = np.asarray(a)
    js = coarse_freqs(n)
    inner = [int(j) for j in js if -j in js]
    idx = [freq_index(j1, j2, n) for j1 in inner for j2 in inner]
    nidx = [freq_index(-j1, -j2, n) for j1 in inner for j2 in inner]
    flipped, kept = a[np.ix_(*[nidx] * a.ndim)], a[np.ix_(*[idx] * a.ndim)]
    return float(np.abs(flipped - np.conj(kept)).max())


@pytest.fixture(scope="session")
def conj_defect():
    return _conjugate_symmetry_defect
