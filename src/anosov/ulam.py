"""Ulam-method reference discretisation on a box partition.

The torus is split into m x m congruent squares.  Transition fractions are
estimated from a deterministic sqrt(k) x sqrt(k) sub-lattice of cell-centered
sample points per box, so the construction is fully reproducible: entry
(i, j) is the fraction of box i's samples whose image lands in box j.  Rows
are exact integer counts divided by k.

The invariant density is the leading left eigenvector (ARPACK on the
transpose, from the uniform vector); the variance mirrors the
spectral-method formula in the box basis with the same zero-mode
row-replacement deflation, the constant mode playing the role of the zero
frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grids import _is_pow2
from .stats import SingularSolveError, _arpack_leading
from .torus import MapModel, Observable


@dataclass
class UlamMatrix:
    """Sparse row-stochastic transition matrix on m^2 boxes."""

    m: int
    P: sp.csr_matrix
    samples_per_box: int


def _sample_offsets(m: int, ks: int):
    off = (np.arange(ks) + 0.5) / (m * ks)
    o1, o2 = np.meshgrid(off, off, indexing="ij")
    return o1.ravel(), o2.ravel()


def _build(map_model: MapModel, m: int, k: int, g: Observable | None):
    if not _is_pow2(m):
        raise ValueError("m must be a power of two")
    ks = int(round(np.sqrt(k)))
    if ks * ks != k:
        raise ValueError("samples per box must be a perfect square")
    o1, o2 = _sample_offsets(m, ks)
    nboxes = m * m
    keys, counts = [], []
    gbox = np.empty(nboxes) if g is not None else None
    for i1 in range(m):
        # one row of boxes at a time: (m, k) sample coordinates
        x1 = (i1 / m + o1)[None, :] + np.zeros((m, 1))
        x2 = (np.arange(m)[:, None] / m) + o2[None, :]
        y1, y2 = map_model.image_arrays(x1, x2)
        dest = (y1 * m).astype(np.int64) % m * m + (y2 * m).astype(np.int64) % m
        if g is not None:
            gbox[i1 * m : (i1 + 1) * m] = g.sample(x1, x2).mean(axis=1)
        # (box, destination) pairs encoded as box * nboxes + destination
        boxes = np.arange(i1 * m, (i1 + 1) * m, dtype=np.int64)
        pairs = (boxes[:, None] * nboxes + dest).ravel()
        uniq, c = np.unique(pairs, return_counts=True)
        keys.append(uniq)
        counts.append(c)
    rows, cols = np.divmod(np.concatenate(keys), nboxes)
    data = np.concatenate(counts) / k
    P = sp.csr_matrix((data, (rows, cols)), shape=(nboxes, nboxes))
    return UlamMatrix(m, P, k), gbox


def build_ulam(map_model: MapModel, m: int, k: int) -> UlamMatrix:
    """Transition matrix from k deterministic lattice samples per box."""
    U, _ = _build(map_model, m, k, None)
    return U


def ulam_srb(U: UlamMatrix) -> np.ndarray:
    """Invariant density per box (averages one), from the left eigenvector.

    ARPACK on P^T from the uniform vector; raises NonConvergenceError when
    ARPACK fails.
    """
    nboxes = U.m * U.m
    _, v = _arpack_leading(U.P.T, np.full(nboxes, 1.0 / nboxes))
    return (v / v.sum()).real * nboxes


@dataclass
class UlamVarianceResult:
    sigma2: float
    shift: float
    solve_residual: float
    m: int
    samples_per_box: int
    density: np.ndarray  # invariant density per box, as from ulam_srb; not in to_dict

    def to_dict(self) -> dict:
        return {
            "sigma2": self.sigma2,
            "mean_shift": self.shift,
            "solve_residual": self.solve_residual,
            "m": self.m,
            "samples_per_box": self.samples_per_box,
        }


def ulam_variance(
    map_model: MapModel, m: int, k: int, g: Observable
) -> UlamVarianceResult:
    """Variance in the Ulam basis, mirroring the spectral linear-solve form.

    g is box-averaged and centered by the stationary weights; w solves
    (Id - P) w = P g_c deflated on the constant mode (row replacement, first
    row), and sigma^2 = sum_i pi_i (g_c_i^2 + 2 g_c_i w_i).
    """
    U, gbox = _build(map_model, m, k, g)
    nboxes = m * m
    density = ulam_srb(U)
    pi = density / nboxes
    shift = float(pi @ gbox)
    gc = gbox - shift
    rhs = U.P @ gc
    rhs[0] = 0.0
    A = (sp.eye(nboxes, format="csr") - U.P).tolil()
    A[0, :] = 0.0
    A[0, 0] = 1.0
    A = A.tocsc()
    w = spla.spsolve(A, rhs)
    if not np.all(np.isfinite(w)):
        raise SingularSolveError("sparse deflated solve produced non-finite values")
    res_vec = (sp.eye(nboxes, format="csr") - U.P) @ w - rhs
    res_vec[0] = 0.0
    residual = float(np.linalg.norm(res_vec))
    scale = max(1.0, float(np.linalg.norm(rhs)))
    if residual > 1e-8 * scale:
        raise SingularSolveError(f"deflated solve residual {residual:.3e}")
    sigma2 = float(pi @ (gc * gc + 2.0 * gc * w))
    return UlamVarianceResult(
        sigma2=sigma2,
        shift=shift,
        solve_residual=residual,
        m=m,
        samples_per_box=k,
        density=density,
    )
