"""Ulam-method reference discretisation on a box partition.

The torus is split into m x m congruent squares.  Transition fractions are
estimated from a deterministic sqrt(k) x sqrt(k) sub-lattice of cell-centered
sample points per box, so the construction is fully reproducible: entry
(i, j) is the fraction of box i's samples whose image lands in box j.  Rows
are exact integer counts divided by k.

The invariant density is the leading left eigenvector (ARPACK on the
transpose, from the uniform vector).  The variance is the Green-Kubo sum in
the box basis: for a mixing P the deflated resolvent solution is the
fundamental-matrix series w = sum_{j>=1} P^j g_c (Kemeny-Snell), summed by
stats._green_kubo with the constant mode, the spectral method's zero
frequency, projected off each term.  No matrix is factored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grids import _is_pow2
from .stats import _arpack_leading, _green_kubo
from .torus import MapModel, Observable


@dataclass
class UlamMatrix:
    """Sparse row-stochastic transition matrix on m^2 boxes."""

    m: int
    P: sp.csr_matrix
    samples_per_box: int


def _build(map_model: MapModel, m: int, k: int, g: Observable | None):
    if not _is_pow2(m):
        raise ValueError("m must be a power of two")
    ks = int(round(np.sqrt(k)))
    if ks * ks != k:
        raise ValueError("samples per box must be a perfect square")
    off = (np.arange(ks) + 0.5) / (m * ks)
    nboxes = m * m
    keys, counts = [], []
    parts = None if g is None else g.separable_parts()
    gbox = None if g is None else np.empty(nboxes)
    if parts is not None:
        # On the tensor sub-lattice the box mean of g1(x1) + g2(x2) is the
        # mean of g1 over the row offsets plus the mean of g2 over the columns.
        x = (np.arange(m)[:, None] / m + off).ravel()
        g1, g2 = (gi(x).reshape(m, ks).mean(axis=1) for gi in parts)
        gbox = np.add.outer(g1, g2).ravel()
    # one row of boxes at a time, on the lattice (box i2, offset a, offset b):
    # x1 varies along a and x2 along (i2, b), broadcast to (m, ks, ks), which
    # flattens to the (m, k) samples in row-major (a, b) order
    x2 = np.arange(m)[:, None, None] / m + off
    for i1 in range(m):
        x1 = (i1 / m + off)[:, None]
        y1, y2 = map_model.image_arrays(x1, x2)
        # & (m - 1) is % m on int64 for a power-of-two m, and much cheaper
        j1, j2 = ((y * m).astype(np.int64) & (m - 1) for y in (y1, y2))
        dest = np.broadcast_to(j1 * m + j2, (m, ks, ks)).reshape(m, k)
        if g is not None and parts is None:
            gs = g.sample(*np.broadcast_arrays(x1, x2))
            gbox[i1 * m : (i1 + 1) * m] = gs.reshape(m, k).mean(axis=1)
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
    solve_terms: int
    solve_rate: float  # contraction per series term, about |lambda_2| of P
    m: int
    samples_per_box: int
    density: np.ndarray  # invariant density per box, as from ulam_srb; not in to_dict

    def to_dict(self) -> dict:
        return {
            "sigma2": self.sigma2,
            "mean_shift": self.shift,
            "solve_residual": self.solve_residual,
            "solve_terms": self.solve_terms,
            "solve_rate": self.solve_rate,
            "m": self.m,
            "samples_per_box": self.samples_per_box,
        }


def ulam_variance(
    map_model: MapModel, m: int, k: int, g: Observable
) -> UlamVarianceResult:
    """Variance in the Ulam basis from the Green-Kubo series.

    g is box-averaged and centered by the stationary weights pi; w is the
    series sum_{j>=1} P^j g_c with each term's constant mode cut
    (v <- v - pi.v), and sigma^2 = sum_i pi_i (g_c_i^2 + 2 g_c_i w_i).  The
    series checks its residual (stats._green_kubo).
    """
    U, gbox = _build(map_model, m, k, g)
    density = ulam_srb(U)
    pi = density / (m * m)
    shift = float(pi @ gbox)
    gc = gbox - shift
    w, residual, terms, rate = _green_kubo(U.P, gc, lambda v: v - pi @ v)
    sigma2 = float(pi @ (gc * gc + 2.0 * gc * w))
    return UlamVarianceResult(
        sigma2=sigma2,
        shift=shift,
        solve_residual=residual,
        solve_terms=terms,
        solve_rate=rate,
        m=m,
        samples_per_box=k,
        density=density,
    )
