"""Ulam-method reference discretisation on a box partition.

The torus is split into m x m congruent squares.  Transition fractions are
estimated from a deterministic sqrt(k) x sqrt(k) sub-lattice of cell-centered
sample points per box, so the construction is fully reproducible: entry
(i, j) is the fraction of box i's samples whose image lands in box j.  Rows
are exact integer counts divided by k.

The invariant density and the variance are sums of the series of
stats._green_kubo, which checks its residual: the density that of P^T from
the uniform vector (ulam_srb), the variance that of the box basis, where for
a mixing P the deflated resolvent solution is the fundamental-matrix series
w = sum_{j>=1} P^j g_c (Kemeny-Snell).  Each term has its constant mode, the
spectral method's zero frequency, projected off.  No matrix is factored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import _is_pow2
from .operators import _reserve
from .stats import VarianceResult, _green_kubo
from .torus import MapModel, Observable


@dataclass(frozen=True)
class TransitionMatrix:
    """P[rows[i], cols[i]] = data[i], sorted by row, then column; @ sums by bincount."""

    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    shape: tuple

    def __matmul__(self, v):
        return np.bincount(self.rows, self.data * v[self.cols], self.shape[0])

    @property
    def T(self):
        return TransitionMatrix(self.cols, self.rows, self.data, self.shape[::-1])


def _build(map_model: MapModel, m: int, k: int, g: Observable | None):
    if m < 2 or not _is_pow2(m):
        raise ValueError(f"boxes per side must be a power of two >= 2, got {m}")
    ks = math.isqrt(max(k, 0))
    if k < 1 or ks * ks != k:
        raise ValueError(f"samples per box must be a positive perfect square, got {k}")
    nboxes = m * m
    # four 8-byte row buffers and a row's entries of m k samples, and gbox,
    # one apply's sum and the density of m^2 boxes
    _reserve(8 * (5 * m * k + 3 * nboxes), "the Ulam matrix")
    A, phi1, phi2 = map_model.separable_parts()
    off = (np.arange(ks) + 0.5) / (m * ks)
    rows, cols, counts = [], [], []
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
    # flattens to the (m, k) samples in row-major (a, b) order; every term is
    # scaled by m, exactly, for m is a power of two
    x2 = np.arange(m)[:, None, None] / m + off
    a01, a11 = m * (A[0, 1] * x2), m * (A[1, 1] * x2)
    p2 = m * phi2(x2)
    t1, t2 = (np.empty((m, ks, ks)) for _ in range(2))
    j1, j2 = (np.empty((m, ks, ks), dtype=np.int64) for _ in range(2))
    # destinations fit the smallest unsigned type holding m^2 - 1, whose
    # sort is several times faster than np.unique on int64 keys
    dest = np.empty((m, k), dtype=np.min_scalar_type(nboxes - 1))
    new = np.empty((m, k), dtype=bool)
    new[:, 0] = True
    for i1 in range(m):
        x1 = (i1 / m + off)[:, None]
        # m times the sums of image_arrays, in its order, so every box matches it
        np.add(m * (A[0, 0] * x1), a01, out=t1)
        t1 += m * phi1(x1)
        np.add(m * (A[1, 0] * x1), a11, out=t2)
        t2 += p2
        # the box is floor(m t) mod m; & (m - 1) is % m on int64 for a power-of-two m
        for t, j in ((t1, j1), (t2, j2)):
            np.copyto(j, np.floor(t, out=t), casting="unsafe")
            j &= m - 1
        j1 *= m
        j1 += j2
        np.copyto(dest, j1.reshape(m, k), casting="unsafe")
        if g is not None and parts is None:
            gs = g.sample(*np.broadcast_arrays(x1, x2))
            gbox[i1 * m : (i1 + 1) * m] = gs.reshape(m, k).mean(axis=1)
        # each box's sorted destinations; a run of equal ones is one entry,
        # so the entries come out sorted by box, then destination
        dest.sort(axis=1)
        np.not_equal(dest[:, 1:], dest[:, :-1], out=new[:, 1:])
        starts = np.flatnonzero(new)
        rows.append(starts // k + i1 * m)
        cols.append(dest.ravel()[starts])
        counts.append(np.diff(starts, append=m * k))
    rows, cols = np.concatenate(rows), np.concatenate(cols).astype(np.int64)
    data = np.concatenate(counts) / k
    return TransitionMatrix(rows, cols, data, (nboxes, nboxes)), gbox


def build_ulam(map_model: MapModel, m: int, k: int) -> TransitionMatrix:
    """Row-stochastic m^2 x m^2 transition matrix from k lattice samples per box."""
    return _build(map_model, m, k, None)[0]


def ulam_srb(P: TransitionMatrix) -> np.ndarray:
    """Invariant density per box (averages one), the fixed point of P^T.

    P^T preserves total mass, so its mean-zero subspace is invariant and the
    density is ones + sum_{j>=1} (P^T)^j ones with the mean cut from each
    term.  Raises SingularSolveError when P does not mix (stats._green_kubo).
    A doubly stochastic P stops that series at its first term, which tells
    nothing about mixing, so the series must then converge from a fixed
    pseudo-random start too; an alternating +-1 start would pass
    LinearToral(2, 1, 3, 2) at m = 32, k = 4, whose P^T has two eigenvalues
    of modulus one.
    """
    ones = np.ones(P.shape[0])
    w, _, terms, _ = _green_kubo(P.T, ones, _mean_off)
    if terms == 1:
        _green_kubo(P.T, np.random.default_rng(0).standard_normal(ones.size), _mean_off)
    return ones + w


def _mean_off(v):
    return v - v.mean()


def ulam_variance(map_model: MapModel, m: int, k: int, g: Observable):
    """(VarianceResult, density): the variance in the Ulam basis from the
    Green-Kubo series, and the invariant density per box as from ulam_srb.

    g is box-averaged and centered by the stationary weights pi; w is the
    series sum_{j>=1} P^j g_c with each term's constant mode cut
    (v <- v - pi.v), and sigma^2 = sum_i pi_i (g_c_i^2 + 2 g_c_i w_i).  The
    series checks its residual (stats._green_kubo).
    """
    P, gbox = _build(map_model, m, k, g)
    density = ulam_srb(P)
    pi = density / (m * m)
    shift = float(pi @ gbox)
    gc = gbox - shift
    w, residual, terms, rate = _green_kubo(P, gc, lambda v: v - pi @ v)
    sigma2 = float(pi @ (gc * gc + 2.0 * gc * w))
    return VarianceResult(sigma2, shift, residual, terms, rate), density
