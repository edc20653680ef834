"""Smoothing kernel families and their Fourier coefficients.

Two families are supported:

* ``BumpKernel(epsilon)``: the compactly supported mollifier
  q_eps(x) = (C / eps^2) exp(-1 / (1 - ||x/eps||^2)) on the disk ||x|| < eps,
  normalised so its discrete fine-grid mass is exactly one.
* ``FejerKernel()``: the square Fejer kernel slaved to the coarse order n,
  with closed-form coefficients (1 - |j1|/(n/2+1)) (1 - |j2|/(n/2+1)).

``match_epsilon`` picks the bump width so the smallest coarse-grid bump
coefficient magnitude equals the smallest Fejer coefficient.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .grids import (
    GridSpec,
    SpectralVector,
    coarse_freqs,
    evaluate_on_fine,
    fft_index,
)


class ResolutionError(ValueError):
    """The fine grid does not resolve the requested kernel."""


class NoRootError(RuntimeError):
    """The matching bracket contains no sign change."""


def fejer_coefficients(n: int) -> SpectralVector:
    """Closed-form Fejer weights on the coarse grid; all values in (0, 1]."""
    j = coarse_freqs(n)
    w = 1.0 - np.abs(j) / (n // 2 + 1)
    return SpectralVector(n, np.outer(w, w).astype(complex))


@functools.lru_cache(maxsize=1)
def _torus_radius2(N: int) -> np.ndarray:
    """Squared torus distance of each fine point to the origin (read-only)."""
    a = np.arange(N) / N
    r = np.where(a >= 0.5, a - 1.0, a)
    r1, r2 = np.meshgrid(r, r, indexing="ij")
    d2 = r1 * r1 + r2 * r2
    d2.flags.writeable = False
    return d2


def bump_spatial(epsilon: float, N: int) -> np.ndarray:
    """Fine-grid samples of the bump, rescaled so (1/N^2) sum = 1.

    Raises ResolutionError when fewer than 16 fine points fall inside the
    support disk.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    u2 = _torus_radius2(N) / (epsilon * epsilon)
    inside = u2 < 1.0
    if int(inside.sum()) < 16:
        raise ResolutionError(
            f"bump of width {epsilon} covers only {int(inside.sum())} fine points"
        )
    q = np.zeros((N, N))
    q[inside] = np.exp(-1.0 / (1.0 - u2[inside]))
    return q * (N * N / q.sum())


def bump_coefficients(epsilon: float, grid: GridSpec) -> SpectralVector:
    """Coarse-grid Fourier coefficients of the discretely normalised bump.

    The coefficient array is divided by its (0,0) entry, so the zero mode is
    exactly one.  An even real kernel has real coefficients; the imaginary
    round-off is dropped.
    """
    q = bump_spatial(epsilon, grid.N)
    C = sfft.fft2(q) / (grid.N * grid.N)
    C = C / C[0, 0].real
    js = fft_index(coarse_freqs(grid.n), grid.N)
    block = C[np.ix_(js, js)].real.astype(complex)
    return SpectralVector(grid.n, block)


@dataclass(frozen=True)
class BumpKernel:
    epsilon: float

    def coefficients(self, grid: GridSpec) -> SpectralVector:
        return bump_coefficients(self.epsilon, grid)

    def spatial(self, grid: GridSpec) -> np.ndarray:
        return bump_spatial(self.epsilon, grid.N)

    @property
    def label(self) -> str:
        return f"bump[eps={self.epsilon!r}]"


@dataclass(frozen=True)
class FejerKernel:
    def coefficients(self, grid: GridSpec) -> SpectralVector:
        return fejer_coefficients(grid.n)

    def spatial(self, grid: GridSpec) -> np.ndarray:
        # The full Fejer Fourier series is supported on ||j||_inf <= n/2,
        # which needs the symmetric index -n/2 as well; evaluate it from a
        # symmetric embedding into the coarse order 2n, where frequency -n/2
        # sits at index n/2 - 1.
        n = grid.n
        w = 1.0 - np.abs(np.arange(-(n // 2), n // 2 + 1)) / (n // 2 + 1)
        full = np.zeros((2 * n, 2 * n), dtype=complex)
        full[n // 2 - 1 : 3 * n // 2, n // 2 - 1 : 3 * n // 2] = np.outer(w, w)
        return evaluate_on_fine(SpectralVector(2 * n, full), grid.N).real

    @property
    def label(self) -> str:
        return "fejer"


def _coarse_min_abs(epsilon: float, grid: GridSpec) -> float:
    """min over the coarse grid of |bump coefficient|, via the real FFT.

    The bump samples are even in each axis, so the coarse-grid minimum equals
    the minimum over rows {-n/2..n/2} and columns {0..n/2} of the half-plane
    transform.
    """
    n, N = grid.n, grid.N
    q = bump_spatial(epsilon, N)
    C = sfft.rfft2(q)
    C = C / C[0, 0].real
    rows = fft_index(np.arange(-(n // 2), n // 2 + 1), N)
    block = C[rows, : n // 2 + 1]
    return float(np.abs(block).min())


def match_epsilon(n: int, grid: GridSpec, full_output: bool = False):
    """Bump width whose smallest coarse coefficient matches the Fejer minimum.

    min_j |q_eps(j)| decreases with epsilon only in envelope: once the
    transform's zero rings enter the coarse grid it oscillates on a fine
    epsilon scale, and the set where it still reaches the Fejer minimum
    thins out into islands whose total extent keeps growing under finer
    inspection.  The crossing is therefore located at a fixed, documented
    resolution: a step 1e-4 scan of [8/N, 0.25] finds the rightmost point at
    or above the Fejer minimum and bisection refines the sign change on its
    right, so the achieved residual is at round-off level.  Structure finer
    than the scan step is treated as noise.
    """
    grid = GridSpec(n, grid.N)
    target = float(np.abs(fejer_coefficients(n).coeffs).min())

    def f(eps):
        return _coarse_min_abs(eps, grid) - target

    lo_end, hi_end = 8.0 / grid.N, 0.25
    scan = np.arange(lo_end, hi_end, 1e-4)
    vals = np.array([f(e) for e in scan])
    above = np.nonzero(vals >= 0)[0]
    if len(above) == 0 or above[-1] == len(scan) - 1:
        raise NoRootError("no sign change of the matching residual in the bracket")
    i = above[-1]
    lo, hi = float(scan[i]), float(scan[i + 1])
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0:
            lo = mid
        else:
            hi = mid
    eps = 0.5 * (lo + hi)
    residual = f(eps) / target
    if full_output:
        return eps, residual
    return eps


def summability_check(kernel, eta: float, grid: GridSpec) -> float:
    """Discrete kernel mass outside the ball B_eta(0) on the fine grid."""
    if not 0.0 < eta < 0.5:
        raise ValueError("eta must lie in (0, 1/2)")
    q = kernel.spatial(grid)
    outside = _torus_radius2(grid.N) >= eta * eta
    return float(np.sum(q[outside]) / (grid.N * grid.N))
