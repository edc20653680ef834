"""Smoothing kernel families and their Fourier coefficients.

Two families are supported:

* ``BumpKernel(epsilon)``: the compactly supported mollifier
  q_eps(x) = (C / eps^2) exp(-1 / (1 - ||x/eps||^2)) on the disk ||x|| < eps,
  normalised so its discrete fine-grid mass is exactly one.
* ``FejerKernel()``: the square Fejer kernel slaved to the coarse order n,
  with closed-form coefficients (1 - |j1|/(n/2+1)) (1 - |j2|/(n/2+1)).

The bump is evaluated only on the quarter window of fine offsets
0 <= i1, i2 <= h = floor(eps N).  Its coefficients are the cosine sums
Cm @ q @ Cm^T, Cm[j, i] = w_i cos(2 pi j i / N), with fold weight w_i = 2
for i > 0.  This is the fine DFT itself: N is a power of two, so offsets i
and -i have exactly opposite coordinates, and the samples, even in each
axis, cancel every sine term and fold +-i into one term of weight 2.

``match_epsilon`` picks the bump width so the smallest coarse-grid bump
coefficient magnitude equals the smallest Fejer coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, coarse_freqs
from .operators import _reserve


class ResolutionError(ValueError):
    """The fine grid does not resolve the requested kernel."""


class NoRootError(RuntimeError):
    """The matching bracket contains no sign change."""


def fejer_coefficients(n: int) -> np.ndarray:
    """Closed-form Fejer weights on the coarse grid, (n, n); all in (0, 1]."""
    j = coarse_freqs(n)
    w = 1.0 - np.abs(j) / (n // 2 + 1)
    return np.outer(w, w)


def _bump_window(widths, N: int, work=None):
    """Fold weights w of the offsets i = 0..h, h = floor(eps N) shared by the
    widths, and the unnormalised bump on the quarter window i1, i2 >= 0, one
    (h+1)^2 slice per width.  w is 2 for i > 0, which stands for +-i.

    The bump is written into the head of the flat float array ``work`` when
    one is given (its caller reserved it), else into a new array.  Raises
    ResolutionError when fewer than 16 fine points lie in a disk, and
    MemoryError when a new array exceeds the budget.
    """
    widths = np.atleast_1d(widths)
    if not np.all((0.0 < widths) & (widths < 0.5)):
        raise ValueError("epsilon must lie in (0, 1/2)")
    i = np.arange(int(widths[0] * N) + 1)
    size = widths.size * i.size**2
    if work is None:
        _reserve(8 * size, "the bump window")
        work = np.empty(size)
    t = work[:size].reshape(widths.size, i.size, i.size)
    r2, w = (i / N) ** 2, np.where(i > 0, 2, 1)
    np.divide(np.add.outer(r2, r2), (widths * widths)[:, None, None], out=t)
    np.subtract(1.0, t, out=t)  # 1 - |x/eps|^2
    count = w @ (t[widths.argmin()] > 0.0) @ w  # points in the narrowest disk
    if count < 16:
        raise ResolutionError(f"bump of width {widths.min()} covers only {count} fine points")
    # exp(-1/t) inside each disk; -1/tiny sends every t <= 0 outside it to exactly 0
    np.maximum(t, np.finfo(float).tiny, out=t)
    return w, np.exp(np.divide(-1.0, t, out=t), out=t)


def bump_spatial(epsilon: float, N: int) -> np.ndarray:
    """Fine-grid samples of the bump, rescaled so (1/N^2) sum = 1."""
    w, window = _bump_window(epsilon, N)
    _reserve(16 * N * N, "the bump's fine-grid samples")  # q and its rescaled copy
    i = np.arange(1 - w.size, w.size)
    q = np.zeros((N, N))
    q[np.ix_(i % N, i % N)] = window[0][np.ix_(np.abs(i), np.abs(i))]
    return q * (N * N / q.sum())


def _cosine_table(N: int, jmax: int) -> np.ndarray:
    """cos(2 pi j i / N) for j = 0..jmax (rows) and i = 0..N/2 - 1 (columns)."""
    ji = np.outer(np.arange(jmax + 1), np.arange(N // 2)) % N
    return np.cos(2.0 * np.pi * ji / N)


def _bump_cosine_block(widths, N: int, cos: np.ndarray, work=None) -> np.ndarray:
    """Real bump coefficients at j1, j2 = 0..jmax, one block per width with
    entry (0, 0) exactly 1: the fold-weighted cosine sums over the quarter window.

    ``cos`` is ``_cosine_table(N, jmax)``; ``work`` is ``_bump_window``'s.
    Raises as ``_bump_window`` does.
    """
    w, q = _bump_window(widths, N, work)
    Cm = cos[:, : w.size] * w
    block = Cm @ q @ Cm.T
    return block / block[:, :1, :1]


def bump_coefficients(epsilon: float, grid: GridSpec) -> np.ndarray:
    """Coarse-grid Fourier coefficients of the bump, (n, n); zero mode exactly one."""
    a = np.abs(coarse_freqs(grid.n))
    block = _bump_cosine_block(epsilon, grid.N, _cosine_table(grid.N, grid.n // 2))[0]
    return block[np.ix_(a, a)]


@dataclass(frozen=True)
class BumpKernel:
    epsilon: float

    def coefficients(self, grid: GridSpec) -> np.ndarray:
        return bump_coefficients(self.epsilon, grid)

    def spatial(self, grid: GridSpec) -> np.ndarray:
        return bump_spatial(self.epsilon, grid.N)


@dataclass(frozen=True)
class FejerKernel:
    def coefficients(self, grid: GridSpec) -> np.ndarray:
        return fejer_coefficients(grid.n)

    def spatial(self, grid: GridSpec) -> np.ndarray:
        # The full Fejer series has the symmetric index -n/2 as well, so it is
        # written at j mod N for j = -n/2..n/2, not on the coarse block.
        n, N = grid.n, grid.N
        _reserve(32 * N * N, "the Fejer series' fine-grid samples and transform")
        j = np.arange(-(n // 2), n // 2 + 1)
        w = 1.0 - np.abs(j) / (n // 2 + 1)
        fine = np.zeros((N, N), dtype=complex)
        fine[np.ix_(j % N, j % N)] = np.outer(w, w)
        return np.fft.ifft2(fine, norm="forward").real


def match_epsilon(grid: GridSpec):
    """(epsilon, residual): the bump width whose smallest coarse coefficient
    matches the Fejer minimum, and the relative miss f(epsilon) / target.

    min_j |q_eps(j)| decreases with epsilon only in envelope: once the
    transform's zero rings enter the coarse grid it oscillates on a fine
    epsilon scale, and the set where it still reaches the Fejer minimum
    thins out into islands whose total extent keeps growing under finer
    inspection.  The crossing is therefore located at a fixed, documented
    resolution: a step 1e-4 scan of [8/N, 0.25] finds the rightmost point at
    or above the Fejer minimum and bisection refines the sign change on its
    right, so the achieved residual is at round-off level.  Structure finer
    than the scan step is treated as noise.  The scan is split where
    floor(eps N) changes (56 groups at N = 256), and each group of widths is
    one batched cosine block; each bisection step is a group of one.  All
    their windows are written into one work buffer, reserved and allocated
    once at the largest group's size.  The objective is the minimum of a
    block over j in {0..n/2}^2.
    NoRootError names n, N and the Fejer minimum when the scan is empty (N <=
    32), when no scan point reaches it (with the shortfall and the scan floor
    8/N) or when none falls below it.
    """
    n = grid.n
    target = float(fejer_coefficients(n).min())
    where = f"the Fejer minimum {target:.3e} at n = {n}, N = {grid.N}"
    scan = np.arange(8.0 / grid.N, 0.25, 1e-4)
    if scan.size == 0:
        raise NoRootError(
            f"no bump width is scanned for {where}: the scan [8/N, 0.25) is empty "
            f"at 8/N = {8.0 / grid.N:.3g}, and a larger N lowers that floor"
        )
    cos = _cosine_table(grid.N, n // 2)
    groups = np.split(scan, np.flatnonzero(np.diff((scan * grid.N).astype(int))) + 1)
    # bisection widths lie below the last scan width, so their windows fit too
    size = max(g.size * (int(g[0] * grid.N) + 1) ** 2 for g in groups)
    _reserve(8 * size, "the bump window")
    work = np.empty(size)

    def f(widths):
        return np.abs(_bump_cosine_block(widths, grid.N, cos, work)).min(axis=(1, 2)) - target

    vals = np.concatenate([f(g) for g in groups])
    above = np.nonzero(vals >= 0)[0]
    if len(above) == 0:
        short = -vals.max()
        raise NoRootError(
            f"no bump width reaches {where}: the best min |q_hat| is "
            f"{target - short:.3e}, short by {short:.3e}; the scan starts at "
            f"8/N = {8.0 / grid.N:.3g}, and a larger N lowers that floor"
        )
    if above[-1] == len(scan) - 1:
        raise NoRootError(f"min |q_hat| stays above {where} up to epsilon = 0.25")
    i = above[-1]
    lo, hi = float(scan[i]), float(scan[i + 1])
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats: nothing moves
            break
        if f(mid)[0] >= 0:
            lo = mid
        else:
            hi = mid
    eps = 0.5 * (lo + hi)
    return eps, float(f(eps)[0]) / target


def summability_check(kernel, eta: float, grid: GridSpec) -> float:
    """Discrete kernel mass outside the ball B_eta(0) on the fine grid."""
    if not 0.0 < eta < 0.5:
        raise ValueError("eta must lie in (0, 1/2)")
    # the squared distances, the mask and the mass outside it; spatial reserves q
    _reserve(17 * grid.N**2, "the summability mask")
    q = kernel.spatial(grid)
    a = np.arange(grid.N) / grid.N
    r = np.where(a >= 0.5, a - 1.0, a)  # signed torus distance to 0 per axis
    outside = np.add.outer(r * r, r * r) >= eta * eta
    return float(np.sum(q[outside]) / (grid.N * grid.N))
