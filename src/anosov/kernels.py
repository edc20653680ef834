"""Smoothing kernel families and their Fourier coefficients.

Two families are supported:

* ``BumpKernel(epsilon)``: the compactly supported mollifier
  q_eps(x) = (C / eps^2) exp(-1 / (1 - ||x/eps||^2)) on the disk ||x|| < eps,
  normalised so its discrete fine-grid mass is exactly one.
* ``FejerKernel()``: the square Fejer kernel slaved to the coarse order n,
  with closed-form coefficients (1 - |j1|/(n/2+1)) (1 - |j2|/(n/2+1)).

The bump is evaluated only on the K x K window of fine offsets |i| <= eps N
(K about 2 eps N + 1) that holds its support disk.  Its coefficients are the
cosine sums Cm @ q @ Cm^T, Cm[j, i] = cos(2 pi j i / N).  This is the fine
DFT itself: N is a power of two, so offsets i and -i have exactly opposite
coordinates, and the samples, even in each axis, cancel every sine term.

``match_epsilon`` picks the bump width so the smallest coarse-grid bump
coefficient magnitude equals the smallest Fejer coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, SpectralVector, coarse_freqs, evaluate_on_fine


class ResolutionError(ValueError):
    """The fine grid does not resolve the requested kernel."""


class NoRootError(RuntimeError):
    """The matching bracket contains no sign change."""


def fejer_coefficients(n: int) -> SpectralVector:
    """Closed-form Fejer weights on the coarse grid; all values in (0, 1]."""
    j = coarse_freqs(n)
    w = 1.0 - np.abs(j) / (n // 2 + 1)
    return SpectralVector(n, np.outer(w, w).astype(complex))


def _bump_window(epsilon: float, N: int):
    """Offsets i with |i| <= eps N and the unnormalised bump on that window.

    Raises ResolutionError when fewer than 16 fine points lie in the disk.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    i = np.arange(-int(epsilon * N), int(epsilon * N) + 1)
    r2 = (i / N) ** 2
    u2 = np.add.outer(r2, r2) / (epsilon * epsilon)
    inside = u2 < 1.0
    count = int(inside.sum())
    if count < 16:
        raise ResolutionError(
            f"bump of width {epsilon} covers only {count} fine points"
        )
    q = np.zeros(u2.shape)
    q[inside] = np.exp(-1.0 / (1.0 - u2[inside]))
    return i, q


def bump_spatial(epsilon: float, N: int) -> np.ndarray:
    """Fine-grid samples of the bump, rescaled so (1/N^2) sum = 1."""
    i, window = _bump_window(epsilon, N)
    q = np.zeros((N, N))
    q[np.ix_(i % N, i % N)] = window
    return q * (N * N / q.sum())


def _cosine_table(N: int, jmax: int) -> np.ndarray:
    """cos(2 pi j i / N) for j = 0..jmax (rows) and i = 0..N/2 - 1 (columns)."""
    ji = np.outer(np.arange(jmax + 1), np.arange(N // 2)) % N
    return np.cos(2.0 * np.pi * ji / N)


def _bump_cosine_block(epsilon: float, N: int, cos: np.ndarray) -> np.ndarray:
    """Real bump coefficients at j1, j2 = 0..jmax, entry (0, 0) exactly 1.

    ``cos`` is ``_cosine_table(N, jmax)``.  Raises as ``bump_spatial`` does.
    """
    i, q = _bump_window(epsilon, N)
    Cm = cos[:, np.abs(i)]
    block = Cm @ q @ Cm.T
    return block / block[0, 0]


def bump_coefficients(epsilon: float, grid: GridSpec) -> SpectralVector:
    """Coarse-grid Fourier coefficients of the bump; real, zero mode exactly one."""
    a = np.abs(coarse_freqs(grid.n))
    block = _bump_cosine_block(epsilon, grid.N, _cosine_table(grid.N, grid.n // 2))
    return SpectralVector(grid.n, block[np.ix_(a, a)])


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
    than the scan step is treated as noise.  Each evaluation is a minimum over
    j in {0..n/2}^2 of the window cosine sums, from one cosine table per call.
    NoRootError names n, N and the Fejer minimum when no scan point reaches it
    (with the shortfall and the scan floor 8/N) or none falls below it.
    """
    grid = GridSpec(n, grid.N)
    target = float(np.abs(fejer_coefficients(n).coeffs).min())
    cos = _cosine_table(grid.N, n // 2)

    def f(eps):
        return float(np.abs(_bump_cosine_block(eps, grid.N, cos)).min()) - target

    scan = np.arange(8.0 / grid.N, 0.25, 1e-4)
    vals = np.array([f(e) for e in scan])
    above = np.nonzero(vals >= 0)[0]
    where = f"the Fejer minimum {target:.3e} at n = {n}, N = {grid.N}"
    if len(above) == 0:
        short = -vals.max(initial=-target)  # target when the scan is empty
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
        if f(mid) >= 0:
            lo = mid
        else:
            hi = mid
    eps = 0.5 * (lo + hi)
    return (eps, f(eps) / target) if full_output else eps


def summability_check(kernel, eta: float, grid: GridSpec) -> float:
    """Discrete kernel mass outside the ball B_eta(0) on the fine grid."""
    if not 0.0 < eta < 0.5:
        raise ValueError("eta must lie in (0, 1/2)")
    q = kernel.spatial(grid)
    a = np.arange(grid.N) / grid.N
    r = np.where(a >= 0.5, a - 1.0, a)  # signed torus distance to 0 per axis
    outside = np.add.outer(r * r, r * r) >= eta * eta
    return float(np.sum(q[outside]) / (grid.N * grid.N))
