"""Frequency-space assembly of the kernel-smoothed twisted transfer operator.

Entry (j, k) of the n^2 x n^2 matrix is

    q_hat(j) * F[ exp(-2 pi i j.T(y)) * exp(z g(y)) ](-k)

where F is the fine-grid forward transform and q_hat the kernel coefficients.
Assembly is row-blocked: the map images T(y) are sampled once on the fine
grid, power tables exp(-2 pi i j T)^|j| are cached per (map, grid), and each
block of rows is one batched FFT.  The kernel only scales rows, so the
kernel-independent base matrix is cached and reused across kernels at the
same (map, twist, grid).  The FFTs use scipy.fft's thread count, set with
scipy.fft.set_workers; it does not change results.

Memory guard: n > 128 is refused unless allow_large=True (the dense matrix
has n^4 complex entries).  The -k column lookup requires N >= 2n so that all
negated coarse frequencies are representable on the fine grid.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from . import backend
from .grids import (
    GridSpec,
    SpectralVector,
    coarse_freqs,
    fft_index,
    fine_points,
    read_dump,
    write_dump,
)
from .torus import MapModel, Observable

MAX_COARSE_ORDER = 128
EXP_GUARD = 700.0


@dataclass
class OperatorMatrix:
    """Dense twisted-operator matrix with row index j and column index k."""

    n: int
    entries: np.ndarray
    map_label: str
    kernel_label: str
    z: complex
    grid: GridSpec


class OperatorAssembler:
    """Caches fine-grid map data and the kernel-independent base matrix."""

    def __init__(self, map_model: MapModel, grid: GridSpec):
        if grid.N < 2 * grid.n:
            raise ValueError("operator assembly requires N >= 2n")
        self.map = map_model
        self.grid = grid
        self._pow1 = None
        self._pow2 = None
        self._base_key = None
        self._base = None

    def _power_tables(self):
        if self._pow1 is None:
            N, nh = self.grid.N, self.grid.n // 2
            X1, X2 = fine_points(N)
            T1, T2 = self.map.image_arrays(X1, X2)
            E1 = np.exp(-2j * np.pi * T1)
            E2 = np.exp(-2j * np.pi * T2)
            pow1 = np.empty((nh + 1, N, N), dtype=complex)
            pow2 = np.empty((nh + 1, N, N), dtype=complex)
            pow1[0] = 1.0
            pow2[0] = 1.0
            for j in range(1, nh + 1):
                np.multiply(pow1[j - 1], E1, out=pow1[j])
                np.multiply(pow2[j - 1], E2, out=pow2[j])
            self._pow1, self._pow2 = pow1, pow2
        return self._pow1, self._pow2

    def base_matrix(self, weight: np.ndarray) -> np.ndarray:
        """Rows F[exp(-2 pi i j.T) * weight](-k) for all coarse j, k."""
        key = hashlib.sha1(np.ascontiguousarray(weight).tobytes()).hexdigest()
        if self._base_key == key:
            return self._base
        n, N = self.grid.n, self.grid.N
        pow1, pow2 = self._power_tables()
        js = coarse_freqs(n)
        gat = fft_index(-js, N)
        w = np.ascontiguousarray(weight, dtype=complex)
        base = np.empty((n * n, n * n), dtype=complex)
        block = np.empty((n, N, N), dtype=complex)
        j2s = js.astype(np.int64)
        for i1, j1 in enumerate(js):
            j1s = np.full(n, j1, dtype=np.int64)
            backend.twisted_rows(pow1, pow2, w, j1s, j2s, block)
            C = sfft.fft2(block, axes=(-2, -1), overwrite_x=True)
            C *= 1.0 / (N * N)
            base[i1 * n : (i1 + 1) * n, :] = C[:, gat[:, None], gat[None, :]].reshape(
                n, n * n
            )
        self._base_key = key
        self._base = base
        return base


@functools.lru_cache(maxsize=2)
def get_assembler(map_model: MapModel, grid: GridSpec) -> OperatorAssembler:
    """The process-wide assembler of (map, grid), two most recently used kept."""
    return OperatorAssembler(map_model, grid)


def assemble(
    map_model: MapModel,
    kernel,
    g: Observable,
    z: complex,
    grid: GridSpec,
    allow_large: bool = False,
) -> OperatorMatrix:
    """Assemble the twisted operator matrix at twist parameter z.

    The weight exp(z g(y)) is evaluated once on the fine grid and reused
    across all rows.  Raises OverflowError when |Re z| * sup|g| exceeds the
    double-precision exp range guard.
    """
    if grid.n > MAX_COARSE_ORDER and not allow_large:
        raise MemoryError(
            f"coarse order {grid.n} exceeds the memory guard; pass allow_large=True"
        )
    asm = get_assembler(map_model, grid)
    z = complex(z)
    if z == 0:
        w = np.ones((grid.N, grid.N), dtype=complex)
    else:
        gs = np.asarray(g.sample(*fine_points(grid.N)), dtype=float)
        if abs(z.real) * float(np.abs(gs).max()) > EXP_GUARD:
            raise OverflowError("twist weight exp(z g) would overflow")
        w = np.exp(z * gs)
    base = asm.base_matrix(w)
    q = kernel.coefficients(grid).coeffs.real
    entries = q[:, None] * base
    return OperatorMatrix(
        n=grid.n,
        entries=entries,
        map_label=map_model.label,
        kernel_label=kernel.label,
        z=z,
        grid=grid,
    )


def apply(M: OperatorMatrix, v: SpectralVector) -> SpectralVector:
    """Matrix-vector product in the coarse linear order."""
    if v.n != M.n:
        raise ValueError("coarse order mismatch")
    return SpectralVector(M.n, M.entries @ v.coeffs)


def write_opmat(path, M: OperatorMatrix) -> None:
    """Binary dump: 'OPMAT <n> <z_re> <z_im>' header then complex entries."""
    header = f"OPMAT {M.n} {M.z.real!r} {M.z.imag!r}"
    write_dump(path, header, np.asarray(M.entries, dtype=complex))


def read_opmat(path):
    """Read an OPMAT dump; returns (n, z, entries)."""

    def shape_of(fields):
        n2 = int(fields[0]) ** 2
        return (n2, n2), True

    (n, z_re, z_im), entries = read_dump(path, "OPMAT", 3, shape_of)
    return int(n), complex(float(z_re), float(z_im)), entries
