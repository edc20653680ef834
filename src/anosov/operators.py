"""Frequency-space assembly of the kernel-smoothed twisted transfer operator.

Entry (j, k) of the n^2 x n^2 matrix is

    q_hat(j) * F[ exp(-2 pi i j.T(y)) * exp(z g(y)) ](-k)

where F is the fine-grid forward transform and q_hat the kernel coefficients.
:func:`assemble` picks one of two paths; the caller never chooses.

Factored path: when the map is T(x) = A x + (phi1(x1), phi2(x2)) and the
observable is g1(x1) + g2(x2) (both expose ``separable_parts()``), the
integrand is a shift by A^T j times one function of x1 times one of x2, so

    L[j, k] = q_hat(j) * U1[j1, (A^T j)_1 - k1] * U2[j2, (A^T j)_2 - k2]

with U_i[j_i] the 1-D transform of exp(-2 pi i j_i phi_i) * exp(z g_i).  This
is 2n one-dimensional FFTs of length N and one gather.  It keeps no state: a
full rebuild at n = 32, N = 512 takes about 15 ms.

Generic path: for any other map or observable (mixed Fourier modes, a
callable observable).  It is row-blocked: the map images T(y) are sampled
once on the fine grid, power tables exp(-2 pi i j T)^|j| are cached per
(map, grid), and each block of rows is one batched 2-D FFT.  The kernel only
scales rows, so the kernel-independent base matrix is cached and reused
across kernels at the same (map, twist, grid).  The power tables and the
base cache serve this path only; it is also the oracle the tests check the
factored path against.

The FFTs use scipy.fft's thread count, set with scipy.fft.set_workers; it
does not change results.  Both paths share the guards, checked before
dispatch: N >= 2n (ValueError), n > 128 refused unless allow_large=True
(MemoryError; the dense matrix has n^4 complex entries), and |Re z| sup|g|
above the exp range guard (OverflowError).  The factored path takes sup|g|
from the 1-D samples of g1 and g2; the generic path samples g on the fine
grid, which its weight needs anyway.
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
    """Generic path: caches fine-grid map data and the kernel-free base matrix."""

    def __init__(self, map_model: MapModel, grid: GridSpec):
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


def _factored_entries(map_parts, g_samples, z: complex, q, grid: GridSpec):
    """q_hat(j) U1[j1, (A^T j)_1 - k1] U2[j2, (A^T j)_2 - k2] for all coarse j, k."""
    A, phi1, phi2 = map_parts
    n, N = grid.n, grid.N
    js = coarse_freqs(n)
    x = np.arange(N) / N
    zg = [z * gi for gi in g_samples]
    # The guard bounds exp(z g), not exp(z g_i): take each factor's largest
    # exponent out of it and put the sum, max Re(z g), back into q.
    tops = [float(e.real.max()) for e in zg]
    U1, U2 = (
        sfft.fft(np.exp(-2j * np.pi * js[:, None] * phi(x) + (e - top)), axis=-1) / N
        for phi, e, top in zip((phi1, phi2), zg, tops)
    )
    J1, J2 = np.meshgrid(js, js, indexing="ij")
    shift1 = (A[0, 0] * J1 + A[1, 0] * J2)[:, :, None] - js
    shift2 = (A[0, 1] * J1 + A[1, 1] * J2)[:, :, None] - js
    rows = np.arange(n)
    f1 = U1[rows[:, None, None], shift1 % N]  # [j1, j2, k1]
    f2 = U2[rows[None, :, None], shift2 % N]  # [j1, j2, k2]
    f1 *= q.reshape(n, n, 1) * np.exp(tops[0] + tops[1])
    return (f1[:, :, :, None] * f2[:, :, None, :]).reshape(n * n, n * n)


def assemble(
    map_model: MapModel,
    kernel,
    g: Observable,
    z: complex,
    grid: GridSpec,
    allow_large: bool = False,
) -> OperatorMatrix:
    """Assemble the twisted operator matrix at twist parameter z.

    Uses the factored path when both the map and the observable are
    separable, else the generic path (see the module docstring).  Raises
    OverflowError when |Re z| * sup|g| exceeds the double-precision exp
    range guard.
    """
    if grid.n > MAX_COARSE_ORDER and not allow_large:
        raise MemoryError(
            f"coarse order {grid.n} exceeds the memory guard; pass allow_large=True"
        )
    if grid.N < 2 * grid.n:
        raise ValueError("operator assembly requires N >= 2n")
    z = complex(z)
    map_parts, g_parts = map_model.separable_parts(), g.separable_parts()
    factored = map_parts is not None and g_parts is not None
    gs, sup = None, 0.0
    if factored:
        x = np.arange(grid.N) / grid.N
        g1, g2 = (gi(x) for gi in g_parts)
        # Rounded addition is monotone: this is max |g1(x1) + g2(x2)| on the grid.
        sup = max(abs(g1.max() + g2.max()), abs(g1.min() + g2.min()))
    elif z != 0:
        gs = np.asarray(g.sample(*fine_points(grid.N)), dtype=float)
        sup = float(np.abs(gs).max())
    if abs(z.real) * sup > EXP_GUARD:
        raise OverflowError("twist weight exp(z g) would overflow")
    q = kernel.coefficients(grid).coeffs.real
    if factored:
        entries = _factored_entries(map_parts, (g1, g2), z, q, grid)
    else:
        w = np.ones((grid.N, grid.N), dtype=complex) if gs is None else np.exp(z * gs)
        entries = q[:, None] * get_assembler(map_model, grid).base_matrix(w)
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
