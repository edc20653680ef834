"""Grid conventions and discrete Fourier machinery.

Two grids are in play: a coarse frequency grid of order n (frequencies
{-n/2+1, ..., n/2} per axis, Nyquist included on the positive side only) and
a fine N x N collocation grid with sample (a, b) at the point (a/N, b/N).

The forward transform carries a 1/N^2 factor so that the coefficient at
frequency j approximates the L^2 inner product <f, e^{2 pi i j.x}>.  Fine
spectral arrays have one layout, numpy's FFT order: frequency j sits at axis
index j mod N.  The coarse block is read from and written to those indices.

Coarse coefficients are (n, n) arrays, each axis ascending from -n/2+1 to
n/2; operators act on their C-order ravel, a vector of length n^2 with
frequency (j1, j2) at index freq_index(j1, j2, n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy import fft  # numpy 2 loads numpy.fft on first use; this loads it here


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Coarse order n >= 2 and fine order N >= 2n, both powers of two."""

    n: int
    N: int

    def __post_init__(self):
        if not (_is_pow2(self.n) and _is_pow2(self.N)):
            raise ValueError("n and N must be powers of two")
        if self.n < 2:
            raise ValueError(
                "coarse order n must be at least 2: the grid {-n/2+1, ..., n/2} "
                "is empty at n = 1"
            )
        if self.N < 2 * self.n:
            raise ValueError(f"fine order N >= 2n required, got n = {self.n}, N = {self.N}")


def coarse_freqs(n: int) -> np.ndarray:
    """The centered frequency range {-n/2+1, ..., n/2}."""
    return np.arange(-(n // 2) + 1, n // 2 + 1)


def freq_index(j1: int, j2: int, n: int) -> int:
    """Linear index of frequency (j1, j2) in the coarse storage order."""
    lo = -(n // 2) + 1
    if not (lo <= j1 <= n // 2 and lo <= j2 <= n // 2):
        raise IndexError(f"frequency {(j1, j2)} outside coarse range of order {n}")
    return (j1 - lo) * n + (j2 - lo)


def fine_points(N: int):
    """Meshgrid arrays (X1, X2) of the fine collocation points, ij-indexed."""
    a = np.arange(N) / N
    return np.meshgrid(a, a, indexing="ij")


def forward_transform(samples: np.ndarray) -> np.ndarray:
    """DFT coefficients c(j) = (1/N^2) sum f(x) e^{-2 pi i j.x}, FFT order."""
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.shape[0] != samples.shape[1]:
        raise ValueError("samples must be a square N x N array")
    return fft.fft2(samples, norm="forward")


def line_transform(rows: np.ndarray) -> np.ndarray:
    """1-D DFT coefficients c(j) = (1/N) sum f(x) e^{-2 pi i j x} of each row, FFT order."""
    return fft.fft(rows, norm="forward")


def restrict_to_coarse(fine: np.ndarray, n: int) -> np.ndarray:
    """The coarse (n, n) block {-n/2+1..n/2}^2 of a fine spectrum."""
    N = fine.shape[0]
    if n > N:
        raise ValueError("coarse order exceeds fine order")
    k = coarse_freqs(n) % N
    return fine[np.ix_(k, k)]


def evaluate_on_fine(coeffs: np.ndarray, N: int) -> np.ndarray:
    """Samples of sum_j c(j) e^{2 pi i j.x} on the fine N x N grid; c is (n, n).
    The x2 transform runs on the n nonzero rows only, then x1 on all columns."""
    if N < len(coeffs):
        raise ValueError("fine order must be at least the coarse order")
    k = coarse_freqs(len(coeffs)) % N
    rows = np.zeros((len(k), N), dtype=complex)
    rows[:, k] = coeffs
    fine = np.zeros((N, N), dtype=complex)
    fine[k] = fft.ifft(rows, norm="forward")
    return fft.ifft(fine, axis=0, norm="forward")


# ---------------------------------------------------------------------------
# Binary dumps (GRID here, OPMAT for operators): a one-line ASCII header whose
# first word names the format, followed by the array row-major as
# little-endian float64, complex entries as interleaved (re, im) pairs.


def write_dump(path, header: str, data: np.ndarray) -> None:
    """Write ``header`` as the first line, then the float64 payload."""
    data = np.asarray(data)
    if np.iscomplexobj(data):
        data = np.stack((data.real, data.imag), axis=-1)
    with open(path, "wb") as f:
        f.write(f"{header}\n".encode("ascii"))
        f.write(data.astype("<f8").tobytes())


def read_dump(path, magic: str, nfields: int, shape_of) -> tuple:
    """Read a dump written by :func:`write_dump`.

    The header must be ``magic`` followed by ``nfields`` words;
    ``shape_of(fields)`` gives the payload's (shape, is_complex), and the
    payload must hold exactly that many values.  Returns (fields, array).
    """
    with open(path, "rb") as f:
        header = f.readline().decode("ascii").split()
        if len(header) != nfields + 1 or header[0] != magic:
            raise ValueError(f"not a {magic} dump")
        fields = header[1:]
        shape, is_complex = shape_of(fields)
        size = int(np.prod(shape)) * (16 if is_complex else 8)
        payload = f.read()
    if len(payload) != size:
        raise ValueError(f"{magic} payload is {len(payload)} bytes, its header gives {size}")
    raw = np.frombuffer(payload, dtype="<f8")
    if is_complex:
        raw = raw.reshape(*shape, 2)
        return fields, raw[..., 0] + 1j * raw[..., 1]
    return fields, raw.reshape(shape).copy()


def write_grid(path, samples: np.ndarray) -> None:
    samples = np.asarray(samples)
    kind = "complex" if np.iscomplexobj(samples) else "real"
    rows, cols = samples.shape
    write_dump(path, f"GRID {rows} {cols} {kind}", samples)


def read_grid(path) -> np.ndarray:
    def shape_of(fields):
        return (int(fields[0]), int(fields[1])), fields[2] == "complex"

    return read_dump(path, "GRID", 3, shape_of)[1]


def write_grid_csv(path, samples: np.ndarray) -> None:
    """CSV export, one line per grid row. Complex entries as re+imj strings."""
    samples = np.asarray(samples)
    if np.iscomplexobj(samples):
        conv = lambda v: str(complex(v))
    else:
        conv = lambda v: repr(float(v))
    with open(path, "w") as f:
        for row in samples:
            f.write(",".join(conv(v) for v in row) + "\n")
