"""Frequency-space assembly of the kernel-smoothed twisted transfer operator.

Entry (j, k) of the n^2 x n^2 matrix is

    q_hat(j) * F[ exp(-2 pi i j.T(y)) * w(y) ](-k)

where F is the fine-grid forward transform, q_hat the kernel coefficients
and w the weight: exp(z g) for L_z, its z-derivative g exp(z g) for dL/dz.

Every map is T(x) = A x + (phi1(x1), phi2(x2)) (``separable_parts()``), and
the weight is written as a sum of R separable terms, w = sum_r a_r(x1) b_r(x2).
The integrand is then a shift by A^T j times a sum of products of one
function of x1 and one of x2, so

    L[j, k] = q_hat(j) sum_r U1_r[j1, (A^T j)_1 - k1] U2_r[j2, (A^T j)_2 - k2]

with U1_r[j1] the 1-D transform of exp(-2 pi i j1 phi1) a_r, and U2_r[j2]
that of exp(-2 pi i j2 phi2) b_r.  Gathered at the rows j, these are the
factors G1[j, r, k1] (q_hat folded in) and G2[j, r, k2].  The terms are exact:

* g = g1(x1) + g2(x2) (no mixed Fourier modes): one term, e^{z g1} e^{z g2};
  its derivative two, g1 e^{z g1} e^{z g2} + e^{z g1} g2 e^{z g2};
* z = 0: one term, the weight 1, whatever g is;
* any other g (mixed modes, a callable): N terms, one per fine column c,
  a_c = w[:, c] and b_c the indicator of x2 = c/N.

Only the weight depends on z.  A :class:`TwistPlan`, built once per
problem, holds the rest: the phases exp(-2 pi i j_i phi_i) on the fine axis,
the gather indices, q_hat, and a separable g's 1-D samples and sup|g|;
:func:`assemble` is a one-off plan.  Its ``pair(z)`` gives L_z and dL/dz
from the derivative's one batch of 1-D transforms, whose second a-term and
first b-term are L_z's one term.

With one or two terms the operator is a :class:`SeparableOperator`: it
applies L and L^H from G1 and G2 in R n^4 multiply-adds, as a dense matvec
does, and O(R n^3) memory; ``dense()`` alone builds the n^4 matrix.  The
N-term weight is summed into the dense matrix, one batched matrix product
over the rows j per block of ``TERM_BLOCK`` terms.  At n = 32, N = 512 a
plan's pair takes about 1.9 ms (4.5 ms as two one-off assemblies) and one
apply 0.3 ms; the N-term weight 1 s.

Every assembly has the guards: MemoryError before any allocation when
what the operator needs exceeds ``MEMORY_BUDGET`` bytes (a plan checks its
phases, each block of terms its transforms and ``dense()`` its n^4 complex
entries the same way), and OverflowError when |Re z| sup|g| exceeds the exp
range guard; GridSpec refuses N < 2n.  Any g that does not separate is
sampled on the fine grid, which its weight needs anyway.  A separable
weight factor's largest exponent is taken out of it and put back into
q_hat, so exp(z g) may pass the guard where exp(z g2) alone would overflow.

:class:`OperatorAssembler` is the brute-force reference: n^2 two-dimensional
FFTs of the full integrand over power tables of exp(-2 pi i T).  The
assembly never calls it; the tests check every path against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import backend
from .grids import GridSpec, coarse_freqs, fine_points, read_dump, write_dump
from .torus import MapModel, Observable

MEMORY_BUDGET = 2**30  # bytes an assembly, a dense() or a bump window may allocate
EXP_GUARD = 700.0
TERM_BLOCK = 32


@dataclass
class OperatorMatrix:
    """Twisted operator with row index j and column index k.

    ``entries`` is a :class:`SeparableOperator` for a weight of one or two
    separable terms and the dense n^2 x n^2 ndarray otherwise; both take
    ``@``.  :meth:`adjoint` applies L^H and :meth:`dense` is the ndarray.
    """

    entries: np.ndarray | SeparableOperator
    z: complex
    grid: GridSpec

    @property
    def n(self) -> int:
        return self.grid.n

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        if isinstance(self.entries, np.ndarray):
            return (u.conj() @ self.entries).conj()
        return self.entries.adjoint(u)

    def dense(self) -> np.ndarray:
        if isinstance(self.entries, np.ndarray):
            return self.entries
        return self.entries.dense()


class OperatorAssembler:
    """Brute-force reference: the full integrand's 2-D FFT, row by row."""

    def __init__(self, map_model: MapModel, grid: GridSpec):
        self.map = map_model
        self.grid = grid
        self._pow1 = None
        self._pow2 = None

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
        n, N = self.grid.n, self.grid.N
        pow1, pow2 = self._power_tables()
        js = coarse_freqs(n)
        gat = (-js) % N
        w = np.ascontiguousarray(weight, dtype=complex)
        base = np.empty((n * n, n * n), dtype=complex)
        block = np.empty((n, N, N), dtype=complex)
        j2s = js.astype(np.int64)
        for i1, j1 in enumerate(js):
            j1s = np.full(n, j1, dtype=np.int64)
            backend.twisted_rows(pow1, pow2, w, j1s, j2s, block)
            C = np.fft.fft2(block)
            C *= 1.0 / (N * N)
            base[i1 * n : (i1 + 1) * n, :] = C[:, gat[:, None], gat[None, :]].reshape(
                n, n * n
            )
        return base


class SeparableOperator:
    """L from its gathered factors, L[j, (k1, k2)] = sum_r G1[j, r, k1] G2[j, r, k2].

    ``G1`` and ``G2`` are (n^2, R, n) arrays, q_hat folded into G1.  ``L @ v``
    and :meth:`adjoint` are each a GEMM of (n^2 R x n)(n x n) and a row-wise
    dot, R n^4 multiply-adds in O(R n^3) memory; only :meth:`dense` forms n^4.
    """

    dtype = np.dtype(complex)

    def __init__(self, G1: np.ndarray, G2: np.ndarray):
        self.G1, self.G2 = G1, G2
        self.shape = (G1.shape[0],) * 2

    def __matmul__(self, v):
        # T[(j, r), k1] = sum_k2 G2[j, r, k2] V[k1, k2], then sum over (r, k1)
        n2, R, n = self.G1.shape
        T = self.G2.reshape(n2 * R, n) @ v.reshape(n, n).T
        return np.matmul(
            self.G1.reshape(n2, 1, R * n), T.reshape(n2, R * n, 1)
        ).reshape(n2)

    def adjoint(self, u):
        # conj(L^H u) = sum_j conj(u_j) G1[j, r, k1] G2[j, r, k2]
        n2, R, n = self.G1.shape
        W = (self.G1 * u.conj().reshape(n2, 1, 1)).reshape(n2 * R, n)
        return (W.T @ self.G2.reshape(n2 * R, n)).conj().reshape(n2)

    def dense(self) -> np.ndarray:
        _reserve(16 * self.shape[0] ** 2, "the dense operator")
        return _product(self.G1, self.G2)


def _reserve(nbytes: int, what: str) -> None:
    """MemoryError, before allocation, if ``nbytes`` exceeds MEMORY_BUDGET."""
    if nbytes > MEMORY_BUDGET:
        raise MemoryError(
            f"{what} needs {nbytes / 2**20:.0f} MiB, "
            f"above the {MEMORY_BUDGET / 2**20:.0f} MiB memory budget"
        )


def _product(G1: np.ndarray, G2: np.ndarray) -> np.ndarray:
    """The n^2 x n^2 matrix sum_r G1[j, r, k1] G2[j, r, k2]."""
    n2 = G1.shape[0]
    return np.matmul(G1.transpose(0, 2, 1), G2).reshape(n2, n2)


def _windows(U: np.ndarray) -> np.ndarray:
    """View W[row, c, r, t] = U[r, row, (c + n - 1 - t) mod N] of (R, n, N) transforms."""
    n = U.shape[1]
    wrapped = np.concatenate((U, U[..., : n - 1]), axis=-1)
    return sliding_window_view(wrapped, n, axis=-1)[..., ::-1].transpose(1, 2, 0, 3)


class TwistPlan:
    """The z-independent part of one problem's twisted operators (see the
    module docstring): each z costs the weight, one batch of 1-D
    transforms and the gathers."""

    def __init__(self, map_model: MapModel, kernel, g: Observable, grid: GridSpec):
        A, phi1, phi2 = map_model.separable_parts()
        n, N = grid.n, grid.N
        js = coarse_freqs(n)
        _reserve(2 * 16 * n * N, "the twist plan's phases")
        x = np.arange(N) / N
        self.grid, self.g = grid, g
        self.E1, self.E2 = (-2j * np.pi * js[:, None] * phi(x) for phi in (phi1, phi2))
        for E in (self.E1, self.E2):
            np.exp(E, out=E)
        J1, J2 = (J.ravel() for J in np.meshgrid(js, js, indexing="ij"))
        # U_i[j_i, (A^T j)_i - k_i] over k_i = js is the n-wide window of columns
        # from (A^T j)_i - js[-1] on, read backwards: one row and start per j
        self.gat1 = (J1 - js[0], (A[0, 0] * J1 + A[1, 0] * J2 - js[-1]) % N)
        self.gat2 = (J2 - js[0], (A[0, 1] * J1 + A[1, 1] * J2 - js[-1]) % N)
        self.q = kernel.coefficients(grid).ravel()
        parts = g.separable_parts()
        self.parts = self.sup = None
        if parts is not None:
            g1, g2 = self.parts = tuple(gi(x) for gi in parts)
            # Rounded addition is monotone: this is max |g1(x1) + g2(x2)| on the grid.
            self.sup = max(abs(g1.max() + g2.max()), abs(g1.min() + g2.min()))

    def _factors(self, a, b, q):
        """Yield the factors (G1, G2) of the module docstring, each (n^2, R, n),
        for blocks of ``TERM_BLOCK`` terms; ``a`` and ``b`` are (R, N) samples
        of the weight's terms a_r(x1), b_r(x2), and q_hat is ``q``."""
        n, N = self.grid.n, self.grid.N
        # one side's R n N transform input and output, then the output and its wrap
        _reserve(16 * min(len(a), TERM_BLOCK) * n * (2 * N + n), "a term block's transforms")
        for r in range(0, len(a), TERM_BLOCK):
            G1, G2 = (
                _windows(np.fft.fft(E * f[r : r + TERM_BLOCK, None], norm="forward"))[gat]
                for E, f, gat in ((self.E1, a, self.gat1), (self.E2, b, self.gat2))
            )
            G1 *= q[:, None, None]
            yield G1, G2

    def operator(self, z, derivative: bool = False) -> OperatorMatrix:
        """L_z, the weight exp(z g), or with ``derivative`` dL/dz, the weight
        g exp(z g); both after the guards."""
        z = complex(z)
        n, N = self.grid.n, self.grid.N
        # at z = 0 the weight is 1, separable whatever g is
        unit = z == 0 and not derivative
        parts, sup = ((np.zeros(N),) * 2, 0.0) if unit else (self.parts, self.sup)
        if parts is not None:
            # the two factors and one apply's work array, each R n^3 entries
            _reserve(3 * 16 * (2 if derivative else 1) * n**3, "the operator's factors")
        else:
            # the running sum, one block's product and that block's two factors;
            # on the fine grid the points, g, z g, the weight and the indicators
            _reserve(16 * (2 * n**4 + 2 * TERM_BLOCK * n**3) + 64 * N * N, "the dense operator")
            gs = np.asarray(self.g.sample(*fine_points(N)), dtype=float)
            sup = float(np.abs(gs).max())
        if abs(z.real) * sup > EXP_GUARD:
            raise OverflowError("twist weight exp(z g) would overflow")
        if parts is None:
            w = np.exp(z * gs)
            if derivative:
                w *= gs
            # column c of w times the indicator of x2 = c/N
            blocks = self._factors(w.T, np.eye(N), self.q)
            entries = _product(*next(blocks))
            for G1, G2 in blocks:
                entries += _product(G1, G2)
            return OperatorMatrix(entries, z, self.grid)
        # The guard bounds exp(z g), not exp(z g_i): take each factor's largest
        # exponent out of it and put the sum, max Re(z g), back into q.
        g1, g2 = parts
        zg1, zg2 = z * g1, z * g2
        top1, top2 = float(zg1.real.max()), float(zg2.real.max())
        e1, e2 = np.exp(zg1 - top1), np.exp(zg2 - top2)
        a, b = ([g1 * e1, e1], [e2, g2 * e2]) if derivative else ([e1], [e2])
        G1, G2 = next(self._factors(np.asarray(a), np.asarray(b), self.q * np.exp(top1 + top2)))
        return OperatorMatrix(SeparableOperator(G1, G2), z, self.grid)

    def pair(self, z):
        """(L_z, dL/dz).  For a separable g, L_z's factors are column 1 of the
        derivative's G1 (a = [g1 e1, e1]) and column 0 of its G2
        (b = [e2, g2 e2]), copied so each apply reads contiguous factors."""
        if self.parts is None:
            return self.operator(z), self.operator(z, derivative=True)
        # the derivative's factors and work array, and L_z's two columns
        _reserve(16 * 8 * self.grid.n**3, "the operator's factors")
        dM = self.operator(z, derivative=True)
        G1, G2 = dM.entries.G1[:, 1:].copy(), dM.entries.G2[:, :1].copy()
        return OperatorMatrix(SeparableOperator(G1, G2), dM.z, self.grid), dM


def assemble(map_model: MapModel, kernel, g: Observable, z: complex, grid: GridSpec):
    """The twisted operator at z from a one-off :class:`TwistPlan`.

    Raises OverflowError when |Re z| * sup|g| exceeds the exp range guard.
    """
    return TwistPlan(map_model, kernel, g, grid).operator(z)


def write_opmat(path, M: OperatorMatrix) -> None:
    """Binary dump: 'OPMAT <n> <z_re> <z_im>' header then complex entries."""
    header = f"OPMAT {M.n} {M.z.real!r} {M.z.imag!r}"
    write_dump(path, header, np.asarray(M.dense(), dtype=complex))


def read_opmat(path):
    """Read an OPMAT dump; returns (n, z, entries)."""

    def shape_of(fields):
        n2 = int(fields[0]) ** 2
        return (n2, n2), True

    (n, z_re, z_im), entries = read_dump(path, "OPMAT", 3, shape_of)
    return int(n), complex(float(z_re), float(z_im)), entries
