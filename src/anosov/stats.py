"""Statistical quantities extracted from assembled transfer operators.

The chain is: the z = 0 operator, its leading eigendata, the invariant
density and the observable centered against it form one :class:`Baseline`,
built once per call; the CLT variance comes from the Green-Kubo series of
the deflated resolvent; the twisted eigenvalue curve lambda(z) gives
the large-deviations rate function r(s) = sup_z (s z - ln|lambda(z)|) by a
safeguarded Newton solve of Lambda'(z) = s, Lambda = ln|lambda|, with
Lambda' from the Hellmann-Feynman formula (left and right eigenvectors and
the derivative operator).

The eigenvalue 1 of the untwisted operator makes Id - L singular on the zero
mode.  L preserves mass, so the mean-zero subspace is invariant, L contracts
it by |lambda_2| (about 0.1), and (Id - L)^{-1} L there is the series
sum_{j>=1} L^j with the zero-mode coordinate cut from each term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .grids import (
    GridSpec,
    SpectralVector,
    evaluate_on_fine,
    fine_points,
    forward_transform,
    freq_index,
    restrict_to_coarse,
    riemann_integral,
)
from .operators import OperatorMatrix, assemble, assemble_derivative
from .torus import MapModel, Observable


class NumericalError(RuntimeError):
    """A computation failed to meet its numerical contract."""


class SingularSolveError(NumericalError):
    """The deflated resolvent system is numerically singular."""


class NonConvergenceError(NumericalError):
    """An iterative solver stopped before it met its tolerance."""


DENSE_EIG_MAX_ORDER = 4


@dataclass
class EigenData:
    """Leading eigenvalue and mass-normalised right eigenvector."""

    lam: complex
    right_vector: SpectralVector
    residual: float
    method: str  # "dense" or "arpack"


def _pick_leading(eigvals: np.ndarray) -> int:
    mods = np.abs(eigvals)
    top = mods.max()
    cand = np.nonzero(mods >= top * (1.0 - 1e-12))[0]
    if len(cand) == 1:
        return int(cand[0])
    order = sorted(cand, key=lambda i: (eigvals[i].real, eigvals[i].imag))
    return int(order[-1])


def _normalise(n: int, vec: np.ndarray) -> np.ndarray:
    izero = freq_index(0, 0, n)
    norm = np.linalg.norm(vec)
    if abs(vec[izero]) > 1e-12 * norm:
        return vec / vec[izero]
    return vec / norm


def _arpack_leading(A, v0: np.ndarray):
    """Largest-modulus eigenpair (lam, v) of a dense or sparse matrix.

    ARPACK (implicitly restarted Arnoldi) from the start vector v0, at its
    default tolerance of machine precision.  The generator behind ARPACK's
    restart vectors is seeded, so a v0 that already spans an invariant
    subspace still gives bitwise-equal reruns.  ARPACK failures surface as
    NonConvergenceError.
    """
    try:
        vals, vecs = spla.eigs(A, k=1, which="LM", v0=v0, rng=0)
    except spla.ArpackError as exc:  # ArpackNoConvergence included
        raise NonConvergenceError(str(exc)) from exc
    return complex(vals[0]), vecs[:, 0]


def _leading(A: np.ndarray, n: int):
    """(lam, v, method): dense eig for n <= 4, ARPACK from the zero mode beyond."""
    if n <= DENSE_EIG_MAX_ORDER:
        vals, vecs = np.linalg.eig(A)
        i = _pick_leading(vals)
        return complex(vals[i]), vecs[:, i], "dense"
    v0 = np.zeros(n * n, dtype=complex)
    v0[freq_index(0, 0, n)] = 1.0
    lam, v = _arpack_leading(A, v0)
    return lam, v, "arpack"


def leading_eigenpair(M: OperatorMatrix) -> EigenData:
    """Max-modulus eigenpair: dense for n <= 4, ARPACK beyond.

    ARPACK starts from the zero mode.  Only the dense path breaks modulus
    ties (by largest real part, then largest imaginary part).  The residual
    is ||A v - lam v|| / ||v|| for the mass-normalised v.
    """
    A = M.entries
    lam, v, method = _leading(A, M.n)
    v = _normalise(M.n, v)
    residual = float(np.linalg.norm(A @ v - lam * v) / np.linalg.norm(v))
    return EigenData(lam, SpectralVector(M.n, v), residual, method)


@dataclass(frozen=True)
class Baseline:
    """The untwisted operator and everything the statistics derive from it.

    ``density`` is the unit-mass invariant density on the fine grid (its
    imaginary part, at most ``imag_max``, is dropped); ``shift`` is the mean
    of g against it and ``centered`` the fine-grid samples of g - shift.
    """

    M0: OperatorMatrix
    eigen: EigenData
    density: np.ndarray
    imag_max: float
    shift: float
    centered: np.ndarray


def baseline(M0: OperatorMatrix, g: Observable) -> Baseline:
    """Leading eigendata of M0, its density, and g centered against it."""
    N = M0.grid.N
    eig = leading_eigenpair(M0)
    spatial = evaluate_on_fine(eig.right_vector, N)
    density = spatial.real.copy()
    parts, x = g.separable_parts(), np.arange(N) / N
    if parts is None:
        gs = np.asarray(g.sample(*fine_points(N)), dtype=float)
    else:
        gs = np.add.outer(parts[0](x), parts[1](x))
    shift = float(riemann_integral(gs * density).real)
    return Baseline(
        M0, eig, density, float(np.abs(spatial.imag).max()), shift, gs - shift
    )


# Green-Kubo terms summed before an operator that does not mix counts as singular
_SERIES_MAX_TERMS = 10_000


def _green_kubo(A, x, project):
    """(w, residual, terms, rate): w = sum_{j>=1} A^j x off A's eigenvalue 1.

    Each term is v <- project(A v) from v = x; ``project`` removes the
    eigenvalue-1 mode, so rounding drift along it cannot accumulate.  The sum
    stops once max|v| <= 1e-16 max(1, max|w|); w then solves
    project((Id - A) w) = project(A x), and SingularSolveError is raised if
    that residual exceeds 1e-8 max(1, ||project(A x)||), if w is not finite,
    or if _SERIES_MAX_TERMS terms do not converge (A does not mix).  ``rate``
    = (max|v_last| / max|v_1|)^(1/(terms - 1)) estimates |lambda_2|.
    """
    v = rhs = project(A @ x)
    w, first = v.copy(), np.abs(v).max()
    for terms in range(1, _SERIES_MAX_TERMS + 1):
        last = np.abs(v).max()
        if last <= 1e-16 * max(1.0, np.abs(w).max()):
            break
        v = project(A @ v)
        w += v
    else:
        raise SingularSolveError(
            f"Green-Kubo series did not converge in {_SERIES_MAX_TERMS} terms"
        )
    if not np.all(np.isfinite(w)):
        raise SingularSolveError("Green-Kubo series produced non-finite values")
    residual = float(np.linalg.norm(project(w - A @ w) - rhs))
    if residual > 1e-8 * max(1.0, float(np.linalg.norm(rhs))):
        raise SingularSolveError(f"deflated solve residual {residual:.3e}")
    rate = float((last / first) ** (1.0 / (terms - 1))) if terms > 1 else 0.0
    return w, residual, terms, rate


def _deflated_solve(M: OperatorMatrix, x: np.ndarray):
    """:func:`_green_kubo` for M with the zero-mode coordinate cut from each
    term: w_0 = 0 and (Id - M) w = M x on every other row."""
    izero = freq_index(0, 0, M.n)

    def off_zero_mode(v):
        v[izero] = 0.0
        return v

    return _green_kubo(M.entries, x, off_zero_mode)


@dataclass
class VarianceResult:
    sigma2: float
    shift: float
    solve_residual: float
    solve_terms: int
    solve_rate: float  # contraction per series term, about |lambda_2|
    n: int
    N: int
    kernel_label: str

    def to_dict(self) -> dict:
        return {
            "sigma2": self.sigma2,
            "mean_shift": self.shift,
            "solve_residual": self.solve_residual,
            "solve_terms": self.solve_terms,
            "solve_rate": self.solve_rate,
            "n": self.n,
            "N": self.N,
            "kernel": self.kernel_label,
        }


def variance(
    map_model: MapModel, kernel, g: Observable, grid: GridSpec
) -> VarianceResult:
    """CLT variance from the Green-Kubo series of the deflated resolvent.

    sigma^2 = int g_c^2 v + 2 g_c (Id - L)^{-1} L (g_c v) dLeb, with v the
    unit-mass invariant density of the z = 0 operator and g_c the centered
    observable; (Id - L)^{-1} L (g_c v) = sum_{j>=1} L^j (g_c v) off the zero
    mode.  All products are formed pointwise on the fine grid.
    """
    return _variance(baseline(assemble(map_model, kernel, g, 0.0, grid), g))


def _variance(base: Baseline) -> VarianceResult:
    M0, gc, v = base.M0, base.centered, base.density
    n, N = M0.grid.n, M0.grid.N
    x = restrict_to_coarse(forward_transform(gc * v), n).coeffs
    w, residual, terms, rate = _deflated_solve(M0, x)
    w_spatial = evaluate_on_fine(SpectralVector(n, w), N)
    sigma2 = complex(riemann_integral(gc * gc * v + 2.0 * gc * w_spatial))
    if sigma2.real < -1e-8:
        raise NumericalError(f"variance came out negative: {sigma2.real:.3e}")
    return VarianceResult(
        sigma2=float(sigma2.real),
        shift=base.shift,
        solve_residual=residual,
        solve_terms=terms,
        solve_rate=rate,
        n=n,
        N=N,
        kernel_label=M0.kernel_label,
    )


def _leading_lam(base: Baseline, map_model, kernel, gc: Observable, z: float):
    """Leading eigenvalue at twist z; z = 0 reuses the baseline eigenpair."""
    if z == 0.0:
        return base.eigen.lam
    return leading_eigenpair(assemble(map_model, kernel, gc, z, base.M0.grid)).lam


@dataclass
class LambdaPoint:
    z: float
    lam: complex


def lambda_curve(
    map_model: MapModel,
    kernel,
    g: Observable,
    grid: GridSpec,
    z_values,
) -> list:
    """Leading eigenvalue of the twisted operator along real twists.

    The observable is centered against the invariant density of the z = 0
    operator before twisting, so d/dz ln|lambda| vanishes at z = 0.
    """
    base = baseline(assemble(map_model, kernel, g, 0.0, grid), g)
    gc = g.shifted(base.shift)
    return [
        LambdaPoint(z, complex(_leading_lam(base, map_model, kernel, gc, z)))
        for z in map(float, z_values)
    ]


@dataclass
class RateRow:
    s: float
    z_star: float
    r: float
    iterations: int
    at_bracket_boundary: bool


@dataclass
class RateTable:
    rows: list
    sigma2: float
    shift: float
    solve_terms: int
    solve_rate: float
    z_bracket: tuple
    bracket_expanded: bool
    legendre_evals: int
    lambda_imag_max: float  # largest |Im lambda| / |lambda| over the evaluations
    slope_monotone: bool  # Lambda' nondecreasing over the evaluated z, in z order
    eigvec_overlap_min: float  # smallest |<l, r>| / (|l| |r|) over the evaluations

    def to_rows(self):
        return [
            (row.s, row.z_star, row.r, row.iterations, row.at_bracket_boundary)
            for row in self.rows
        ]


_NEWTON_TOL = 1e-9
_NEWTON_MAX_EVALS = 60


def _legendre_point(M: OperatorMatrix, eig: EigenData, dM: OperatorMatrix):
    """(Lambda, Lambda', overlap) at M's twist, Lambda = ln|lam|.

    Hellmann-Feynman: Lambda' = Re <l, dM r> / (lam <l, r>), with r the right
    eigenvector in ``eig``, l the left one (the leading eigenvector of M^H,
    from the same start vector) and dM the derivative operator.  The overlap
    |<l, r>| / (|l| |r|) vanishes where two eigenvalues of equal modulus
    cross and l and r belong to different ones; Lambda' is meaningless there.
    """
    _, left, _ = _leading(M.entries.conj().T, M.n)
    r = eig.right_vector.coeffs
    inner = np.vdot(left, r)
    slope = np.vdot(left, dM.entries @ r) / (eig.lam * inner)
    overlap = abs(inner) / (np.linalg.norm(left) * np.linalg.norm(r))
    return math.log(abs(eig.lam)), float(slope.real), float(overlap)


def rate_function(
    map_model: MapModel,
    kernel,
    g: Observable,
    grid: GridSpec,
    s_values,
    z_bracket=(-4.0, 4.0),
) -> RateTable:
    """Legendre transform r(s) = sup_z (s z - Lambda(z)) over the bracket.

    Lambda = ln|lambda| is convex, so the supremum sits where Lambda'(z) = s.
    Each s, in increasing order, is solved by Newton's method from the
    previous optimiser (the first from z = 0).  Lambda' comes from the
    Hellmann-Feynman formula; Lambda'' is the secant through the last two
    evaluations, sigma^2 = Lambda''(0) before there are two.  The evaluated
    twists split the bracket by the sign of Lambda' - s; a Newton step that
    would leave that sign bracket evaluates the bracket end instead, or
    bisects when the end is already known.  As in rtsafe (Numerical
    Recipes), a step longer than half the step before last bisects too; a
    secant across s (through evaluations on both sides of it) must halve
    the last step.  z* is the last evaluated z, accepted once the proposed
    Newton step is below 1e-9, so r = s z* - Lambda(z*) needs no further
    evaluation.  A secant across s may span a kink of Lambda, where the
    leading eigenvalue changes branch; after one, z* is accepted only once
    Lambda'(z*) is within 1e-9 of s or the sign bracket is narrower than
    1e-9.  If Lambda' - s keeps its sign up to a bracket end, z* is that end.

    A row is flagged when z* sits within 1e-4 of the bracket boundary; the
    bracket is doubled once (for the whole table) if that happens and the
    row is solved again, and flags surviving the expansion are reported as
    the domain edge of the rate function.  A row's ``iterations`` counts the
    evaluations made while solving it; ``legendre_evals`` counts all of
    them, z = 0 included.  ``slope_monotone`` and ``lambda_imag_max`` show
    where the discretised Lambda is not convex or lambda not real, and
    ``eigvec_overlap_min`` where a Hellmann-Feynman slope came from left and
    right eigenvectors of different eigenvalues.
    """
    s_values = sorted(float(s) for s in s_values)
    z_lo, z_hi = float(z_bracket[0]), float(z_bracket[1])
    if not z_lo < 0.0 < z_hi:
        raise ValueError("z bracket must contain 0")

    base = baseline(assemble(map_model, kernel, g, 0.0, grid), g)
    gc = g.shifted(base.shift)
    var = _variance(base)

    # (Lambda, Lambda') by twist, in evaluation order; |Im lam| / |lam| and
    # the eigenvector overlap of each evaluation
    points, imag, overlaps = {}, [], []

    def record(z: float, M: OperatorMatrix, eig: EigenData) -> float:
        dM = assemble_derivative(map_model, kernel, gc, z, grid)
        log_lam, slope, overlap = _legendre_point(M, eig, dM)
        points[z] = log_lam, slope
        imag.append(abs(eig.lam.imag) / abs(eig.lam))
        overlaps.append(overlap)
        return slope

    def evaluate(z: float) -> float:
        M = assemble(map_model, kernel, gc, z, grid)
        return record(z, M, leading_eigenpair(M))

    record(0.0, base.M0, base.eigen)

    def secant(s: float):
        """(Lambda'' estimate, whether the last two evaluations straddle s)."""
        if len(points) < 2:
            return var.sigma2, False
        (z0, (_, d0)), (z1, (_, d1)) = list(points.items())[-2:]
        return (d1 - d0) / (z1 - z0), (d0 - s) * (d1 - s) < 0.0

    def solve(s: float, z: float) -> float:
        """z* for Lambda'(z*) = s on [z_lo, z_hi], from the evaluated z."""
        lo = max([z_lo] + [x for x, (_, d) in points.items() if d < s])
        hi = min([z_hi] + [x for x, (_, d) in points.items() if d > s])
        step = step_before = math.inf  # the last two steps taken
        for _ in range(_NEWTON_MAX_EVALS):
            if lo == z_hi or hi == z_lo:  # the sign holds up to that end
                return lo if lo == z_hi else hi
            if hi - lo < _NEWTON_TOL and z in (lo, hi):
                return z
            h, across = secant(s)
            z_new = z + (s - points[z][1]) / h if h > 0.0 else math.nan
            # a Newton step stays in the sign bracket and, as in rtsafe, is at
            # most half the step before last; a secant across s must halve
            # the last step, so it cannot creep in from one end of the bracket
            limit = 0.5 * abs(step if across else step_before)
            newton = lo < z_new < hi and abs(z_new - z) <= limit
            if not newton:
                if z_new >= hi == z_hi and z_hi not in points:
                    z_new = z_hi
                elif z_new <= lo == z_lo and z_lo not in points:
                    z_new = z_lo
                else:
                    z_new = 0.5 * (lo + hi)
            # across a kink the secant's steps shrink with the bracket, not
            # with the error: trust it only once Lambda' meets s
            elif abs(z_new - z) < _NEWTON_TOL and (
                not across or abs(points[z][1] - s) < _NEWTON_TOL
            ):
                return z
            step_before, step = step, z_new - z
            z = z_new
            d = evaluate(z)
            if d < s:
                lo = z
            elif d > s:
                hi = z
            else:
                return z
        raise NonConvergenceError(
            f"Newton-Legendre solve at s = {s!r} took {_NEWTON_MAX_EVALS} evaluations"
        )

    expanded = False
    rows = []
    z_star = 0.0
    done = len(points)
    i = 0
    while i < len(s_values):
        s = s_values[i]
        z_star = solve(s, z_star)
        on_edge = min(abs(z_star - z_lo), abs(z_star - z_hi)) < 1e-4
        if on_edge and not expanded:
            expanded = True
            z_lo *= 2.0
            z_hi *= 2.0
            continue
        r = s * z_star - points[z_star][0]
        rows.append(RateRow(s, z_star, r, len(points) - done, on_edge))
        done = len(points)
        i += 1
    slopes = [d for _, (_, d) in sorted(points.items())]
    return RateTable(
        rows=rows,
        sigma2=var.sigma2,
        shift=base.shift,
        solve_terms=var.solve_terms,
        solve_rate=var.solve_rate,
        z_bracket=(z_lo, z_hi),
        bracket_expanded=expanded,
        legendre_evals=len(points),
        lambda_imag_max=max(imag),
        slope_monotone=all(a <= b for a, b in zip(slopes, slopes[1:])),
        eigvec_overlap_min=min(overlaps),
    )
