"""Statistical quantities extracted from assembled transfer operators.

The chain is: the z = 0 operator, its leading eigendata (from the series
below), the low frequencies of the observable, its mean against the
invariant density and the twist plan of the centered observable form one
:class:`Baseline`, built once per problem and read by :func:`variance`,
:func:`lambda_curve` and :func:`rate_function`; the CLT variance comes from
the Green-Kubo series of the deflated resolvent, its fine-grid means formed
from coefficients by the grid Parseval identity; the twisted eigenvalue
curve lambda(z) gives the large-deviations rate function r(s) = sup_z (s z -
ln|lambda(z)|) by a safeguarded Newton solve of Lambda'(z) = s, Lambda =
ln|lambda|, with Lambda' from the Hellmann-Feynman formula (left and right
eigenvectors and the derivative operator, which each twisted evaluation
builds with L_z from one batch of transforms).

The eigenvalue 1 of the untwisted operator makes Id - L singular on the zero
mode.  L preserves mass, so the mean-zero subspace is invariant, L contracts
it by |lambda_2| (about 0.1), and (Id - L)^{-1} L there is the series
sum_{j>=1} L^j with the zero-mode coordinate cut from each term.  The same
series from e_0 gives the invariant density, and from the uniform vector the
Ulam matrix's (ulam.ulam_srb).  Only twisted operators need an eigen-solver:
a numpy Arnoldi iteration from e_0 (the leading eigenvalue is simple and
isolated, |lambda_2 / lambda| about 0.1, so 20-30 applies find it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import (
    GridSpec,
    coarse_freqs,
    evaluate_on_fine,
    fine_points,
    forward_transform,
    freq_index,
    line_transform,
    restrict_to_coarse,
)
from .operators import OperatorMatrix, TwistPlan, _reserve, assemble
from .torus import MapModel, Observable


class NumericalError(RuntimeError):
    """A computation failed to meet its numerical contract."""


class SingularSolveError(NumericalError):
    """The deflated resolvent system is numerically singular."""


class NonConvergenceError(NumericalError):
    """An iterative solver stopped before it met its tolerance."""


@dataclass
class EigenData:
    """Leading eigenvalue and mass-normalised right eigenvector, the C-order
    ravel of (n, n) coarse coefficients: frequency j at freq_index(*j, n)."""

    lam: complex
    right_vector: np.ndarray
    residual: float
    method: str  # "series" at z = 0, else "arnoldi"


# Arnoldi: the basis of the first convergence check, the basis that restarts
# from the Ritz vector, the applies before giving up, and ARPACK's tolerance
_ARNOLDI_FIRST, _ARNOLDI_BASIS, _ARNOLDI_BUDGET, _EPS = 20, 40, 400, 2.0**-53


def _dominant_pair(H: np.ndarray):
    """Largest-modulus eigenpair (theta, y), ||y|| = 1, of the small matrix H.

    H is squared, rescaled to largest modulus 1 each time, to a multiple of
    H^64 and then of H^1024; its largest column, normalised, is y, with theta
    = y^H H y, accepted once ||H y - theta y|| <= m eps ||H||_F.  Where two
    moduli (nearly) tie, as at a complex pair, a kink or a Jordan block, the
    powers do not settle and LAPACK's eig picks the largest modulus.
    """
    P, tol = H, H.shape[0] * _EPS * np.linalg.norm(H)
    for squarings in range(1, 11):
        P = P @ P
        A = np.abs(P)
        if not (top := A.max()) > 0.0:  # nilpotent, or not finite
            break
        P /= top
        if squarings in (6, 10):
            y = P[:, np.argmax(np.einsum("ij,ij->j", A, A))]
            y = y / math.sqrt(np.vdot(y, y).real)
            Hy = H @ y
            theta = np.vdot(y, Hy)
            f = Hy - theta * y
            if math.sqrt(np.vdot(f, f).real) <= tol:
                return theta, y
    thetas, Y = np.linalg.eig(H)
    i = np.argmax(np.abs(thetas))
    return thetas[i], Y[:, i]


def _arnoldi_leading(apply, v0: np.ndarray):
    """Largest-modulus eigenpair (lam, v), ||v|| = 1, of the linear map ``apply``.

    Arnoldi from v0, by classical Gram-Schmidt with one reorthogonalisation.
    From basis size _ARNOLDI_FIRST on, the Ritz pair (theta, V y) of H's largest
    eigenvalue (:func:`_dominant_pair`) must pass ARPACK's test ||f|| |e_k^T y|
    <= eps |theta|; after a miss each step refines y by one inverse iteration,
    a small solve, and the Ritz pair is taken again once that passes.  An
    invariant subspace (f = 0) ends it, a full basis restarts it from the Ritz
    vector; nothing is random.
    """
    cap = min(_ARNOLDI_BASIS, v0.size)
    _reserve(16 * (cap + 1) * (v0.size + cap), "the Arnoldi basis")
    V, H = np.empty((cap + 1, v0.size), dtype=complex), np.zeros((cap + 1, cap), dtype=complex)
    y = None
    for applies in range(_ARNOLDI_BUDGET):
        if (k := applies % cap) == 0:  # the start, or a restart from the Ritz vector
            V[0] = v0 if y is None else y @ V[:cap]
            V[0] /= np.linalg.norm(V[0])
            H[:], y = 0.0, None
        m, w = k + 1, apply(V[k])
        Vm, h = V[:m], H[:m, k]
        h += (g := (Vm @ w.conj()).conj())
        w -= g @ Vm
        h += (g := (Vm @ w.conj()).conj())
        w -= g @ Vm
        H[m, k] = beta = math.sqrt(np.vdot(w, w).real)
        invariant = beta <= _EPS * math.sqrt(np.vdot(h, h).real) or m == v0.size
        if y is not None:  # the last check's vector, refined
            y = np.linalg.solve(H[:m, :m] - theta * np.eye(m), np.append(y, 0.0))
            y /= np.linalg.norm(y)
        passed = y is not None and beta * abs(y[-1]) <= _EPS * abs(theta)
        if invariant or passed or m >= _ARNOLDI_FIRST and y is None:
            theta, y = _dominant_pair(H[:m, :m])
            if invariant or beta * abs(y[-1]) <= _EPS * abs(theta):
                return complex(theta), y @ Vm
        np.divide(w, beta, out=V[m])
    raise NonConvergenceError(f"Arnoldi did not converge in {_ARNOLDI_BUDGET} applies")


def _zero_mode(n: int) -> np.ndarray:
    """The zero mode e_0: the Arnoldi start vector, and L_0's left eigenvector."""
    return (np.arange(n * n) == freq_index(0, 0, n)).astype(complex)


def leading_eigenpair(M: OperatorMatrix) -> EigenData:
    """Max-modulus eigenpair, the right vector v mass-normalised; the residual
    is ||A v - lam v|| / ||v||.

    At z = 0 no eigen-solver runs: e_0 is L_0's left eigenvector of 1 (every
    z = 0 operator the package builds has e_0 as its zero-mode row, for
    q_hat(0) = 1 for both kernels), so v = e_0 + :func:`_deflated_solve`
    (M, e_0) and lam = (L_0 v)_0.  Any other z runs Arnoldi from e_0.  No
    modulus tie is broken: L_0's leading eigenvalue is simple and isolated,
    and where two twisted eigenvalues cross the iteration returns either.
    """
    A, izero, e0 = M.entries, freq_index(0, 0, M.n), _zero_mode(M.n)
    if M.z == 0:
        lam, v, method = None, e0 + _deflated_solve(M, e0)[0], "series"
    else:
        lam, v = _arnoldi_leading(A.__matmul__, e0)
        v = v / (v[izero] if abs(v[izero]) > 1e-12 * np.linalg.norm(v) else np.linalg.norm(v))
        method = "arnoldi"
    Av = A @ v  # one apply gives the series' lam = (L_0 v)_0 and the residual
    lam = complex(Av[izero]) if lam is None else lam
    residual = float(np.linalg.norm(Av - lam * v) / np.linalg.norm(v))
    return EigenData(lam, v, residual, method)


@dataclass(frozen=True)
class Baseline:
    """One Fourier problem and its untwisted operator, shared by the statistics.

    ``shift`` is the mean of g against the unit-mass invariant density (the
    real part of the eigenvector's function); ``plan`` assembles every
    twisted operator, for the centered observable ``plan.g`` = g - shift.
    ``g_window`` and ``g2_window`` are the forward DFTs of the fine-grid
    samples of g and g^2 at the frequencies {-n+1, ..., n}^2, the coarse
    block of order 2n: every fine-grid mean the statistics take is a sum
    over them.
    """

    M0: OperatorMatrix
    eigen: EigenData
    shift: float
    g_window: np.ndarray
    g2_window: np.ndarray
    plan: TwistPlan


def _mean_against(coeffs: np.ndarray, window: np.ndarray) -> float:
    """Fine-grid mean of Re(f) h by the grid Parseval identity.

    f = sum_j c(j) e^{2 pi i j.x} has the (n, n) coarse coefficients
    ``coeffs``; h is real, and ``window`` holds the forward DFT F_h of its
    fine-grid samples on {-n+1..n}^2.  The mean of f h is sum_j c(j) F_h(-j).
    """
    neg = len(coeffs) - 1 - coarse_freqs(len(coeffs))  # window index of -j
    return float(np.sum(coeffs * window[np.ix_(neg, neg)]).real)


def baseline(map_model: MapModel, kernel, g: Observable, grid: GridSpec) -> Baseline:
    """The z = 0 operator, its leading eigendata, the spectra of g and g^2,
    g's mean and the centered g: built once per problem.

    A separable g = g1(x1) + g2(x2) has the spectra of 1-D transforms: F_g
    is a cross on the zero row and column, and F_{g^2} that of g1^2 and g2^2
    plus 2 F_g1 F_g2^T.  Any other g transforms its samples on the grid,
    after a byte guard on them.
    """
    n, N = grid.n, grid.N
    parts = g.separable_parts()
    if parts is None:
        # the grid points, the samples of g and g^2 and one complex transform
        _reserve(48 * N * N, "the observable's fine-grid samples")
    M0 = assemble(map_model, kernel, g, 0.0, grid)
    eig = leading_eigenpair(M0)
    if parts is None:
        gs = np.asarray(g.sample(*fine_points(N)), dtype=float)
        g_win, g2_win = (restrict_to_coarse(forward_transform(f), 2 * n) for f in (gs, gs * gs))
    else:
        x, k = np.arange(N) / N, coarse_freqs(2 * n)
        g1, g2 = (np.asarray(part(x), dtype=float) for part in parts)
        h1, h2, q1, q2 = line_transform(np.array([g1, g2, g1 * g1, g2 * g2]))[:, k % N]
        zero = (k == 0).astype(float)
        g_win = np.outer(h1, zero) + np.outer(zero, h2)
        g2_win = np.outer(q1, zero) + np.outer(zero, q2) + 2.0 * np.outer(h1, h2)
    shift = _mean_against(eig.right_vector.reshape(n, n), g_win)
    plan = TwistPlan(map_model, kernel, g.shifted(shift), grid)
    return Baseline(M0, eig, shift, g_win, g2_win, plan)


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
    mean_shift: float
    solve_residual: float
    solve_terms: int
    solve_rate: float  # contraction per series term, about |lambda_2|


def variance(base: Baseline) -> VarianceResult:
    """CLT variance from the Green-Kubo series of the deflated resolvent.

    sigma^2 = int g_c^2 v + 2 g_c (Id - L)^{-1} L (g_c v) dLeb, with v the
    unit-mass invariant density of the z = 0 operator and g_c the centered
    observable; (Id - L)^{-1} L (g_c v) = sum_{j>=1} L^j (g_c v) off the zero
    mode.  Each fine-grid mean is formed from coefficients by the grid
    Parseval identity; a separable g needs no N x N array.
    """
    M0, s, n = base.M0, base.shift, base.M0.n
    r = base.eigen.right_vector.reshape(n, n)
    gc = base.g_window.copy()  # the spectra of g_c = g - s and of g_c^2
    gc[n - 1, n - 1] -= s
    gc2 = base.g2_window - 2.0 * s * base.g_window
    gc2[n - 1, n - 1] += s * s
    # the coarse block of g_c v is sum_k v(k) F_gc(j - k): v's k lie in
    # {-n/2..n/2}, so j - k lies in {-n+1..n} and the 2n x 2n grid does not alias
    v = evaluate_on_fine(r, 2 * n).real
    x = restrict_to_coarse(forward_transform(evaluate_on_fine(gc, 2 * n) * v), n).ravel()
    w, residual, terms, rate = _deflated_solve(M0, x)
    sigma2 = _mean_against(r, gc2) + 2.0 * _mean_against(w.reshape(n, n), gc)
    if sigma2 < -1e-8:
        raise NumericalError(f"variance came out negative: {sigma2:.3e}")
    return VarianceResult(sigma2, s, residual, terms, rate)


def lambda_curve(base: Baseline, z_values) -> list:
    """Leading eigenvalue (complex) of the twisted operator at each real
    twist of ``z_values``, in their order; z = 0 reuses the baseline's.

    The twist is exp(z g_c), g_c centered against the invariant density of
    the z = 0 operator, so d/dz ln|lambda| vanishes at z = 0.
    """
    return [
        base.eigen.lam if z == 0.0 else leading_eigenpair(base.plan.operator(z)).lam
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
    variance: VarianceResult  # the baseline's; its sigma^2 is Lambda''(0)
    z_bracket: tuple
    bracket_expanded: bool
    legendre_evals: int
    lambda_imag_max: float  # largest |Im lambda| / |lambda| over the evaluations
    slope_monotone: bool  # Lambda' nondecreasing over the evaluated z, in z order
    eigvec_overlap_min: float  # smallest |<l, r>| / (|l| |r|) over the evaluations


_NEWTON_TOL = 1e-9
_NEWTON_MAX_EVALS = 60


def _legendre_point(M: OperatorMatrix, eig: EigenData, dM: OperatorMatrix):
    """(Lambda, Lambda', overlap, |Im lam| / |lam|) at M's twist, Lambda = ln|lam|.

    Hellmann-Feynman: Lambda' = Re <l, dM r> / (lam <l, r>), with r the right
    eigenvector in ``eig``, l the left one and dM the derivative operator.
    At z = 0, l is e_0 (L_0 preserves mass); at any other z it is the leading
    eigenvector of M^H by the same Arnoldi iteration.  The overlap
    |<l, r>| / (|l| |r|) vanishes where two eigenvalues of equal modulus
    cross and l and r belong to different ones; Lambda' is meaningless there.
    """
    left = _zero_mode(M.n)
    if M.z != 0:
        _, left = _arnoldi_leading(M.adjoint, left)
    lam, r = eig.lam, eig.right_vector
    inner = np.vdot(left, r)
    slope = np.vdot(left, dM.entries @ r) / (lam * inner)
    overlap = abs(inner) / (np.linalg.norm(left) * np.linalg.norm(r))
    return math.log(abs(lam)), float(slope.real), float(overlap), abs(lam.imag) / abs(lam)


def rate_function(base: Baseline, s_values, z_bracket=(-4.0, 4.0)) -> RateTable:
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
    1e-9.  At a kink z* is therefore fixed only to that 1e-9 width, and
    rounding in the eigen-solve moves it within it (the bump table at n = 8,
    s = 1.7 and 1.8).  If Lambda' - s keeps its sign up to a bracket end, z*
    is that end.

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

    plan, var = base.plan, variance(base)

    # every evaluation, in evaluation order: twist -> _legendre_point's record
    table = {0.0: _legendre_point(base.M0, base.eigen, plan.operator(0.0, derivative=True))}

    def evaluate(z: float) -> float:
        M, dM = plan.pair(z)
        table[z] = _legendre_point(M, leading_eigenpair(M), dM)
        return table[z][1]

    def secant(s: float):
        """(Lambda'' estimate, whether the last two evaluations straddle s)."""
        if len(table) < 2:
            return var.sigma2, False
        (z0, (_, d0, *_)), (z1, (_, d1, *_)) = list(table.items())[-2:]
        return (d1 - d0) / (z1 - z0), (d0 - s) * (d1 - s) < 0.0

    def solve(s: float, z: float) -> float:
        """z* for Lambda'(z*) = s on [z_lo, z_hi], from the evaluated z."""
        lo = max([z_lo] + [x for x, (_, d, *_) in table.items() if d < s])
        hi = min([z_hi] + [x for x, (_, d, *_) in table.items() if d > s])
        step = step_before = math.inf  # the last two steps taken
        for _ in range(_NEWTON_MAX_EVALS):
            if lo == z_hi or hi == z_lo:  # the sign holds up to that end
                return lo if lo == z_hi else hi
            if hi - lo < _NEWTON_TOL and z in (lo, hi):
                return z
            h, across = secant(s)
            z_new = z + (s - table[z][1]) / h if h > 0.0 else math.nan
            # a Newton step stays in the sign bracket and, as in rtsafe, is at
            # most half the step before last; a secant across s must halve
            # the last step, so it cannot creep in from one end of the bracket
            limit = 0.5 * abs(step if across else step_before)
            newton = lo < z_new < hi and abs(z_new - z) <= limit
            if not newton:
                if z_new >= hi == z_hi and z_hi not in table:
                    z_new = z_hi
                elif z_new <= lo == z_lo and z_lo not in table:
                    z_new = z_lo
                else:
                    z_new = 0.5 * (lo + hi)
            # across a kink the secant's steps shrink with the bracket, not
            # with the error: trust it only once Lambda' meets s
            elif abs(z_new - z) < _NEWTON_TOL and (
                not across or abs(table[z][1] - s) < _NEWTON_TOL
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

    def on_edge(z: float) -> bool:
        return min(abs(z - z_lo), abs(z - z_hi)) < 1e-4

    rows, z_star, expanded = [], 0.0, False
    for s in s_values:
        done = len(table)
        z_star = solve(s, z_star)
        if on_edge(z_star) and not expanded:
            expanded, z_lo, z_hi = True, 2.0 * z_lo, 2.0 * z_hi
            z_star = solve(s, z_star)
        r = s * z_star - table[z_star][0]
        rows.append(RateRow(s, z_star, r, len(table) - done, on_edge(z_star)))
    _, slopes, overlaps, imag = zip(*(table[z] for z in sorted(table)))
    return RateTable(
        rows=rows,
        variance=var,
        z_bracket=(z_lo, z_hi),
        bracket_expanded=expanded,
        legendre_evals=len(table),
        lambda_imag_max=max(imag),
        slope_monotone=all(a <= b for a, b in zip(slopes, slopes[1:])),
        eigvec_overlap_min=min(overlaps),
    )
