"""Closed-form hyperbolicity certificate for the perturbed cat map.

All checks refer to the appendix-form map T(x) = Ax + delta(cos(2 pi x1),
sin(4 pi x2 + 1)) with A the cat matrix.  Its Jacobian is

    DT(x) = A + diag(p, q),  p = -2 pi delta sin(2 pi x1),
                             q = 4 pi delta cos(4 pi x2 + 1),

so the derivative perturbation ranges over the box |p| <= 2 pi delta,
|q| <= 4 pi delta.  The section7 form doubles the range of p and has
smaller true contraction limits (0.0416 forward, 0.0201 inverse at
alpha = 0.11872, from a dense Jacobian sample), so these bounds do not
carry over to it.

Five checks are aggregated by :func:`certify`:

* diffeomorphism margin s(delta) < 1,
* invariant-cone preservation delta <= alpha(1/l - l) / (4 pi (alpha+1)^2),
* forward and inverse cone-vector contraction over the (p, q) box,
* the translate-bound product C * Theta < 1.

Everything is plain double precision; each check reports its numeric margin
so distance-to-failure is visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

LAMBDA_S = (3.0 - math.sqrt(5.0)) / 2.0
_LAM_INV = 1.0 / LAMBDA_S


@dataclass
class CheckResult:
    passed: bool
    margin: float


def diffeo_margin(delta: float):
    """Contraction constant of the quantitative inverse-function argument.

    s = 8 pi d sqrt(6 + (1 + 4 pi d cos 1)^2) / (1 - 8 pi d); the map is a
    certified diffeomorphism when 8 pi d < 1 and s < 1.  Returns (s, passed),
    with s = inf when the denominator is nonpositive.
    """
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and nonnegative, got {delta!r}")
    den = 1.0 - 8.0 * math.pi * delta
    if den <= 0.0:
        return math.inf, False
    s = (
        8.0
        * math.pi
        * delta
        * math.sqrt(6.0 + (1.0 + 4.0 * math.pi * delta * math.cos(1.0)) ** 2)
        / den
    )
    return s, s < 1.0


def cone_preservation_max_delta(alpha: float) -> float:
    """Largest delta certified to preserve the stable and unstable cones."""
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")
    return alpha * (_LAM_INV - LAMBDA_S) / (4.0 * math.pi * (alpha + 1.0) ** 2)


# Orthonormal eigenbasis of A: e_s = (1, -phi)/r, e_u = (phi, 1)/r with
# phi the golden ratio and r^2 = 1 + phi^2.
_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_R2 = 1.0 + _PHI * _PHI


def _eigenbasis_perturbation(p: float, q: float):
    """Entries (a, b, d) of V^T diag(p, q) V; the matrix is symmetric (c = b)."""
    return (
        (p + _PHI * _PHI * q) / _R2,
        _PHI * (p - q) / _R2,
        (_PHI * _PHI * p + q) / _R2,
    )


def _max_on_interval(c2: float, c1: float, c0: float, alpha: float) -> float:
    """Maximum of c2 beta^2 + c1 beta + c0 over |beta| <= alpha."""
    best = c2 * alpha * alpha + abs(c1) * alpha + c0
    if c2 < 0.0 and abs(c1) < -2.0 * c2 * alpha:
        best = max(best, c0 - c1 * c1 / (4.0 * c2))
    return best


def contraction_check(delta: float, alpha: float, direction: str = "forward"):
    """Worst-case cone-vector contraction over the appendix-form (p, q) box.

    In A's orthonormal eigenbasis (stable axis first) the Jacobian is
    M = [[l + a, b], [b, 1/l + d]] with (a, b, d) linear in (p, q).

    Forward: for a stable-cone vector v = (1, beta), |beta| <= alpha,

        |Mv|^2 - |v|^2 = beta^2 (b^2 + (1/l + d)^2 - 1)
                         + 2 beta b ((l + a) + (1/l + d)) + (l + a)^2 + b^2 - 1.

    For fixed beta this is a squared norm of an affine function of (p, q)
    minus a constant, hence convex, so its supremum over the box sits at the
    four corners; each corner is then maximised exactly over |beta| <= alpha.
    The reported worst value is the exact supremum.

    Inverse: for an unstable-cone vector w = (beta, 1), |DT^-1 w| < |w| is
    |adj(M) w|^2 < det(M)^2 |w|^2, and |adj(M) w|^2 is the forward |Mv|^2 at
    -beta, again convex in (p, q).  det(M) = (2 + p)(1 + q) - 1 is bilinear,
    so its box minimum D is also attained at a corner.  The worst value is
    max over corners and |beta| <= alpha of |adj(M) w|^2 - D^2 |w|^2, a sound
    upper bound; when D <= 0 the inverse is not certified and the worst value
    is +inf.

    Returns (worst, passed) with passed iff worst < 0.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and nonnegative, got {delta!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    corners = [
        (sp * 2.0 * math.pi * delta, sq * 4.0 * math.pi * delta)
        for sp, sq in product((-1.0, 1.0), repeat=2)
    ]
    ones = 1.0
    if direction == "inverse":
        det_min = min((2.0 + p) * (1.0 + q) - 1.0 for p, q in corners)
        if det_min <= 0.0:
            return math.inf, False
        ones = det_min * det_min
    worst = -math.inf
    for p, q in corners:
        a, b, d = _eigenbasis_perturbation(p, q)
        worst = max(
            worst,
            _max_on_interval(
                b * b + (_LAM_INV + d) ** 2 - ones,
                2.0 * b * ((LAMBDA_S + a) + (_LAM_INV + d)),
                (LAMBDA_S + a) ** 2 + b * b - ones,
                alpha,
            ),
        )
    return worst, worst < 0.0


def beta_alpha(alpha: float) -> float:
    """Norm-equivalence constant sqrt(2) a (3a + sqrt(2+3a^2)) sqrt(1 + a sqrt(2+3a^2))."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    s = math.sqrt(2.0 + 3.0 * alpha * alpha)
    return math.sqrt(2.0) * alpha * (3.0 * alpha + s) * math.sqrt(1.0 + alpha * s)


def translate_bound_product(alpha: float):
    """The product bounding C_tau * Theta_T in the adapted norm.

    Returns (product, passed) with passed iff product < 1.  Raises ValueError
    when (1 - alpha^2)^2 <= beta(alpha), where the norm equivalence
    degenerates.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    w = (1.0 - alpha * alpha) ** 2
    ba = beta_alpha(alpha)
    if w <= ba:
        raise ValueError("norm-equivalence bound degenerate: (1-a^2)^2 <= beta(a)")
    first = (w + ba) / (w - ba)
    second = (
        4.0 * alpha * (1.0 - alpha * alpha) * math.sqrt(1.0 + alpha * alpha)
        + alpha * alpha * (1.0 + alpha * alpha)
    ) / w
    prod = first * second
    return prod, prod < 1.0


@dataclass
class CertificateReport:
    """Outcome of the five hyperbolicity checks with numeric margins."""

    diffeo: CheckResult
    cone_preservation: CheckResult
    forward_contraction: CheckResult
    inverse_contraction: CheckResult
    translate_bound: CheckResult
    overall: bool = field(init=False)

    def __post_init__(self):
        self.overall = bool(
            self.diffeo.passed
            and self.cone_preservation.passed
            and self.forward_contraction.passed
            and self.inverse_contraction.passed
            and self.translate_bound.passed
        )


def certify(delta: float, alpha: float) -> CertificateReport:
    """Run all five checks for the appendix-form map at (delta, alpha)."""
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and nonnegative, got {delta!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    s, ok = diffeo_margin(delta)
    diffeo = CheckResult(ok, s)
    max_d = cone_preservation_max_delta(alpha)
    cone = CheckResult(delta <= max_d, max_d)
    wf, okf = contraction_check(delta, alpha, "forward")
    wi, oki = contraction_check(delta, alpha, "inverse")
    try:
        prod, okt = translate_bound_product(alpha)
        translate = CheckResult(okt, prod)
    except ValueError:
        translate = CheckResult(False, math.inf)
    return CertificateReport(
        diffeo=diffeo,
        cone_preservation=cone,
        forward_contraction=CheckResult(okf, wf),
        inverse_contraction=CheckResult(oki, wi),
        translate_bound=translate,
    )


def certified_delta_threshold(alpha: float) -> float:
    """Largest certified delta at a given alpha: the upper end is doubled from
    0.05 until it fails, then 60 bisections locate the threshold."""
    lo, hi = 0.0, 0.05
    if not certify(lo, alpha).overall:
        return 0.0
    while certify(hi, alpha).overall:
        hi *= 2.0
        if hi > 1.0:
            return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if certify(mid, alpha).overall:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
