"""Spectral approximation of statistical data of Anosov maps on the 2-torus.

Public surface: torus maps and observables, the hyperbolicity certificate,
discrete Fourier grids, smoothing kernels, transfer-operator assembly,
spectral statistics (SRB density, CLT variance, rate function) and the Ulam
baseline.
"""

__version__ = "0.1.0"

from .certificate import (
    CertificateReport,
    beta_alpha,
    certified_delta_threshold,
    certify,
    cone_preservation_max_delta,
    contraction_check,
    diffeo_margin,
    translate_bound_product,
)
from .grids import (
    GridSpec,
    coarse_freqs,
    evaluate_on_fine,
    forward_transform,
    restrict_to_coarse,
    riemann_integral,
)
from .kernels import (
    BumpKernel,
    FejerKernel,
    bump_coefficients,
    fejer_coefficients,
    match_epsilon,
    summability_check,
)
from .operators import OperatorMatrix, assemble
from .stats import (
    Baseline,
    EigenData,
    RateTable,
    VarianceResult,
    baseline,
    lambda_curve,
    leading_eigenpair,
    rate_function,
    variance,
)
from .torus import (
    CallableObservable,
    LinearToral,
    Observable,
    PerturbedCat,
    TrigPolynomial,
    cat_map,
    standard_observable,
)
from .ulam import build_ulam, ulam_srb, ulam_variance

__all__ = [
    "CertificateReport",
    "beta_alpha",
    "certified_delta_threshold",
    "certify",
    "cone_preservation_max_delta",
    "contraction_check",
    "diffeo_margin",
    "translate_bound_product",
    "GridSpec",
    "coarse_freqs",
    "evaluate_on_fine",
    "forward_transform",
    "restrict_to_coarse",
    "riemann_integral",
    "BumpKernel",
    "FejerKernel",
    "bump_coefficients",
    "fejer_coefficients",
    "match_epsilon",
    "summability_check",
    "OperatorMatrix",
    "assemble",
    "Baseline",
    "EigenData",
    "RateTable",
    "VarianceResult",
    "baseline",
    "lambda_curve",
    "leading_eigenpair",
    "rate_function",
    "variance",
    "CallableObservable",
    "LinearToral",
    "Observable",
    "PerturbedCat",
    "TrigPolynomial",
    "cat_map",
    "standard_observable",
    "build_ulam",
    "ulam_srb",
    "ulam_variance",
]
