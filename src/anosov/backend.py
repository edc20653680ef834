"""Twisted-row fill of the brute-force reference assembly.

``twisted_rows`` serves only ``operators.OperatorAssembler.base_matrix``, the
reference the tests check the factored assembly against; no pipeline
assembles through it.  ``backend_name`` serves only the benchmark's sample
record.

Row (j1, j2) of the frequency-space operator needs the fine-grid field
exp(-2 pi i (j1*T1 + j2*T2)) * W.  The caller supplies power tables
pow1[j] = exp(-2 pi i T1)**j for j = 0..n/2 (same for pow2); negative
frequencies use the conjugate since |exp(-2 pi i T)| = 1.
"""

from __future__ import annotations

import numpy as np


# perfbench/child.py records this name in every benchmark sample
def backend_name() -> str:
    return "numpy"


def twisted_rows(pow1, pow2, w, j1s, j2s, out):
    """Fill ``out[r] = pow1[j1s[r]] * pow2[j2s[r]] * w`` for a block of rows."""
    for r in range(len(j1s)):
        j1 = j1s[r]
        j2 = j2s[r]
        p1 = pow1[j1] if j1 >= 0 else np.conj(pow1[-j1])
        p2 = pow2[j2] if j2 >= 0 else np.conj(pow2[-j2])
        np.multiply(p1, p2, out=out[r])
        out[r] *= w
    return out
