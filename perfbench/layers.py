"""Per-layer metrics from the spans of one traced run (see ``child.py``).

Self time of a span is its duration minus the durations of its direct
children.  Work counts are computed from array shapes, not measured:

* FFT flops: 5 * P * log2(P) per 2-D transform of P points; bytes: one
  complex128 read and one write per point;
* dense matrix bytes: (n^2)^2 * 16 per assembled n^2 x n^2 matrix;
* eig matrix order: the largest order passed to ``leading_eigenpair``.
"""

from __future__ import annotations

import math
from collections import defaultdict

# spans whose self time counts toward the assembly layer's self time
ASSEMBLY_PARTS = ("operators.assemble", "operators.base_matrix")


def self_times(spans) -> list:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _nearest(spans, i, names):
    """Name of the closest ancestor of span i whose name is in ``names``."""
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return spans[parent][0]
        parent = spans[parent][3]
    return None


def layer_shares(spans) -> dict:
    """Self time per span name as a share of the root span."""
    own = self_times(spans)
    root = spans[0][2] - spans[0][1]
    shares = defaultdict(float)
    for (name, *_), t in zip(spans, own):
        shares[name] += t / root
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def layer_metrics(spans, *, rows: int, io_bytes: int, cpu_s: float,
                  overhead_s: float) -> dict:
    """Every per-layer metric, keyed by its BENCHMARK.json name.

    ``spans[0]`` must be the root span around ``cli.main``; ``rows`` is the
    number of rate-table rows the run wrote (0 for other pipelines).
    """
    own = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    selfs = defaultdict(float)
    for (name, start, end, _, _), t in zip(spans, own):
        calls[name] += 1
        total[name] += end - start
        selfs[name] += t

    flop = fft_bytes = matrix_bytes = points = hits = dense = order = 0
    residual = 0.0
    legendre_evals = matching_evals = 0
    for i, (name, _, _, _, info) in enumerate(spans):
        if name == "operators.fft":
            p = info["points"]
            flop += info["batch"] * 5 * p * math.log2(p)
            fft_bytes += info["batch"] * p * 32
        elif name == "operators.assemble":
            matrix_bytes += info["order"] ** 2 * 16
        elif name == "operators.base_matrix":
            hits += info["hit"]
        elif name == "stats.eig":
            dense += info["method"] == "dense"
            order = max(order, info["order"])
            residual = max(residual, info["residual"])
            if _nearest(spans, i, ("stats.legendre", "stats.variance")) == "stats.legendre":
                legendre_evals += 1
        elif name == "torus.image_arrays":
            points += info["points"]
        elif name == "kernels.bump_spatial":
            if _nearest(spans, i, ("kernels.match_epsilon",)):
                matching_evals += 1

    root = spans[0][2] - spans[0][1]
    base_calls = calls["operators.base_matrix"]
    return {
        "operators.fft.calls": calls["operators.fft"],
        "operators.fft.s": total["operators.fft"],
        "operators.fft.flop_computed": flop,
        "operators.fft.bytes_computed": fft_bytes,
        "operators.row_fill.calls": calls["operators.row_fill"],
        "operators.row_fill.s": total["operators.row_fill"],
        "operators.assemble.calls": calls["operators.assemble"],
        "operators.assemble.s": total["operators.assemble"],
        "operators.assemble.self_s": sum(selfs[k] for k in ASSEMBLY_PARTS),
        "operators.base_cache.hit_ratio": hits / base_calls if base_calls else 0.0,
        "operators.matrix_bytes_computed": matrix_bytes,
        "stats.eig.calls": calls["stats.eig"],
        "stats.eig.s": total["stats.eig"],
        "stats.eig.dense_calls": dense,
        "stats.eig.residual_max": residual,
        "stats.eig.order_max": order,
        "stats.variance.self_s": selfs["stats.variance"],
        "stats.legendre.evals": legendre_evals,
        "stats.legendre.evals_per_row": legendre_evals / rows if rows else 0.0,
        "stats.legendre.self_s": selfs["stats.legendre"],
        "kernels.match_epsilon.s": total["kernels.match_epsilon"],
        "kernels.match_epsilon.evals": matching_evals,
        "torus.image_arrays.calls": calls["torus.image_arrays"],
        "torus.image_arrays.points": points,
        "torus.image_arrays.s": total["torus.image_arrays"],
        "ulam.build.calls": calls["ulam.build"],
        "ulam.build.s": total["ulam.build"],
        "ulam.srb.calls": calls["ulam.srb"],
        "ulam.srb.s": total["ulam.srb"],
        "ulam.solve.s": total["ulam.solve"],
        "grids.transforms.calls": calls["grids.transforms"],
        "grids.transforms.s": total["grids.transforms"],
        "cli.io.s": total["cli.io"],
        "cli.io.bytes": io_bytes,
        "process.cpu_s": cpu_s,
        "trace.overhead_s": overhead_s,
        "trace.coverage": 1.0 - own[0] / root,
    }
