"""One benchmark sample: a fresh interpreter that runs ``anosov.cli.main`` once.

Usage (from ``run.py``; not meant to be called by hand):

    python3 perfbench/child.py --root ROOT --report FILE [--trace] [--setup-only] -- ARGV...

The package is imported from ``ROOT/src``.  The report (JSON) holds the
monotonic time at which the pipeline call started, its wall time, the exit
code and, with ``--trace``, the spans recorded around calls into each layer.
With ``--setup-only`` the process stops after the imports, so the parent
can time set-up alone.

Tracing wraps module attributes from this file only; nothing in ``src/``
is changed.  Each span is ``[name, start, end, parent, info]`` where
``parent`` is the index of the enclosing span (-1 for the root) and
``info`` holds counts the wrapper derived from the call's arguments or result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


class Tracer:
    """Nested wall-clock spans kept in memory and written out at the end."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, info=None):
        """Return ``fn`` wrapped in a span; ``info(args, result)`` adds counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, info=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), info))


class _ModuleProxy:
    """Stands in for a module in one importer, so a patch stays local to it."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _fft_info(args, result):
    shape = args[0].shape
    points = shape[-1] * shape[-2]
    batch = 1
    for d in shape[:-2]:
        batch *= d
    return {"batch": batch, "points": points}


def _assemble_info(args, result):
    return {"order": int(result.entries.shape[0])}


def _eig_info(args, result):
    return {
        "order": int(args[0].entries.shape[0]),
        "method": result.method,
        "residual": float(result.residual),
    }


def _points_info(args, result):
    return {"points": int(args[1].size)}


def install(tracer, cli):
    """Wrap the calls into each layer.  Returns nothing; patches in place."""
    import scipy.fft
    import scipy.sparse.linalg

    from anosov import backend, kernels, operators, stats, torus, ulam

    # operators: assembly, its base-matrix cache, row fill and the FFTs.
    for owner in (stats, cli):
        tracer.patch(owner, "assemble", "operators.assemble", _assemble_info)
    cls = operators.OperatorAssembler
    base_matrix = cls.base_matrix
    hit = [False]

    def base_matrix_noting_hits(self, weight):
        before = self._base
        result = base_matrix(self, weight)
        hit[0] = before is not None and result is before
        return result

    cls.base_matrix = tracer.wrap(
        "operators.base_matrix", base_matrix_noting_hits, lambda a, r: {"hit": hit[0]}
    )
    tracer.patch(backend, "twisted_rows", "operators.row_fill")
    operators.sfft = _ModuleProxy(scipy.fft)
    tracer.patch(operators.sfft, "fft2", "operators.fft", _fft_info)

    # stats: eigenpairs, the variance solve, the Legendre loop, transforms.
    tracer.patch(stats, "leading_eigenpair", "stats.eig", _eig_info)
    for owner in (stats, cli):
        tracer.patch(owner, "variance", "stats.variance")
        tracer.patch(owner, "rate_function", "stats.legendre")
    for attr in ("forward_transform", "evaluate_on_fine", "restrict_to_coarse"):
        tracer.patch(stats, attr, "grids.transforms")

    # kernels: epsilon matching and the bump samples it evaluates.
    tracer.patch(cli, "match_epsilon", "kernels.match_epsilon")
    tracer.patch(kernels, "bump_spatial", "kernels.bump_spatial")

    # torus: map images, for every concrete map class.
    for klass in (torus.LinearToral, torus.PerturbedCat):
        tracer.patch(klass, "image_arrays", "torus.image_arrays", _points_info)

    # ulam: builds, stationary vectors, the sparse solve.
    tracer.patch(ulam, "_build", "ulam.build")
    for owner in (ulam, cli):
        tracer.patch(owner, "ulam_srb", "ulam.srb")
    ulam.spla = _ModuleProxy(scipy.sparse.linalg)
    tracer.patch(ulam.spla, "spsolve", "ulam.solve")

    # cli: the summary, GRID and CSV writers.
    for attr in ("_write_summary", "write_grid", "write_grid_csv"):
        tracer.patch(cli, attr, "cli.io")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    src = os.path.join(os.path.abspath(opts.root), "src")
    sys.path.insert(0, src)
    from anosov import backend, cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"anosov imported from {cli.__file__}, not {src}")

    report = {"backend": backend.backend_name()}
    tracer = None
    if opts.trace:
        tracer = Tracer()
        install(tracer, cli)
    run = tracer.wrap("cli.main", cli.main) if tracer else cli.main

    report["pipeline_start"] = time.monotonic()
    if not opts.setup_only:
        t0 = time.perf_counter()
        report["exit_code"] = run(argv)
        report["wall_s"] = time.perf_counter() - t0
    if tracer:
        report["spans"] = tracer.spans
    with open(opts.report, "w") as f:
        json.dump(report, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
