"""Command-line front end.

Subcommands: certify, srb, variance, rate, lambda-curve, ulam.  Options can
be preloaded from a JSON config file (--config): its values become the
subcommand's defaults, so any explicit flag, alias or abbreviation included,
wins over the file.  Every run writes a JSON summary with the scalar
results, residuals and provenance (config echo, config hash, versions,
backend, wall time).  Grids are dumped in the GRID binary format, tables as
CSV.  --workers sets the FFT thread count through scipy.fft.set_workers.

Exit codes: 0 success, 1 configuration error (argparse usage errors
included), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time

import numpy as np
import scipy.fft

from . import __version__, backend
from .certificate import certify
from .grids import GridSpec, write_grid, write_grid_csv
from .kernels import BumpKernel, FejerKernel, NoRootError, match_epsilon
from .operators import assemble, write_opmat
from .stats import NumericalError, baseline, lambda_curve, rate_function, variance
from .torus import LinearToral, PerturbedCat, TrigPolynomial, standard_observable
from .ulam import build_ulam, ulam_srb, ulam_variance


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError (exit 1) instead of SystemExit(2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _parse_range(text: str) -> list:
    """Parse 'a:step:b' (inclusive ends) or a comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:step:stop, got {text!r}")
        a, h, b = (float(p) for p in parts)
        if h <= 0:
            raise ConfigError("range step must be positive")
        count = int(round((b - a) / h))
        vals = [a + i * h for i in range(count + 1)]
        return [v for v in vals if v <= b + 1e-12]
    return [float(p) for p in text.split(",") if p.strip()]


def _make_map(args):
    name = args.map
    if name in ("cat", "linear"):
        return LinearToral(2, 1, 1, 1)
    if name == "perturbed-cat":
        return PerturbedCat(delta=args.delta, form=args.form)
    raise ConfigError(f"unknown map {name!r}")


def _make_observable(args):
    spec = getattr(args, "observable", "standard") or "standard"
    if spec == "standard":
        return standard_observable()
    try:
        modes = json.loads(spec)
        parsed = tuple(
            ((int(j1), int(j2)), complex(re, im)) for (j1, j2, re, im) in modes
        )
        return TrigPolynomial(parsed)
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad observable spec {spec!r}: {exc}") from None


def _fourier_problem(args):
    """Map, kernel, observable and grid of a Fourier-scheme run.

    Also returns the bump-width fields every such summary reports: the
    epsilon in use and, when it was matched, the matching residual.
    """
    grid = GridSpec(args.n, args.fine)
    matched = {"epsilon": None, "matching_residual": None}
    if args.scheme == "fejer":
        kern = FejerKernel()
    elif args.scheme == "bump":
        eps = args.epsilon
        if eps is None:
            eps, residual = match_epsilon(grid.n, grid, full_output=True)
            matched["matching_residual"] = residual
        matched["epsilon"] = eps
        kern = BumpKernel(eps)
    else:
        raise ConfigError(f"scheme {args.scheme!r} is not a Fourier scheme")
    return _make_map(args), kern, _make_observable(args), grid, matched


def _out_dir(args) -> str:
    d = args.out_dir or os.environ.get("ANOSOV_OUT", ".")
    os.makedirs(d, exist_ok=True)
    return d


def _write_csv(path: str, header: list, rows) -> str:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_summary(args, task: str, payload: dict, started: float) -> str:
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("func",)}
    blob = json.dumps(config, sort_keys=True, default=str)
    summary = {
        "task": task,
        "results": payload,
        "config": config,
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "versions": {
            "anosov_spectral": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "backend": backend.backend_name(),
        },
        "wall_time_s": time.perf_counter() - started,
    }
    path = os.path.join(_out_dir(args), args.json_name or f"{task}_summary.json")
    with open(path, "w") as f:
        json.dump(summary, f, indent=2, default=str)
    print(json.dumps(summary["results"], indent=2, default=str))
    print(f"summary written to {path}")
    return path


def _cmd_certify(args, started):
    report = certify(args.delta, args.alpha)
    _write_summary(args, "certify", report.to_dict(), started)


def _cmd_variance(args, started):
    if args.scheme == "ulam":
        g = _make_observable(args)
        payload = ulam_variance(_make_map(args), args.boxes, args.samples, g).to_dict()
    else:
        map_model, kern, g, grid, matched = _fourier_problem(args)
        payload = variance(map_model, kern, g, grid).to_dict()
        payload.update(matched)
    _write_summary(args, "variance", payload, started)


def _cmd_srb(args, started):
    map_model, kern, g, grid, matched = _fourier_problem(args)
    M0 = assemble(map_model, kern, g, 0.0, grid)
    base = baseline(M0, g)
    out = _out_dir(args)
    grid_path = os.path.join(out, "srb_density.grid")
    write_grid(grid_path, base.density)
    if args.csv:
        write_grid_csv(os.path.join(out, "srb_density.csv"), base.density)
    payload = {
        "leading_eigenvalue": base.eigen.lam,
        "eigen_residual": base.eigen.residual,
        "imag_discard_max": base.imag_max,
        "density_file": grid_path,
    }
    if args.dump_operator:
        op_path = os.path.join(out, "operator.opmat")
        write_opmat(op_path, M0)
        payload["operator_file"] = op_path
    payload.update(matched)
    _write_summary(args, "srb", payload, started)


def _cmd_rate(args, started):
    map_model, kern, g, grid, matched = _fourier_problem(args)
    s_values = _parse_range(args.s)
    bracket = tuple(float(x) for x in args.z_bracket.split(","))
    table = rate_function(map_model, kern, g, grid, s_values, bracket)
    csv_path = _write_csv(
        os.path.join(_out_dir(args), "rate_table.csv"),
        ["s", "z_star", "r", "iterations", "boundary_flag"],
        table.to_rows(),
    )
    payload = {
        "rows": len(table.rows),
        "sigma2": table.sigma2,
        "mean_shift": table.shift,
        "solve_terms": table.solve_terms,
        "solve_rate": table.solve_rate,
        "z_bracket": list(table.z_bracket),
        "bracket_expanded": table.bracket_expanded,
        "legendre_evals": table.legendre_evals,
        "lambda_imag_max": table.lambda_imag_max,
        "slope_monotone": table.slope_monotone,
        "eigvec_overlap_min": table.eigvec_overlap_min,
        "table_file": csv_path,
    }
    payload.update(matched)
    _write_summary(args, "rate", payload, started)


def _cmd_lambda_curve(args, started):
    map_model, kern, g, grid, matched = _fourier_problem(args)
    points = lambda_curve(map_model, kern, g, grid, _parse_range(args.z))
    csv_path = _write_csv(
        os.path.join(_out_dir(args), "lambda_curve.csv"),
        ["z", "lambda_re", "lambda_im", "log_abs_lambda"],
        ([p.z, p.lam.real, p.lam.imag, np.log(abs(p.lam))] for p in points),
    )
    payload = {
        "points": [{"z": p.z, "lambda": p.lam} for p in points],
        "table_file": csv_path,
    }
    payload.update(matched)
    _write_summary(args, "lambda-curve", payload, started)


def _cmd_ulam(args, started):
    res = None
    if args.variance:
        g = _make_observable(args)
        res = ulam_variance(_make_map(args), args.boxes, args.samples, g)
        density = res.density
    else:
        density = ulam_srb(build_ulam(_make_map(args), args.boxes, args.samples))
    out = _out_dir(args)
    grid_path = os.path.join(out, "ulam_density.grid")
    write_grid(grid_path, density.reshape(args.boxes, args.boxes))
    payload = {
        "boxes": args.boxes,
        "samples_per_box": args.samples,
        "density_min": float(density.min()),
        "density_file": grid_path,
    }
    if res is not None:
        summary = res.to_dict()
        for key in ("sigma2", "mean_shift", "solve_residual", "solve_terms", "solve_rate"):
            payload[key] = summary[key]
    _write_summary(args, "ulam", payload, started)


def _add_common(p):
    p.add_argument("--map", default="perturbed-cat", help="cat | perturbed-cat")
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--form", default="section7", help="section7 | appendix")
    p.add_argument(
        "--observable",
        default="standard",
        help='"standard" or a JSON list of [j1, j2, re, im] modes',
    )
    p.add_argument("--scheme", default="fejer", help="fejer | bump | ulam")
    p.add_argument("--n", type=int, default=32, help="coarse order")
    p.add_argument("--fine", "--N", dest="fine", type=int, default=512, help="fine order N")
    p.add_argument("--epsilon", type=float, default=None, help="bump width (else matched)")
    p.add_argument("--boxes", type=int, default=64, help="Ulam boxes per side")
    p.add_argument("--samples", type=int, default=1600, help="Ulam samples per box")
    p.add_argument("--out-dir", default=None, help="output directory (env ANOSOV_OUT)")
    p.add_argument("--json-name", default=None, help="summary file name")
    p.add_argument("--config", default=None, help="JSON config file; flags override")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="FFT threads as in scipy.fft.set_workers: nonzero, negative counts "
        "back from the CPU count; does not change results",
    )


def build_parser():
    """The top-level parser and its subcommand parsers by name."""
    ap = _Parser(
        prog="anosov",
        description="Spectral and Ulam approximation of statistical data of torus maps",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="closed-form hyperbolicity certificate")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=0.11872)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("variance", help="CLT variance")
    _add_common(p)
    p.set_defaults(func=_cmd_variance)

    p = sub.add_parser("srb", help="invariant density on the fine grid")
    _add_common(p)
    p.add_argument("--csv", action="store_true", help="also write CSV")
    p.add_argument("--dump-operator", action="store_true", help="write the OPMAT dump")
    p.set_defaults(func=_cmd_srb)

    p = sub.add_parser("rate", help="large-deviations rate function")
    _add_common(p)
    p.add_argument("--s", default="0:0.1:1.8", help="s grid, start:step:stop")
    p.add_argument("--z-bracket", default="-4,4")
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("lambda-curve", help="leading eigenvalue along real twists")
    _add_common(p)
    p.add_argument("--z", default="-1:0.1:1", help="z grid, start:step:stop or list")
    p.set_defaults(func=_cmd_lambda_curve)

    p = sub.add_parser("ulam", help="Ulam transition matrix and invariant density")
    _add_common(p)
    p.add_argument("--variance", action="store_true", help="also compute sigma^2")
    p.set_defaults(func=_cmd_ulam)
    return ap, sub.choices


def _parse_args(argv):
    """Parse argv; with --config, the file's values become the subcommand's
    defaults and argv is parsed again, so explicit flags win."""
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if not args.config:
        return args
    try:
        with open(args.config) as f:
            loaded = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
    config = {}
    for key, value in loaded.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ConfigError(f"unknown config key {key!r}")
        config[attr] = value
    commands[args.command].set_defaults(**config)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        args = _parse_args(argv)
        with scipy.fft.set_workers(args.workers):
            args.func(args, started)
        return 0
    # LinAlgError subclasses ValueError, so it must be caught first
    except (
        NumericalError,
        np.linalg.LinAlgError,
        NoRootError,
        OverflowError,
        MemoryError,
    ) as exc:
        diag = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(diag, indent=2), file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
