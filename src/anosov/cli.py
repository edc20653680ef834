"""Command-line front end.

Subcommands: certify, srb, variance, rate, lambda-curve, ulam.  Each takes
only the options its run reads (see build_parser), plus --out-dir,
--json-name and --config.  Options can be preloaded from a JSON config file
(--config): its values become the subcommand's defaults, so any explicit
flag, alias or abbreviation included, wins over the file, and a key the
subcommand does not take exits 1.  Every run writes a JSON summary with the scalar
results, residuals and provenance (config echo, config hash, versions, wall
time): each _cmd_* returns the "results" payload, mostly the fields of its
result dataclass, and main writes the summary.  Grids are dumped in the GRID
binary format, tables as CSV.

Exit codes: 0 success, 1 configuration error (argparse usage errors
included), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict, astuple

import numpy as np

from . import __version__
from .certificate import certify
from .grids import GridSpec, evaluate_on_fine, write_grid, write_grid_csv
from .kernels import BumpKernel, FejerKernel, NoRootError, match_epsilon
from .operators import _reserve, assemble, write_opmat
from .stats import (
    NumericalError,
    baseline,
    lambda_curve,
    leading_eigenpair,
    rate_function,
    variance,
)
from .torus import PerturbedCat, TrigPolynomial, cat_map, standard_observable
from .ulam import build_ulam, ulam_srb, ulam_variance


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError (exit 1) instead of SystemExit(2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _finite(texts, what: str) -> list:
    """The floats of ``texts``; ConfigError if one is nan or infinite."""
    vals = [float(t) for t in texts]
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"{what} holds a value that is not finite")
    return vals


def _parse_range(text: str) -> list:
    """Parse 'a:step:b' (inclusive ends) or a comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:step:stop, got {text!r}")
        a, h, b = _finite(parts, f"range {text!r}")
        if h <= 0:
            raise ConfigError("range step must be positive")
        # a float and its list slot per value; the count may be inf
        _reserve(32 * ((b - a) / h + 1), f"range {text!r}")
        count = int(round((b - a) / h))
        vals = [a + i * h for i in range(count + 1)]
        vals = [v for v in vals if v <= b + 1e-12]
    else:
        vals = _finite((p for p in text.split(",") if p.strip()), f"range {text!r}")
    if not vals:
        raise ConfigError(f"range {text!r} holds no value")
    return vals


def _make_map(args):
    name = args.map
    if name == "cat":
        if (args.delta, args.form) != (PerturbedCat.delta, PerturbedCat.form):
            raise ConfigError("--delta and --form perturb the cat map; --map cat takes neither")
        return cat_map()
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
        if args.epsilon is not None:
            raise ConfigError("--epsilon is the bump width; it needs --scheme bump")
        kern = FejerKernel()
    elif args.scheme == "bump":
        eps = args.epsilon
        if eps is None:
            eps, residual = match_epsilon(grid)
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


# options that say where output goes, not what is computed: echoed in the
# summary's config, left out of config_sha256
_UNHASHED = ("out_dir", "json_name", "config")


def _write_summary(args, payload: dict, started: float) -> str:
    task = args.command
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("func",)}
    problem = {k: v for k, v in config.items() if k not in _UNHASHED}
    blob = json.dumps(problem, sort_keys=True, default=str)
    summary = {
        "task": task,
        "results": payload,
        "config": config,
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "versions": {"anosov_spectral": __version__, "numpy": np.__version__},
        "wall_time_s": time.perf_counter() - started,
    }
    path = os.path.join(_out_dir(args), args.json_name or f"{task}_summary.json")
    with open(path, "w") as f:
        json.dump(summary, f, indent=2, default=str)
    print(json.dumps(summary["results"], indent=2, default=str))
    print(f"summary written to {path}")
    return path


def _cmd_certify(args):
    return asdict(certify(args.delta, args.alpha))


def _cmd_variance(args):
    *problem, matched = _fourier_problem(args)
    return {**asdict(variance(baseline(*problem))), **matched}


def _cmd_srb(args):
    map_model, kern, g, grid, matched = _fourier_problem(args)
    # the density's complex samples, their real part and |imag| on the fine grid
    _reserve(32 * grid.N**2, "the density's fine-grid samples")
    M0 = assemble(map_model, kern, g, 0.0, grid)
    eig = leading_eigenpair(M0)  # as in baseline, which also reads g's spectra
    # the density is the real part of the eigenvector's samples
    spatial = evaluate_on_fine(eig.right_vector.reshape(grid.n, grid.n), grid.N)
    out = _out_dir(args)
    grid_path = os.path.join(out, "srb_density.grid")
    write_grid(grid_path, spatial.real)
    if args.csv:
        write_grid_csv(os.path.join(out, "srb_density.csv"), spatial.real)
    payload = {
        "leading_eigenvalue": eig.lam,
        "eigen_residual": eig.residual,
        "imag_discard_max": float(np.abs(spatial.imag).max()),
        "density_file": grid_path,
    }
    if args.dump_operator:
        op_path = os.path.join(out, "operator.opmat")
        write_opmat(op_path, M0)
        payload["operator_file"] = op_path
    return {**payload, **matched}


def _cmd_rate(args):
    bracket = args.z_bracket.split(",")
    if len(bracket) != 2:
        raise ConfigError(f"z bracket must be lo,hi, got {args.z_bracket!r}")
    bracket = tuple(_finite(bracket, f"z bracket {args.z_bracket!r}"))
    s_values = _parse_range(args.s)
    *problem, matched = _fourier_problem(args)
    table = rate_function(baseline(*problem), s_values, bracket)
    csv_path = _write_csv(
        os.path.join(_out_dir(args), "rate_table.csv"),
        ["s", "z_star", "r", "iterations", "boundary_flag"],
        map(astuple, table.rows),
    )
    results = asdict(table)
    del results["rows"], results["variance"]
    # the summary counts the rows (the CSV holds them) and flattens the variance
    head = {"rows": len(table.rows), **asdict(table.variance)}
    return {**head, **results, "table_file": csv_path, **matched}


def _cmd_lambda_curve(args):
    zs = _parse_range(args.z)
    *problem, matched = _fourier_problem(args)
    points = list(zip(zs, lambda_curve(baseline(*problem), zs)))
    csv_path = _write_csv(
        os.path.join(_out_dir(args), "lambda_curve.csv"),
        ["z", "lambda_re", "lambda_im", "log_abs_lambda"],
        ([z, lam.real, lam.imag, np.log(abs(lam))] for z, lam in points),
    )
    return {
        "points": [{"z": z, "lambda": lam} for z, lam in points],
        "table_file": csv_path,
        **matched,
    }


def _cmd_ulam(args):
    if not args.variance and args.observable != "standard":
        raise ConfigError("--observable is the variance's observable; it needs --variance")
    map_model, stats = _make_map(args), {}
    if args.variance:
        res, density = ulam_variance(map_model, args.boxes, args.samples, _make_observable(args))
        stats = asdict(res)
    else:
        density = ulam_srb(build_ulam(map_model, args.boxes, args.samples))
    grid_path = os.path.join(_out_dir(args), "ulam_density.grid")
    write_grid(grid_path, density.reshape(args.boxes, args.boxes))
    return {
        "boxes": args.boxes,
        "samples_per_box": args.samples,
        "density_min": float(density.min()),
        "density_file": grid_path,
        **stats,
    }


def _add_common(p, *groups):
    """Add the options of the named groups ("map" includes "delta"), then
    the output options every subcommand takes."""
    add = p.add_argument
    if "map" in groups:
        add("--map", default="perturbed-cat", help="cat | perturbed-cat")
        add("--form", default=PerturbedCat.form, help="section7 | appendix")
    if "map" in groups or "delta" in groups:
        add("--delta", type=float, default=PerturbedCat.delta)
    if "observable" in groups:
        add(
            "--observable",
            default="standard",
            help='"standard" or a JSON list of [j1, j2, re, im] modes',
        )
    if "fourier" in groups:
        add("--scheme", default="fejer", help="fejer | bump")
        add("--n", type=int, default=32, help="coarse order")
        add("--fine", "--N", dest="fine", type=int, default=512, help="fine order N")
        add("--epsilon", type=float, default=None, help="bump width (else matched)")
    if "boxes" in groups:
        add("--boxes", type=int, default=64, help="Ulam boxes per side")
        add("--samples", type=int, default=1600, help="Ulam samples per box")
    add("--out-dir", default=None, help="output directory (env ANOSOV_OUT)")
    add("--json-name", default=None, help="summary file name")
    add("--config", default=None, help="JSON config file; flags override")


def build_parser():
    """The top-level parser and its subcommand parsers by name."""
    ap = _Parser(
        prog="anosov",
        description="Spectral and Ulam approximation of statistical data of torus maps",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="closed-form hyperbolicity certificate")
    _add_common(p, "delta")
    p.add_argument("--alpha", type=float, default=0.11872)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("variance", help="CLT variance")
    _add_common(p, "map", "observable", "fourier")
    p.set_defaults(func=_cmd_variance)

    p = sub.add_parser("srb", help="invariant density on the fine grid")
    _add_common(p, "map", "fourier")
    p.add_argument("--csv", action="store_true", help="also write CSV")
    p.add_argument("--dump-operator", action="store_true", help="write the OPMAT dump")
    p.set_defaults(func=_cmd_srb)

    p = sub.add_parser("rate", help="large-deviations rate function")
    _add_common(p, "map", "observable", "fourier")
    p.add_argument(
        "--s",
        default="0:0.1:1.8",
        help="s grid, start:step:stop",
    )
    p.add_argument("--z-bracket", default="-4,4", help="lo,hi")
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("lambda-curve", help="leading eigenvalue along real twists")
    _add_common(p, "map", "observable", "fourier")
    p.add_argument(
        "--z",
        default="-1:0.1:1",
        help="z grid, start:step:stop or list",
    )
    p.set_defaults(func=_cmd_lambda_curve)

    p = sub.add_parser("ulam", help="Ulam transition matrix and invariant density")
    _add_common(p, "map", "observable", "boxes")
    p.add_argument("--variance", action="store_true", help="also compute sigma^2")
    p.set_defaults(func=_cmd_ulam)
    return ap, sub.choices


def _attach_negative_values(argv):
    """'--s -1:0.1:1' as '--s=-1:0.1:1': argparse takes a token that starts with
    '-' and is no plain number for an option, and none of ours starts '-<digit>'."""
    out = []
    for tok in argv:
        if out and re.match(r"-[\d.]", tok) and re.fullmatch(r"--[^=]+", out[-1]):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _parse_args(argv):
    """Parse argv; with --config, the file's values become the subcommand's
    defaults and argv is parsed again, so explicit flags win."""
    parser, commands = build_parser()
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    if not args.config:
        return args
    try:
        with open(args.config) as f:
            loaded = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
    if not isinstance(loaded, dict):
        raise ConfigError(f"config {args.config!r} does not hold a JSON object")
    config = {}
    for key, value in loaded.items():
        attr = key.replace("-", "_")
        if attr in ("command", "func") or not hasattr(args, attr):
            raise ConfigError(f"unknown config key {key!r}")
        config[attr] = value
    commands[args.command].set_defaults(**config)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        args = _parse_args(argv)
        payload = args.func(args)
        _write_summary(args, payload, started)
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
