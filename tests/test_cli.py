import json
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

import anosov.cli as cli_mod
import anosov.operators as ops
import anosov.stats as stats_mod
import anosov.ulam as ulam_mod
from anosov import (
    BumpKernel,
    GridSpec,
    LinearToral,
    PerturbedCat,
    baseline,
    build_ulam,
    cat_map,
    evaluate_on_fine,
    standard_observable,
    ulam_srb,
    ulam_variance,
)
from anosov.cli import main
from anosov.grids import read_grid
from anosov.kernels import NoRootError
from anosov.stats import NonConvergenceError


def _load_summary(tmp_path, name):
    with open(tmp_path / name) as f:
        return json.load(f)


def test_certify_command(tmp_path):
    code = main(
        [
            "certify",
            "--delta",
            "0.01",
            "--alpha",
            "0.11872",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    summary = _load_summary(tmp_path, "certify_summary.json")
    assert summary["results"]["overall"] is True
    assert summary["task"] == "certify"
    assert "config_sha256" in summary and "versions" in summary


def test_variance_command_linear_oracle(tmp_path):
    code = main(
        [
            "variance",
            "--map",
            "cat",
            "--scheme",
            "fejer",
            "--n",
            "8",
            "--fine",
            "64",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    summary = _load_summary(tmp_path, "variance_summary.json")
    assert summary["results"]["sigma2"] == pytest.approx(1.0, abs=1e-8)


def test_variance_schema_stable(tmp_path):
    for name, map_name in (("a.json", "cat"), ("b.json", "perturbed-cat")):
        main(
            [
                "variance",
                "--map",
                map_name,
                "--scheme",
                "fejer",
                "--n",
                "8",
                "--fine",
                "64",
                "--out-dir",
                str(tmp_path),
                "--json-name",
                name,
            ]
        )
    a = _load_summary(tmp_path, "a.json")
    b = _load_summary(tmp_path, "b.json")
    assert set(a["results"]) == set(b["results"])
    assert set(a) == set(b)


def test_srb_command_writes_grid(tmp_path):
    code = main(
        [
            "srb",
            "--map",
            "perturbed-cat",
            "--delta",
            "0.01",
            "--scheme",
            "fejer",
            "--n",
            "8",
            "--fine",
            "64",
            "--out-dir",
            str(tmp_path),
            "--csv",
        ]
    )
    assert code == 0
    density = read_grid(tmp_path / "srb_density.grid")
    assert density.shape == (64, 64)
    assert np.mean(density) == pytest.approx(1.0, abs=1e-8)
    assert (tmp_path / "srb_density.csv").exists()


def test_srb_density_is_the_baselines(tmp_path):
    """srb and variance share one z = 0 solve: the GRID payload is the real
    part of the baseline eigenvector's samples, bit for bit, and the leading
    eigenvalue the series' exact 1."""
    argv = ["srb", "--scheme", "bump", "--n", "8", "--fine", "64", "--epsilon", "0.1"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    base = baseline(PerturbedCat(), BumpKernel(0.1), standard_observable(), GridSpec(8, 64))
    expected = evaluate_on_fine(base.eigen.right_vector.reshape(8, 8), 64).real
    assert np.array_equal(read_grid(tmp_path / "srb_density.grid"), expected)
    # the summary writes a complex number as its str
    assert _load_summary(tmp_path, "srb_summary.json")["results"]["leading_eigenvalue"] == "(1+0j)"


def test_rate_command_csv(tmp_path):
    code = main(
        [
            "rate",
            "--map",
            "perturbed-cat",
            "--scheme",
            "fejer",
            "--n",
            "8",
            "--fine",
            "64",
            "--s",
            "0:0.1:0.3",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    rows = (tmp_path / "rate_table.csv").read_text().strip().splitlines()
    assert rows[0] == "s,z_star,r,iterations,boundary_flag"
    assert len(rows) == 1 + 4
    first = rows[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[2])) <= 1e-8


def test_lambda_curve_command(tmp_path):
    code = main(
        [
            "lambda-curve",
            "--map",
            "perturbed-cat",
            "--scheme",
            "fejer",
            "--n",
            "8",
            "--fine",
            "64",
            "--z",
            "0,0.2",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    rows = (tmp_path / "lambda_curve.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    z0 = rows[1].split(",")
    assert abs(float(z0[1]) - 1.0) < 1e-10


def test_ulam_command_with_variance(tmp_path, monkeypatch):
    calls = {"build": 0, "srb": 0}
    build, srb = ulam_mod._build, ulam_mod.ulam_srb

    def counting_build(*args):
        calls["build"] += 1
        return build(*args)

    def counting_srb(P):
        calls["srb"] += 1
        return srb(P)

    monkeypatch.setattr(ulam_mod, "_build", counting_build)
    monkeypatch.setattr(ulam_mod, "ulam_srb", counting_srb)
    monkeypatch.setattr(cli_mod, "ulam_srb", counting_srb)
    code = main(
        [
            "ulam",
            "--map",
            "cat",
            "--boxes",
            "16",
            "--samples",
            "100",
            "--variance",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    density = read_grid(tmp_path / "ulam_density.grid")
    assert density.shape == (16, 16)
    summary = _load_summary(tmp_path, "ulam_summary.json")
    assert "sigma2" in summary["results"]
    # one transition matrix and one stationary solve serve both outputs
    assert calls == {"build": 1, "srb": 1}
    monkeypatch.undo()
    expected = ulam_srb(build_ulam(cat_map(), 16, 100)).reshape(16, 16)
    assert np.array_equal(density, expected)
    res, _ = ulam_variance(cat_map(), 16, 100, standard_observable())
    assert summary["results"]["sigma2"] == res.sigma2


@pytest.mark.parametrize(
    "flags, key, value",
    [
        (["--n", "8"], "n", 8),
        (["--N", "64"], "fine", 64),
        (["--fin", "64"], "fine", 64),
        (["--fine=64"], "fine", 64),
    ],
    ids=["n", "N-alias", "abbreviation", "equals"],
)
def test_config_file_with_flag_override(tmp_path, flags, key, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"map": "cat", "n": 16, "fine": 128, "scheme": "fejer"}))
    code = main(["variance", "--config", str(cfg), *flags, "--out-dir", str(tmp_path)])
    assert code == 0
    config = _load_summary(tmp_path, "variance_summary.json")["config"]
    # the flag wins, whatever spelling it was given in; the rest is from the file
    expected = {"map": "cat", "n": 16, "fine": 128, "scheme": "fejer", key: value}
    assert {k: config[k] for k in expected} == expected


def test_config_file_strings_are_type_converted(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"delta": "0.02", "alpha": "0.1"}))
    assert main(["certify", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    summary = _load_summary(tmp_path, "certify_summary.json")
    assert summary["config"]["delta"] == 0.02 and summary["config"]["alpha"] == 0.1


def test_cli_import_leaves_scipy_fft_unloaded():
    """numpy.fft is the one FFT library: a fresh ``import anosov.cli`` does not
    load scipy.fft (scipy.sparse does not need it either)."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, anosov.cli; print('scipy.fft' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_config_hash_names_the_problem_not_the_output(tmp_path):
    """The output directory and file name and the config file's path leave
    config_sha256 alone, and stay in the config echo; a different coarse
    order changes it."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 8}))
    argv = ["variance", "--map", "cat", "--fine", "64"]
    runs = {
        "base": ["--n", "8", "--out-dir", str(tmp_path / "a")],
        "dir": ["--n", "8", "--out-dir", str(tmp_path / "b"), "--json-name", "x.json"],
        "config": ["--config", str(cfg), "--out-dir", str(tmp_path / "d")],
        "n": ["--n", "16", "--out-dir", str(tmp_path / "e")],
    }
    hashes = {}
    for name, extra in runs.items():
        assert main(argv + extra) == 0
        out = Path(extra[extra.index("--out-dir") + 1])
        summary = json.loads(next(out.glob("*.json")).read_text())
        assert summary["config"]["out_dir"] == str(out)
        hashes[name] = summary["config_sha256"]
    assert hashes["dir"] == hashes["config"] == hashes["base"]
    assert hashes["n"] != hashes["base"]


def test_bad_configuration_exits_one(tmp_path, capsys):
    assert main(["variance", "--scheme", "bogus", "--out-dir", str(tmp_path)]) == 1
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"no_such_key": 1}))
    assert main(["variance", "--config", str(cfg)]) == 1
    # the FFT thread count is no option: a config file that sets it is refused
    cfg.write_text(json.dumps({"workers": 2}))
    assert main(["variance", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
    assert "unknown config key 'workers'" in capsys.readouterr().err
    assert main(["variance", "--map", "linear", "--out-dir", str(tmp_path)]) == 1
    assert "unknown map 'linear'" in capsys.readouterr().err
    # the Fejer kernel has no width: an --epsilon would only enter the config hash
    assert main(["variance", "--epsilon", "0.1", "--out-dir", str(tmp_path)]) == 1
    assert "it needs --scheme bump" in capsys.readouterr().err
    assert main(["variance", "--scheme", "ulam", "--out-dir", str(tmp_path)]) == 1
    assert "'ulam' is not a Fourier scheme" in capsys.readouterr().err
    # the cat map has no perturbation: a --delta or --form would only enter the hash
    for flags in (
        ["--delta", "nan", "--form", "appendix"],
        ["--delta", "0.02"],
        ["--form=appendix"],
    ):
        argv = ["variance", "--map", "cat", *flags, "--n", "8", "--fine", "64"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 1
        assert "--map cat takes neither" in capsys.readouterr().err
    # only the variance reads an observable: without it one would only enter the hash
    argv = ["ulam", "--boxes", "8", "--samples", "16", "--observable", "bogus"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 1
    assert "it needs --variance" in capsys.readouterr().err
    cfg.write_text("[1, 2]")
    assert main(["certify", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
    assert "does not hold a JSON object" in capsys.readouterr().err
    for key in ("func", "command"):
        cfg.write_text(json.dumps({key: "variance"}))
        assert main(["certify", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["variance", "--n", "1"], "coarse order n must be at least 2"),
        (["variance", "--scheme", "bump", "--n", "16", "--fine", "16"], "N >= 2n"),
        (["ulam", "--boxes", "1"], "power of two >= 2, got 1"),
        (["ulam", "--samples", "0"], "positive perfect square, got 0"),
        (["ulam", "--samples", "-4"], "positive perfect square, got -4"),
        (["rate", "--z-bracket", "-1"], "z bracket must be lo,hi, got '-1'"),
        (["rate", "--z-bracket=-1,1,5"], "z bracket must be lo,hi, got '-1,1,5'"),
        (["rate", "--s", "1:0.1:0"], "range '1:0.1:0' holds no value"),
        (["lambda-curve", "--z", ""], "range '' holds no value"),
    ],
    ids=[
        "n-1",
        "bump-N-below-2n",
        "boxes-1",
        "samples-0",
        "samples-neg",
        "bracket-one",
        "bracket-three",
        "s-reversed",
        "z-empty",
    ],
)
def test_bad_sizes_and_brackets_exit_one(tmp_path, capsys, argv, message):
    """Refused up front, before any solver runs or warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out-dir", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err


_SMALL = ["--n", "8", "--fine", "64"]
_ULAM = ["--boxes", "16", "--samples", "100"]
_NOT_FINITE = "holds a value that is not finite"
_AMPLITUDE = "amplitude at (1, 0) is not finite"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ulam", "--boxes", "8", "--samples", "16", "--delta", "nan", "--variance"],
         "delta must be finite, got nan"),
        (["certify", "--delta", "nan"], "delta must be finite and nonnegative, got nan"),
        (["rate", *_SMALL, "--s", "inf"], f"range 'inf' {_NOT_FINITE}"),
        (["rate", *_SMALL, "--s", "nan"], f"range 'nan' {_NOT_FINITE}"),
        (["rate", *_SMALL, "--s", "0:0.5:inf"], f"range '0:0.5:inf' {_NOT_FINITE}"),
        (["rate", *_SMALL, "--z-bracket=-inf,inf"], f"z bracket '-inf,inf' {_NOT_FINITE}"),
        (["variance", "--delta", "nan"], "delta must be finite, got nan"),
        (["lambda-curve", "--z", "nan"], f"range 'nan' {_NOT_FINITE}"),
        (["variance", *_SMALL, "--observable", "[[1,0,NaN,0],[-1,0,NaN,0]]"], _AMPLITUDE),
        (["rate", *_SMALL, "--observable", "[[1,0,Infinity,0],[-1,0,Infinity,0]]"], _AMPLITUDE),
        (
            ["lambda-curve", *_SMALL, "--observable", "[[1,1,0.5,0],[-1,-1,NaN,0]]"],
            "modes violate conjugate symmetry at (1, 1)",
        ),
        (
            ["ulam", *_ULAM, "--variance"]
            + ["--observable", "[[1,0,0,-Infinity],[-1,0,0,Infinity]]"],
            _AMPLITUDE,
        ),
    ],
    ids=[
        "ulam-delta",
        "certify-delta",
        "rate-s-inf",
        "rate-s-nan",
        "rate-s-stop-inf",
        "rate-bracket",
        "variance-delta",
        "lambda-curve-z",
        "variance-observable-nan",
        "rate-observable-inf",
        "lambda-curve-observable-asymmetric-nan",
        "ulam-observable-inf",
    ],
)
def test_non_finite_numbers_exit_one(tmp_path, capsys, argv, message):
    """nan and inf are refused up front; no summary is written."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out-dir", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*_summary.json"))


@pytest.mark.parametrize(
    "argv, attr, value",
    [
        (["rate", "--z-bracket", "-1,1"], "z_bracket", "-1,1"),
        (["rate", "--s", "-1:0.1:1"], "s", "-1:0.1:1"),
        (["lambda-curve", "--z", "-1:0.1:1"], "z", "-1:0.1:1"),
        (["rate", "--z-b", "-.5,1"], "z_bracket", "-.5,1"),
    ],
    ids=["bracket", "s-range", "z-range", "abbreviated"],
)
def test_negative_range_values_parse_as_typed(argv, attr, value):
    assert getattr(cli_mod._parse_args(argv), attr) == value


def test_negative_z_range_runs(tmp_path):
    argv = ["lambda-curve", "--n", "4", "--fine", "8", "--z", "-1:1:1"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "lambda-curve_summary.json").read_text())
    assert [p["z"] for p in summary["results"]["points"]] == [-1.0, 0.0, 1.0]


def test_readme_command_lines_parse():
    """Every `anosov ...` line of the README's command-line block parses as
    `main` parses it."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    lines = [argv[1:] for argv in lines if argv[:1] == ["anosov"]]
    assert len(lines) == 7
    for argv in lines:
        cli_mod._parse_args(argv)


def test_readme_library_surface_runs():
    """The README's `Library surface` block runs as written, and the array
    types its comments give are the ones it gets."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library surface", 1)[1].split("```python", 1)[1]
    namespace = {}
    exec(block.split("```", 1)[0], namespace)
    q, v = namespace["q"], namespace["v"]
    assert q.shape == (16, 16) and q.dtype == np.float64 and q[7, 7] == 1.0
    assert v.shape == (256,) and v.dtype == np.complex128
    assert np.array_equal(v, namespace["base"].eigen.right_vector)
    density = namespace["density"]
    assert density.shape == (256, 256) and density.dtype == np.float64
    assert density.mean() == pytest.approx(1.0)
    lam, P, rho = namespace["lam"], namespace["P"], namespace["rho"]
    assert [type(x) for x in lam] == [complex, complex] and lam[0] == pytest.approx(1.0)
    assert isinstance(P, scipy.sparse.csr_matrix) and P.shape == (256, 256)
    assert rho.shape == (256,) and rho.mean() == pytest.approx(1.0)


# each subcommand's settable values, by dest: the options its run reads and
# the output options --out-dir, --json-name and --config
_OUTPUT = "out_dir json_name config"
_MAP = "map form delta"
_FOURIER = "scheme n fine epsilon"
_OPTIONS = {
    "certify": f"delta alpha {_OUTPUT}",
    "variance": f"{_MAP} observable {_FOURIER} {_OUTPUT}",
    "srb": f"{_MAP} {_FOURIER} csv dump_operator {_OUTPUT}",
    "rate": f"{_MAP} observable {_FOURIER} s z_bracket {_OUTPUT}",
    "lambda-curve": f"{_MAP} observable {_FOURIER} z {_OUTPUT}",
    "ulam": f"{_MAP} observable boxes samples variance {_OUTPUT}",
}


def test_each_subcommand_takes_only_the_options_it_reads():
    commands = cli_mod.build_parser()[1]
    assert list(commands) == list(_OPTIONS)
    for name, parser in commands.items():
        dests = set(vars(parser.parse_args([]))) - {"func"}
        assert dests == set(_OPTIONS[name].split()), name
    assert sum(len(names.split()) for names in _OPTIONS.values()) == 63
    assert len(_NOT_TAKEN) == 28


_VALUES = {
    "map": "cat",
    "form": "appendix",
    "observable": "standard",
    "scheme": "fejer",
    "n": "8",
    "fine": "64",
    "epsilon": "0.1",
    "workers": "2",
    "boxes": "16",
    "samples": "100",
}
_NOT_TAKEN = [
    (command, dest)
    for command, names in _OPTIONS.items()
    for dest in _VALUES
    if dest not in names.split()
]


@pytest.mark.parametrize("command, dest", _NOT_TAKEN, ids=[f"{c}-{d}" for c, d in _NOT_TAKEN])
def test_option_a_subcommand_does_not_read_exits_one(tmp_path, capsys, command, dest):
    flag = "--" + dest
    argv = [command, flag, _VALUES[dest], "--out-dir", str(tmp_path)]
    assert main(argv) == 1
    assert f"unrecognized arguments: {flag} {_VALUES[dest]}" in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({dest: _VALUES[dest]}))
    assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
    assert f"unknown config key {dest!r}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_summary.json"))


@pytest.mark.parametrize(
    "argv, keys",
    [
        (
            ["certify"],
            "diffeo cone_preservation forward_contraction inverse_contraction "
            "translate_bound overall",
        ),
        (
            ["variance", *_SMALL],
            "sigma2 mean_shift solve_residual solve_terms solve_rate epsilon matching_residual",
        ),
        (
            ["variance", "--scheme", "bump", *_SMALL],
            "sigma2 mean_shift solve_residual solve_terms solve_rate epsilon matching_residual",
        ),
        (
            ["srb", *_SMALL, "--dump-operator"],
            "leading_eigenvalue eigen_residual imag_discard_max density_file operator_file "
            "epsilon matching_residual",
        ),
        (
            ["rate", *_SMALL, "--s", "0,0.5"],
            "rows sigma2 mean_shift solve_residual solve_terms solve_rate z_bracket "
            "bracket_expanded legendre_evals lambda_imag_max slope_monotone "
            "eigvec_overlap_min table_file epsilon matching_residual",
        ),
        (["lambda-curve", *_SMALL, "--z", "0,0.2"], "points table_file epsilon matching_residual"),
        (["ulam", *_ULAM], "boxes samples_per_box density_min density_file"),
        (
            ["ulam", *_ULAM, "--variance"],
            "boxes samples_per_box density_min density_file "
            "sigma2 mean_shift solve_residual solve_terms solve_rate",
        ),
    ],
    ids=[
        "certify",
        "variance-fejer",
        "variance-bump",
        "srb-dump",
        "rate",
        "lambda-curve",
        "ulam",
        "ulam-variance",
    ],
)
def test_summary_keys_in_order(tmp_path, argv, keys):
    """The summary layout and each command's ordered results keys."""
    assert main(argv + ["--out-dir", str(tmp_path), "--json-name", "s.json"]) == 0
    summary = _load_summary(tmp_path, "s.json")
    assert summary["task"] == argv[0]
    assert list(summary) == "task results config config_sha256 versions wall_time_s".split()
    assert list(summary["versions"]) == ["anosov_spectral", "numpy", "scipy"]
    assert list(summary["results"]) == keys.split()


def test_usage_errors_exit_one_and_help_exits_zero(tmp_path, capsys):
    assert main(["certify", "--delta", "abc", "--out-dir", str(tmp_path)]) == 1
    assert "invalid float value: 'abc'" in capsys.readouterr().err
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"n": "abc"}))
    assert main(["variance", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
    assert "invalid int value: 'abc'" in capsys.readouterr().err
    for argv in (["--help"], ["variance", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: anosov" in capsys.readouterr().out


def test_rerun_reproduces_scalars_bitwise(tmp_path):
    argv = [
        "variance",
        "--map",
        "perturbed-cat",
        "--scheme",
        "fejer",
        "--n",
        "8",
        "--fine",
        "64",
        "--out-dir",
        str(tmp_path),
    ]
    assert main(argv + ["--json-name", "r1.json"]) == 0
    assert main(argv + ["--json-name", "r2.json"]) == 0
    a = _load_summary(tmp_path, "r1.json")["results"]
    b = _load_summary(tmp_path, "r2.json")["results"]
    assert a == b


def test_rate_rerun_reproduces_table_bytewise(tmp_path):
    argv = ["rate", "--scheme", "fejer", "--n", "8", "--fine", "64", "--s", "0:0.1:1.8"]
    for run in ("a", "b"):
        assert main(argv + ["--out-dir", str(tmp_path / run)]) == 0
    a, b = (_load_summary(tmp_path / run, "rate_summary.json")["results"] for run in "ab")
    assert a["legendre_evals"] == b["legendre_evals"] <= 100
    assert a["solve_terms"] == b["solve_terms"] and 0 < a["solve_terms"] < 100
    assert a["solve_rate"] == b["solve_rate"] and 0.0 < a["solve_rate"] < 1.0
    assert a["eigvec_overlap_min"] == b["eigvec_overlap_min"] > 0.02
    tables = [(tmp_path / run / "rate_table.csv").read_bytes() for run in "ab"]
    assert tables[0] == tables[1]


def test_rate_at_an_eigenvalue_crossing_succeeds(tmp_path):
    # the Newton-Legendre row at s = 1.0 sits on the bump kernel's kink near
    # z = 3.05, where it used to run out of evaluations (exit 2)
    argv = ["rate", "--map", "perturbed-cat", "--scheme", "bump", "--epsilon", "0.1"]
    argv += ["--n", "8", "--fine", "64", "--out-dir", str(tmp_path)]
    assert main(argv + ["--s", "1.0"]) == 0
    single = _load_summary(tmp_path, "rate_summary.json")["results"]
    assert main(argv + ["--s", "0:0.1:1.0"]) == 0
    table = _load_summary(tmp_path, "rate_summary.json")["results"]
    # the evaluations reach past the kink, where Lambda' decreases
    assert single["slope_monotone"] is False and table["slope_monotone"] is False
    assert 0.0 <= single["lambda_imag_max"] < 1.0 and 0.0 <= table["lambda_imag_max"] < 1.0
    assert 0.0 <= single["eigvec_overlap_min"] <= 1.0
    rows = (tmp_path / "rate_table.csv").read_text().splitlines()
    assert rows[0] == "s,z_star,r,iterations,boundary_flag" and len(rows) == 12


def test_ulam_rerun_reproduces_density_bytewise(tmp_path):
    argv = ["ulam", "--boxes", "16", "--samples", "100", "--variance"]
    for run in ("a", "b"):
        assert main(argv + ["--out-dir", str(tmp_path / run)]) == 0
    a, b = (_load_summary(tmp_path / run, "ulam_summary.json")["results"] for run in "ab")
    assert a.pop("density_file") != b.pop("density_file")
    assert a == b
    assert 0 < a["solve_terms"] < 100 and a["solve_residual"] < 1e-12
    grids = [(tmp_path / run / "ulam_density.grid").read_bytes() for run in "ab"]
    assert grids[0] == grids[1]


def test_ulam_non_mixing_map_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli_mod, "_make_map", lambda args: LinearToral(1, 0, 0, 1))
    argv = ["ulam", "--boxes", "8", "--samples", "16", "--variance"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    assert "SingularSolveError" in capsys.readouterr().err


def test_ulam_chain_that_does_not_mix_exits_two(tmp_path, capsys):
    """With one sample per box P sends each box to one box, a map of a finite
    set whose cycles leave P^T more eigenvalues of modulus one: the density
    series refuses it, and no density is written."""
    assert main(["ulam", "--boxes", "16", "--samples", "1", "--out-dir", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SingularSolveError"
    assert not (tmp_path / "ulam_density.grid").exists()


def test_ulam_doubly_stochastic_chain_that_does_not_mix_exits_two(tmp_path, capsys):
    """With one sample per box the cat map permutes the boxes: P^T fixes the
    uniform start exactly, and the check from a non-constant start refuses it."""
    argv = ["ulam", "--map", "cat", "--boxes", "16", "--samples", "1"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SingularSolveError"
    assert not (tmp_path / "ulam_density.grid").exists()


@pytest.mark.parametrize("variance", [False, True], ids=["density", "variance"])
def test_ulam_runs_without_arpack(tmp_path, monkeypatch, variance):
    """The Ulam density and variance both come from the Green-Kubo series."""

    def no_arpack(*args, **kwargs):
        raise AssertionError("ARPACK was called")

    monkeypatch.setattr(stats_mod.spla, "eigs", no_arpack)
    argv = ["ulam", *_ULAM, *(["--variance"] if variance else [])]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    assert read_grid(tmp_path / "ulam_density.grid").min() > 0.0


def test_srb_operator_dump(tmp_path):
    from anosov.operators import read_opmat

    code = main(
        [
            "srb",
            "--map",
            "cat",
            "--scheme",
            "fejer",
            "--n",
            "8",
            "--fine",
            "64",
            "--dump-operator",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    n, z, entries = read_opmat(tmp_path / "operator.opmat")
    assert n == 8 and z == 0 and entries.shape == (64, 64)


def test_operator_dump_over_the_memory_budget_exits_two(tmp_path, monkeypatch, capsys):
    """A budget that holds the n = 8 factors (24 KiB) but not the 64 KiB
    dense matrix: the dump is refused before it is built and nothing is written."""
    import anosov.operators as ops

    monkeypatch.setattr(ops, "MEMORY_BUDGET", 48 * 2**10)
    argv = ["srb", "--n", "8", "--fine", "64", "--dump-operator", "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "MemoryError"
    assert not (tmp_path / "operator.opmat").exists()


def _peak_of(run):
    """(run's result, its tracemalloc peak in bytes)."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_srb_density_over_the_memory_budget_exits_two(tmp_path, monkeypatch, capsys):
    """N = 512: the density's 4 MiB of complex samples do not fit a 1 MiB
    budget, so srb exits 2 before it assembles anything and writes nothing."""
    monkeypatch.setattr(ops, "MEMORY_BUDGET", 2**20)
    argv = ["srb", "--n", "8", "--fine", "512", "--out-dir", str(tmp_path)]
    code, peak = _peak_of(lambda: main(argv))
    assert code == 2 and peak < 2**20
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MemoryError" and "the density's fine-grid samples" in err["message"]
    assert not (tmp_path / "srb_density.grid").exists()


_MIXED_SPEC = "[[1,1,0.25,0],[-1,-1,0.25,0],[2,0,0.5,0],[-2,0,0.5,0],[0,1,0,-0.5],[0,-1,0,0.5]]"


@pytest.mark.parametrize(
    "argv", [["variance"], ["lambda-curve", "--z", "0.5"]], ids=["variance", "lambda-curve"]
)
def test_mixed_observable_samples_over_the_memory_budget_exit_two(
    tmp_path, monkeypatch, capsys, argv
):
    """A mixed-mode g is sampled on the N x N grid (2 MiB of doubles at
    N = 512): with a 1 MiB budget the baseline refuses before sampling."""
    monkeypatch.setattr(ops, "MEMORY_BUDGET", 2**20)
    argv = [*argv, "--n", "8", "--fine", "512", "--observable", _MIXED_SPEC]
    code, peak = _peak_of(lambda: main([*argv, "--out-dir", str(tmp_path)]))
    assert code == 2 and peak < 2**20
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MemoryError"
    assert "the observable's fine-grid samples" in err["message"]
    assert not list(tmp_path.glob("*_summary.json"))


def test_range_is_reserved_before_it_is_listed(monkeypatch):
    """A float and a list slot per value: 100001 values take 3 MiB."""
    monkeypatch.setattr(ops, "MEMORY_BUDGET", 2**20)
    assert len(cli_mod._parse_range("0:0.001:1")) == 1001

    def refused():
        with pytest.raises(MemoryError, match="range '0:1e-5:1' needs 3 MiB"):
            cli_mod._parse_range("0:1e-5:1")

    assert _peak_of(refused)[1] < 2**20


def test_numerical_failure_exits_two(tmp_path):
    code = main(
        [
            "lambda-curve",
            "--map",
            "perturbed-cat",
            "--scheme",
            "fejer",
            "--n",
            "8",
            "--fine",
            "64",
            "--z",
            "400",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "target, exc, scheme",
    [
        ("variance", np.linalg.LinAlgError("Eigenvalues did not converge"), "fejer"),
        ("match_epsilon", NoRootError("no root in the scan range"), "bump"),
        # inside rate, at a twisted z (z = 0 needs no ARPACK): ARPACK's own
        # error is reported as NonConvergenceError
        ("eigs", ArpackNoConvergence("No convergence (3 iterations)", [], []), "fejer"),
    ],
)
def test_solver_exceptions_exit_two(tmp_path, monkeypatch, capsys, target, exc, scheme):
    def fail(*args, **kwargs):
        raise exc

    owner = stats_mod.spla if target == "eigs" else cli_mod
    monkeypatch.setattr(owner, target, fail)
    task = ["rate", "--s", "0.5"] if target == "eigs" else ["variance"]
    argv = [*task, "--map", "cat", "--scheme", scheme, "--n", "8", "--fine", "64"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    diag = json.loads(capsys.readouterr().err)
    shown = NonConvergenceError if isinstance(exc, ArpackError) else type(exc)
    assert diag == {"error": shown.__name__, "message": str(exc)}
