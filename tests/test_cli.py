import json

import numpy as np
import pytest
import scipy.fft
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

import anosov.cli as cli_mod
import anosov.stats as stats_mod
import anosov.ulam as ulam_mod
from anosov import (
    LinearToral,
    build_ulam,
    cat_map,
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

    def counting_srb(U):
        calls["srb"] += 1
        return srb(U)

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
    res = ulam_variance(cat_map(), 16, 100, standard_observable())
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


def test_fft_workers_do_not_change_results(tmp_path):
    argv = ["variance", "--n", "8", "--fine", "64", "--out-dir", str(tmp_path)]
    assert main(argv + ["--json-name", "w1.json"]) == 0
    assert main(argv + ["--workers", "2", "--json-name", "w2.json"]) == 0
    a = _load_summary(tmp_path, "w1.json")["results"]
    b = _load_summary(tmp_path, "w2.json")["results"]
    assert a == b
    assert scipy.fft.get_workers() == 1  # the setting does not outlive the run


def test_bad_configuration_exits_one(tmp_path, capsys):
    assert main(["variance", "--scheme", "bogus", "--out-dir", str(tmp_path)]) == 1
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"no_such_key": 1}))
    assert main(["variance", "--config", str(cfg)]) == 1
    assert main(["variance", "--workers", "0", "--out-dir", str(tmp_path)]) == 1
    assert "workers must not be zero" in capsys.readouterr().err


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
        # inside variance: ARPACK's own error is reported as NonConvergenceError
        ("eigs", ArpackNoConvergence("No convergence (3 iterations)", [], []), "fejer"),
    ],
)
def test_solver_exceptions_exit_two(tmp_path, monkeypatch, capsys, target, exc, scheme):
    def fail(*args, **kwargs):
        raise exc

    owner = stats_mod.spla if target == "eigs" else cli_mod
    monkeypatch.setattr(owner, target, fail)
    argv = ["variance", "--map", "cat", "--scheme", scheme, "--n", "8", "--fine", "64"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    diag = json.loads(capsys.readouterr().err)
    shown = NonConvergenceError if isinstance(exc, ArpackError) else type(exc)
    assert diag == {"error": shown.__name__, "message": str(exc)}
