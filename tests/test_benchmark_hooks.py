"""The benchmark's traced run still finds every name it patches.

``perfbench/child.py --trace`` wraps module attributes of the package from
outside it (``operators.OperatorAssembler.base_matrix``,
``backend.twisted_rows``, ``stats.assemble`` and more).  A change that
deletes or renames one of them breaks the benchmark, not the package; these
tests run traced samples so the suite sees it.  Likewise the benchmark's
correctness gate (``perfbench/gate.py``) reads named keys of the run
summaries, so small runs of each task go through its ``extract``, and each
workload's exact run goes through its ``compare`` against the recorded
reference, so drift in sigma^2, the bump width, the rate table or the Ulam
density fails here first.
"""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from anosov.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _traced_spans(tmp_path, argv):
    """Run one traced benchmark sample of ``argv``; return its spans."""
    report = tmp_path / "report.json"
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--root", str(ROOT)]
    cmd += ["--report", str(report), "--trace", "--"]
    cmd += [*argv, "--out-dir", str(tmp_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(report.read_text())
    assert record["exit_code"] == 0
    return record["spans"]


def test_traced_benchmark_sample_runs(tmp_path):
    names = [span[0] for span in _traced_spans(tmp_path, ["certify"])]
    assert names[0] == "cli.main" and "cli.io" in names


def test_traced_variance_sample_reaches_the_eigen_layer(tmp_path):
    """``certify`` never reaches the operator or eigen layers; a small
    ``variance`` run reaches the assembly.  Its four grid transforms, all on
    the 2n x 2n grid (the density and g_c sampled there, and the forward
    transform and restriction of g_c v), are still traced through ``stats``;
    the standard observable's spectra come from 1-D transforms, which are
    not.  Its one ``stats.eig`` span is the z = 0 series; a small ``rate``
    run adds the Arnoldi iteration's at each twisted z."""
    spans = _traced_spans(tmp_path, ["variance", "--n", "8", "--fine", "64"])
    assert any(span[0] == "operators.assemble" for span in spans)
    assert sum(span[0] == "grids.transforms" for span in spans) == 4
    eig = [info["method"] for name, _, _, _, info in spans if name == "stats.eig"]
    assert eig == ["series"]
    spans = _traced_spans(tmp_path, ["rate", "--n", "8", "--fine", "64", "--s", "0.5"])
    eig = [info["method"] for name, _, _, _, info in spans if name == "stats.eig"]
    assert eig[0] == "series" and len(eig) > 1 and set(eig[1:]) == {"arnoldi"}


def test_traced_ulam_sample_reaches_the_build_and_the_density(tmp_path):
    """The benchmark patches ``ulam._build`` and ``ulam_srb``; a small
    ``ulam --variance`` run records one span of each."""
    argv = ["ulam", "--boxes", "8", "--samples", "16", "--variance"]
    names = [span[0] for span in _traced_spans(tmp_path, argv)]
    assert names.count("ulam.build") == 1 and names.count("ulam.srb") == 1


def _gate():
    """``perfbench/gate.py``, imported from its file as the benchmark runs it."""
    spec = importlib.util.spec_from_file_location("gate", ROOT / "perfbench" / "gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


@pytest.mark.parametrize(
    "workload, argv, keys",
    [
        (
            "variance-bump-n16",
            ["variance", "--scheme", "bump", "--n", "8", "--fine", "64"],
            ["sigma2", "epsilon"],
        ),
        (
            "rate-fejer-n8",
            ["rate", "--n", "8", "--fine", "64", "--s", "0:0.5:1"],
            ["sigma2", "bracket_expanded", "rows"],
        ),
        (
            "ulam-m64",
            ["ulam", "--boxes", "8", "--samples", "16", "--variance"],
            ["sigma2", "density_min"],
        ),
    ],
    ids=["variance", "rate", "ulam"],
)
def test_gate_extracts_what_it_checks_from_small_runs(tmp_path, workload, argv, keys):
    """A run under the default summary names yields every value the gate
    compares, with no KeyError or ValueError."""
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    got = _gate().extract(workload, str(tmp_path))
    assert list(got) == keys
    summary = json.loads((tmp_path / f"{argv[0]}_summary.json").read_text())
    assert got["sigma2"] == summary["results"]["sigma2"]
    if "rows" in got:
        assert [row[0] for row in got["rows"]] == [0.0, 0.5, 1.0]


def _benchmark_argv(workload):
    """The benchmark's argv for ``workload``: ``WORKLOADS[workload] + MAP`` of
    ``perfbench/run.py``, read as literals without importing the harness."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    literals = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("WORKLOADS", "MAP")
    }
    return literals["WORKLOADS"][workload] + literals["MAP"]


@pytest.mark.parametrize(
    "workload", ["variance-fejer-n32", "variance-bump-n16", "rate-fejer-n8", "ulam-m64"]
)
def test_workload_passes_the_benchmark_gate(tmp_path, workload):
    """Each workload's exact run, checked by the gate's ``compare`` against
    ``perfbench/reference.json``: every value the reference records is
    extracted (sigma^2, the bump width, the rate table, the Ulam density's
    minimum and dump), and none is a problem."""
    assert main([*_benchmark_argv(workload), "--out-dir", str(tmp_path)]) == 0
    gate = _gate()
    got, ref = gate.extract(workload, str(tmp_path)), gate.load_reference()[workload]
    assert sorted(got) == sorted(ref)
    assert gate.compare(workload, got, ref) == []
