"""Correctness gate: compare one CLI run's outputs with recorded references.

A run passes when it exited 0, wrote every expected file, and its numbers
agree with ``reference.json`` (values recorded from the same configs) within
the tolerances below, plus the acceptance anchors and the shape checks on
the rate function.  Tolerances, not bitwise equality: sigma^2 moves in its
last bit with the BLAS thread count, and a Newton-Legendre rate function
is only required to reproduce r and z* to 1e-6.

    python3 perfbench/gate.py self-check             # shows the gate rejects bad runs
    python3 perfbench/gate.py record WORKLOAD OUTDIR # store a run as the reference
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

SIGMA2_TOL = 1e-9
EPSILON_TOL = 1e-10
DENSITY_TOL = 1e-9
RATE_TOL = 1e-6
# acceptance anchors on sigma^2: workload -> (centre, half-width)
ANCHORS = {
    "variance-fejer-n32": (0.9447, 0.003),
    "ulam-m64": (0.9320, 0.005),
}

SUMMARY = {"variance": "variance_summary.json", "rate": "rate_summary.json",
           "ulam": "ulam_summary.json"}


def task_of(workload: str) -> str:
    return workload.split("-")[0]


def _read_grid_header(path):
    with open(path, "rb") as f:
        header = f.readline().decode("ascii").split()
        payload = len(f.read())
    return header, payload


def extract(workload: str, outdir: str) -> dict:
    """The checked values of one run; raises OSError/ValueError/KeyError if missing."""
    task = task_of(workload)
    with open(os.path.join(outdir, SUMMARY[task])) as f:
        res = json.load(f)["results"]
    out = {"sigma2": float(res["sigma2"])}
    if task == "variance" and res.get("epsilon") is not None:
        out["epsilon"] = float(res["epsilon"])
    if task == "rate":
        out["bracket_expanded"] = bool(res["bracket_expanded"])
        with open(os.path.join(outdir, "rate_table.csv"), newline="") as f:
            rows = list(csv.reader(f))
        if rows[0] != ["s", "z_star", "r", "iterations", "boundary_flag"]:
            raise ValueError(f"unexpected rate table header {rows[0]}")
        out["rows"] = [
            [float(s), float(z), float(r), row_flag == "True"]
            for s, z, r, _, row_flag in rows[1:]
        ]
    if task == "ulam":
        out["density_min"] = float(res["density_min"])
        header, payload = _read_grid_header(os.path.join(outdir, "ulam_density.grid"))
        m = int(res["boxes"])
        if header != ["GRID", str(m), str(m), "real"] or payload != m * m * 8:
            raise ValueError(f"bad ulam density dump: {header}, {payload} bytes")
    return out


def _close(name, got, want, tol, problems):
    if not abs(got - want) <= tol:
        problems.append(f"{name} = {got!r}, reference {want!r} (tolerance {tol:g})")


def compare(workload: str, got: dict, ref: dict) -> list:
    """Problems found when checking ``got`` against ``ref``; empty means pass."""
    problems = []
    _close("sigma2", got["sigma2"], ref["sigma2"], SIGMA2_TOL, problems)
    if workload in ANCHORS:
        centre, width = ANCHORS[workload]
        _close("sigma2 (acceptance anchor)", got["sigma2"], centre, width, problems)
    if "epsilon" in ref:
        _close("epsilon", got.get("epsilon", math.nan), ref["epsilon"], EPSILON_TOL, problems)
    if "density_min" in ref:
        _close("density_min", got["density_min"], ref["density_min"], DENSITY_TOL, problems)
    if "rows" in ref:
        if got["bracket_expanded"] != ref["bracket_expanded"]:
            problems.append(f"bracket_expanded = {got['bracket_expanded']}")
        if [r[0] for r in got["rows"]] != [r[0] for r in ref["rows"]]:
            problems.append("rate table s grid differs from the reference")
            return problems
        for (s, z, r, flag), (_, z0, r0, flag0) in zip(got["rows"], ref["rows"]):
            _close(f"z*({s})", z, z0, RATE_TOL, problems)
            _close(f"r({s})", r, r0, RATE_TOL, problems)
            if flag != flag0:
                problems.append(f"boundary flag at s={s} is {flag}")
        rs = [row[2] for row in got["rows"]]
        if got["rows"][0][0] == 0.0:
            _close("r(0)", rs[0], 0.0, RATE_TOL, problems)
        if min(rs) < -RATE_TOL:
            problems.append(f"r is negative: min {min(rs)!r}")
        for i in range(1, len(rs) - 1):
            if rs[i - 1] - 2.0 * rs[i] + rs[i + 1] < -2.0 * RATE_TOL:
                problems.append(f"r is not convex at s={got['rows'][i][0]}")
    return problems


def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)


def check(workload: str, outdir: str, exit_code, reference: dict) -> list:
    """Problems with one run; empty means the run passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        got = extract(workload, outdir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"missing or malformed output: {exc!r}"]
    return compare(workload, got, reference[workload])


def self_check(reference: dict, workdir: str, log=lambda line: None) -> bool:
    """True when doctored runs fail the gate and the reference values pass."""
    tmp = tempfile.mkdtemp(prefix="gate-", dir=workdir)
    path = os.path.join(tmp, SUMMARY["variance"])
    try:
        for workload in ("variance-fejer-n32", "variance-bump-n16"):
            ref = reference[workload]
            results = {"sigma2": ref["sigma2"], "epsilon": ref.get("epsilon")}
            cases = [("reference values", results, 0, True),
                     ("sigma2 + 1e-6", dict(results, sigma2=ref["sigma2"] + 1e-6), 0, False),
                     ("nonzero exit", results, 2, False),
                     ("missing summary", None, 0, False)]
            for label, res, code, should_pass in cases:
                if res is None:
                    os.remove(path)
                else:
                    with open(path, "w") as f:
                        json.dump({"results": res}, f)
                problems = check(workload, tmp, code, reference)
                log(f"{workload}: {label}: {'fail' if problems else 'pass'} {problems}")
                if (not problems) != should_pass:
                    return False
    finally:
        shutil.rmtree(tmp)
    return True


def main(argv) -> int:
    if argv[:1] == ["self-check"]:
        scratch = os.path.join(os.path.dirname(HERE), ".perfbench_tmp")
        os.makedirs(scratch, exist_ok=True)
        passed = self_check(load_reference(), scratch, log=print)
        print("gate self-check", "passed" if passed else "FAILED")
        return 0 if passed else 1
    if argv[:1] == ["record"] and len(argv) == 3:
        workload, outdir = argv[1], argv[2]
        reference = load_reference() if os.path.exists(REFERENCE) else {}
        reference[workload] = extract(workload, outdir)
        with open(REFERENCE, "w") as f:
            json.dump(reference, f, indent=1, sort_keys=True)
            f.write("\n")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
