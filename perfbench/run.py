#!/usr/bin/env python3
"""Pipeline benchmark: time the ``anosov`` CLI end to end, gate its outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample is a fresh interpreter (``child.py``) that imports the package
from ``src/`` and calls ``anosov.cli.main(argv)`` once into a private
directory, so each pays the cold caches a CLI user pays.  Samples repeat
until the next one would end past ``--seconds``; there is always at least
one.  Set-up (launch to the pipeline call) is also timed in separate
import-only processes.  Every run's outputs go through ``gate.py``.

``--trace 0`` reports the end-to-end metrics (medians over the samples);
``--trace 1`` adds one traced sample and reports the per-layer metrics from
its spans.  BLAS and OpenMP are pinned to one thread in every child.  The
seed orders the runs: whether set-up probes and the traced sample come
first or last.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import layers  # noqa: E402

MAP = ["--map", "perturbed-cat", "--delta", "0.01", "--form", "section7",
       "--observable", "standard"]
WORKLOADS = {
    "variance-fejer-n32": ["variance", "--scheme", "fejer", "--n", "32", "--fine", "512"],
    "variance-bump-n16": ["variance", "--scheme", "bump", "--n", "16", "--fine", "256"],
    "rate-fejer-n8": ["rate", "--scheme", "fejer", "--n", "8", "--fine", "64",
                      "--s", "0:0.1:1.8"],
    "ulam-m64": ["ulam", "--boxes", "64", "--samples", "1600", "--variance"],
}
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed sample)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env.pop("ANOSOV_OUT", None)
    return env


def launch(workdir: str, tag: str, argv, *, trace=False, setup_only=False) -> dict:
    """Run one child to completion; returns its report plus rusage and exit status."""
    outdir = os.path.join(workdir, tag)
    os.makedirs(outdir)
    report_path = os.path.join(outdir, "report.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
           "--report", report_path]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    cmd += ["--", *argv, "--out-dir", outdir]
    with open(os.path.join(workdir, tag + ".log"), "wb") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=workdir)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"outdir": outdir, "process_exit": proc.returncode,
           "peak_rss_mb": usage.ru_maxrss / 1024.0,
           "cpu_s": usage.ru_utime + usage.ru_stime}
    if proc.returncode == 0:
        with open(report_path) as f:
            out.update(json.load(f))
        out["setup_s"] = out["pipeline_start"] - launched
    return out


def comparable_outputs(outdir: str) -> dict:
    """Results and output files of a run, without paths and timings."""
    found = {}
    for name in sorted(os.listdir(outdir)):
        path = os.path.join(outdir, name)
        if name == "report.json":
            continue
        if name.endswith("_summary.json"):
            with open(path) as f:
                results = json.load(f)["results"]
            found[name] = {k: v for k, v in results.items() if not k.endswith("_file")}
        else:
            with open(path, "rb") as f:
                found[name] = f.read()
    return found


def output_bytes(outdir: str) -> int:
    return sum(os.path.getsize(os.path.join(outdir, f))
               for f in os.listdir(outdir) if f != "report.json")


def environment(backend: str) -> dict:
    import numpy
    import platform
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    return {
        "git_sha": sha or "unknown (not a git checkout)", "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "backend": backend, "threads": THREAD_PINS,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str):
    argv = WORKLOADS[workload] + MAP
    reference = gate.load_reference()
    if not gate.self_check(reference, workdir):
        raise BenchError("the correctness gate accepts a doctored run")
    rng = random.Random(seed)
    probes_first = rng.random() < 0.5
    traced_first = rng.random() < 0.5

    def probes():
        out = [launch(workdir, f"probe{i}", argv, setup_only=True)
               for i in range(SETUP_PROBES)]
        if any(p["process_exit"] != 0 for p in out):
            raise BenchError(f"set-up probe failed, see {workdir}/probe*.log")
        return [p["setup_s"] for p in out]

    setups = probes() if probes_first else []
    samples, traced = [], None
    started = time.monotonic()
    if trace and traced_first:
        traced = launch(workdir, "traced", argv, trace=True)
    while True:
        t0 = time.monotonic()
        samples.append(launch(workdir, f"sample{len(samples)}", argv))
        cost = time.monotonic() - t0
        if time.monotonic() - started + cost > seconds:
            break
    if trace and not traced_first:
        traced = launch(workdir, "traced", argv, trace=True)
    if not probes_first:
        setups = probes()

    failed = 0
    for s in samples + [traced] * trace:
        problems = gate.check(workload, s["outdir"], s.get("exit_code", s["process_exit"]),
                              reference)
        s["problems"] = problems
        failed += bool(problems)
    ok = [s for s in samples if not s["problems"]] or samples
    if trace and not traced["problems"]:
        if comparable_outputs(traced["outdir"]) != comparable_outputs(ok[0]["outdir"]):
            traced["problems"].append("traced outputs differ from untraced outputs")
            failed += 1

    attempted = len(samples) + trace
    wall = [s["wall_s"] for s in ok if "wall_s" in s] or [float("nan")]
    setups += [s["setup_s"] for s in ok if "setup_s" in s]
    end_to_end = {
        "wall_s": statistics.median(wall),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in ok),
        "pass_rate": (attempted - failed) / attempted,
    }
    counts = {"wall_s": f"median of {len(wall)}", "setup_s": f"median of {len(setups)}",
              "peak_rss_mb": f"median of {len(ok)}", "pass_rate": f"of {attempted} runs"}
    info = {"workload": workload, "seed": seed, "argv": " ".join(argv), "trace": int(trace),
            "probes_first": probes_first, "traced_first": traced_first,
            "environment": environment(ok[0].get("backend", "unknown")),
            "failures": [s["problems"] for s in samples + [traced] * trace
                         if s["problems"]]}
    if trace:
        rows = 0
        rate_csv = os.path.join(traced["outdir"], "rate_table.csv")
        if os.path.exists(rate_csv):
            with open(rate_csv) as f:
                rows = sum(1 for _ in f) - 1
        metrics = layers.layer_metrics(
            traced.get("spans") or [["cli.main", 0.0, 1.0, -1, None]],
            rows=rows,
            io_bytes=output_bytes(traced["outdir"]),
            cpu_s=traced["cpu_s"],
            overhead_s=traced.get("wall_s", float("nan")) - end_to_end["wall_s"],
        )
        if traced.get("spans"):
            info["layer_shares"] = {k: round(v, 4) for k, v in
                                    layers.layer_shares(traced["spans"]).items()}
        info["traced_wall_s"] = traced.get("wall_s")
    else:
        metrics = end_to_end
    return metrics, counts, info, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "anosov", "cli.py")):
        print(f"no anosov sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if opts.trace else spec["end_to_end"]

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{opts.workload}-", dir=scratch)
    try:
        metrics, counts, info, attempted, failed = run(
            opts.workload, opts.seed, opts.seconds, bool(opts.trace), workdir)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        print(f"metric set differs from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 2
    print(json.dumps(info, indent=1, default=str))
    for m in wanted:
        n = f" ({counts[m['name']]})" if m["name"] in counts else ""
        print(f"{m['name']:34s} {metrics[m['name']]!r:>24} {m['unit']}{n}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
