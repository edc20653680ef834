"""The benchmark's traced run still finds every name it patches.

``perfbench/child.py --trace`` wraps module attributes of the package from
outside it (``operators.OperatorAssembler.base_matrix``,
``backend.twisted_rows``, ``stats.assemble`` and more).  A change that
deletes or renames one of them breaks the benchmark, not the package; this
test runs one traced sample so the suite sees it.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_benchmark_sample_runs(tmp_path):
    report = tmp_path / "report.json"
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--root", str(ROOT)]
    cmd += ["--report", str(report), "--trace", "--"]
    cmd += ["certify", "--out-dir", str(tmp_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(report.read_text())
    assert record["exit_code"] == 0
    names = [span[0] for span in record["spans"]]
    assert names[0] == "cli.main" and "cli.io" in names
