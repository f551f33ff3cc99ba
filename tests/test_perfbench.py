"""The benchmark's worker, run as the benchmark runs it: one subprocess per step.

A broken fault seam or a changed output byte then fails here, not only
in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def worker(*argv, work_dir):
    """The JSON object a `perfbench/worker.py` step prints as its last line."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), *argv,
         "--seed", "0", "--dir", str(work_dir)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def assert_all_pass(checks):
    failed = [check for check in checks if not check[1]]
    assert not failed, failed


def test_selfcheck_detects_the_broken_index(tmp_path):
    assert worker("selfcheck", "grow", work_dir=tmp_path) == {"detected": True}


def test_sweep_passes_every_check(tmp_path):
    checks = worker("run", "sweep", work_dir=tmp_path)["checks"]
    assert any(name == "sweep.sha256.sweep.csv" for name, _, _ in checks)
    assert_all_pass(checks)


def test_analyze_passes_every_check(tmp_path):
    assert worker("setup", "analyze", work_dir=tmp_path) == {}
    checks = worker("run", "analyze", work_dir=tmp_path)["checks"]
    assert sum(name.startswith("analyze.sha256.") for name, _, _ in checks) == 6
    assert_all_pass(checks)
