"""The benchmark wraps package functions from outside (``perfbench/``), so a
change under ``src/`` can break it without failing any other test; its
self-test runs every workload at tiny sizes and checks every output check."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
