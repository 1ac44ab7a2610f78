"""The benchmark's own self-tests, run as part of the package suite.

perfbench drives the CLI and the library through the same entry points,
config keys and output files the package tests cover; running its
self-tests here catches a change that breaks the benchmark before the
benchmark is run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench",
         "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
