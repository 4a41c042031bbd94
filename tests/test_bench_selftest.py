"""The benchmark's output checks accept genuine outputs and reject corrupted
ones (bench/selftest.py), so an output they reject fails here first."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "bench" / "selftest.py"


def test_the_benchmark_checks_pass_their_self_test():
    done = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: ok" in done.stdout.splitlines()
