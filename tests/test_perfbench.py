"""The benchmark harness still runs against the package's current API."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    # each benchmark check must accept a right result and reject a wrong one
    result = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                            cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
