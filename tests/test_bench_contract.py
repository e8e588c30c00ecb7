"""The benchmark imports and wraps package names at call time; its self-test
fails when a refactor drops or renames one of them."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest ok" in proc.stdout
