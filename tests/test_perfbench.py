"""The benchmark's flop and byte formulas against the kernels they count."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_flop_formulas_match_counted_execution():
    # a kernel change that breaks the formulas fails here, not only in a
    # traced benchmark run
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "flops.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
