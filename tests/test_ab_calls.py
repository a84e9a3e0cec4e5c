"""scripts/ab_calls.py run with this checkout on both sides."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab_calls.py"


def test_same_checkout_on_both_sides_prints_the_same():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(ROOT), "--workload", "small-batch",
         "--rounds", "2", "--seed", "3"],
        capture_output=True, text=True, check=False, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("small-batch, seed 3, 2 rounds of ")
    names = [line.split()[0] for line in lines[2:-1]]
    assert names == ["tree-20", "tree-40", "call_p50_ms", "call_p99_ms", "wall_s"]
    assert lines[-1] == "calls whose stdout, stderr or exit code differ: 0"
