"""scripts/cold_start.py run with this checkout on both sides."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "cold_start.py"


def test_one_round_on_tiny_inputs_reports_every_command():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), "--rounds", "1", "--n", "4"],
        capture_output=True, text=True, check=False, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("import plus first call, median ms over 1 ")
    rows = [line for line in lines[2:] if not line.startswith(" ")]
    assert [" ".join(row.split()[:2]) for row in rows] == [
        "chromatic tree", "chromatic clique", "chromatic wheel", "flow outerplanar",
        "flow wheel", "dual phi", "oracle chromatic", "oracle flow"]
    loads = [line.split() for line in lines[2:] if line.startswith(" ")]
    assert len(loads) == 2 * len(rows)
    # Both sides are this checkout, so they load the same modules.
    for parent, change in zip(loads[::2], loads[1::2]):
        assert parent[:2] == ["parent", "loads:"] and change[:2] == ["change", "loads:"]
        assert parent[2:] == change[2:] and "cli" in change
