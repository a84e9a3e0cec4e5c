"""The benchmark's layer trace still finds every function it names.

`perfbench/layertrace.py` wraps chromaflow functions by name and leaves
out, silently, the metrics of any function that no longer exists, so a
moved or renamed function changes the set of metrics a traced benchmark
run reports.  This test runs one small call per subcommand under the
tracer and checks that set against the per-layer metrics that
BENCHMARK.json declares.  perfbench/ is only read: it is put on
sys.path without writing bytecode there.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

from chromaflow import cli

ROOT = Path(__file__).resolve().parent.parent
# Added by perfbench/run.py around the tracer's own metrics.
RUN_METRICS = {"trace.wall_s", "trace.overhead_s"}


@pytest.fixture
def layertrace():
    path = str(ROOT / "perfbench")
    sys.path.insert(0, path)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("layertrace")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(path)
        sys.modules.pop("layertrace", None)


def _calls(tmp_path: Path) -> list[list[str]]:
    vjt = tmp_path / "t.vjt"
    vjt.write_text("vjt 4\nedge 1 2\nedge 2 3\nedge 2 4\njoin 1 1\njoin 3 2\n")
    gr = tmp_path / "g.gr"
    gr.write_text("p edge 5 7\ne 1 2\ne 2 3\ne 3 1\ne 3 4\ne 4 5\ne 5 3\ne 5 5\n")
    return [
        ["chromatic", "tree", str(vjt), "--eval", "3"],
        ["chromatic", "clique", "--n", "4", "--join", "1,2"],
        ["chromatic", "wheel", "--phi", "1,0,2,1"],
        ["flow", "outerplanar", str(gr)],
        ["flow", "wheel", "--phi", "1,1,1,1"],
        ["dual", "phi", "--phi", "1,0,1,2"],
        ["oracle", "chromatic", str(gr)],
        ["oracle", "flow", str(gr)],
    ]


def test_traced_metrics_match_benchmark(layertrace, tmp_path, capsys):
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        codes = [cli.run(argv) for argv in _calls(tmp_path)]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(codes), capsys.readouterr().err
    metrics = tracer.metrics()
    assert set(metrics) == declared - RUN_METRICS
    json.dumps(metrics, allow_nan=False)
