"""The verdicts of scripts/bench_pairs.py on made-up runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
BOUNDS = {"wall_s": 0.25}


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _results(parent, change):
    def run(value):
        return {"attempted": 1, "failed": 0, "correct": True,
                "metrics": {"wall_s": {"value": value, "unit": "s"}}}
    return {"parent": [run(v) for v in parent], "change": [run(v) for v in change]}


def test_claim_needs_nine_wins_in_ten_and_a_shift_past_the_quartiles():
    summarize = _bench_pairs().summarize
    parent = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    m = summarize(_results(parent, [v - 0.1 for v in parent]), BOUNDS)["metrics"]["wall_s"]
    assert (m["change_won"], m["claim_holds"], m["worse_than_bound"]) == (10, True, False)
    # Nine wins of ten still hold; eight do not.
    change = [v - 0.1 for v in parent[:9]] + [2.0]
    assert summarize(_results(parent, change), BOUNDS)["metrics"]["wall_s"]["claim_holds"]
    change = [v - 0.1 for v in parent[:8]] + [2.0, 2.0]
    assert not summarize(_results(parent, change), BOUNDS)["metrics"]["wall_s"]["claim_holds"]
    # Ten wins by less than the parent's interquartile distance do not.
    change = [v - 0.005 for v in parent]
    m = summarize(_results(parent, change), BOUNDS)["metrics"]["wall_s"]
    assert m["change_won"] == 10 and not m["claim_holds"]


def test_worse_than_bound():
    summarize = _bench_pairs().summarize
    m = summarize(_results([1.0] * 4, [1.3] * 4), BOUNDS)["metrics"]["wall_s"]
    assert (m["parent_won"], m["bound"], m["worse_than_bound"]) == (4, 0.25, True)
    m = summarize(_results([1.0] * 4, [1.2] * 4), BOUNDS)["metrics"]["wall_s"]
    assert not m["worse_than_bound"]
