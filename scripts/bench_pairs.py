#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written to BENCH_<label>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload tree-sweep --pairs 10 --seed 901 --label bridge-rows

Pair i runs each checkout's own `perfbench/run.py --workload W --seed S+i`
once, each in a fresh process, at run.py's default run length (the
benchmark's run_seconds); the parent goes first in even pairs and
the change in odd ones, so that a drift of the host's speed favours
neither side.  The last stdout line of a run is its JSON result.

The summary, written to BENCH_<label>.json in the current directory,
gives for every end-to-end metric the median and quartiles per side and
the pairs each side won; every metric is lower-is-better, and a tie
counts for neither side.  Pairs where either run failed are left out of
the comparison.  It also records, per side, the calls attempted and
failed over all runs, whether every run's outputs checked correct, and
the runs that did not produce a result.

Each metric also gets two verdicts, with its bound read from
BENCHMARK.json at the root of the repository:

- claim_holds: the change won at least 9 pairs in 10, and its median
  is better than the parent's by more than the parent's interquartile
  distance (q3 - q1), the rule a claimed gain must pass;
- worse_than_bound: the change's median is worse than the parent's by
  more than the metric's bound, a fraction of the parent's median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_once(checkout: Path, workload: str, seed: int) -> dict | None:
    """One benchmark run; its JSON result, or None if it produced none."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
    print(f"  run failed (exit {proc.returncode}): {tail[0]}", file=sys.stderr)
    return None


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(results: dict[str, list[dict | None]], bounds: dict[str, float]) -> dict:
    sides = {}
    for side in SIDES:
        runs = [r for r in results[side] if r is not None]
        sides[side] = {
            "runs": len(results[side]),
            "runs_without_result": len(results[side]) - len(runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
        }
    pairs = [(p, c) for p, c in zip(results["parent"], results["change"]) if p and c]
    metrics = {}
    for name in pairs[0][0]["metrics"] if pairs else ():
        values = {side: [pair[i]["metrics"][name]["value"] for pair in pairs]
                  for i, side in enumerate(SIDES)}
        gains = [p - c for p, c in zip(values["parent"], values["change"])]
        parent, change = spread(values["parent"]), spread(values["change"])
        gain = parent["median"] - change["median"]
        change_won = sum(g > 0 for g in gains)
        bound = bounds[name]
        metrics[name] = {
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "parent": parent,
            "change": change,
            "pairs": len(pairs),
            "change_won": change_won,
            "parent_won": sum(g < 0 for g in gains),
            "claim_holds": 10 * change_won >= 9 * len(pairs) and gain > parent["q3"] - parent["q1"],
            "bound": bound,
            "worse_than_bound": -gain > bound * parent["median"],
        }
    return {"sides": sides, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    args = ap.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bounds = {m["name"]: m["bound"]
              for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]}

    results: dict[str, list[dict | None]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            print(f"pair {i + 1}/{args.pairs}: {side}, seed {args.seed + i}", file=sys.stderr)
            results[side].append(run_once(checkouts[side], args.workload, args.seed + i))

    summary = {
        "workload": args.workload,
        "pairs": args.pairs,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        "first_in_pair": "parent in even pairs (counting from 0), change in odd ones",
        **summarize(results, bounds),
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    for name, m in summary["metrics"].items():
        p, c = m["parent"], m["change"]
        print(f"{name:16s} {p['median']:10.4g} [{p['q1']:.4g}, {p['q3']:.4g}] -> "
              f"{c['median']:10.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
              f"change won {m['change_won']}/{m['pairs']}, parent won {m['parent_won']}; "
              f"claim {'holds' if m['claim_holds'] else 'fails'}, "
              f"{'WORSE than' if m['worse_than_bound'] else 'within'} its bound {m['bound']}")
    for side in SIDES:
        s = summary["sides"][side]
        print(f"{side}: failed {s['failed']}/{s['attempted']}, correct {s['correct']}, "
              f"runs without result {s['runs_without_result']}/{s['runs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
