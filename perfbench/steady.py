#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same code agree within the bounds?

    python3 perfbench/steady.py --runs 10 --first-seed 1

Two sets of runs over every workload in BENCHMARK.json, each run
`perfbench/run.py` in its own process with its own seed and the
benchmark's `run_seconds`; within a set the workloads take turns, seed
by seed.  For every workload and end-to-end metric it prints each set's
median and spread (the distance between the first and third quartile
over the median), and checks, against the bounds in BENCHMARK.json:

- every spread except setup_s's is within the bound (a '~' marks a
  spread above a third of the bound, too close to it for comfort);
- the second set's median is within the bound of the first's, in
  either direction;
- the share of failed calls is exactly the same in both sets.

Exits 1 when any check fails.  The raw results go to
.perfbench/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]

    results: dict[str, list[list[dict]]] = {w: [[], []] for w in workloads}
    for k in range(2):
        for r in range(args.runs):
            seed = args.first_seed + k * args.runs + r
            for w in workloads:
                res = run_once(w, seed, spec["run_seconds"])
                results[w][k].append(res)
                print(f"set {k + 1} seed {seed} {w}: attempted {res['attempted']} failed {res['failed']} "
                      f"correct {res['correct']}", file=sys.stderr, flush=True)
    out = ROOT / ".perfbench" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results))

    ok = True
    for w in workloads:
        sets = results[w]
        shares = {Fraction(sum(r["failed"] for r in s), sum(r["attempted"] for r in s)) for s in sets}
        correct = all(r["correct"] for s in sets for r in s)
        if len(shares) != 1 or not correct:
            ok = False
        print(f"\n{w}: failed share {' vs '.join(str(f) for f in shares)}, correct {correct}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, bad = [], []
            medians = []
            for k, s in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in s]
                med, spr = statistics.median(values), spread(values)
                medians.append(med)
                mark = ""
                if name != "setup_s" and spr > bound:
                    bad.append(f"spread{k + 1}")
                elif spr > bound / 3:
                    mark = "~"
                cols.append(f"{med:12.5g} ±{spr:6.3f}{mark:1s}")
            # The shift is printed with its sign, positive when worse, but
            # two sets of the same code must agree in either direction.
            worse = (medians[1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                worse = -worse
            cols.append(f"shift {worse:+.3f}")
            if abs(worse) > bound:
                bad.append("shift")
            ok &= not bad
            print(f"  {name:14s} bound {bound:4.2f}  {'  '.join(cols)}  {'FAIL ' + ','.join(bad) if bad else 'ok'}")
    print(f"\nraw results: {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
