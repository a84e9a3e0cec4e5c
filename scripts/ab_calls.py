#!/usr/bin/env python3
"""Parent and change alternating call by call in one process.

    python3 scripts/ab_calls.py --parent ../parent --workload wheel-clique \\
        --rounds 15 --seed 1

The parent checkout's `src/chromaflow` is copied into a temporary
directory under another package name and imported next to the change's
`chromaflow` (by default the checkout this script sits in).  The
workload's calls come from the change's `perfbench/workloads.py`, which
is only read.  Each round runs every call once on each side through
`cli.run` with stdout and stderr captured; the side that goes first
alternates from call to call and from round to round, so a drift of
the host's speed favours neither.

Two runs of one checkout in separate processes can differ by 2x on a
shared host, which hides a 10-20% change; interleaved calls in one
process see the same host.  The report gives, per call group, the
median over rounds of the group's seconds on each side, then the shift
of the latency p50 and p99 (over the per-call medians, as
perfbench/run.py takes them) and of the median round wall, and the
number of calls whose stdout, stderr or exit code differ between the
sides in any round.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARENT_PACKAGE = "chromaflow_ab_parent"


def load_run(src: Path, package: str, workdir: Path):
    """cli.run of the chromaflow package under src, imported as `package`."""
    if package != "chromaflow":
        shutil.copytree(src / "chromaflow", workdir / package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        src = workdir
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module(f"{package}.cli")
    finally:
        sys.path.remove(str(src))
    expected = (src / package).resolve()
    if Path(cli.__file__).resolve().parent != expected:
        raise SystemExit(f"error: {package} imported from {cli.__file__}, not {expected}")
    return cli.run


def call_once(run, argv: list[str]) -> tuple[float, tuple]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(argv)
    except Exception as exc:  # compared like an exit code
        rc = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, (rc, out.getvalue(), err.getvalue())


def shift(parent: float, change: float) -> str:
    return f"{parent:10.4f} {change:10.4f} {100 * (change - parent) / parent:+7.1f}%"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, default=ROOT,
                    help="checkout of the change (default: the one this script sits in)")
    ap.add_argument("--workload", required=True, help="a workload of perfbench/workloads.py")
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        runs = {"parent": load_run(args.parent.resolve() / "src", PARENT_PACKAGE, workdir),
                "change": load_run(args.change.resolve() / "src", "chromaflow", workdir)}
        perfbench = str(args.change.resolve() / "perfbench")
        sys.path.insert(0, perfbench)
        try:
            from workloads import build
        finally:
            sys.path.remove(perfbench)
        calls = build(args.workload, args.seed, workdir / "inputs").calls

        times = {side: [[] for _ in calls] for side in runs}
        walls = {side: [] for side in runs}
        differ = set()
        for r in range(args.rounds):
            gc.collect()
            for side in runs:
                walls[side].append(0.0)
            for i, call in enumerate(calls):
                order = ("parent", "change") if (r + i) % 2 == 0 else ("change", "parent")
                outcome = {}
                for side in order:
                    seconds, outcome[side] = call_once(runs[side], call.argv)
                    times[side][i].append(seconds)
                    walls[side][-1] += seconds
                if outcome["parent"] != outcome["change"]:
                    differ.add(i)

    medians = {side: [statistics.median(t) for t in times[side]] for side in runs}
    print(f"{args.workload}, seed {args.seed}, {args.rounds} rounds of {len(calls)} calls per side")
    print(f"{'':16s} {'parent':>10s} {'change':>10s} {'shift':>8s}")
    groups = sorted({call.group for call in calls if call.group})
    for group in groups:
        members = [i for i, call in enumerate(calls) if call.group == group]
        per_round = {side: statistics.median(sum(times[side][i][r] for i in members)
                                             for r in range(args.rounds)) for side in runs}
        print(f"{group + ' s':16s} {shift(per_round['parent'], per_round['change'])}")
    p50 = {side: 1e3 * statistics.median(medians[side]) for side in runs}
    p99 = {side: 1e3 * statistics.quantiles(medians[side], n=100, method="inclusive")[98]
           for side in runs}
    print(f"{'call_p50_ms':16s} {shift(p50['parent'], p50['change'])}")
    print(f"{'call_p99_ms':16s} {shift(p99['parent'], p99['change'])}")
    print(f"{'wall_s':16s} {shift(*(statistics.median(walls[side]) for side in runs))}")
    print(f"calls whose stdout, stderr or exit code differ: {len(differ)}")
    for i in sorted(differ)[:5]:
        print(f"  {' '.join(calls[i].argv)[:120]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
