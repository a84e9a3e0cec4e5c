#!/usr/bin/env python3
"""Cold start per subcommand: import plus first call in a fresh interpreter.

    python3 scripts/cold_start.py PARENT [CHANGE] [--rounds 15] [--n 40]

For each subcommand, every round starts one fresh interpreter per
checkout, the checkout that goes first alternating from round to round
and from command to command.  The interpreter imports `chromaflow.cli`
from a copy of the checkout's `src/chromaflow` without `__pycache__`
and runs one call through `cli.run` with its output captured, timing
both together.  It writes no bytecode (`-B`), so every chromaflow module
the call loads is compiled from source, as in a fresh checkout run with
PYTHONDONTWRITEBYTECODE=1; the standard library's cached bytecode is
read as usual.  Interpreter start-up itself is not timed.  CHANGE is
the checkout this script sits in by default.

The report gives, per subcommand, the median milliseconds of each side,
the shift, and the chromaflow modules each side had loaded after the
call, with argparse when the call loaded it.  The inputs are small
(about N vertices, and N/8 for the oracle) and fixed, so the report
measures start-up rather than the algorithms.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Run in the child: argv is [src, command...]; prints the seconds taken
# by the import and the call, and the chromaflow modules then loaded,
# with argparse when the call loaded it.
_CHILD = """\
import contextlib, io, json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import chromaflow.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = chromaflow.cli.run(sys.argv[2:])
seconds = time.perf_counter() - t0
modules = sorted(m for m in sys.modules if m.split(".")[0] == "chromaflow" or m == "argparse")
print(json.dumps({"rc": rc, "seconds": seconds, "modules": modules}))
"""


def write_inputs(workdir: Path, n: int) -> dict[str, Path]:
    """A path .vjt with random joins, a fan-triangulated polygon .gr, a small .gr."""
    rng = random.Random(n)
    vjt = ["vjt %d" % n, *("edge %d %d" % (i, i + 1) for i in range(1, n)),
           *("join %d 1" % v for v in range(1, n + 1) if rng.random() < 0.5), "join 1 1"]
    fan = [(i, i % n + 1) for i in range(1, n + 1)] + [(1, v) for v in range(3, n)]
    k = max(4, n // 8)
    small = [(i, i % k + 1) for i in range(1, k + 1)] + [(1, 3)]
    paths = {"tree": workdir / "tree.vjt", "fan": workdir / "fan.gr", "small": workdir / "small.gr"}
    paths["tree"].write_text("\n".join(vjt) + "\n")
    for key, verts, edges in (("fan", n, fan), ("small", k, small)):
        lines = ["p edge %d %d" % (verts, len(edges)), *("e %d %d" % e for e in edges)]
        paths[key].write_text("\n".join(lines) + "\n")
    return paths


def commands(paths: dict[str, Path], n: int) -> list[list[str]]:
    rng = random.Random(n)
    phi = ",".join(str(rng.randint(0, 1)) for _ in range(n - 1)) + ",1"
    return [
        ["chromatic", "tree", str(paths["tree"])],
        ["chromatic", "clique", "--n", str(n), "--join", "1,2,3"],
        ["chromatic", "wheel", "--phi", phi],
        ["flow", "outerplanar", str(paths["fan"])],
        ["flow", "wheel", "--phi", phi],
        ["dual", "phi", "--phi", phi],
        ["oracle", "chromatic", str(paths["small"])],
        ["oracle", "flow", str(paths["small"])],
    ]


def cold_call(src: Path, argv: list[str]) -> dict:
    cmd = [sys.executable, "-B", "-c", _CHILD, str(src), *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    result = json.loads(proc.stdout) if proc.returncode == 0 else {"rc": None}
    if result["rc"] != 0:
        raise SystemExit(f"error: {' '.join(argv[:2])} in {src} failed:\n{proc.stderr}")
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, nargs="?", default=ROOT,
                    help="checkout of the change (default: the one this script sits in)")
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--n", type=int, default=40, help="input size (at least 4)")
    args = ap.parse_args(argv)
    if args.n < 4:
        ap.error("--n must be at least 4")
    checkouts = {"parent": args.parent, "change": args.change}

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        sides = {}
        for side, checkout in checkouts.items():
            sides[side] = workdir / side
            shutil.copytree(checkout.resolve() / "src" / "chromaflow", sides[side] / "chromaflow",
                            ignore=shutil.ignore_patterns("__pycache__"))
        calls = commands(write_inputs(workdir, args.n), args.n)
        times = {side: [[] for _ in calls] for side in sides}
        loaded = {side: [[] for _ in calls] for side in sides}
        for r in range(args.rounds):
            for i, call in enumerate(calls):
                order = ("parent", "change") if (r + i) % 2 == 0 else ("change", "parent")
                for side in order:
                    result = cold_call(sides[side], call)
                    times[side][i].append(result["seconds"])
                    loaded[side][i] = result["modules"]

    print(f"import plus first call, median ms over {args.rounds} fresh interpreters per side, n={args.n}")
    print(f"{'command':20s} {'parent':>8s} {'change':>8s} {'shift':>8s}")
    for i, call in enumerate(calls):
        p, c = (1e3 * statistics.median(times[side][i]) for side in sides)
        name = " ".join(call[:2])
        print(f"{name:20s} {p:8.1f} {c:8.1f} {100 * (c - p) / p:+7.1f}%")
        for side in sides:
            short = [m.partition(".")[2] or m for m in loaded[side][i]]
            print(f"  {side} loads: {' '.join(short)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
