#!/usr/bin/env python3
"""chromaflow benchmark: one workload per process, one closed-loop caller.

    python3 perfbench/run.py --workload tree-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Every call goes through `chromaflow.cli.run(argv)` in this process with
stdout and stderr captured, so parsing, computing and formatting are
timed as a user meets them; the next call starts when the previous one
returns.  The package is imported from `src/` of the checkout this
script sits in.  Passes over the workload's calls repeat until
`--seconds` have gone by, always finishing the pass; outputs are
checked after each pass, outside the timed region.

With `--trace 0` the end-to-end metrics are reported; with `--trace 1`
traced and untraced passes alternate and the per-layer metrics of the
traced passes are reported, plus the tracing overhead.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
# Set-up runs at least SETUP_REPEATS times, and again until SETUP_SECONDS
# have gone by, so that short set-ups get a median of many repeats.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
POINTS_PER_CHECK = 2

from checks import P, CheckFailed  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("largest_s", "s"),
    ("call_p50_ms", "ms"),
    ("call_p99_ms", "ms"),
    ("scaling_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


def import_cli():
    """Import chromaflow from this checkout's src/ and return cli.run."""
    if not (SRC / "chromaflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no chromaflow package under {SRC}")
    sys.path.insert(0, str(SRC))
    import chromaflow
    from chromaflow.cli import run

    if Path(chromaflow.__file__).resolve().parent != SRC / "chromaflow":
        raise SystemExit(f"error: chromaflow imported from {chromaflow.__file__}, not {SRC}")
    return run


def call_once(run, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(argv)
    except Exception as exc:  # a raising call is a failed call, not a crashed run
        rc = exc
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()


class Judge:
    """Decides whether each call failed; remembers outputs already verified."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"points:{seed}")
        self.verified: dict[int, tuple[str, str]] = {}
        self.correct = True
        self.problems: list[str] = []

    def failed(self, index: int, call, rc, out: str, err: str) -> bool:
        if isinstance(rc, Exception):
            return self._note(call, f"raised {type(rc).__name__}")
        if rc != call.rc:
            return self._note(call, f"exit {rc}, expected {call.rc}")
        if len(err.splitlines()) > 1:
            return self._note(call, "more than one stderr line")
        if self.verified.get(index) == (out, err):
            return False
        points = [self.rng.randrange(2, P) for _ in range(POINTS_PER_CHECK)]
        try:
            call.expect.check(out.splitlines(), points, err)
        except CheckFailed as exc:
            self.correct = False
            return self._note(call, str(exc))
        self.verified[index] = (out, err)
        return False

    def _note(self, call, what: str) -> bool:
        if len(self.problems) < 5:
            self.problems.append(f"{' '.join(call.argv)[:120]}: {what}")
        return True


def _reference_kernel(x=7**60000, y=5**65000, row=tuple(3**600 + i for i in range(200)), big=11**3000):
    # Big-integer product, an interpreted multiply-add loop, a decimal
    # conversion and small-object churn: the mix chromaflow's calls run.
    t0 = time.perf_counter()
    x * y
    acc = 0
    for c in row:
        acc += c * 12345
    str(big)
    d = {}
    for i in range(2000):
        d[i] = (i, str(i))
    return time.perf_counter() - t0


class Pace:
    """Machine speed, from a fixed reference kernel run between calls.

    The shared host this benchmark was tuned on drifts by +-25% in speed
    within a minute, for every program alike.  Times are therefore
    reported at a reference speed: multiplied by NOMINAL over the median
    kernel time sampled during the same pass, outside the timed calls.
    NOMINAL is the kernel's median time on that host at its usual speed,
    so there the factor is close to 1.  A sample is the fastest of
    REPEATS kernel runs: the first run after a large call is slowed by
    that call's cold caches and freed memory, not by the host.
    """

    NOMINAL = 0.0105
    EVERY = 0.25  # seconds between samples
    REPEATS = 3

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        self.samples.append(min(_reference_kernel() for _ in range(self.REPEATS)))
        self.last = time.perf_counter()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.last >= self.EVERY:
            self.sample()

    def factor(self) -> float:
        """Scale for the times measured since the last factor()."""
        self.sample()
        f = self.NOMINAL / statistics.median(self.samples)
        self.samples.clear()
        return f


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def group_times(workload, times: list[float], name: str) -> float:
    return sum(t for call, t in zip(workload.calls, times) if call.group == name)


def measure(args, run) -> dict:
    import_s = time.perf_counter() - args.t_start
    work = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    pace = Pace()
    try:
        setups, inputs_rss = [], 0.0
        first = time.perf_counter()
        while len(setups) < SETUP_REPEATS or time.perf_counter() - first < SETUP_SECONDS:
            pace.sample()
            t0 = time.perf_counter()
            workload = build(args.workload, args.seed, work)
            inputs_rss = inputs_rss or peak_rss_mb()
            call_once(run, workload.calls[0].argv)
            setups.append(time.perf_counter() - t0)
        setup_s = (import_s + statistics.median(setups)) * pace.factor()
        # peak_rss_mb is a high-water mark of this whole process; the log
        # shows how far the harness's own work took it before the passes.
        print(f"peak RSS: {inputs_rss:.1f} MB after generating the inputs, "
              f"{peak_rss_mb():.1f} MB after the warm-up calls", file=sys.stderr)
        return run_passes(args, run, workload, setup_s, pace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_passes(args, run, workload, setup_s: float, pace: Pace) -> dict:
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
    judge = Judge(args.seed)
    attempted = failed = 0
    walls: dict[bool, list[float]] = {False: [], True: []}
    measured_walls: dict[bool, list[float]] = {False: [], True: []}
    largest, scaling, layer_samples = [], [], []
    per_call: list[list[float]] = [[] for _ in workload.calls]
    start = time.perf_counter()
    passes = 0
    # A traced run needs at least one traced and one untraced pass.
    while passes < (2 if tracer else 1) or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and passes % 2 == 0
        gc.collect()
        entry = run
        if traced:
            tracer.reset()
            tracer.install()
            entry = sys.modules["chromaflow.cli"].run
        results = []
        pace.sample()
        for i, call in enumerate(workload.calls):
            if traced:
                tracer.call_id = i + 1
            pace.sample_if_due()
            results.append(call_once(entry, call.argv))
        if traced:
            tracer.uninstall()
            layer_samples.append(tracer.metrics())
        measured = [r[0] for r in results]
        scale = pace.factor()
        times = [t * scale for t in measured]
        passes += 1
        print(f"pass {passes}: {sum(times):.3f} s at reference speed, {sum(measured):.3f} s measured"
              f"{' (traced)' if traced else ''}", file=sys.stderr)
        walls[traced].append(sum(times))
        measured_walls[traced].append(sum(measured))
        for samples, t in zip(per_call, times):
            samples.append(t)
        largest.append(group_times(workload, times, workload.largest))
        top, half = workload.scaling
        scaling.append(group_times(workload, times, top) / group_times(workload, times, half))
        for i, (call, (_, rc, out, err)) in enumerate(zip(workload.calls, results)):
            attempted += 1
            failed += judge.failed(i, call, rc, out, err)
    for problem in judge.problems:
        print(f"failed call: {problem}", file=sys.stderr)

    if tracer is None:
        # Latency percentiles run over the calls, each taken at its median
        # over the passes, so that they describe the calls rather than the
        # host's hiccups.
        latencies = [statistics.median(samples) for samples in per_call]
        q = statistics.quantiles(latencies, n=100, method="inclusive")
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls[False]),
            "largest_s": statistics.median(largest),
            "call_p50_ms": statistics.median(latencies) * 1e3,
            "call_p99_ms": q[98] * 1e3,
            "scaling_ratio": statistics.median(scaling),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = {}
        for name in layer_samples[0]:
            unit = layer_samples[0][name][1]
            value = statistics.median(s[name][0] for s in layer_samples)
            metrics[name] = {"value": value, "unit": unit}
        # Per-layer times are as measured, so the trace's walls are too.
        traced_wall = statistics.median(measured_walls[True])
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - statistics.median(measured_walls[False]),
                                       "unit": "s"}
        SCRATCH.mkdir(exist_ok=True)
        tracer.write_spans(SCRATCH / f"spans-{args.workload}-{args.seed}.jsonl")
    return {"correct": judge.correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:28s} {m['value']:14.6g} {m['unit']}")
            combined["metrics"][f"{name}/{metric}"] = m
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    args.t_start = time.perf_counter()
    run = import_cli()
    result = measure(args, run)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
