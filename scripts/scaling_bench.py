#!/usr/bin/env python3
"""Wall-time scaling of the tree sweep, wheels, joined cliques or outerplanar flows.

--family tree (the default) times chromatic_vjtree on random
caterpillars and prints one row per size: n, seconds, ratio to the
previous row, and the bit length of the largest output coefficient
(the arithmetic payload that dominates past a few hundred vertices).

--family bridged times chromatic_vjtree on random recursive trees with
n/16 joined vertices and shuffled labels, where most edges are bridges
and the bridge factor (t-1)^b is most of the output; its rows are
the same as for tree.

--family wheel times chromatic_wheel on random 0/1 phi-strings, each
entry joined with probability 1/2; its rows are the same as for tree.

--family flow-wheel times flow_wheel on random phi-strings of entries
0 to 3, each cut short where its spoke total would pass the command
line's limit (cli.MAX_PHI_TOTAL), so the 4096 row holds about 2730
entries and 4096 spokes; its rows are the same as for tree.

--family clique times chromatic_clique_join on cliques with a quarter
of the vertices, picked at random, joined to the apex; its rows are
the same as for tree.

For every family but bridged, each row also gives what a user of the
command line waits for: the best time of `chromaflow chromatic tree`
(on the instance written as a .vjt file), `chromaflow chromatic wheel`,
`chromaflow flow wheel`, `chromaflow chromatic clique` or `chromaflow
flow outerplanar` (on the graph written as a .gr file), run in this
process through cli.run
with stdout captured, and the bytes it prints.  A wheel longer than
the command line's limit (cli.MAX_PHI_LENGTH) gets no command-line
time.

--family outerplanar times flow_outerplanar on one polygon per size
with n/200 non-crossing chords and shuffled vertex labels, where the
graph work (blocks, outer-cycle certificate, dual) carries the load;
its rows give n, seconds and the ratio, then the command line's time
and bytes.

--family triangulated times flow_outerplanar on polygons triangulated
by cutting ears at random (each step joins the two neighbours of a
random remaining vertex and drops it), labels shuffled; the dual is a
tree of triangles, mostly joined, with unjoined inner triangles where
it branches.  --family fan does the same on fan-triangulated polygons,
whose dual is a path of joined triangles.  Their rows are those of
tree, with the largest coefficient of the flow polynomial.

--json also writes the rows to BENCH_scaling-<family>.json in the
current directory, or BENCH_scaling-<family>-<label>.json with
--label: one row per size with n, the best seconds, the ratio to the
previous row (null on the first), the maximum coefficient bits
(null for outerplanar), and cli_seconds and output_bytes (null for
bridged, and for wheels past the command line's limit), next to the
machine, its CPU count, the Python version, the seed and the repeat
count.  The package is
imported as Python finds it, so PYTHONPATH=<checkout>/src times
another checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import tempfile
import time

from chromaflow.cli import MAX_PHI_LENGTH, MAX_PHI_TOTAL, run
from chromaflow.generators import fan_polygon, random_caterpillar, shuffle_labels, triangulated_polygon
from chromaflow.multigraph import MultiGraph
from chromaflow.outerplanar import flow_outerplanar
from chromaflow.vjtree import VertexJoinTree, chromatic_vjtree
from chromaflow.wheels import PhiString, chromatic_clique_join, chromatic_wheel, flow_wheel

DEFAULT_SIZES = {
    "tree": "512,1024,2048,4096",
    "bridged": "1024,2048,4096,8192",
    "outerplanar": "6000,12000,24000,48000",
    "wheel": "512,1024,2048,4096,8192",
    "flow-wheel": "512,1024,2048,4096",
    "triangulated": "512,1024,2048,4096",
    "fan": "512,1024,2048,4096",
    "clique": "512,1024,2048,4096",
}


def bridged_tree(rng: random.Random, n: int) -> VertexJoinTree:
    """Random recursive tree with n/16 joined vertices, labels shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = tuple((perm[rng.randrange(i)], perm[i]) for i in range(1, n))
    return VertexJoinTree(n, edges, {v: 1 for v in rng.sample(range(n), n // 16)})


def random_wheel(rng: random.Random, n: int) -> PhiString:
    """Random 0/1 phi-string of n entries."""
    return PhiString(tuple(rng.randint(0, 1) for _ in range(n)))


def spoked_wheel(rng: random.Random, n: int) -> PhiString:
    """Random phi-string of up to n entries from 0 to 3, at most MAX_PHI_TOTAL spokes."""
    values: list[int] = []
    total = 0
    for _ in range(n):
        a = rng.randint(0, 3)
        if total + a > MAX_PHI_TOTAL:
            break
        values.append(a)
        total += a
    return PhiString(tuple(values))


def joined_clique(rng: random.Random, n: int) -> tuple[int, dict[int, int]]:
    """Clique size and apex multiplicities: n/4 random vertices joined once."""
    return n, {v: 1 for v in rng.sample(range(n), n // 4)}


def chorded_polygon(rng: random.Random, n: int) -> MultiGraph:
    """Polygon on n vertices with about n/200 laminar chords, labels shuffled."""
    # Match 2k random polygon positions like balanced brackets, so the
    # chords nest or stay apart; chords between neighbors are sides.
    k = n // 200
    points = sorted(rng.sample(range(n), 2 * k))
    opened: list[int] = []
    chords = []
    for i, p in enumerate(points):
        if opened and (len(opened) == len(points) - i or rng.random() < 0.5):
            chords.append((opened.pop(), p))
        else:
            opened.append(p)
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(a, b) for a, b in chords if b - a >= 2 and (a, b) != (0, n - 1)]
    return shuffle_labels(rng, n, edges)


def triangulated(rng: random.Random, n: int) -> MultiGraph:
    """Polygon on n vertices triangulated by random ear cuts, labels shuffled."""
    return shuffle_labels(rng, n, triangulated_polygon(rng, n))


def fan(rng: random.Random, n: int) -> MultiGraph:
    """Fan-triangulated polygon on n vertices, labels shuffled."""
    return shuffle_labels(rng, n, fan_polygon(n))


def tree_argv(t: VertexJoinTree, workdir: str) -> list[str]:
    """`chromatic tree` on t, written to a .vjt file in workdir."""
    path = os.path.join(workdir, f"tree{t.n}.vjt")
    lines = [f"vjt {t.n}", *(f"edge {u + 1} {v + 1}" for u, v in t.tree_edges)]
    lines += [f"join {v + 1} {m}" for v, m in sorted(t.mult.items())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return ["chromatic", "tree", path]


def gr_argv(g: MultiGraph, workdir: str) -> list[str]:
    """`flow outerplanar` on g, written to a .gr file in workdir."""
    path = os.path.join(workdir, f"graph{g.n}.gr")
    lines = [f"p edge {g.n} {g.m}", *(f"e {u + 1} {v + 1}" for u, v in g.edges)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return ["flow", "outerplanar", path]


def wheel_argv(phi: PhiString, workdir: str) -> list[str] | None:
    """`chromatic wheel` on phi, or None past the command line's length limit."""
    if phi.n > MAX_PHI_LENGTH:
        return None
    return ["chromatic", "wheel", "--phi", ",".join(map(str, phi.values))]


def flow_wheel_argv(phi: PhiString, workdir: str) -> list[str]:
    """`flow wheel` on phi; it needs no file."""
    return ["flow", "wheel", "--phi", ",".join(map(str, phi.values))]


def clique_argv(instance: tuple[int, dict[int, int]], workdir: str) -> list[str]:
    """`chromatic clique` on (n, mult); it needs no file."""
    n, mult = instance
    return ["chromatic", "clique", "--n", str(n), "--join", ",".join(str(v + 1) for v in mult)]


def time_cli(argv: list[str], repeat: int) -> tuple[float, int]:
    """Best seconds of cli.run(argv) with stdout captured, and the bytes it prints."""
    best = float("inf")
    for _ in range(repeat):
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = run(argv)
        best = min(best, time.perf_counter() - t0)
        if code != 0:
            raise SystemExit(f"{' '.join(argv[:2])} exited {code}")
    return best, len(out.getvalue().encode())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", choices=sorted(DEFAULT_SIZES), default="tree")
    ap.add_argument("--sizes", help="comma-separated vertex counts (default: 512..4096 "
                    "for tree, clique, triangulated and fan, 1024..8192 for bridged, "
                    "6000..48000 for outerplanar, 512..8192 for wheel, 512..4096 "
                    "for flow-wheel)")
    ap.add_argument("--seed", type=int, default=1007)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per size; fastest is reported")
    ap.add_argument("--json", action="store_true",
                    help="also write the rows to BENCH_scaling-<family>[-<label>].json")
    ap.add_argument("--label", help="suffix of the --json file name")
    args = ap.parse_args()
    sizes = [int(s) for s in (args.sizes or DEFAULT_SIZES[args.family]).split(",")]
    make = {"tree": random_caterpillar, "bridged": bridged_tree, "outerplanar": chorded_polygon,
            "wheel": random_wheel, "flow-wheel": spoked_wheel, "triangulated": triangulated,
            "fan": fan, "clique": joined_clique}[args.family]
    compute = {"outerplanar": flow_outerplanar, "triangulated": flow_outerplanar,
               "fan": flow_outerplanar, "wheel": chromatic_wheel, "flow-wheel": flow_wheel,
               "clique": lambda nm: chromatic_clique_join(*nm)}.get(args.family, chromatic_vjtree)
    show_bits = args.family != "outerplanar"
    argv_of = {"tree": tree_argv, "clique": clique_argv, "outerplanar": gr_argv,
               "triangulated": gr_argv, "fan": gr_argv, "wheel": wheel_argv,
               "flow-wheel": flow_wheel_argv}.get(args.family)

    rng = random.Random(args.seed)
    print(f"{'n':>8} {'seconds':>10} {'ratio':>7}" + (f" {'max coeff bits':>15}" if show_bits else "")
          + (f" {'cli seconds':>12} {'output bytes':>13}" if argv_of else ""))
    prev = None
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for n in sizes:
            instance = make(rng, n)
            best = float("inf")
            poly = None
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                poly = compute(instance)
                best = min(best, time.perf_counter() - t0)
            ratio = best / prev if prev else None
            bits = max(abs(c).bit_length() for c in poly.coeffs) if show_bits else None
            del poly
            cli_seconds = output_bytes = None
            argv = argv_of(instance, workdir) if argv_of else None
            if argv:
                cli_seconds, output_bytes = time_cli(argv, args.repeat)
            print(f"{n:>8} {best:>10.3f} " + (f"{ratio:7.2f}" if prev else f"{'-':>7}")
                  + (f" {bits:>15}" if show_bits else "")
                  + (f" {cli_seconds:>12.3f} {output_bytes:>13}" if argv else
                     f" {'-':>12} {'-':>13}" if argv_of else ""))
            rows.append({"n": n, "seconds": best, "ratio": ratio, "max_coeff_bits": bits,
                         "cli_seconds": cli_seconds, "output_bytes": output_bytes})
            prev = best

    if args.json:
        name = f"BENCH_scaling-{args.family}" + (f"-{args.label}" if args.label else "") + ".json"
        summary = {
            "family": args.family,
            "seed": args.seed,
            "repeat": args.repeat,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "rows": rows,
        }
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    main()
