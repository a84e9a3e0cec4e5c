"""The four workloads: seeded inputs, the argv of each call and what it must print.

Inputs are built from the seed alone and written as files; the program
sees only those files and its argv.  Every call carries the expectation
its output is checked against (see checks.py).  Each workload also names
the calls behind `largest_s` (its top-size call) and `scaling_ratio`
(a top-size group over the same family at half the size).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from checks import (
    Error,
    Phi,
    Poly,
    clique_chromatic_mod,
    fan_flow,
    ones_wheel_chromatic,
    ones_wheel_flow,
    outerplanar_flow_mod,
    tree_chromatic_mod,
    wheel_chromatic_mod,
    wheel_dual,
    wheel_flow_mod,
)


@dataclass
class Call:
    argv: list[str]
    rc: int
    expect: object
    group: str = ""


@dataclass
class Workload:
    calls: list[Call]
    largest: str  # group of the top-size call
    scaling: tuple[str, str]  # (top-size group, half-size group)


# -- trees -------------------------------------------------------------------


def _relabel(rng: random.Random, n: int, edges, joined: dict[int, int]):
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(edges)
    return edges, {perm[v]: m for v, m in joined.items()}


def caterpillar(rng: random.Random, n: int):
    """Spine of n/2 with legs on random spine vertices; every leg and half the spine joined.

    Labels stay in generation order, as in acceptance criterion 7, so the
    sweep's root (the smallest joined id) sits near one end of the spine
    on every seed.
    """
    spine = n // 2
    edges = [(i - 1, i) for i in range(1, spine)]
    edges += [(rng.randrange(spine), leg) for leg in range(spine, n)]
    joined = {leg: rng.randint(1, 2) for leg in range(spine, n)}
    for v in rng.sample(range(spine), spine // 2):
        joined[v] = rng.randint(1, 2)
    return edges, joined


def recursive_tree(rng: random.Random, n: int, k: int):
    """Random recursive tree (parent of i uniform below i) with k joined vertices."""
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    joined = {v: rng.randint(1, 3) for v in rng.sample(range(n), k)}
    return _relabel(rng, n, edges, joined)


def write_vjt(path: Path, n: int, edges, joined) -> None:
    lines = [f"vjt {n}"]
    lines += [f"edge {u + 1} {v + 1}" for u, v in edges]
    lines += [f"join {v + 1} {m}" for v, m in sorted(joined.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def tree_call(path: Path, n: int, edges, joined, evals=(), group="") -> Call:
    write_vjt(path, n, edges, joined)
    support = frozenset(joined)

    def evaluate(t, p):
        return tree_chromatic_mod(n, edges, support, t, p)

    argv = ["chromatic", "tree", str(path)]
    if evals:
        argv += ["--eval", ",".join(map(str, evals))]
    return Call(argv, 0, Poly(evaluate, n + 1, evals=evals), group)


# -- wheels and cliques --------------------------------------------------------


def wheel_calls(phi: list[int], evals=(), group="") -> list[Call]:
    """`chromatic wheel` and `flow wheel` on one phi-string."""
    n, s = len(phi), sum(phi)
    ones = all(a == 1 for a in phi)
    extra = ["--eval", ",".join(map(str, evals))] if evals else []
    arg = ",".join(map(str, phi))
    chrom = Poly(
        lambda t, p: wheel_chromatic_mod(phi, t, p),
        n + 1,
        exact=ones_wheel_chromatic(n) if ones else None,
        evals=evals,
    )
    # The flow degree is m - n + c; a single spoke is a bridge.
    even = all(a % 2 == 0 for a in phi) and s % 2 == 0
    flow = Poly(
        lambda t, p: wheel_flow_mod(phi, t, p),
        None if s == 1 else max(s, 1),
        exact=ones_wheel_flow(n) if ones else None,
        parity=None if s == 1 else int(even),
        evals=evals,
    )
    return [
        Call(["chromatic", "wheel", "--phi", arg] + extra, 0, chrom, group),
        Call(["flow", "wheel", "--phi", arg] + extra, 0, flow, group),
    ]


def random_phi(rng: random.Random, n: int, joined: int, doubled: int) -> list[int]:
    """Spokes at `joined` random cycle vertices, two of them at `doubled` of those."""
    phi = [0] * n
    positions = rng.sample(range(n), joined)
    for k, i in enumerate(positions):
        phi[i] = 2 if k < doubled else 1
    return phi


def clique_call(rng: random.Random, n: int, picks: int, evals=(), group="") -> Call:
    join = [rng.randint(1, n) for _ in range(picks)]
    s = len(set(join))
    argv = ["chromatic", "clique", "--n", str(n)]
    if join:
        argv += ["--join", ",".join(map(str, join))]
    if evals:
        argv += ["--eval", ",".join(map(str, evals))]
    return Call(argv, 0, Poly(lambda t, p: clique_chromatic_mod(n, s, t, p), n + 1, evals=evals), group)


# -- outerplanar multigraphs ---------------------------------------------------


def _split_regions(rng: random.Random, size: int, chords: int) -> list[list[int]]:
    # Cut the polygon 0..size-1 by random non-crossing chords; each region
    # lists its boundary vertices in polygon order.
    regions = [list(range(size))]
    while len(regions) <= chords:
        r = rng.choices(range(len(regions)), weights=[len(x) for x in regions])[0]
        region = regions[r]
        i, j = sorted(rng.sample(range(len(region)), 2))
        if j - i < 2 or (i == 0 and j == len(region) - 1):
            continue
        regions[r] = region[i : j + 1]
        regions.append(region[j:] + region[: i + 1])
    return regions


def outerplanar_block(rng: random.Random, size: int, chords: int = 0, side_bundles: int = 0,
                      chord_bundles: int = 0, fan: bool = False):
    """One polygon with chords and parallel bundles.

    Returns the edge list on 0..size-1 and the weak dual as a tree with
    apex joins: one tree vertex per bounded face (the two-sided faces of
    a bundle included), tree edges across chords, and a join per face
    for each outer edge it carries.
    """
    if fan:
        regions = [[0, j, j + 1] for j in range(1, size - 1)]
    else:
        regions = _split_regions(rng, size, chords)
    side_face: dict[int, int] = {}
    chord_faces: dict[tuple[int, int], list[int]] = {}
    for f, region in enumerate(regions):
        for k, x in enumerate(region):
            y = region[(k + 1) % len(region)]
            if y == (x + 1) % size:
                side_face[x] = f
            else:
                chord_faces.setdefault((min(x, y), max(x, y)), []).append(f)
    copies = {(x, (x + 1) % size): rng.randint(2, 3) for x in rng.sample(range(size), side_bundles)}
    copies.update({c: rng.randint(2, 3) for c in rng.sample(sorted(chord_faces), chord_bundles)})

    nodes = len(regions)
    tree_edges: list[tuple[int, int]] = []
    joined: set[int] = set()
    edges: list[tuple[int, int]] = []

    def chain(start: int, k: int) -> int:
        # k parallel copies stack k-1 two-sided faces in a path from start.
        nonlocal nodes
        for _ in range(k - 1):
            tree_edges.append((start, nodes))
            start = nodes
            nodes += 1
        return start

    for x in range(size):
        side = (x, (x + 1) % size)
        k = copies.get(side, 1)
        edges += [side] * k
        joined.add(chain(side_face[x], k))
    for c, (fa, fb) in sorted(chord_faces.items()):
        k = copies.get(c, 1)
        edges += [c] * k
        tree_edges.append((chain(fa, k), fb))
    return edges, (nodes, tree_edges, frozenset(joined))


def outerplanar_graph(rng: random.Random, blocks: list[dict], loops: int = 0,
                      bridge: bool = False, isolated: int = 0):
    """Blocks side by side, plus loops, stray vertices and optionally one bridge.

    Returns (vertex count, edges with shuffled labels, expectation).
    """
    edges: list[tuple[int, int]] = []
    duals = []
    offset = 0
    firsts = []
    for spec in blocks:
        block_edges, dual = outerplanar_block(rng, **spec)
        edges += [(u + offset, v + offset) for u, v in block_edges]
        duals.append(dual)
        firsts.append(offset)
        offset += spec["size"]
    if bridge:
        a = rng.randrange(firsts[0], firsts[1])
        b = rng.randrange(firsts[1], offset)
        edges.append((a, b))
    edges += [(v, v) for v in (rng.randrange(offset) for _ in range(loops))]
    n = offset + isolated

    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(edges)

    if bridge:
        return n, edges, Poly(None, None)
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    components = len(blocks) + isolated
    fan = blocks[0].get("fan") and len(blocks) == 1 and not loops
    expect = Poly(
        lambda t, p: outerplanar_flow_mod(duals, loops, t, p),
        len(edges) - n + components,
        exact=fan_flow(blocks[0]["size"]) if fan else None,
        parity=int(all(d % 2 == 0 for d in degree)),
    )
    return n, edges, expect


def write_gr(path: Path, n: int, edges) -> None:
    with path.open("w", encoding="utf-8") as f:
        f.write(f"p edge {n} {len(edges)}\n")
        f.writelines(f"e {u + 1} {v + 1}\n" for u, v in edges)


def gr_call(path: Path, graph, command=("flow", "outerplanar"), evals=(), group="") -> Call:
    n, edges, expect = graph
    write_gr(path, n, edges)
    expect.evals = tuple(evals)
    argv = [*command, str(path)]
    if evals:
        argv += ["--eval", ",".join(map(str, evals))]
    return Call(argv, 0, expect, group)


# -- the workloads ---------------------------------------------------------------


# The sizes of the three workloads below keep a pass to about two seconds,
# so that a run's medians rest on ten or more passes: on the shared host
# this was tuned on, runs of three passes of multi-second calls spread by
# more than a quarter from seed to seed.


def tree_sweep(rng: random.Random, work: Path) -> Workload:
    calls = []
    for n in (256, 512, 1024):
        calls.append(tree_call(work / f"cat{n}.vjt", n, *caterpillar(rng, n), group=f"cat-{n}"))
    for n in (256, 512, 1024):
        calls.append(tree_call(work / f"rrt{n}.vjt", n, *recursive_tree(rng, n, n // 16),
                               group=f"rrt-{n}"))
    return Workload(calls, "rrt-1024", ("cat-1024", "cat-512"))


def wheel_clique(rng: random.Random, work: Path) -> Workload:
    calls = []
    calls += wheel_calls([1] * 40, group="ones-40")
    calls += wheel_calls([1] * 80, group="ones-80")
    calls += wheel_calls(random_phi(rng, 112, 64, 21), group="phi-112")
    calls.append(clique_call(rng, 288, 72, group="clique-288"))
    calls.append(clique_call(rng, 576, 144, group="clique-576"))
    return Workload(calls, "clique-576", ("clique-576", "clique-288"))


def _big_block(size: int) -> dict:
    return dict(size=size, chords=size // 200, side_bundles=size // 400, chord_bundles=size // 2000)


def outerplanar_io(rng: random.Random, work: Path) -> Workload:
    # Each graph is written and its edge list dropped before the next is
    # built, so that set-up's own memory peak stays below the program's.
    graphs = [
        ("half", dict(blocks=[_big_block(12_000)], loops=10)),
        ("full", dict(blocks=[_big_block(24_000)], loops=20)),
        ("two", dict(blocks=[_big_block(22_000), _big_block(2_000)], loops=20, isolated=3)),
        ("bridged", dict(blocks=[_big_block(12_000), _big_block(12_000)], loops=5, bridge=True)),
    ]
    calls = [gr_call(work / f"{name}.gr", outerplanar_graph(rng, **spec), group=name)
             for name, spec in graphs]
    return Workload(calls, "full", ("full", "half"))


NON_UTF8 = b"p edge 2 2\ne 1 2\ne 1 2 # \xff\xfe\n"


def _small_block(size: int, i: int) -> dict:
    return dict(size=size, chords=(size - 3) * (i % 3) // 2, side_bundles=i % 3)


def small_batch(rng: random.Random, work: Path) -> Workload:
    """Many calls on inputs with n <= 40, over every subcommand, with a fixed error share.

    Sizes follow a fixed schedule so that only the shapes depend on the
    seed; the latency tail then comes from the same calls on every seed.
    """
    calls: list[Call] = []
    points = (3, -2, 7)

    def evals(i: int):
        return points[: i % 3]

    for i in range(250):
        n = 20 if i < 25 else 40 if i < 50 else 2 + i % 39
        group = "tree-20" if i < 25 else "tree-40" if i < 50 else ""
        k = max(2, n * (1 + i % 4) // 4)
        calls.append(tree_call(work / f"t{i}.vjt", n, *recursive_tree(rng, n, k), evals=evals(i),
                               group=group))
    for i in range(120):
        calls.append(clique_call(rng, 1 + i % 40, i % 13, evals=evals(i)))
    for i in range(120):
        n = 3 + i % 38
        joined = n * (i % 5) // 4
        calls += wheel_calls(random_phi(rng, n, joined, joined // 4 if i % 2 else 0), evals=evals(i))
    for i in range(100):
        n = 3 + i % 38
        joined = max(1, n * (1 + i % 4) // 4)
        phi = random_phi(rng, n, joined, joined // 3)
        calls.append(Call(["dual", "phi", "--phi", ",".join(map(str, phi))], 0, Phi(wheel_dual(phi))))
    for i in range(160):
        kind, j = i % 4, i // 4
        if kind == 0:
            g = outerplanar_graph(rng, [dict(size=3 + j % 38, fan=True)])
        elif kind == 1:
            size = 3 + j % 28
            g = outerplanar_graph(rng, [_small_block(size, j)], loops=j % 3)
        elif kind == 2:
            g = outerplanar_graph(rng, [_small_block(3 + j % 18, j), _small_block(3 + j % 13, j + 1)],
                                  loops=j % 3, isolated=j % 2)
        else:
            g = outerplanar_graph(rng, [_small_block(3 + j % 13, j), _small_block(3 + j % 11, j + 2)],
                                  bridge=True)
        calls.append(gr_call(work / f"o{i}.gr", g, evals=evals(i)))
    for i in range(40):
        n = 2 + i % 5
        edges, joined = recursive_tree(rng, n, i % (n + 1))
        realized = edges + [(v, n) for v, m in joined.items() for _ in range(m)]
        support = frozenset(joined)
        write_gr(work / f"oc{i}.gr", n + 1, realized)
        expect = Poly(lambda t, p, n=n, e=edges, s=support: tree_chromatic_mod(n, e, s, t, p), n + 1)
        calls.append(Call(["oracle", "chromatic", str(work / f"oc{i}.gr")], 0, expect))
    for i in range(40):
        size = 3 + i % 4
        g = outerplanar_graph(rng, [dict(size=size, chords=min(i % 2, size - 3), side_bundles=i % 3 // 2)],
                              loops=i % 5 // 4)
        calls.append(gr_call(work / f"of{i}.gr", g, command=("oracle", "flow")))
    calls += error_calls(rng, work)
    return Workload(calls, "tree-40", ("tree-40", "tree-20"))


def error_calls(rng: random.Random, work: Path) -> list[Call]:
    """Malformed files, non-outerplanar graphs, a usage error and one non-UTF-8 file."""
    calls = []
    for i in range(20):
        n = rng.randint(3, 30)
        bad = rng.randrange(1, n)
        lines = [f"vjt {n}"] + [f"edge {j} {j + 1}" if j != bad else f"edge {j} x" for j in range(1, n)]
        (work / f"bad{i}.vjt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        calls.append(Call(["chromatic", "tree", str(work / f"bad{i}.vjt")], 2, Error("ParseError")))
    for i in range(20):
        n = rng.randint(3, 30)
        cycle = [(j, (j + 1) % n) for j in range(n)]
        lines = [f"p edge {n} {n + 1}"] + [f"e {u + 1} {v + 1}" for u, v in cycle]
        (work / f"bad{i}.gr").write_text("\n".join(lines) + "\n", encoding="utf-8")
        calls.append(Call(["flow", "outerplanar", str(work / f"bad{i}.gr")], 2, Error("ParseError")))
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    k23 = [(a, b) for a in (0, 1) for b in (2, 3, 4)]
    for i in range(20):
        base, n = (k4, 4) if i % 2 else (k23, 5)
        perm = list(range(n))
        rng.shuffle(perm)
        write_gr(work / f"nop{i}.gr", n, [(perm[u], perm[v]) for u, v in base])
        calls.append(Call(["flow", "outerplanar", str(work / f"nop{i}.gr")], 1, Error("NotOuterplanar")))
    for _ in range(10):
        calls.append(Call(["chromatic", "wheel"], 2, Error("ParseError")))
    (work / "latin1.gr").write_bytes(NON_UTF8)
    calls.append(Call(["flow", "outerplanar", str(work / "latin1.gr")], 2, Error("ParseError")))
    return calls


WORKLOADS = {
    "tree-sweep": tree_sweep,
    "wheel-clique": wheel_clique,
    "outerplanar-io": outerplanar_io,
    "small-batch": small_batch,
}


def build(name: str, seed: int, work: Path) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work)
