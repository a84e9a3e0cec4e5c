"""Random instance generators for tests and benchmarks.

Everything takes an explicit random.Random so runs are reproducible
from a seed.  Outputs are deliberately small by default: they feed the
brute-force oracles, whose cost explodes past ~16 edges.
"""

from __future__ import annotations

import random

from .multigraph import MultiGraph
from .vjtree import VertexJoinTree
from .wheels import PhiString


def random_vjtree(rng: random.Random, n_max: int = 10, mult_max: int = 3,
                  joined: int | None = None) -> VertexJoinTree:
    """Uniform-ish random tree with random join multiplicities.

    joined pins the number of joined vertices (to hit the S empty and
    |S| = 1 corner cases on demand); by default it is random.
    """
    n = rng.randint(1, n_max)
    edges = tuple((rng.randrange(i), i) for i in range(1, n))
    if joined is None:
        joined = rng.randint(0, n)
    joined = min(joined, n)
    support = rng.sample(range(n), joined)
    mult = {v: rng.randint(1, mult_max) for v in support}
    return VertexJoinTree(n, edges, mult)


def random_caterpillar(rng: random.Random, n: int, mult_max: int = 2) -> VertexJoinTree:
    """Caterpillar tree on n vertices: a spine of ~n/2 with leaf legs.

    Legs are always joined; spine vertices are joined half the time.
    """
    spine = max(1, n // 2)
    edges = [(i - 1, i) for i in range(1, spine)]
    for leaf in range(spine, n):
        edges.append((rng.randrange(spine), leaf))
    mult = {leaf: rng.randint(1, mult_max) for leaf in range(spine, n)}
    for v in range(spine):
        if rng.random() < 0.5:
            mult[v] = rng.randint(1, mult_max)
    return VertexJoinTree(n, tuple(edges), mult)


def random_phi(rng: random.Random, n_max: int = 8, a_max: int = 3,
               require_spokes: bool = True) -> PhiString:
    n = rng.randint(1, n_max)
    values = [rng.randint(0, a_max) for _ in range(n)]
    if require_spokes and not any(values):
        values[rng.randrange(n)] = rng.randint(1, a_max)
    return PhiString(tuple(values))


def _laminar_chords(rng: random.Random, i: int, j: int, p: float,
                    out: list[tuple[int, int]]) -> None:
    # Recursively split the polygon interval (i, j); each split line is
    # a chord, so the family is non-crossing by construction.
    if j - i < 2:
        return
    if rng.random() < p:
        k = rng.randint(i + 1, j - 1)
        if k - i >= 2:
            out.append((i, k))
        if j - k >= 2:
            out.append((k, j))
        _laminar_chords(rng, i, k, p, out)
        _laminar_chords(rng, k, j, p, out)


def random_outerplanar_block(rng: random.Random, n_max: int = 10,
                             mult_max: int = 3, p_chord: float = 0.4,
                             p_parallel: float = 0.25) -> list[tuple[int, int]]:
    """Edge list of one biconnected outerplanar block on 2..n_max vertices."""
    n = rng.randint(2, n_max)
    if n == 2:
        return [(0, 1)] * rng.randint(2, max(2, mult_max))
    simple = [(i, (i + 1) % n) for i in range(n)]
    chords: list[tuple[int, int]] = []
    _laminar_chords(rng, 0, n - 1, p_chord, chords)
    simple += [c for c in chords if c[1] - c[0] >= 2 and c != (0, n - 1)]
    edges = []
    for e in simple:
        copies = rng.randint(2, mult_max) if rng.random() < p_parallel else 1
        edges += [e] * copies
    return edges


def random_outerplanar(rng: random.Random, n_max: int = 10, mult_max: int = 3,
                       max_loops: int = 2, p_extra_component: float = 0.3,
                       p_isolated: float = 0.2, with_bridge: bool = False,
                       max_edges: int = 16, p_glued: float = 0.0) -> MultiGraph:
    """Random outerplanar multigraph: blocks, loops, stray vertices.

    with_bridge grafts a pendant edge onto the first block, which must
    force a zero flow polynomial; p_glued is the chance of one more
    block sharing a (cut) vertex with the others.  Vertex labels are
    shuffled so code cannot rely on blocks occupying contiguous ids.
    """
    while True:
        blocks = [random_outerplanar_block(rng, n_max, mult_max)]
        if rng.random() < p_extra_component:
            blocks.append(random_outerplanar_block(rng, max(2, n_max // 2), mult_max))
        edges: list[tuple[int, int]] = []
        offset = 0
        for block in blocks:
            edges += [(u + offset, v + offset) for u, v in block]
            offset += 1 + max(max(e) for e in block)
        # Drawn only when asked for, so the default corpus stays as it was.
        if p_glued and rng.random() < p_glued:
            block = random_outerplanar_block(rng, max(2, n_max // 2), mult_max)
            at = rng.randrange(offset)
            edges += [(at if u == 0 else u - 1 + offset, at if v == 0 else v - 1 + offset)
                      for u, v in block]
            offset += max(max(e) for e in block)
        for _ in range(rng.randint(0, max_loops)):
            v = rng.randrange(offset)
            edges.append((v, v))
        if with_bridge:
            edges.append((rng.randrange(offset), offset))
            offset += 1
        if rng.random() < p_isolated:
            offset += 1
        if len(edges) <= max_edges:
            break
    return shuffle_labels(rng, offset, edges)


def triangulated_polygon(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Edges of a polygon on n >= 3 vertices triangulated by random ear cuts.

    Each cut joins the two cycle neighbours of a random remaining vertex
    by a chord and drops the vertex.  Sides come first, then the chords
    in cut order.
    """
    nxt = [(i + 1) % n for i in range(n)]
    prv = [(i - 1) % n for i in range(n)]
    alive = list(range(n))
    edges = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(n - 3):
        i = rng.randrange(len(alive))
        alive[i], alive[-1] = alive[-1], alive[i]
        x = alive.pop()
        a, b = prv[x], nxt[x]
        edges.append((a, b))
        nxt[a], prv[b] = b, a
    return edges


def fan_polygon(n: int) -> list[tuple[int, int]]:
    """Edges of the polygon on n >= 3 vertices with every chord at vertex 0."""
    return [(i, (i + 1) % n) for i in range(n)] + [(0, i) for i in range(2, n - 1)]


def shuffle_labels(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> MultiGraph:
    """The multigraph on 0..n-1 with its vertex labels and edge order shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    shuffled = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(shuffled)
    return MultiGraph(n, shuffled)
