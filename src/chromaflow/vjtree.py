"""Chromatic polynomials of trees joined to an extra apex vertex.

A VertexJoinTree is a tree on vertices 0..n-1 plus an implicit apex
vertex carrying mult[v] parallel edges to each tree vertex v.  Fixing
the apex colour takes out the factor t, and P/t of the realized
multigraph is computed in three stages:

  1. only whether a vertex is joined matters (parallel edges are
     chromatically inert); with no joined vertex the tree is free
     beside the apex, P/t = t (t-1)^(n-1);
  2. every tree edge not on a cycle of the joined graph is a bridge;
     stripping them takes out a factor (t-1) per edge and leaves the
     minimal subtree spanning the joined vertices, whose leaves are all
     joined (with one joined vertex, that vertex alone);
  3. the core is split at its joined vertices into bricks, and only
     the bricks with an unjoined branching vertex are swept.

Write pt'(G) = P(G + apex) / (t(t-1)) for a piece G of the core.  A
joined vertex and the apex form a 2-clique, and gluing two graphs
along a clique multiplies, P(G) = P(G_1) P(G_2) / P(K_2) (Read 1968,
"An introduction to chromatic polynomials").  So pt' of the core is
the product of pt' over its bricks: each edge between two joined
vertices, and each maximal connected set of unjoined vertices with its
joined neighbours as leaves.  A path brick of m edges closes a cycle
on m+2 vertices with the apex and gives the face factor D_(m+1) of the
wheels (polyring._face_factors); a one-edge brick, m = 1, gives t-2.
With b bridges,

  P / t = (t-1)^(b+1) * prod D_(m+1) * prod pt'(branching brick).

_factors returns these factors unmultiplied.  _top takes one product
of them and shifts it by t, still packed when the product is wide, so
the CLI can print it from its digits; chromatic_vjtree reads it back.
An outerplanar block's flow is P(dual)/t, so flow_outerplanar
multiplies the factors as they are.

A branching brick is rooted at an unjoined vertex.  For an unjoined
vertex a let T_a be the subgraph on a, its descendants and the apex,
and H_a the same with a identified with the apex; pt'_a and ph'_a are
P(T_a) and P(H_a) over t(t-1).  A joined leaf has pt' = 1, so with i
joined leaves and unjoined children Z, k = i + |Z| children in all,
the clique-cut products need no division:

  ph'_a = (t-1)^(k-1) * prod_Z (pt'_c - ph'_c)
  pt'_a = (t-2)^i * prod_Z ((t-2) pt'_c + ph'_c) + ph'_a

Every vertex's pair is linear in its heavy child's pair (the child
with the largest subtree; Sleator-Tarjan heavy paths), so it is a 2x2
polynomial matrix applied to that pair, built from the already
finished pairs of its light children; a path ends in a vertex with
joined leaves only, whose pair is closed.  A heavy path's chain is
multiplied as a product tree split by weight (polynomial length), the
compress step of tree contraction (Miller-Reif), so the arithmetic
runs on balanced operands and the fast multiply carries the load.

The leaf-to-root sweep over the whole core with exact divisions stays
below as the reference that the tests compare the production path to.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .errors import InvalidSize, InvalidTree, InvalidVertex
from .multigraph import MultiGraph
from .polyring import (
    T,
    ZERO,
    IntPoly,
    _face_factors,
    _Packed,
    _product,
    _read,
    balanced_product,
    linear_power,
)

_TM2 = IntPoly((-2, 1))

# A polynomial matrix as a tuple of rows.
_Matrix = tuple[tuple[IntPoly, ...], ...]


@dataclass(frozen=True)
class VertexJoinTree:
    """Tree on 0..n-1 with apex multiplicities (absent vertices mean 0).

    mult is a read-only view of the nonzero multiplicities.
    """

    n: int
    tree_edges: tuple[tuple[int, int], ...]
    mult: Mapping[int, int]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidTree(f"tree needs at least one vertex, got n={self.n}")
        edges = tuple(tuple(e) for e in self.tree_edges)
        if len(edges) != self.n - 1:
            raise InvalidTree(f"tree on {self.n} vertices needs {self.n - 1} edges, got {len(edges)}")
        for u, v in edges:
            if not (0 <= u < self.n) or not (0 <= v < self.n):
                raise InvalidVertex(f"tree edge ({u}, {v}) outside 0..{self.n - 1}")
            if u == v:
                raise InvalidTree(f"tree edge ({u}, {v}) is a loop")
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            ru, rv = find(u), find(v)
            if ru == rv:
                raise InvalidTree("tree edges contain a cycle")
            parent[ru] = rv
        cleaned = {}
        for v in sorted(self.mult):
            m = self.mult[v]
            if not (0 <= v < self.n):
                raise InvalidVertex(f"joined vertex {v} outside 0..{self.n - 1}")
            if m < 0:
                raise InvalidSize(f"multiplicity of vertex {v} is negative")
            if m:
                cleaned[v] = m
        object.__setattr__(self, "tree_edges", edges)
        object.__setattr__(self, "mult", MappingProxyType(cleaned))

    def __hash__(self) -> int:
        return hash((self.n, self.tree_edges, frozenset(self.mult.items())))

    def __reduce__(self):
        # A mapping proxy cannot be pickled or deep-copied; its dict can.
        return VertexJoinTree, (self.n, self.tree_edges, dict(self.mult))

    @property
    def support(self) -> tuple[int, ...]:
        """Vertices joined to the apex at least once, ascending."""
        return tuple(sorted(self.mult))

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.tree_edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def realize(self) -> MultiGraph:
        """Explicit multigraph: tree plus apex vertex n with its parallel edges."""
        edges = list(self.tree_edges)
        for v in self.support:
            edges.extend([(v, self.n)] * self.mult[v])
        return MultiGraph(self.n + 1, edges)


@dataclass(frozen=True)
class BridgeReduction:
    """Result of stripping bridges: the spanning core and the factor count."""

    core: VertexJoinTree
    b: int


def reduce_multiplicities(t: VertexJoinTree) -> VertexJoinTree:
    """Clamp multiplicities to 0/1; the chromatic polynomial is unchanged."""
    return VertexJoinTree(t.n, t.tree_edges, {v: 1 for v in t.mult})


def strip_bridges(t: VertexJoinTree) -> BridgeReduction:
    """Remove tree vertices outside every cycle of the joined graph.

    The edges on cycles are exactly those of the minimal subtree
    spanning the joined vertices, so the core is found by repeatedly
    peeling unjoined leaves; with one joined vertex it is that vertex
    alone.  Each peeled vertex accounts for one bridge.
    """
    if not t.mult:
        raise InvalidTree("bridge stripping needs a joined vertex")
    adj = t.adjacency()
    deg = [len(a) for a in adj]
    removed: set[int] = set()
    queue = deque(v for v in range(t.n) if deg[v] == 1 and v not in t.mult)
    while queue:
        v = queue.popleft()
        removed.add(v)
        for w in adj[v]:
            if w in removed:
                continue
            deg[w] -= 1
            if deg[w] == 1 and w not in t.mult:
                queue.append(w)
    core_ids = tuple(v for v in range(t.n) if v not in removed)
    index = {v: i for i, v in enumerate(core_ids)}
    core_edges = tuple(
        (index[u], index[v])
        for u, v in t.tree_edges
        if u in index and v in index
    )
    core = VertexJoinTree(
        len(core_ids), core_edges, {index[v]: m for v, m in t.mult.items()}
    )
    return BridgeReduction(core, len(removed))


class Brick(NamedTuple):
    """Unjoined vertices of one brick, renumbered 0..k-1 in BFS order.

    parent[i] < i is the parent of vertex i (parent[0] = -1), and
    leaves[i] counts the joined neighbours hanging off it as leaves.
    """

    parent: tuple[int, ...]
    leaves: tuple[int, ...]


class Bricks(NamedTuple):
    """A bridge-stripped core cut at its joined vertices."""

    paths: list[int]  # edge counts m of the path bricks, one-edge ones too; D_(m+1) each
    branching: list[Brick]  # bricks with an unjoined branching vertex


def split_bricks(core: VertexJoinTree) -> Bricks:
    """Cut a bridge-stripped core at every joined vertex."""
    joined = core.mult
    adj = core.adjacency()
    seen = [False] * core.n
    paths: list[int] = []
    branching: list[Brick] = []
    for v in range(core.n):
        if v in joined or seen[v]:
            continue
        order, parent, leaves = [v], [-1], []
        seen[v] = True
        for i, u in enumerate(order):
            j = 0
            for w in adj[u]:
                if w in joined:
                    j += 1
                elif not seen[w]:
                    seen[w] = True
                    order.append(w)
                    parent.append(i)
            leaves.append(j)
        if all(len(adj[u]) == 2 for u in order):
            paths.append(len(order) + 1)
        else:
            branching.append(Brick(tuple(parent), tuple(leaves)))
    paths += [1 for u, v in core.tree_edges if u in joined and v in joined]
    return Bricks(paths, branching)


def heavy_path_sweep(brick: Brick) -> IntPoly:
    """pt' of a brick, by the division-free heavy-path sweep.

    A vertex without unjoined children must have a joined leaf.
    """
    parent, leaves = brick
    k = len(parent)
    size = [1] * k
    heavy = [-1] * k
    children: list[list[int]] = [[] for _ in range(k)]
    for v in range(k - 1, 0, -1):
        p = parent[v]
        size[p] += size[v]
        children[p].append(v)
        if heavy[p] < 0 or size[v] > size[heavy[p]]:
            heavy[p] = v
    # Heads of heavy paths, deepest first: a path's light children head
    # deeper paths, so their pairs are pending when the path is swept.
    # A head's pair is (pt', ph'), and (pt',) alone for the root.
    pending: dict[int, tuple[IntPoly, ...]] = {}
    for head in range(k - 1, -1, -1):
        if head and heavy[parent[head]] == head:
            continue
        chain: list[_Matrix] = []
        u = head
        while heavy[u] >= 0:
            h = heavy[u]
            chain.append(_vertex_matrix(leaves[u], [pending.pop(c) for c in children[u] if c != h]))
            u = h
        if not leaves[u]:
            raise InvalidTree("brick leaf is not joined")
        ph = linear_power(1, leaves[u] - 1)
        chain.append(((linear_power(2, leaves[u]) + ph,), (ph,)))
        if not head:
            chain[0] = chain[0][:1]
        pending[head] = tuple(row[0] for row in _chain_product(chain))
    return pending[0][0]


def _vertex_matrix(i: int, light: list[tuple[IntPoly, ...]]) -> _Matrix:
    # Rows pt'_u and ph'_u as linear forms in (pt'_h, ph'_h), for a vertex
    # u with i joined leaves, a heavy child h and these light children.
    alpha = balanced_product([linear_power(1, i + len(light)), *(pt - ph for pt, ph in light)])
    beta = balanced_product([linear_power(2, i), *(_TM2 * pt + ph for pt, ph in light)])
    return ((_TM2 * beta + alpha, beta - alpha), (alpha, -alpha))


def _chain_product(mats: list[_Matrix]) -> _Matrix:
    # Product tree over the chain, split where the prefix weight crosses
    # half of the range's weight, so that both operands of every product
    # are about the same length.
    prefix = [0, *accumulate(max(len(p.coeffs) for row in m for p in row) for m in mats)]
    return _range_product(mats, prefix, 0, len(mats))


def _range_product(mats: list[_Matrix], prefix: list[int], lo: int, hi: int) -> _Matrix:
    # Module level, not a closure: a recursive closure holds itself
    # through its cell, a reference cycle that keeps the chain's
    # matrices alive until the cyclic collector runs.
    if hi - lo == 1:
        return mats[lo]
    mid = bisect_left(prefix, (prefix[lo] + prefix[hi]) / 2, lo + 1, hi - 1)
    return _mat_mul(_range_product(mats, prefix, lo, mid), _range_product(mats, prefix, mid, hi))


def _mat_mul(a: _Matrix, b: _Matrix) -> _Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(_dot(row, col) for col in cols) for row in a)


def _dot(xs: Sequence[IntPoly], ys: Sequence[IntPoly]) -> IntPoly:
    acc = ZERO
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def chromatic_vjtree(t: VertexJoinTree) -> IntPoly:
    """Chromatic polynomial of the realized join, exactly."""
    return _read(_top(t))


def _top(t: VertexJoinTree) -> IntPoly | _Packed:
    # P: t times the factors of P/t, in one product.
    return _product([T, *_factors(t)])


def _factors(t: VertexJoinTree) -> list[IntPoly]:
    # The factors of P/t (module docstring).
    if not t.mult:
        return [T, linear_power(1, t.n - 1)]
    reduction = strip_bridges(t)
    bricks = split_bricks(reduction.core)
    return [
        linear_power(1, reduction.b + 1),
        *_face_factors(bricks.paths),
        *map(heavy_path_sweep, bricks.branching),
    ]


# -- reference sweep ---------------------------------------------------------
# The leaf-to-root sweep with exact divisions, kept as the cross-check
# that the tests compare chromatic_vjtree against.

_TTM1 = IntPoly((0, -1, 1))


class NodeState(NamedTuple):
    pt: IntPoly
    ph: IntPoly


@dataclass(frozen=True)
class LeveledTree:
    """Core tree rooted for the sweep."""

    root: int
    level: dict[int, int]
    children: dict[int, tuple[int, ...]]
    parent: dict[int, int]


def build_leveled(core: VertexJoinTree, root: int | None = None) -> LeveledTree:
    """Root the core and record levels; children are ordered by id.

    The default root is the smallest-id joined vertex.  Any vertex is
    admissible; the sweep result does not depend on the choice.
    """
    if root is None:
        if not core.mult:
            raise InvalidTree("no joined vertex available as root")
        root = min(core.mult)
    if not (0 <= root < core.n):
        raise InvalidVertex(f"root {root} outside 0..{core.n - 1}")
    adj = core.adjacency()
    level = {root: 0}
    parent: dict[int, int] = {}
    children: dict[int, tuple[int, ...]] = {}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        kids = sorted(w for w in adj[v] if w != parent.get(v))
        children[v] = tuple(kids)
        for w in kids:
            parent[w] = v
            level[w] = level[v] + 1
            queue.append(w)
    if len(level) != core.n:
        raise InvalidTree("core is not connected")
    return LeveledTree(root, level, children, parent)


def sweep(lt: LeveledTree, core: VertexJoinTree) -> IntPoly:
    """Evaluate the recurrences bottom-up; returns P at the root.

    The (P(T_a), P(H_a)) pair of each vertex lives in a local table.
    """
    state: dict[int, NodeState] = {}
    order = sorted(lt.level, key=lambda v: lt.level[v], reverse=True)
    for a in order:
        joined = a in core.mult
        kids = lt.children[a]
        k = len(kids)
        if k == 0:
            pt = IntPoly((0, -1, 1)) if joined else IntPoly((0, 0, 1))
            state[a] = NodeState(pt, T)
            continue
        in_i = [c for c in kids if c in core.mult]
        in_z = [c for c in kids if c not in core.mult]
        prod_i = balanced_product(state[c].pt for c in in_i)
        ph = prod_i * balanced_product(state[c].pt - state[c].ph for c in in_z)
        p1 = (
            prod_i
            * _TM2 ** len(in_i)
            * balanced_product(_TM2 * state[c].pt + state[c].ph for c in in_z)
        )
        if k > 1:
            ph = ph.exact_div(T ** (k - 1))
            p1 = p1.exact_div(_TTM1 ** (k - 1))
        state[a] = NodeState(p1 if joined else p1 + ph, ph)
    return state[lt.root].pt
