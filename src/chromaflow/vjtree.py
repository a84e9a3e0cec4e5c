"""Chromatic polynomials of trees joined to an extra apex vertex.

A VertexJoinTree is a tree on vertices 0..n-1 plus an implicit apex
vertex carrying mult[v] parallel edges to each tree vertex v.  The
chromatic polynomial of the realized multigraph is computed in three
stages:

  1. multiplicities clamp to 0/1 (parallel edges are chromatically
     inert), and empty or singleton joins fall out as closed forms;
  2. every tree edge not on a cycle of the joined graph is a bridge;
     stripping them takes out a factor (t-1) per edge and leaves the
     minimal subtree spanning the joined vertices, whose leaves are all
     joined;
  3. one sweep over that core, rooted at its smallest joined vertex,
     evaluates division-free recurrences along heavy paths.

For a vertex a let T_a be the subgraph on a, its descendants and the
apex, and H_a the same with a identified with the apex.  The sweep
keeps both polynomials divided by t(t-1):

  pt'_a = P(T_a) / (t(t-1)),   ph'_a = P(H_a) / (t(t-1)).

With children c_1..c_k of a split into I = {c : joined} and
Z = {c : unjoined}, the clique-cut products over the shared apex edge
(or apex vertex) then need no division:

  ph'_a = (t-1)^(k-1) * prod_I pt'_c * prod_Z (pt'_c - ph'_c)
  p1'_a = (t-2)^|I|   * prod_I pt'_c * prod_Z ((t-2) pt'_c + ph'_c)
  pt'_a = p1'_a if a is joined else p1'_a + ph'_a

Leaves are joined and take pt' = 1; ph' is read only for unjoined
children, so a leaf's is never needed.  The answer for the core is
t(t-1) pt'_root, and with b bridges stripped P is that times (t-1)^b.
The bridge factor (t-1)^b is built from its binomial row
(polyring.linear_power) and multiplied in once.  The closed forms for
at most one joined vertex are shifted binomial rows, with no multiply.

Every vertex's pair is linear in its heavy child's pair (the child
with the largest subtree; Sleator-Tarjan heavy paths), so it is a 2x2
polynomial matrix applied to that pair, built from the already
finished pairs of its light children.  A heavy path is then a chain
of matrix products.  Where a heavy child h is joined, ph'_h is never
read, the matrix keeps only its first column, and pt'_h factors out:
the chain falls apart into independent segments whose values
multiply.  Each segment's matrices are multiplied as a product tree
split by weight (polynomial length), the compress step of tree
contraction (Miller-Reif), so the arithmetic runs on balanced
operands and the fast multiply carries the load.  A light child's
pair is dropped as soon as its parent's matrix is built.

The earlier leaf-to-root sweep, which keeps P(T_a), P(H_a) per vertex
and divides by t^(k-1) and (t(t-1))^(k-1) at every step, stays below
as a reference that the tests compare the production sweep against.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Mapping, NamedTuple, Sequence

from .errors import InvalidSize, InvalidTree, InvalidVertex
from .multigraph import MultiGraph
from .polyring import T, ZERO, IntPoly, balanced_product, linear_power

_TM2 = IntPoly((-2, 1))
_TTM1 = IntPoly((0, -1, 1))

# A polynomial matrix as a tuple of rows.
_Matrix = tuple[tuple[IntPoly, ...], ...]


@dataclass(frozen=True)
class VertexJoinTree:
    """Tree on 0..n-1 with apex multiplicities (absent vertices mean 0)."""

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
        object.__setattr__(self, "mult", cleaned)

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
    removed: frozenset[int]
    core_ids: tuple[int, ...]


def reduce_multiplicities(t: VertexJoinTree) -> VertexJoinTree:
    """Clamp multiplicities to 0/1; the chromatic polynomial is unchanged."""
    return VertexJoinTree(t.n, t.tree_edges, {v: 1 for v in t.mult})


def chromatic_small_s(t: VertexJoinTree) -> IntPoly | None:
    """Closed forms when at most one vertex is joined, else None.

    No joins: tree times an isolated apex, t^2 (t-1)^(n-1).  One joined
    vertex: the apex hangs off a tree on n+1 vertices, t(t-1)^n.
    """
    s = len(t.mult)
    if s == 0:
        return IntPoly((0, 0, *linear_power(1, t.n - 1).coeffs))
    if s == 1:
        return IntPoly((0, *linear_power(1, t.n).coeffs))
    return None


def strip_bridges(t: VertexJoinTree) -> BridgeReduction:
    """Remove tree vertices outside every cycle of the joined graph.

    With at least two joined vertices, the edges on cycles are exactly
    those of the minimal subtree spanning the joined vertices, so the
    core is found by repeatedly peeling unjoined leaves.  Each peeled
    vertex accounts for one bridge.
    """
    if len(t.mult) < 2:
        raise InvalidTree("bridge stripping needs at least two joined vertices")
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
    return BridgeReduction(core, len(removed), frozenset(removed), core_ids)


def heavy_path_sweep(core: VertexJoinTree) -> IntPoly:
    """P of a bridge-stripped core, by the division-free heavy-path sweep.

    Every leaf of the core other than the root must be joined, as
    strip_bridges leaves it.  The root is the smallest joined vertex.
    """
    if not core.mult:
        raise InvalidTree("no joined vertex available as root")
    root = min(core.mult)
    adj = core.adjacency()
    parent = [-1] * core.n
    parent[root] = root
    order = [root]
    for v in order:
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    if len(order) != core.n:
        raise InvalidTree("core is not connected")
    size = [1] * core.n
    heavy = [-1] * core.n
    for v in reversed(order[1:]):
        p = parent[v]
        size[p] += size[v]
        if heavy[p] < 0 or size[v] > size[heavy[p]]:
            heavy[p] = v
    # Heads of heavy paths, deepest first: a path's light children head
    # deeper paths, so their pairs are pending when the path is swept.
    pending: dict[int, tuple[IntPoly, IntPoly | None]] = {}
    for v in reversed(order):
        if v == root or heavy[parent[v]] != v:
            pending[v] = _path_pair(v, adj, parent, heavy, core.mult, pending)
    return _TTM1 * pending[root][0]


def _path_pair(
    head: int,
    adj: list[list[int]],
    parent: list[int],
    heavy: list[int],
    mult: Mapping[int, int],
    pending: dict[int, tuple[IntPoly, IntPoly | None]],
) -> tuple[IntPoly, IntPoly | None]:
    # (pt', ph') of a path head; ph' only for an unjoined head, the one
    # case a parent reads it.
    need_ph = head not in mult
    segments = []
    chain: list[_Matrix] = []
    u = head
    while heavy[u] >= 0:
        h = heavy[u]
        light = [c for c in adj[u] if c != parent[u] and c != h]
        chain.append(_vertex_matrix(u, h, light, mult, pending))
        if h in mult:
            if segments or not need_ph:
                chain[0] = chain[0][:1]
            segments.append(_chain_product(chain))
            chain = []
        u = h
    if u not in mult:
        raise InvalidTree(f"core leaf {u} is not joined")
    if need_ph:
        rest = balanced_product(seg[0][0] for seg in segments[1:])
        return segments[0][0][0] * rest, segments[0][1][0] * rest
    return balanced_product(seg[0][0] for seg in segments), None


def _vertex_matrix(
    u: int,
    h: int,
    light: Sequence[int],
    mult: Mapping[int, int],
    pending: dict[int, tuple[IntPoly, IntPoly | None]],
) -> _Matrix:
    # Rows pt'_u and ph'_u as linear forms in (pt'_h, ph'_h); a joined h
    # gets the first column only, since its ph' is never read.
    prod_i = []
    z_diff = []
    z_sum = []
    for c in light:
        pt, ph = pending.pop(c)
        if c in mult:
            prod_i.append(pt)
        else:
            z_diff.append(pt - ph)
            z_sum.append(_TM2 * pt + ph)
    h_joined = h in mult
    common = balanced_product(prod_i)
    alpha = common * balanced_product([linear_power(1, len(light)), *z_diff])
    beta = common * balanced_product([linear_power(2, len(prod_i) + h_joined), *z_sum])
    if h_joined:
        ph_row: tuple[IntPoly, ...] = (alpha,)
        p1_row: tuple[IntPoly, ...] = (beta,)
    else:
        ph_row = (alpha, -alpha)
        p1_row = (_TM2 * beta, beta)
    if u in mult:
        return (p1_row, ph_row)
    return (tuple(x + y for x, y in zip(p1_row, ph_row)), ph_row)


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
    t = reduce_multiplicities(t)
    early = chromatic_small_s(t)
    if early is not None:
        return early
    reduction = strip_bridges(t)
    return heavy_path_sweep(reduction.core) * linear_power(1, reduction.b)


# -- reference sweep ---------------------------------------------------------
# The leaf-to-root sweep with exact divisions, kept as the cross-check
# that the tests compare heavy_path_sweep against.


class NodeState(NamedTuple):
    pt: IntPoly
    ph: IntPoly


@dataclass(frozen=True)
class LeveledTree:
    """Core tree rooted for the sweep; node_state fills during sweep()."""

    root: int
    level: dict[int, int]
    children: dict[int, tuple[int, ...]]
    parent: dict[int, int]
    node_state: dict[int, NodeState] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return max(self.level.values())


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

    Populates lt.node_state with the (P(T_a), P(H_a)) pair per vertex.
    """
    state = lt.node_state
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
