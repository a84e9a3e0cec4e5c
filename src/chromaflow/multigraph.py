"""Undirected multigraphs with stable integer edge ids.

Vertices are 0..n-1.  Edges are an ordered multiset of unordered pairs;
an edge's id is its position, so deleting edge e shifts later ids down
by one.  Loops (u == v) and parallel copies are allowed everywhere.

Contraction follows a fixed renumbering so results are reproducible:
the merged vertex keeps id min(u, v), and every id above max(u, v)
shifts down by one.  All u-v copies vanish, so contraction never
creates a loop.

Every MultiGraph holds each edge normalized, 0 <= u <= v < n, in a
tuple.  Its one constructor checks and normalizes the edges it is
given, those of the .gr reader too.

The block walk (_walk_blocks) reads adjacency lists, not a graph, and
one function (_adjacency) makes them from pairs in either order, so the
outerplanar flow walks the pairs it was handed without a MultiGraph.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InvalidEdge, InvalidVertex, SelfContract


class MultiGraph:
    __slots__ = ("n", "edges")

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InvalidVertex(f"vertex count must be nonnegative, got {n}")
        norm = []
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise InvalidVertex(f"edge ({u}, {v}) outside 0..{n - 1}")
            norm.append((u, v) if u <= v else (v, u))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MultiGraph is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"MultiGraph({self.n}, {list(self.edges)!r})"

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        """Vertex degrees; a loop adds 2 at its vertex."""
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """adj[v] = [(neighbor, edge id), ...]; loops omitted."""
        return _adjacency(self.n, self.edges)

    # -- queries -------------------------------------------------------------

    def components(self) -> list[tuple[int, ...]]:
        """Vertex sets of connected components, each sorted, ordered by minimum."""
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
        groups: dict[int, list[int]] = {}
        for v in range(self.n):
            groups.setdefault(find(v), []).append(v)
        return [tuple(groups[r]) for r in sorted(groups)]

    def blocks(self) -> list[tuple[int, ...]]:
        """Sorted edge ids of each biconnected block, as the search closes it.

        One low-link depth-first search (Hopcroft-Tarjan) over the
        adjacency lists, each read with an integer cursor.  Edges are
        stacked by id, and the entering edge is tracked by id so that a
        parallel copy of it closes a cycle.  Loops belong to no block; a
        bridge is a block of one edge.
        """
        return [tuple(sorted(block)) for _, block in _walk_blocks(self.adjacency(), False)[0]]

    def bridges(self) -> frozenset[int]:
        """Edge ids whose removal disconnects their component.

        These are the one-edge blocks; loops and parallel edges never are.
        """
        return frozenset(b[0] for b in self.blocks() if len(b) == 1)

    # -- surgery -------------------------------------------------------------

    def delete_edge(self, e: int) -> MultiGraph:
        if not (0 <= e < len(self.edges)):
            raise InvalidEdge(f"edge id {e} outside 0..{len(self.edges) - 1}")
        return MultiGraph(self.n, self.edges[:e] + self.edges[e + 1 :])

    def contract(self, u: int, v: int) -> MultiGraph:
        """Identify u and v, dropping every u-v copy (no loop is created)."""
        if not (0 <= u < self.n) or not (0 <= v < self.n):
            raise InvalidVertex(f"contract endpoints ({u}, {v}) outside 0..{self.n - 1}")
        if u == v:
            raise SelfContract(f"cannot contract vertex {u} with itself")
        lo, hi = (u, v) if u < v else (v, u)

        def remap(w: int) -> int:
            if w == hi:
                return lo
            return w - 1 if w > hi else w

        kept = [
            (remap(a), remap(b))
            for a, b in self.edges
            if {a, b} != {lo, hi}
        ]
        return MultiGraph(self.n - 1, kept)

    def induced_subgraph(self, vertices: Iterable[int]) -> MultiGraph:
        """Subgraph on the given vertices, renumbered 0..k-1 in sorted order."""
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        for v in keep:
            if not (0 <= v < self.n):
                raise InvalidVertex(f"vertex {v} outside 0..{self.n - 1}")
        sub = [
            (index[a], index[b])
            for a, b in self.edges
            if a in index and b in index
        ]
        return MultiGraph(len(keep), sub)


def _adjacency(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """adj[v] = [(neighbor, edge id), ...] of the graph of pairs on range(n).

    Edge i is the i-th pair, which may name its ends in either order.
    Loops keep their ids but appear in no list.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(pairs):
        if u != v:
            adj[u].append((v, eid))
            adj[v].append((u, eid))
    return adj


def _walk_blocks(adj: list[list], pairs: bool) -> tuple[list[tuple[list[int], list]], list[int]]:
    """The blocks of adj's graph in closing order, and the vertex at each discovery time.

    A block comes as (times, stacked): the discovery times of its
    vertices in increasing order, and what its edges stacked, their ids
    or, with pairs set, the discovery times (a, b), a < b, of their two
    ends.  With pairs, a block thus comes out already in DFS-discovery
    labels, with no pass over the graph's own edges afterwards.

    adj holds the lists _adjacency builds (edges by increasing id,
    loops left out); the walk reads them with one cursor per vertex,
    where the search resumes on return.
    """
    n = len(adj)
    cur = [0] * n
    disc = [-1] * n
    low = [0] * n
    order: list[int] = []
    found: list[tuple[list[int], list]] = []
    stack: list = []
    # Discovery times of the vertices entered by the stacked tree edges:
    # each closed block takes its own off the top, in increasing order.
    entered: list[int] = []
    for root in range(n):
        if disc[root] >= 0:
            continue
        dw = len(order)
        disc[root] = low[root] = dw
        order.append(root)
        # (vertex, its discovery time, entering edge id, its slots on
        # the edge stack and on entered)
        path = [(root, dw, -1, 0, 0)]
        while path:
            v, dv, pe, at, first = path[-1]
            nbrs = adj[v]
            i, end = cur[v], len(nbrs)
            while i < end:
                w, e = nbrs[i]
                i += 1
                dw = disc[w]
                if dw < 0:
                    cur[v] = i
                    dw = len(order)
                    disc[w] = low[w] = dw
                    order.append(w)
                    path.append((w, dw, e, len(stack), len(entered)))
                    stack.append((dv, dw) if pairs else e)
                    entered.append(dw)
                    break
                # Each back edge is stacked once, from its descendant end.
                if dw < dv and e != pe:
                    stack.append((dw, dv) if pairs else e)
                    if dw < low[v]:
                        low[v] = dw
            else:
                path.pop()
                if path:
                    p, dp = path[-1][0], path[-1][1]
                    lv = low[v]
                    if lv < low[p]:
                        low[p] = lv
                    if lv >= dp:
                        found.append(([dp, *entered[first:]], stack[at:]))
                        del stack[at:], entered[first:]
    return found, order
