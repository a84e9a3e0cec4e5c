"""Flow polynomials of outerplanar multigraphs via the dual tree join.

The flow polynomial multiplies over blocks.  A block with two or more
edges of an outerplanar multigraph is a polygon (its unique Hamiltonian
cycle) plus non-crossing chords and parallel copies.  Its weak dual is
a tree of bounded faces, and adjacency to the outer face turns into
apex multiplicities, so the dual is exactly a VertexJoinTree and the
block's flow polynomial is its chromatic one over t: F = P(dual)/t per
block, which vjtree._factors hands over as a list of factors.  The
factors of all blocks, and (t - 1) per loop, meet in one balanced
product per graph.

The outer cycle is recovered by degree-2 elimination (Mitchell 1979,
"Linear algorithms to recognize outerplanar and maximal outerplanar
graphs"): every degree-2 vertex of a biconnected outerplanar graph sits
on the outer cycle between its two neighbors, so it can be removed and
reinserted later.  The elimination runs in linear time on flat lists: a
set of neighbors per vertex, a plain stack of degree-2 candidates and
next/previous arrays for the rebuilt cycle.  Any elimination order
gives the same certificate, because the cycle is the block's only
Hamiltonian cycle and its listing is canonicalized; a distinct edge is a
side iff its ends are adjacent on the cycle, and a chord otherwise.
Reinsertion, the cycle certificate and the chord laminarity sweep
reject non-outerplanar inputs deterministically.  flow_outerplanar
accepts cut vertices; only find_outer_cycle raises NotBiconnected.

flow_outerplanar first shortens every maximal path of degree-2
vertices (loops not counted) to a path with one inner vertex, and works
on that smaller graph H.  Two facts make this exact:

- The flow polynomial does not change.  Deletion-contraction gives
  F(G) = F(G/e) - F(G-e), and when e meets a degree-2 vertex the other
  edge there is a bridge of G-e, so F(G-e) = 0 and F(G) = F(G/e).
  Loops and components that are one cycle give (t - 1) each and are
  dropped, and isolated vertices are inert.  A path from a back to a
  stays the digon a-x-a rather than a loop, and a path ending at a
  degree-1 vertex keeps it, so the bridge there still gives zero.
- Outerplanarity does not change.  H is a minor of G, so H is
  outerplanar when G is.  Conversely, in an outerplanar embedding both
  edges at a degree-2 vertex lie on the outer face, so subdividing them
  again keeps H's embedding outerplanar.  H has a bridge exactly when
  G has one, so a zero flow still takes precedence over a rejection.

On long polygons, where nearly every vertex has degree 2, H is a small
fraction of G.  When no path has two or more inner vertices, as in fans
and triangulations, H is G itself, and no edge is copied.

The shortening reads G's edges as pairs of vertex ids in range(size),
each written in either order: flow_outerplanar hands over g.edges as
they are, and the CLI the two columns of a .gr file's 1-based ids as
the file writes them (_Columns), with size = n + 1, so slot 0 is an
isolated vertex, which is inert.  No list of pairs is built for a file,
and no MultiGraph on either route: the block walk reads adjacency lists
(multigraph._adjacency) built from H's pairs, which are the caller's
own when G is unshortened, ends in either order.  The caller's ids are
the names throughout: H records the id of each of its vertices, and an
unshortened G keeps them.

flow_outerplanar takes H's blocks from one flat block walk
(multigraph._walk_blocks), which hands each block over in DFS-discovery
labels: its vertices numbered 0..k-1 in the order the search reached
them.  Those labels are local: the search reaches an outer cycle mostly
along the cycle, so neighbouring vertices get neighbouring labels, and
the certificate and the dual touch their arrays nearly in order rather
than at the random places shuffled input labels would send them to.
The polynomial does not depend on the labels.  Error messages name the
caller's vertex ids, mapped back from H's once per call: 0-based ones
from flow_outerplanar, the file's from the CLI.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import NotBiconnected, NotOuterplanar
from .multigraph import MultiGraph, _adjacency, _walk_blocks
from .polyring import ZERO, IntPoly, _Packed, _product, _read, linear_power
from .vjtree import VertexJoinTree, _factors

Edge = tuple[int, int]


@dataclass(frozen=True)
class OuterCycle:
    """Canonical outerplanar certificate of one biconnected multigraph.

    order starts at the smallest vertex and runs toward its smaller
    cycle neighbor, so equal graphs yield identical certificates.  A
    two-vertex order marks the degenerate parallel-bundle cycle.
    parallel_count counts the copies of each distinct edge, never a loop,
    in a read-only copy of the mapping it is given.  intervals holds the
    chords as (i, j) positions in order, i < j, sorted by i and then by
    decreasing j: outer chords first.
    """

    order: tuple[int, ...]
    chord_set: tuple[Edge, ...]
    parallel_count: Mapping[Edge, int]
    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parallel_count", MappingProxyType(dict(self.parallel_count)))

    def __hash__(self) -> int:
        return hash((self.order, self.chord_set, frozenset(self.parallel_count.items()), self.intervals))

    def __reduce__(self):
        # A mapping proxy cannot be pickled or deep-copied; its dict can.
        return OuterCycle, (self.order, self.chord_set, dict(self.parallel_count), self.intervals)


def find_outer_cycle(g: MultiGraph) -> OuterCycle:
    """Recover the outer Hamiltonian cycle of a biconnected multigraph.

    Loops lie on no cycle through two vertices and are left out.
    Raises NotBiconnected unless g is connected without a cut vertex,
    and NotOuterplanar unless it has an outerplanar embedding.
    """
    blocks = g.blocks()
    spans = len(blocks) == 1 and len({x for e in blocks[0] for x in g.edges[e]}) == g.n
    if g.n != 1 and not spans:
        raise NotBiconnected("input is disconnected or has a cut vertex")
    return _certify(g.n, [(u, v) for u, v in g.edges if u != v], range(g.n))


def _certify(n: int, edges: Sequence[Edge], names: Sequence[int]) -> OuterCycle:
    # find_outer_cycle on the normalized loopless edges of a biconnected
    # graph on 0..n-1; messages call vertex x names[x].
    counts = Counter(edges)

    if n == 1:
        raise NotOuterplanar("single vertex has no outer cycle")
    if n == 2:
        if not counts or next(iter(counts.values())) < 2:
            raise NotOuterplanar("two vertices need a parallel bundle to close a cycle")
        return OuterCycle((0, 1), (), counts, ())

    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in counts:
        adj[u].add(v)
        adj[v].add(u)

    # Peel degree-2 vertices, remembering where each one must be sewn
    # back into the cycle.  Degrees never grow, so a stacked vertex is
    # stale only once peeled (its set is emptied) or left with fewer
    # neighbors.  The order of peeling does not matter: the outer cycle
    # is the graph's only Hamiltonian cycle.
    steps: list[tuple[int, int, int]] = []
    stack = [v for v in range(n) if len(adj[v]) == 2]
    for _ in range(n - 3):
        while stack:
            x = stack.pop()
            if len(adj[x]) == 2:
                break
        else:
            raise NotOuterplanar("degree-2 elimination stalled")
        a, b = adj[x]
        adj[x] = set()
        near_a, near_b = adj[a], adj[b]
        near_a.remove(x)
        near_b.remove(x)
        steps.append((x, a, b))
        if b not in near_a:
            near_a.add(b)
            near_b.add(a)
        if len(near_a) == 2:
            stack.append(a)
        if len(near_b) == 2:
            stack.append(b)

    p, q, r = [v for v in range(n) if adj[v]]
    if q not in adj[p] or r not in adj[q] or p not in adj[r]:
        raise NotOuterplanar("reduction did not end in a triangle")
    nxt = [0] * n
    prv = [0] * n
    nxt[p], nxt[q], nxt[r] = q, r, p
    prv[q], prv[r], prv[p] = p, q, r
    for x, a, b in reversed(steps):
        if nxt[a] == b:
            lo, hi = a, b
        elif nxt[b] == a:
            lo, hi = b, a
        else:
            raise NotOuterplanar(f"vertex {names[x]} cannot rejoin the cycle "
                                 f"between {names[a]} and {names[b]}")
        nxt[lo], nxt[x], prv[x], prv[hi] = x, hi, lo, x

    step = nxt if nxt[0] <= prv[0] else prv
    order = [0]
    cur = step[0]
    while cur != 0:
        order.append(cur)
        cur = step[cur]
    if len(order) != n:
        raise NotOuterplanar("reconstructed cycle misses vertices")

    # A distinct edge is a side iff its ends sit next to each other on
    # the cycle; all n sides must be edges.
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    chords = [(u, v) for u, v in counts if (pos[u] - pos[v]) % n not in (1, n - 1)]
    if len(counts) - len(chords) != n:
        u, v = next((u, v) for u, v in zip(order, order[1:] + order[:1])
                    if (min(u, v), max(u, v)) not in counts)
        raise NotOuterplanar(f"cycle side ({names[u]}, {names[v]}) is not an edge")

    intervals = tuple(sorted(
        ((pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u]) for u, v in chords),
        key=lambda ij: (ij[0], -ij[1]),
    ))
    _reject_crossing_chords(intervals, order, names)
    return OuterCycle(tuple(order), tuple(sorted(chords)), counts, intervals)


def _reject_crossing_chords(intervals: Sequence[tuple[int, int]], order: Sequence[int],
                            names: Sequence[int]) -> None:
    # Chords as polygon index intervals, sorted outer first, must be
    # laminar (nested or disjoint, endpoints may touch).
    stack: list[tuple[int, int]] = []
    for i, j in intervals:
        while stack and stack[-1][1] <= i:
            stack.pop()
        if stack and not (stack[-1][0] <= i and j <= stack[-1][1]):
            ends = [names[order[x]] for x in (*stack[-1], i, j)]
            raise NotOuterplanar("chords ({}, {}) and ({}, {}) cross".format(*ends))
        stack.append((i, j))


def build_dual(oc: OuterCycle) -> VertexJoinTree:
    """Weak dual of the certified block, as a tree join.

    One tree vertex per bounded face; faces sharing a chord are
    adjacent; a face's multiplicity counts its single outer edges.  A
    bundle of k parallel copies stacks k-1 two-sided faces, inserted as
    a path of k-1 extra vertices subdividing the corresponding dual
    edge (toward the apex for cycle bundles, between the two face
    vertices for chord bundles).  The block's flow is P(tree) / t.
    """
    order = oc.order
    n = len(order)
    if n == 2:
        k = oc.parallel_count[(min(order), max(order))]
        faces = k - 1
        edges = tuple((i, i + 1) for i in range(faces - 1))
        mult = {0: 2} if faces == 1 else {0: 1, faces - 1: 1}
        return VertexJoinTree(faces, edges, mult)

    intervals = oc.intervals

    # Sweep the polygon sides in order.  The stack holds the (end, face)
    # of the chords enclosing side p, innermost on top: the top owns
    # side p, and a chord's parent face is the top when it opens.  The
    # k-th chord in sorted order bounds face k from the outside; face 0
    # lies outside every chord.
    owner: list[int] = []
    tree_edges: list[Edge] = []
    stack: list[tuple[int, int]] = []
    k = 0
    for p in range(n):
        while stack and stack[-1][0] <= p:
            stack.pop()
        while k < len(intervals) and intervals[k][0] == p:
            k += 1
            tree_edges.append((stack[-1][1] if stack else 0, k))
            stack.append((intervals[k - 1][1], k))
        owner.append(stack[-1][1] if stack else 0)

    count = oc.parallel_count
    total = len(intervals) + 1

    def chain(start: int, k: int, into: list[Edge]) -> int:
        # The path of k - 1 new faces from start, its edges appended to
        # into; returns its far end, start itself when k == 1.
        nonlocal total
        for _ in range(k - 1):
            into.append((start, total))
            start = total
            total += 1
        return start

    # The side bundles' faces are numbered first, the chord bundles'
    # after them, and the chord edges lead the tree's edge list.
    mult: dict[int, int] = {}
    side_edges: list[Edge] = []
    for p in range(n):
        u, v = order[p], order[(p + 1) % n]
        end = chain(owner[p], count[(u, v) if u <= v else (v, u)], side_edges)
        mult[end] = mult.get(end, 0) + 1

    dual_edges: list[Edge] = []
    for (i, j), (a, b) in zip(intervals, tree_edges):
        u, v = order[i], order[j]
        dual_edges.append((chain(a, count[(u, v) if u <= v else (v, u)], dual_edges), b))

    dual_edges.extend(side_edges)
    return VertexJoinTree(total, tuple(dual_edges), mult)


class _Columns:
    """Edges as two columns of ends: edge i joins us[i] and vs[i].

    Iterating yields the pairs, as zip(us, vs) does, and may be done
    again and again, as over a sequence of pairs.
    """

    __slots__ = ("us", "vs")

    def __init__(self, us: Sequence[int], vs: Sequence[int]):
        self.us = us
        self.vs = vs

    def __iter__(self) -> Iterator[Edge]:
        return zip(self.us, self.vs)


def _shorten(size: int, edges: Iterable[Edge]) -> tuple[list[Edge] | None, list[int] | None, int]:
    """The edges of H: the graph of edges, its degree-2 paths shortened to one inner vertex.

    edges is read several times: a sequence of pairs, or _Columns.  A
    pair may name its ends in either order, and every id is in
    range(size); an id no edge meets is an isolated vertex and is
    inert.  Returns (kept, names, ones): kept lists H's edges as pairs
    on range(len(names)), vertex x of H is the caller's vertex
    names[x], and ones counts the (t - 1) factors of the loops and of
    the components that are one cycle, all of which H's blocks leave
    out.  Loops do not count toward degree, and isolated vertices are
    dropped.  A path is kept as its first inner vertex, so one that
    leaves a and returns to a becomes the digon a-x-a, and one that ends
    at a degree-1 vertex keeps it.  When no path has two or more inner
    vertices, kept and names are None: nothing is shortened, and the
    caller's edges, loops included, serve as they are, since the block
    walk passes over the loops.

    One pass over the edges finds each vertex's degree and the sum of
    its neighbours, and the paths are walked over the same edges.  The
    kept vertices are numbered in increasing order of their ids, then
    one inner vertex per path after all of them, and each kept edge is
    written with its smaller end first, so pairs and columns of one
    graph shorten to the same kept list.
    """
    deg = [0] * size
    nsum = [0] * size
    ones = 0  # the loops, and below the components that are one cycle
    for u, v in edges:
        if u != v:
            deg[u] += 1
            deg[v] += 1
            nsum[u] += v
            nsum[v] += u
        else:
            ones += 1
    for u, v in edges:
        if deg[u] == 2 == deg[v] and u != v:
            break
    else:
        return None, None, ones

    # A vertex of degree 2 entered from one neighbour leaves by the sum
    # of its neighbours less that one.
    names = [v for v, d in enumerate(deg) if d and d != 2]
    label = [0] * size
    for x, v in enumerate(names):
        label[v] = x
    seen = bytearray(size)
    kept: list[Edge] = []
    for u, v in edges:
        if deg[u] != 2:
            if deg[v] != 2:
                if u != v:
                    kept.append((label[u], label[v]) if u < v else (label[v], label[u]))
                continue
            a, x = u, v
        elif deg[v] != 2:
            a, x = v, u
        else:
            continue
        if seen[x]:
            continue
        # Walk the path from its end a to its other end b, and keep x.
        prev, b = a, x
        while deg[b] == 2:
            seen[b] = 1
            prev, b = b, nsum[b] - prev
        kept.append((label[a], len(names)))
        kept.append((label[b], len(names)))
        names.append(x)

    # Components that are one cycle: whatever no walk reached lies on one.
    if seen.count(1) < deg.count(2):
        for u, v in edges:
            if u != v and deg[u] == 2 and not seen[u]:
                ones += 1
                prev, x = v, u
                while not seen[x]:
                    seen[x] = 1
                    prev, x = x, nsum[x] - prev
    return kept, names, ones


def flow_outerplanar(g: MultiGraph) -> IntPoly:
    """Flow polynomial of an outerplanar multigraph, exactly.

    Paths of degree-2 vertices are first shortened to one inner vertex
    each (_shorten), which counts the loops' (t - 1) factors.  Then
    block by block: a one-edge block (a bridge) kills the flow outright,
    isolated vertices are inert, and every other block goes through its
    dual: F = P(dual) / t per block, whose factors vjtree._factors
    names.  All factors meet in one balanced product.
    """
    return _read(_top(g.n, g.edges))


def _top(size: int, edges: Iterable[Edge]) -> IntPoly | _Packed:
    # flow_outerplanar's product, packed when it is wide, for the graph
    # of edges (as _shorten reads them) on range(size).  The block walk
    # reads H's adjacency lists, built from the kept pairs or, when
    # nothing is shortened, from edges themselves.  Messages name the
    # vertices by the ids of edges.
    kept, names, ones = _shorten(size, edges)
    adj = _adjacency(size, edges) if kept is None else _adjacency(len(names), kept)
    blocks, order = _walk_blocks(adj, True)
    if any(len(pairs) == 1 for _, pairs in blocks):
        return ZERO
    if names is not None:
        order = [names[v] for v in order]
    factors = [linear_power(1, ones)] if ones else []
    label = [0] * len(adj)
    for times, pairs in blocks:
        # Compact the block's discovery times to 0..k-1, in order.
        for i, d in enumerate(times):
            label[d] = i
        edges = [(label[a], label[b]) for a, b in pairs]
        factors += _factors(build_dual(_certify(len(times), edges, [order[d] for d in times])))
    return _product(factors)
