"""Reference implementations used to validate the fast algorithms.

Everything here is deliberately naive: deletion-contraction recursions
with the textbook rewrite rules, plus brute-force counters.  The fast
modules are tested for exact agreement against these, and the counters
in turn pin down the recursions at small sizes, so correctness rests on
code simple enough to audit line by line.

The recursions are exponential.  A soft size guard raises TooLarge
unless force=True.  Every call keeps the subgraphs it has solved in a
memo dict of its own, always: there is no switch, the rewrite rules
stay as they are, and the equivalence suites stay affordable.  A
recursion deeper than the interpreter allows also raises TooLarge; the
flow oracle knows its depth up front and refuses before any work.
"""

from __future__ import annotations

import sys
from itertools import product

from .errors import TooLarge
from .multigraph import MultiGraph
from .polyring import ONE, T, ZERO, IntPoly

CHROMATIC_VERTEX_GUARD = 14
FLOW_EDGE_GUARD = 16
ENUMERATION_GUARD = 10**8


def oracle_chromatic(g: MultiGraph, *, force: bool = False) -> IntPoly:
    """Chromatic polynomial by deletion-contraction.

    Rewrite rules, applied in order: any loop kills the polynomial;
    parallel copies collapse; components multiply; an edgeless graph on
    k vertices gives t^k; otherwise recurse on the lowest-id edge via
    P(G) = P(G - e) - P(G / e).
    """
    if g.n > CHROMATIC_VERTEX_GUARD and not force:
        raise TooLarge(f"{g.n} vertices exceeds soft guard {CHROMATIC_VERTEX_GUARD}")
    try:
        return _chromatic(g, {})
    except RecursionError:
        raise TooLarge(f"{g.n} vertices: deletion-contraction recursion too deep") from None


def _chromatic(g: MultiGraph, memo: dict) -> IntPoly:
    if any(u == v for u, v in g.edges):
        return ZERO
    simple = sorted(set(g.edges))
    comps = MultiGraph(g.n, simple).components()
    if len(comps) > 1:
        result = ONE
        for comp in comps:
            result = result * _chromatic(g.induced_subgraph(comp), memo)
        return result
    if not simple:
        return T**g.n
    key = (g.n, tuple(simple))
    if key in memo:
        return memo[key]
    gg = MultiGraph(g.n, simple)
    u, v = simple[0]
    memo[key] = _chromatic(gg.delete_edge(0), memo) - _chromatic(gg.contract(u, v), memo)
    return memo[key]


def oracle_flow(g: MultiGraph, *, force: bool = False) -> IntPoly:
    """Flow polynomial by deletion-contraction.

    Rules in order: a bridge kills the polynomial; a loop factors out
    (t - 1); an edgeless graph gives 1; otherwise recurse on the
    lowest-id non-loop edge via F(G) = F(G / e) - F(G - e).
    """
    if g.m > FLOW_EDGE_GUARD and not force:
        raise TooLarge(f"{g.m} edges exceeds soft guard {FLOW_EDGE_GUARD}")
    # Contraction and loop deletion keep a graph bridgeless, and each
    # level of the first branch removes one edge, so a bridgeless graph
    # recurses m levels deep.
    if g.m >= sys.getrecursionlimit() and not g.bridges():
        raise TooLarge(f"{g.m} edges: deletion-contraction recursion too deep")
    try:
        return _flow(g, {})
    except RecursionError:
        raise TooLarge(f"{g.m} edges: deletion-contraction recursion too deep") from None


def _flow_contract(g: MultiGraph, eid: int) -> MultiGraph:
    # Flow contraction differs from MultiGraph.contract: only the chosen
    # edge disappears, and surviving parallel copies become loops (they
    # still carry flow).  Same renumbering: keep min(u, v), shift above.
    u, v = g.edges[eid]
    lo, hi = (u, v) if u < v else (v, u)

    def remap(w: int) -> int:
        if w == hi:
            return lo
        return w - 1 if w > hi else w

    kept = [
        (remap(a), remap(b))
        for j, (a, b) in enumerate(g.edges)
        if j != eid
    ]
    return MultiGraph(g.n - 1, kept)


def _flow(g: MultiGraph, memo: dict) -> IntPoly:
    if g.bridges():
        return ZERO
    for eid, (u, v) in enumerate(g.edges):
        if u == v:
            return IntPoly((-1, 1)) * _flow(g.delete_edge(eid), memo)
    if not g.edges:
        return ONE
    key = (g.n, tuple(sorted(g.edges)))
    if key in memo:
        return memo[key]
    memo[key] = _flow(_flow_contract(g, 0), memo) - _flow(g.delete_edge(0), memo)
    return memo[key]


def count_colorings(g: MultiGraph, t: int, *, force: bool = False) -> int:
    """Number of proper colorings with t colors, by exhaustive enumeration."""
    if t < 0:
        raise ValueError(f"color count must be nonnegative, got {t}")
    if t**g.n > ENUMERATION_GUARD and not force:
        raise TooLarge(f"{t}^{g.n} assignments exceed guard {ENUMERATION_GUARD}")
    total = 0
    for coloring in product(range(t), repeat=g.n):
        if all(coloring[u] != coloring[v] for u, v in g.edges):
            total += 1
    return total


def count_flows(g: MultiGraph, t: int, *, force: bool = False) -> int:
    """Number of nowhere-zero Z_t flows, by exhaustive enumeration.

    Edges are oriented lowest-id endpoint to highest; a loop conserves
    at its vertex for any value, contributing a factor t - 1.
    """
    if t < 1:
        raise ValueError(f"group order must be positive, got {t}")
    plain = [(u, v) for u, v in g.edges if u != v]
    loops = g.m - len(plain)
    if (t - 1) ** len(plain) > ENUMERATION_GUARD and not force:
        raise TooLarge(f"({t - 1})^{len(plain)} assignments exceed guard {ENUMERATION_GUARD}")
    total = 0
    for values in product(range(1, t), repeat=len(plain)):
        net = [0] * g.n
        for (u, v), x in zip(plain, values):
            net[u] += x
            net[v] -= x
        if all(x % t == 0 for x in net):
            total += 1
    return total * (t - 1) ** loops
