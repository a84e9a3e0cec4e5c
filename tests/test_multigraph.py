"""Multigraph container and edge-operation tests."""

from __future__ import annotations

import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromaflow.errors import InvalidEdge, InvalidVertex, SelfContract
from chromaflow.generators import (fan_polygon, random_outerplanar, shuffle_labels,
                                   triangulated_polygon)
from chromaflow.multigraph import MultiGraph, _walk_blocks
from test_outerplanar import _mixed_graph, _scaling_bench

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def multigraphs(draw, max_n=8, max_m=14):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    edges = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(m)
    ]
    return MultiGraph(n, edges)


def test_edges_normalized_and_validated():
    g = MultiGraph(3, [(2, 0), (1, 1)])
    assert g.edges == ((0, 2), (1, 1))
    assert g.m == 2
    with pytest.raises(InvalidVertex):
        MultiGraph(2, [(0, 2)])
    with pytest.raises(InvalidVertex):
        MultiGraph(2, [(-1, 0)])


def test_degrees_loop_counts_twice():
    g = MultiGraph(2, [(0, 1), (1, 1)])
    assert g.degrees() == [1, 3]


def test_components():
    assert MultiGraph(3, []).components() == [(0,), (1,), (2,)]
    assert MultiGraph(4, [(0, 1), (2, 3)]).components() == [(0, 1), (2, 3)]
    assert MultiGraph(3, [(0, 1), (1, 2)]).components() == [(0, 1, 2)]


def test_bridges_frozen_cases():
    path = MultiGraph(3, [(0, 1), (1, 2)])
    assert path.bridges() == frozenset({0, 1})
    c4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert c4.bridges() == frozenset()
    # parallel pair plus pendant: only the pendant edge is a bridge
    g = MultiGraph(3, [(0, 1), (0, 1), (1, 2)])
    assert g.bridges() == frozenset({2})
    # loops are never bridges
    assert MultiGraph(1, [(0, 0)]).bridges() == frozenset()


def test_contract_triangle_edge():
    tri = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    g = tri.contract(0, 1)
    assert g.n == 2
    assert g.edges == ((0, 1), (0, 1))


def test_contract_drops_all_parallel_copies():
    g = MultiGraph(2, [(0, 1), (0, 1)]).contract(0, 1)
    assert g.n == 1
    assert g.edges == ()


def test_contract_non_adjacent_makes_parallel_pair():
    path = MultiGraph(3, [(0, 1), (1, 2)])
    g = path.contract(0, 2)
    assert g.n == 2
    assert g.edges == ((0, 1), (0, 1))


def test_contract_errors():
    g = MultiGraph(2, [(0, 1)])
    with pytest.raises(SelfContract):
        g.contract(1, 1)
    with pytest.raises(InvalidVertex):
        g.contract(0, 5)


def test_delete_edge():
    g = MultiGraph(2, [(0, 1), (0, 1)])
    assert g.delete_edge(0).edges == ((0, 1),)
    assert MultiGraph(2, [(0, 1)]).delete_edge(0).edges == ()
    assert MultiGraph(1, [(0, 0)]).delete_edge(0).edges == ()
    with pytest.raises(InvalidEdge):
        g.delete_edge(7)


def test_induced_subgraph_renumbers():
    g = MultiGraph(4, [(0, 2), (2, 3), (1, 1)])
    sub = g.induced_subgraph((0, 2, 3))
    assert sub.n == 3
    assert sub.edges == ((0, 1), (1, 2))


@SETTINGS
@given(multigraphs())
def test_contract_reduces_n_and_drops_bundle(g):
    for u, v in set(g.edges):
        if u == v:
            continue
        h = g.contract(u, v)
        assert h.n == g.n - 1
        # the whole u-v bundle disappears; everything else survives,
        # loops included
        bundle = sum(e == (min(u, v), max(u, v)) for e in g.edges)
        assert h.m == g.m - bundle
        loops = lambda graph: sum(a == b for a, b in graph.edges)
        assert loops(h) == loops(g)


@SETTINGS
@given(multigraphs())
def test_bridge_deletion_splits_component(g):
    bridges = g.bridges()
    for eid in range(g.m):
        u, v = g.edges[eid]
        if u == v:
            assert eid not in bridges
            continue
        before = len(g.components())
        after = len(g.delete_edge(eid).components())
        assert (after == before + 1) == (eid in bridges)


def _cycle_edge_sets(g):
    # Edge-id sets of every simple cycle (a parallel pair is a 2-cycle),
    # by walking vertex-simple paths from each start back to it.
    adj = g.adjacency()
    cycles = set()

    def walk(start, v, seen, path):
        for w, eid in adj[v]:
            if eid in path:
                continue
            if w == start:
                cycles.add(frozenset(path + [eid]))
            elif w not in seen and w > start:
                walk(start, w, seen | {w}, path + [eid])

    for s in range(g.n):
        walk(s, s, {s}, [])
    return cycles


def test_blocks_frozen_cases():
    bowtie = MultiGraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert sorted(bowtie.blocks()) == [(0, 1, 2), (3, 4, 5)]
    # a loop belongs to no block; a bridge is a block of its own
    g = MultiGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 3)])
    assert sorted(g.blocks()) == [(0, 1, 2), (3,)]
    assert MultiGraph(2, [(0, 1), (0, 1)]).blocks() == [(0, 1)]
    assert MultiGraph(3, [(1, 1)]).blocks() == []


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=7, max_m=10))
def test_blocks_match_cycle_partition(g):
    # Two distinct non-loop edges share a block iff a simple cycle
    # contains both; an edge on no cycle is a block of its own.
    cycles = _cycle_edge_sets(g)
    expect = set()
    for eid, (u, v) in enumerate(g.edges):
        if u != v:
            expect.add(frozenset({eid}).union(*(c for c in cycles if eid in c)))
    blocks = g.blocks()
    assert all(list(b) == sorted(b) for b in blocks)
    assert len(blocks) == len(expect)
    assert {frozenset(b) for b in blocks} == expect


@SETTINGS
@given(multigraphs())
def test_cycle_edges_are_never_bridges(g):
    # add a parallel copy of every edge: every edge now lies on a 2-cycle
    doubled = MultiGraph(g.n, list(g.edges) + list(g.edges))
    assert doubled.bridges() == frozenset()


def _iterator_blocks(g):
    # The first low-link walk blocks() ran: per-vertex lists of
    # (neighbor, edge id) tuples, one iterator per stacked vertex.  Kept
    # as a reference the block walk must match exactly.
    disc = [-1] * g.n
    low = [0] * g.n
    adj = g.adjacency()
    found = []
    edge_stack = []
    timer = 0
    for root in range(g.n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(adj[root]), 0)]
        while stack:
            v, pe, it, at = stack[-1]
            for w, eid in it:
                if disc[w] < 0:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, eid, iter(adj[w]), len(edge_stack)))
                    edge_stack.append(eid)
                    break
                if eid != pe and disc[w] < disc[v]:
                    edge_stack.append(eid)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] >= disc[p]:
                        found.append(tuple(sorted(edge_stack[at:])))
                        del edge_stack[at:]
    return found


def _glued(rng, parts):
    # Disjoint union of edge lists, each glued at one vertex to what
    # came before with probability 1/2 (a cut vertex), plus a pendant
    # edge (a bridge), loops and an isolated vertex now and then.
    edges, n = [], 0
    for part in parts:
        size = 1 + max(max(e) for e in part)
        at = rng.randrange(n) if n and rng.random() < 0.5 else None
        if at is None:
            edges += [(u + n, v + n) for u, v in part]
            n += size
        else:
            remap = lambda x: at if x == 0 else x - 1 + n
            edges += [(remap(u), remap(v)) for u, v in part]
            n += size - 1
    if rng.random() < 0.3:
        edges.append((rng.randrange(n), n))
        n += 1
    for _ in range(rng.randint(0, 3)):
        v = rng.randrange(n)
        edges.append((v, v))
    n += rng.random() < 0.3
    return shuffle_labels(rng, n, edges)


def _outerplanar_corpus(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 3
        if kind == 0:
            yield random_outerplanar(rng, n_max=rng.choice([6, 12, 40]), max_loops=3,
                                     p_glued=0.5, with_bridge=rng.random() < 0.3, max_edges=200)
        else:
            parts = []
            for _ in range(rng.randint(1, 4)):
                size = rng.randint(3, 60)
                part = triangulated_polygon(rng, size) if kind == 1 else fan_polygon(size)
                parts.append(part + rng.sample(part, rng.randint(0, 2)))
            yield _glued(rng, parts)


def test_blocks_match_iterator_walk():
    # Same blocks, same edge ids and the same closing order as the walk
    # they replace, on shuffled outerplanar multigraphs with loops,
    # isolated vertices, cut vertices and bridges.
    seen = 0
    for g in _outerplanar_corpus(2024, 1200):
        blocks = g.blocks()
        assert blocks == _iterator_blocks(g)
        seen += len(blocks)
    assert seen > 3000


def _csr_walk_blocks(g, pairs):
    # The block walk over its own CSR view of the graph, which it built
    # by counting sort on the endpoints: offsets, neighbour and edge-id
    # lists.  Kept as the reference for the walk over g.adjacency().
    n, edges = g.n, g.edges
    deg = [0] * n
    for u, v in edges:
        if u != v:
            deg[u] += 1
            deg[v] += 1
    stop = list(accumulate(deg))
    cur = stop[:]
    nbr = [0] * (stop[-1] if n else 0)
    ids = nbr[:]
    e = len(edges)
    for u, v in reversed(edges):
        e -= 1
        if u != v:
            i = cur[u] - 1
            cur[u] = i
            nbr[i] = v
            ids[i] = e
            i = cur[v] - 1
            cur[v] = i
            nbr[i] = u
            ids[i] = e

    disc = [-1] * n
    low = [0] * n
    order = []
    found = []
    stack = []
    entered = []
    for root in range(n):
        if disc[root] >= 0:
            continue
        dw = len(order)
        disc[root] = low[root] = dw
        order.append(root)
        path = [(root, dw, -1, 0, 0)]
        while path:
            v, dv, pe, at, first = path[-1]
            i, end = cur[v], stop[v]
            while i < end:
                w = nbr[i]
                e = ids[i]
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


def _assert_walks_agree(g):
    for pairs in (False, True):
        assert _walk_blocks(g.adjacency(), pairs) == _csr_walk_blocks(g, pairs)


def test_walk_matches_csr_walk():
    # The walk over g.adjacency() hands back the same blocks, in the same
    # closing order and the same stacking order, and the same discovery
    # order as the CSR walk it replaces: on shuffled multigraphs with
    # loops, bundles, isolated vertices and bridges, on fans and
    # triangulations, and on one long polygon with chords.
    rng = random.Random(1618)
    blocks = 0
    for _ in range(600):
        g = _mixed_graph(rng)
        _assert_walks_agree(g)
        blocks += len(g.blocks())
    assert blocks > 1000
    for n in (512, 1024, 2048, 4096):
        _assert_walks_agree(shuffle_labels(rng, n, fan_polygon(n)))
        _assert_walks_agree(shuffle_labels(rng, n, triangulated_polygon(rng, n)))
    _assert_walks_agree(_scaling_bench().chorded_polygon(rng, 24000))
