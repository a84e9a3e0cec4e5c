"""Deletion-contraction oracle tests: frozen values and counting checks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromaflow.errors import TooLarge
from chromaflow.multigraph import MultiGraph
from chromaflow.oracle import (
    count_colorings,
    count_flows,
    oracle_chromatic,
    oracle_flow,
)
from chromaflow.polyring import IntPoly, T, ZERO

SETTINGS = settings(max_examples=80, deadline=None)

K3 = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
P4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3)])
C4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
W4 = MultiGraph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)])


@st.composite
def small_graphs(draw, max_n=5, max_m=7):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    edges = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(m)
    ]
    return MultiGraph(n, edges)


def test_chromatic_frozen():
    assert oracle_chromatic(K3) == IntPoly((0, 2, -3, 1))
    assert oracle_chromatic(P4) == T * IntPoly((-1, 1)) ** 3
    assert oracle_chromatic(MultiGraph(1, [(0, 0)])) == ZERO
    assert oracle_chromatic(MultiGraph(3, [])) == T**3


def test_chromatic_parallel_edges_inert():
    doubled = MultiGraph(3, [(0, 1), (0, 1), (1, 2), (0, 2)])
    assert oracle_chromatic(doubled) == oracle_chromatic(K3)


def test_flow_frozen():
    assert oracle_flow(P4) == ZERO
    assert oracle_flow(K3) == IntPoly((-1, 1))
    assert oracle_flow(MultiGraph(2, [(0, 1), (0, 1)])) == IntPoly((-1, 1))
    assert oracle_flow(MultiGraph(1, [(0, 0)])) == IntPoly((-1, 1))
    tm2 = IntPoly((-2, 1))
    assert oracle_flow(W4) == tm2**4 + tm2


def test_count_colorings_frozen():
    assert count_colorings(K3, 3) == 6
    assert count_colorings(MultiGraph(2, []), 4) == 16
    assert count_colorings(C4, 2) == 2


def test_count_flows_frozen():
    assert count_flows(C4, 3) == 2
    assert count_flows(MultiGraph(2, [(0, 1)]), 5) == 0
    assert count_flows(MultiGraph(1, [(0, 0)]), 4) == 3


def test_guards():
    big = MultiGraph(20, [(i, i + 1) for i in range(19)])
    with pytest.raises(TooLarge):
        oracle_chromatic(big)
    assert oracle_chromatic(big, force=True) == T * IntPoly((-1, 1)) ** 19
    many = MultiGraph(2, [(0, 1)] * 20)
    with pytest.raises(TooLarge):
        oracle_flow(many)
    with pytest.raises(TooLarge):
        count_colorings(MultiGraph(30, []), 10)


def test_edge_order_independence():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
    g1 = MultiGraph(4, edges)
    g2 = MultiGraph(4, list(reversed(edges)))
    assert oracle_chromatic(g1) == oracle_chromatic(g2)
    assert oracle_flow(g1) == oracle_flow(g2)


def test_planar_dual_pairs():
    # C_n and the n-fold parallel bundle are planar duals; W4 is self-dual.
    c5 = MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    banana5 = MultiGraph(2, [(0, 1)] * 5)
    assert oracle_flow(c5) == oracle_chromatic(banana5).exact_div(T)
    assert oracle_flow(banana5) == oracle_chromatic(c5).exact_div(T)
    assert oracle_flow(W4) == oracle_chromatic(W4).exact_div(T)


@SETTINGS
@given(small_graphs(), st.integers(1, 4))
def test_chromatic_eval_counts_colorings(g, t):
    assert oracle_chromatic(g).evaluate(t) == count_colorings(g, t)


@SETTINGS
@given(small_graphs(max_n=4, max_m=6), st.integers(2, 4))
def test_flow_eval_counts_flows(g, t):
    assert oracle_flow(g).evaluate(t) == count_flows(g, t)


@settings(max_examples=300, deadline=None)
@given(small_graphs(max_n=6, max_m=9), st.data())
def test_relabelled_graph_same_polynomials(g, data):
    # Each call's memo keys subgraphs by their ids and sorted edges, so a
    # copy with permuted vertex ids and shuffled edges walks other keys;
    # a key that confused two graphs would show as a difference here.
    # A loop makes P zero before any recursion, so P is checked without.
    perm = data.draw(st.permutations(range(g.n)))
    order = data.draw(st.permutations(g.edges))
    h = MultiGraph(g.n, [(perm[u], perm[v]) for u, v in order])
    assert oracle_flow(h) == oracle_flow(g)
    g, h = (MultiGraph(x.n, [(u, v) for u, v in x.edges if u != v]) for x in (g, h))
    assert oracle_chromatic(h) == oracle_chromatic(g)


@SETTINGS
@given(small_graphs())
def test_flow_ignores_vertex_labels_of_isolates(g):
    padded = MultiGraph(g.n + 2, list(g.edges))
    assert oracle_flow(padded) == oracle_flow(g)
    assert oracle_chromatic(padded) == oracle_chromatic(g) * T**2
