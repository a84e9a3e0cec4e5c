"""Outerplanar recognition, dual-tree construction, and flow polynomials."""

from __future__ import annotations

import importlib.util
import pickle
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromaflow import cli, outerplanar, vjtree
from chromaflow.errors import NotBiconnected, NotOuterplanar
from chromaflow.generators import (fan_polygon, random_outerplanar, random_outerplanar_block,
                                   shuffle_labels, triangulated_polygon)
from chromaflow.multigraph import MultiGraph, _adjacency, _walk_blocks
from chromaflow.oracle import oracle_flow
from chromaflow.outerplanar import (OuterCycle, _certify, _reject_crossing_chords, _shorten, build_dual,
                                    find_outer_cycle, flow_outerplanar)
from chromaflow.polyring import IntPoly, T, ZERO, balanced_product, linear_power
from chromaflow.vjtree import chromatic_vjtree

SETTINGS = settings(max_examples=60, deadline=None)
TM1 = IntPoly((-1, 1))


def cycle(n):
    return MultiGraph(n, [(i, (i + 1) % n) for i in range(n)])


def wheel4():
    rim = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return MultiGraph(5, rim + [(i, 4) for i in range(4)])


def test_find_outer_cycle_plain_cycle():
    oc = find_outer_cycle(cycle(5))
    assert oc.order == (0, 1, 2, 3, 4)
    assert oc.chord_set == ()
    assert all(k == 1 for k in oc.parallel_count.values())


def test_find_outer_cycle_square_with_diagonal():
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    oc = find_outer_cycle(g)
    assert oc.order == (0, 1, 2, 3)
    assert oc.chord_set == ((0, 2),)


def test_parallel_count_is_read_only_and_certificates_hash_like_they_compare():
    # The counts cannot be changed through the certificate, nor through
    # the mapping it was built from; equal certificates hash alike.
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 2)]
    oc = find_outer_cycle(MultiGraph(4, edges))
    with pytest.raises(TypeError):
        oc.parallel_count[(1, 2)] = 1
    counts = Counter(edges)
    built = OuterCycle(oc.order, oc.chord_set, counts, oc.intervals)
    counts[(0, 1)] += 5
    assert oc.parallel_count == built.parallel_count == Counter(edges)
    assert oc == built and hash(oc) == hash(built) and len({oc, built}) == 1
    assert oc != find_outer_cycle(MultiGraph(4, edges[:-1]))
    assert pickle.loads(pickle.dumps(oc)) == oc


def test_find_outer_cycle_rejections():
    k4 = MultiGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    with pytest.raises(NotOuterplanar):
        find_outer_cycle(k4)
    bowtie = MultiGraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    with pytest.raises(NotBiconnected):
        find_outer_cycle(bowtie)
    path = MultiGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(NotBiconnected):
        find_outer_cycle(path)
    two_parts = MultiGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(NotBiconnected):
        find_outer_cycle(two_parts)


def norm(u, v):
    return (u, v) if u <= v else (v, u)


def test_certificate_follows_the_graph_not_the_labels():
    # The certificate depends on the graph alone, whatever the vertex
    # labels and hence the order in which degree-2 vertices are peeled;
    # two crossing chords always make it fail.
    rng = random.Random(20141)
    for _ in range(300):
        edges = random_outerplanar_block(rng, n_max=rng.choice([8, 30, 120]), mult_max=3)
        n = max(max(e) for e in edges) + 1
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = [norm(perm[u], perm[v]) for u, v in edges]
        rng.shuffle(relabelled)
        oc = find_outer_cycle(MultiGraph(n, relabelled))
        assert oc.parallel_count == Counter(relabelled)
        if n == 2:
            assert oc.order == (0, 1) and oc.chord_set == ()
            continue
        sides = {norm(perm[i], perm[(i + 1) % n]) for i in range(n)}
        assert {norm(u, oc.order[i - 1]) for i, u in enumerate(oc.order)} == sides
        assert oc.chord_set == tuple(sorted(set(relabelled) - sides))
        if n >= 4:
            i, k, j, l = sorted(rng.sample(range(n), 4))
            order = oc.order
            crossed = relabelled + [norm(order[i], order[j]), norm(order[k], order[l])]
            with pytest.raises(NotOuterplanar):
                find_outer_cycle(MultiGraph(n, crossed))


def test_long_shuffled_polygon():
    # Every vertex has degree 2, so the peeling stack holds the whole cycle.
    rng = random.Random(3000)
    n = 3000
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    rng.shuffle(edges)
    assert flow_outerplanar(MultiGraph(n, edges)) == TM1


def test_build_dual_shapes():
    dual = build_dual(find_outer_cycle(cycle(6)))
    assert dual.n == 1 and dual.mult == {0: 6}
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    dual = build_dual(find_outer_cycle(g))
    assert dual.n == 2
    assert dual.tree_edges == ((0, 1),)
    assert dual.mult == {0: 2, 1: 2}


def test_build_dual_banana():
    banana = MultiGraph(2, [(0, 1)] * 3)
    dual = build_dual(find_outer_cycle(banana))
    assert dual.n == 2 and dual.tree_edges == ((0, 1),)
    assert chromatic_vjtree(dual).exact_div(T) == oracle_flow(banana)


def test_build_dual_bundles_frozen():
    # A bundle of k copies grows a path of k - 1 two-sided faces.  The
    # side bundles' faces are numbered first, in the order of the sides,
    # then the chord bundles' in the order of the chords; the chord
    # dual edges come first in tree_edges, the side paths after them.
    square = [(0, 1), (1, 2), (2, 3), (3, 0)]
    hexagon = [(i, (i + 1) % 6) for i in range(6)]
    cases = [
        (4, square + [(0, 1)] * 2, 3, ((0, 1), (1, 2)), {0: 3, 2: 1}),
        (4, square + [(0, 2)] * 2, 3, ((0, 2), (2, 1)), {0: 2, 1: 2}),
        (6, hexagon + [(0, 4), (1, 3), (1, 3), (0, 1), (4, 5)],
         6, ((0, 1), (1, 5), (5, 2), (1, 3), (0, 4)), {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}),
    ]
    for n, edges, faces, tree_edges, mult in cases:
        g = MultiGraph(n, edges)
        dual = build_dual(find_outer_cycle(g))
        assert (dual.n, dual.tree_edges, dual.mult) == (faces, tree_edges, mult)
        assert chromatic_vjtree(dual).exact_div(T) == oracle_flow(g)


def test_flow_frozen_values():
    assert flow_outerplanar(MultiGraph(4, [(0, 1), (1, 2), (2, 3)])) == ZERO
    assert flow_outerplanar(cycle(4)) == TM1
    assert flow_outerplanar(MultiGraph(2, [(0, 1), (0, 1)])) == TM1
    # pure loops and disconnected cycles both factor per component
    assert flow_outerplanar(MultiGraph(1, [(0, 0), (0, 0)])) == TM1**2
    c3_c4 = MultiGraph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
    assert flow_outerplanar(c3_c4) == TM1**2
    assert flow_outerplanar(MultiGraph(3, [])) == IntPoly((1,))
    # blocks sharing a cut vertex multiply
    bowtie = MultiGraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert flow_outerplanar(bowtie) == TM1**2
    chain = MultiGraph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2),
                           (4, 5), (5, 6), (6, 4)])
    assert flow_outerplanar(chain) == TM1**3


def test_one_product_per_graph(monkeypatch):
    # Every block's factors and the loops' row meet in one balanced
    # product: no product per block, and no leading t to slice off.
    calls = []

    def counting(factors):
        calls.append(factors)
        return balanced_product(factors)

    # The block duals below have no branching brick, so vjtree takes no
    # product of its own either.
    monkeypatch.setattr(outerplanar, "_product", counting)
    monkeypatch.setattr(vjtree, "balanced_product", counting)
    # Three blocks at cut vertices 2 and 4: a triangle with a doubled
    # side, a square with a chord and a digon, plus a loop at 0.
    g = MultiGraph(7, [(0, 1), (1, 2), (2, 0), (0, 1), (2, 3), (3, 4), (4, 5), (5, 2), (2, 4),
                       (4, 6), (6, 4), (0, 0)])
    assert len(g.blocks()) == 3
    assert flow_outerplanar(g) == oracle_flow(g)
    assert len(calls) == 1
    fan = MultiGraph(8, fan_polygon(8) + [(0, 1)])
    assert flow_outerplanar(fan) == oracle_flow(fan, force=True)
    assert len(calls) == 2


def test_wheel_is_not_outerplanar():
    w4 = wheel4()
    with pytest.raises(NotOuterplanar):
        flow_outerplanar(w4)
    assert oracle_flow(w4) == IntPoly((14, -31, 24, -8, 1))  # (t-2)^4 + (t-2)


def test_bridge_makes_flow_zero():
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert flow_outerplanar(g) == ZERO


@SETTINGS
@given(st.integers(0, 10**9))
def test_oracle_equivalence_random(seed):
    rng = random.Random(seed)
    g = random_outerplanar(rng, n_max=9, mult_max=3, max_loops=2, p_glued=0.5)
    assert flow_outerplanar(g) == oracle_flow(g)


@SETTINGS
@given(st.integers(0, 10**9))
def test_oracle_equivalence_with_bridges(seed):
    rng = random.Random(seed)
    g = random_outerplanar(rng, n_max=8, mult_max=2, with_bridge=True)
    assert flow_outerplanar(g) == ZERO
    assert oracle_flow(g) == ZERO


@SETTINGS
@given(st.integers(0, 10**9))
def test_parity_law(seed):
    rng = random.Random(seed)
    g = random_outerplanar(rng, n_max=8, mult_max=3, max_loops=2, p_glued=0.5)
    even = all(d % 2 == 0 for d in g.degrees())
    expect = 1 if even and not g.bridges() else 0
    assert flow_outerplanar(g).evaluate(2) == expect


@SETTINGS
@given(st.integers(0, 10**9))
def test_euler_face_count(seed):
    rng = random.Random(seed)
    edges = random_outerplanar_block(rng, n_max=9, mult_max=3)
    n = max(max(e) for e in edges) + 1
    g = MultiGraph(n, edges)
    dual = build_dual(find_outer_cycle(g))
    assert dual.n == g.m - g.n + 1


@SETTINGS
@given(st.integers(0, 10**9))
def test_simple_dual_degrees(seed):
    # simple biconnected blocks: every dual vertex, apex included, has
    # degree at least 3
    rng = random.Random(seed)
    edges = random_outerplanar_block(rng, n_max=9, mult_max=1, p_parallel=0.0)
    n = max(max(e) for e in edges) + 1
    if n < 3:
        return
    dual = build_dual(find_outer_cycle(MultiGraph(n, edges)))
    tree_deg = {v: 0 for v in range(dual.n)}
    for a, b in dual.tree_edges:
        tree_deg[a] += 1
        tree_deg[b] += 1
    for v in range(dual.n):
        assert tree_deg[v] + dual.mult.get(v, 0) >= 3
    assert sum(dual.mult.values()) >= 3


def _block_graph(g, block):
    # The block's vertex count and edges, renumbered 0..k-1 in sorted
    # order, as flow_outerplanar built them before blocks came in
    # discovery labels.
    edges = [g.edges[e] for e in block]
    vertices = sorted({x for e in edges for x in e})
    if len(vertices) == g.n:
        return g.n, edges
    index = {v: i for i, v in enumerate(vertices)}
    return len(index), [(index[u], index[v]) for u, v in edges]


def _sorted_label_flow(g):
    # flow_outerplanar's route before discovery labels: blocks() by edge
    # id, each block renumbered in sorted order, one multiply per block.
    blocks = g.blocks()
    if any(len(block) == 1 for block in blocks):
        return ZERO
    result = linear_power(1, sum(1 for u, v in g.edges if u == v))
    for block in blocks:
        n, edges = _block_graph(g, block)
        dual = build_dual(_certify(n, edges, range(n)))
        result = result * IntPoly(chromatic_vjtree(dual).coeffs[1:])
    return result


def _part(rng):
    # One block: outerplanar most of the time, else a triangulated
    # polygon with one more chord (which must cross one) or a
    # subdivided K_{2,3}.
    kind = rng.randrange(10)
    size = rng.randint(3, 24)
    if kind < 4:
        return random_outerplanar_block(rng, n_max=24, mult_max=3)
    if kind < 6:
        return triangulated_polygon(rng, size) + [(0, 1)] * rng.randint(0, 1)
    if kind < 8:
        return fan_polygon(size) + [(0, size - 1)] * rng.randint(0, 2)
    if kind == 8 and size >= 4:
        edges = triangulated_polygon(rng, size)
        present = {(min(e), max(e)) for e in edges}
        missing = [(i, j) for i in range(size) for j in range(i + 2, size) if (i, j) not in present]
        return edges + [rng.choice(missing)]
    # K_{2,3} with each of its three paths between 0 and 1 subdivided.
    edges, n = [], 2
    for _ in range(3):
        inner = list(range(n, n + rng.randint(1, 3)))
        n += len(inner)
        path = [0, *inner, 1]
        edges += list(zip(path, path[1:]))
    return edges


def _mixed_graph(rng, make_part=_part):
    # Blocks glued at cut vertices or set apart, with loops, isolated
    # vertices and now and then a bridge; labels and edges shuffled.
    edges, n = [], 0
    for _ in range(rng.randint(1, 4)):
        part = make_part(rng)
        size = 1 + max(max(e) for e in part)
        if n and rng.random() < 0.6:
            at = rng.randrange(n)
            edges += [(at if u == 0 else u - 1 + n, at if v == 0 else v - 1 + n) for u, v in part]
            n += size - 1
        else:
            edges += [(u + n, v + n) for u, v in part]
            n += size
    if rng.random() < 0.1:
        edges.append((rng.randrange(n), n))
        n += 1
    for _ in range(rng.randint(0, 2)):
        v = rng.randrange(n)
        edges.append((v, v))
    n += rng.randint(0, 2)
    return shuffle_labels(rng, n, edges)


def test_discovery_labels_match_sorted_labels():
    # flow_outerplanar certifies each block in DFS-discovery labels; the
    # polynomial, or the class of the rejection, must not depend on it.
    rng = random.Random(31415)
    blocks = rejected = 0
    for _ in range(2500):
        g = _mixed_graph(rng)
        blocks += len(g.blocks())
        try:
            expect = _sorted_label_flow(g)
        except NotOuterplanar as exc:
            rejected += 1
            with pytest.raises(type(exc)):
                flow_outerplanar(g)
            continue
        assert flow_outerplanar(g) == expect
    assert blocks >= 6000
    assert 300 <= rejected <= 1500


def test_not_outerplanar_names_input_vertices():
    # Messages name the graph's own vertex ids, whatever labels the
    # block was certified in.
    rng = random.Random(7)
    named_any = 0
    for _ in range(300):
        g = _mixed_graph(rng)
        try:
            flow_outerplanar(g)
        except NotOuterplanar as exc:
            named = [int(x) for x in re.findall(r"(?<![\w-])\d+", str(exc))]
            used = {x for u, v in g.edges if u != v for x in (u, v)}
            assert all(x in used for x in named)
            named_any += bool(named)
    assert named_any >= 10
    # K_{2,3} with its degree-3 vertices at 6 and 2 and three paths
    # through 0, 4 and 3-5: vertex 0, 4 or 3 cannot rejoin.
    k23 = MultiGraph(7, [(6, 0), (0, 2), (6, 4), (4, 2), (6, 3), (3, 5), (5, 2), (1, 1)])
    with pytest.raises(NotOuterplanar, match=r"^vertex [0345] cannot rejoin the cycle between "
                                             r"[0-6] and [0-6]$"):
        flow_outerplanar(k23)
    # The crossing-chord message names the chords' end vertices, not
    # their positions on the cycle.
    with pytest.raises(NotOuterplanar, match=r"^chords \(40, 20\) and \(30, 10\) cross$"):
        _reject_crossing_chords(((0, 2), (1, 3)), (4, 3, 2, 1), [0, 10, 20, 30, 40])


def _unshortened_flow(g):
    # flow_outerplanar's route before paths of degree-2 vertices were
    # shortened: the block walk, the certificate and the dual on g itself.
    blocks, order = _walk_blocks(g.adjacency(), True)
    if any(len(pairs) == 1 for _, pairs in blocks):
        return ZERO
    loops = g.m - sum(len(pairs) for _, pairs in blocks)
    factors = [linear_power(1, loops)] if loops else []
    label = [0] * g.n
    for times, pairs in blocks:
        for i, d in enumerate(times):
            label[d] = i
        edges = [(label[a], label[b]) for a, b in pairs]
        dual = build_dual(_certify(len(times), edges, [order[d] for d in times]))
        factors.append(IntPoly(chromatic_vjtree(dual).coeffs[1:]))
    return balanced_product(factors)


def _chain_part(rng):
    # A part whose edges each become, with chance one half, a path
    # through 1-8 new vertices: a K4 or a K_{2,3} (never outerplanar), a
    # loop (a cycle once subdivided, glued or a component of its own), a
    # digon, now and then a pendant edge (a chain ending at a degree-1
    # vertex), or a part of the mixed corpus.
    kind = rng.randrange(10)
    if kind == 0:
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    elif kind == 1:
        edges = [(a, b) for a in (0, 1) for b in (2, 3, 4)]
    elif kind == 2:
        edges = [(0, 0)]
    elif kind == 3:
        edges = [(0, 1), (0, 1)]
    elif kind == 4 and rng.random() < 0.3:
        edges = [(0, 1)]
    else:
        edges = _part(rng)
    n = 1 + max(max(e) for e in edges)
    out = []
    for u, v in edges:
        if rng.random() < 0.5:
            path = [u, *range(n, n + rng.randint(1, 8)), v]
            n += len(path) - 2
            out += zip(path, path[1:])
        else:
            out.append((u, v))
    return out


def test_shortened_paths_match_the_unshortened_route():
    # flow_outerplanar shortens every path of degree-2 vertices before the
    # block walk; the polynomial, or the class of the rejection, must be
    # that of the walk over the whole graph.
    rng = random.Random(2718)
    outcomes = Counter()
    for i in range(5000):
        g = _mixed_graph(rng, _chain_part if i % 2 else _part)
        shortened = _shorten(g.n, g.edges)[0] is not None
        try:
            expect = _unshortened_flow(g)
        except NotOuterplanar as exc:
            with pytest.raises(type(exc)):
                flow_outerplanar(g)
            outcomes[shortened, "rejected"] += 1
            continue
        assert flow_outerplanar(g) == expect
        outcomes[shortened, "zero" if expect.is_zero() else "flow"] += 1
    assert len(outcomes) == 6 and min(outcomes.values()) >= 100, outcomes


def test_gr_reader_and_shortening_agree_on_pairs_and_columns(tmp_path):
    # The .gr reader's graph must equal the library's graph of the same
    # edges, whichever order the file writes their ends in.  _shorten
    # must keep the same normalized edges whether it reads the
    # library's pairs or the file's own columns.
    rng = random.Random(1618)
    path = tmp_path / "g.gr"
    shortened = Counter()
    for i in range(2000):
        g = _mixed_graph(rng, _chain_part if i % 2 else _part)
        kept, names, _ = _shorten(g.n, g.edges)
        assert kept is None or tuple(kept) == MultiGraph(len(names), kept).edges
        shortened[kept is not None] += 1
        # Written with ends in either order, now and then with a comment
        # that sends the file through the line walk.
        lines = [f"p edge {g.n} {g.m}"]
        lines += [f"e {u + 1} {v + 1}" if rng.random() < 0.5 else f"e {v + 1} {u + 1}"
                  for u, v in g.edges]
        if i % 3 == 0:
            lines.insert(rng.randint(0, len(lines)), "# note")
        path.write_text("\n".join(lines) + "\n")
        parsed = cli.parse_gr_file(str(path))
        assert parsed == MultiGraph(parsed.n, parsed.edges) == g
        n, us, vs = cli._gr_columns(str(path))
        read = _shorten(n + 1, outerplanar._Columns(us, vs))[0]
        assert read == kept
    assert min(shortened[True], shortened[False]) >= 200, shortened


def _scaling_bench():
    path = Path(__file__).resolve().parent.parent / "scripts" / "scaling_bench.py"
    spec = importlib.util.spec_from_file_location("scaling_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shortening_at_scale_and_its_absence(monkeypatch):
    built = []
    walked = []

    def adjacency(n, pairs):
        built.append((n, pairs))
        return _adjacency(n, pairs)

    def walk_blocks(adj, with_order):
        walked.append(adj)
        return _walk_blocks(adj, with_order)

    monkeypatch.setattr(outerplanar, "_adjacency", adjacency)
    monkeypatch.setattr(outerplanar, "_walk_blocks", walk_blocks)
    bench = _scaling_bench()
    rng = random.Random(2000)
    g = bench.chorded_polygon(rng, 2000)
    kept, names, ones = _shorten(g.n, g.edges)
    assert len(names) <= 100 and max(map(max, kept)) < len(names) and ones == 0
    assert flow_outerplanar(g) == _unshortened_flow(g)
    # No path of a fan or of a triangulated polygon has two inner
    # vertices, so _shorten keeps no edges and the block walk gets the
    # adjacency lists of the caller's own edges, with no copy of them.
    for g in (bench.fan(rng, 600), bench.triangulated(rng, 600)):
        kept, names, ones = _shorten(g.n, g.edges)
        assert kept is None and names is None and ones == 0
        built.clear()
        walked.clear()
        assert flow_outerplanar(g) == _unshortened_flow(g)
        assert len(built) == 1 and built[0][0] == g.n and built[0][1] is g.edges
        assert len(walked) == 1 and walked[0] == g.adjacency()
    # Loops, a triangle and a digon on their own leave only their (t - 1)
    # factors; two paths from vertex 3 back to itself become digons.
    g = MultiGraph(10, [(0, 1), (1, 2), (2, 0), (8, 8), (3, 3), (8, 9), (8, 9),
                        (3, 4), (4, 5), (5, 3), (3, 6), (6, 7), (7, 3)])
    kept, names, ones = _shorten(g.n, g.edges)
    assert sorted(kept) == [(0, 1), (0, 1), (0, 2), (0, 2)] and ones == 4
    assert names[0] == 3 and {names[1], names[2]} <= {4, 5, 6, 7}
    assert flow_outerplanar(g) == _unshortened_flow(g) == TM1**6


def test_loops_counted_once_when_nothing_is_shortened():
    # A fan, or a triangle with a doubled side, has no path with two
    # inner vertices, so _shorten keeps no edges and the graph's own
    # serve, loops and all; its count is the loops' only (t - 1)
    # factors.  A plain triangle is one cycle and is counted with them.
    rng = random.Random(4242)
    triangle = [(0, 1), (1, 2), (0, 2)]
    for n, base, cycles in [(3, triangle, 1), (3, triangle + [(0, 1)], 0),
                            *((n, fan_polygon(n), 0) for n in (4, 5, 6, 7))]:
        for loops in (1, 2, 3):
            g = shuffle_labels(rng, n, base + [(v, v) for v in rng.choices(range(n), k=loops)])
            kept, names, ones = _shorten(g.n, g.edges)
            assert ones == loops + cycles
            assert (kept is None and names is None) == (not cycles)
            assert flow_outerplanar(g) == oracle_flow(g, force=True)


@SETTINGS
@given(st.integers(0, 10**9))
def test_subdivided_sides_keep_the_flow_and_chords_break_it(seed):
    # A vertex inserted on a side lies on the outer face, so k of them
    # keep the block outerplanar and leave its flow alone; one inserted
    # on a chord makes a subdivided K_{2,3}.
    rng = random.Random(seed)
    edges = random_outerplanar_block(rng, n_max=30, mult_max=3)
    n = max(max(e) for e in edges) + 1
    flow = flow_outerplanar(MultiGraph(n, edges))
    sides = [e for e in edges if (e[1] - e[0]) % n in (1, n - 1)]
    chords = [e for e in edges if e not in sides]
    k = rng.randint(1, 8)
    u, v = rng.choice(sides)
    rest = list(edges)
    rest.remove((u, v))
    path = [u, *range(n, n + k), v]
    assert flow_outerplanar(shuffle_labels(rng, n + k, rest + list(zip(path, path[1:])))) == flow
    if chords:
        u, v = rng.choice(chords)
        rest = list(edges)
        rest.remove((u, v))
        with pytest.raises(NotOuterplanar):
            flow_outerplanar(shuffle_labels(rng, n + 1, rest + [(u, n), (n, v)]))
