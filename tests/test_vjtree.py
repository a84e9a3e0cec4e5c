"""Vertex join tree chromatic polynomial tests.

The sweeps are checked against frozen closed forms and against the
deletion-contraction oracle on realized multigraphs; the production
path (bricks, closed forms and the heavy-path sweep) is also checked
against the reference sweep.
"""

from __future__ import annotations

import pickle
import random
from copy import deepcopy
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromaflow import vjtree
from chromaflow.errors import InvalidTree, InvalidVertex
from chromaflow.generators import (
    fan_polygon,
    random_caterpillar,
    random_vjtree,
    shuffle_labels,
    triangulated_polygon,
)
from chromaflow.multigraph import MultiGraph
from chromaflow.oracle import oracle_chromatic, oracle_flow
from chromaflow.outerplanar import build_dual, find_outer_cycle, flow_outerplanar
from chromaflow.polyring import IntPoly, T, chromatic_cycle, cycle_quotient
from chromaflow.vjtree import (
    Brick,
    Bricks,
    VertexJoinTree,
    build_leveled,
    chromatic_vjtree,
    heavy_path_sweep,
    reduce_multiplicities,
    split_bricks,
    strip_bridges,
    sweep,
)

SETTINGS = settings(max_examples=60, deadline=None)
TM1 = IntPoly((-1, 1))
TM2 = IntPoly((-2, 1))


def path3(mult):
    return VertexJoinTree(3, ((0, 1), (1, 2)), mult)


def test_constructor_validation():
    with pytest.raises(InvalidTree):
        VertexJoinTree(3, ((0, 1),), {})  # too few edges
    with pytest.raises(InvalidTree):
        VertexJoinTree(3, ((0, 1), (0, 1)), {})  # cycle / parallel
    with pytest.raises(InvalidTree):
        VertexJoinTree(2, ((0, 0),), {})  # loop
    with pytest.raises(InvalidVertex):
        VertexJoinTree(2, ((0, 3),), {})
    with pytest.raises(InvalidVertex):
        VertexJoinTree(2, ((0, 1),), {5: 1})


def test_mult_is_read_only_and_trees_hash_like_they_compare():
    # A multiplicity cannot be changed after the checks, so a zero can
    # never leave a vertex in support; equal trees hash alike.
    t = path3({2: 1, 0: 2})
    with pytest.raises(TypeError):
        t.mult[0] = 0
    with pytest.raises(TypeError):
        del t.mult[2]
    assert t.support == (0, 2) and t.mult == {0: 2, 2: 1}
    same, other = path3({0: 2, 2: 1}), path3({0: 1, 2: 1})
    assert t == same and hash(t) == hash(same) and t != other
    assert {t, same, other} == {t, other} and same in {t}
    assert pickle.loads(pickle.dumps(t)) == deepcopy(t) == t


def test_realize_shape():
    t = path3({0: 2, 2: 1})
    g = t.realize()
    assert g.n == 4  # apex appended as the last vertex
    assert sorted(g.edges) == [(0, 1), (0, 3), (0, 3), (1, 2), (2, 3)]


def test_reduce_multiplicities():
    t = VertexJoinTree(2, ((0, 1),), {0: 3})
    assert reduce_multiplicities(t).mult == {0: 1}
    t = path3({})
    assert reduce_multiplicities(t).mult == {}
    t = path3({1: 1})
    assert reduce_multiplicities(t).mult == {1: 1}


def test_small_s_closed_forms():
    # no joins: tree plus isolated apex
    assert chromatic_vjtree(VertexJoinTree(4, ((0, 1), (1, 2), (2, 3)), {})) == (
        T**2 * TM1**3
    )
    # one join: the apex is a pendant vertex
    assert chromatic_vjtree(VertexJoinTree(4, ((0, 1), (1, 2), (2, 3)), {1: 1})) == (
        T * TM1**4
    )
    # two joins close a cycle through the apex
    assert chromatic_vjtree(path3({0: 1, 2: 1})) == chromatic_cycle(4)
    # a long path, s = 0 and s = 1
    n = 2000
    path = tuple((i, i + 1) for i in range(n - 1))
    assert chromatic_vjtree(VertexJoinTree(n, path, {})) == T**2 * TM1 ** (n - 1)
    assert chromatic_vjtree(VertexJoinTree(n, path, {n // 2: 3})) == T * TM1**n


def test_long_bridged_tail():
    # An edge joined at both ends closes a triangle with the apex; the
    # 3000-vertex unjoined path hanging off it is 3000 bridges.
    n = 3002
    t = VertexJoinTree(n, tuple((i, i + 1) for i in range(n - 1)), {0: 1, 1: 1})
    expected = T * TM1 * TM2 * TM1**3000
    assert chromatic_vjtree(t) == expected


def test_strip_bridges_cases():
    # both joined endpoints of a path: every edge lies on a cycle through the apex
    red = strip_bridges(path3({0: 1, 2: 1}))
    assert red.b == 0 and red.core.n == 3
    # pendant past the joined span hangs off every cycle
    red = strip_bridges(VertexJoinTree(4, ((0, 1), (1, 2), (2, 3)), {0: 1, 2: 1}))
    assert red.b == 1
    assert red.core.tree_edges == ((0, 1), (1, 2))
    # star with one unjoined leaf
    star = VertexJoinTree(4, ((0, 1), (0, 2), (0, 3)), {1: 1, 2: 1})
    red = strip_bridges(star)
    assert red.b == 1 and red.core.n == 3 and red.core.mult == {1: 1, 2: 1}


def test_strip_bridges_one_join():
    # With one joined vertex no tree edge lies on a cycle: the core is
    # that vertex alone and every edge is a bridge.
    rng = random.Random(99)
    for n in (1, 2, 5, 12):
        edges = tuple((rng.randrange(i), i) for i in range(1, n))
        v = rng.randrange(n)
        red = strip_bridges(VertexJoinTree(n, edges, {v: 3}))
        assert red.b == n - 1
        assert red.core == VertexJoinTree(1, (), {0: 3})


def test_strip_bridges_needs_a_joined_vertex():
    with pytest.raises(InvalidTree):
        strip_bridges(path3({}))
    with pytest.raises(InvalidTree):
        strip_bridges(VertexJoinTree(1, (), {}))
    for mult in ({0: 1}, {1: 2}, {0: 1, 2: 1}, {0: 1, 1: 1, 2: 1}):
        strip_bridges(path3(mult))


def test_build_leveled_paths_and_star():
    lt = build_leveled(path3({0: 1, 2: 1}))
    assert lt.root == 0
    assert lt.level == {0: 0, 1: 1, 2: 2}
    star = VertexJoinTree(4, ((0, 1), (0, 2), (0, 3)), {1: 1, 2: 1, 3: 1})
    lt = build_leveled(star)
    assert lt.root == 1
    assert lt.level == {1: 0, 0: 1, 2: 2, 3: 2}
    single = VertexJoinTree(1, (), {0: 2})
    assert build_leveled(single).root == 0


def test_sweep_frozen_values():
    fan = path3({0: 1, 1: 1, 2: 1})
    lt = build_leveled(fan)
    assert sweep(lt, fan) == T * TM1 * TM2**2
    square = path3({0: 1, 2: 1})
    assert sweep(build_leveled(square), square) == chromatic_cycle(4)
    two_cycle = VertexJoinTree(1, (), {0: 2})
    assert sweep(build_leveled(two_cycle), two_cycle) == T * TM1


def test_sweep_leaves_leveled_tree_unchanged():
    fan = path3({0: 1, 1: 1, 2: 1})
    lt = build_leveled(fan)
    assert [f.name for f in fields(lt)] == ["root", "level", "children", "parent"]
    before = deepcopy(lt)
    assert sweep(lt, fan) == sweep(lt, fan) == T * TM1 * TM2**2
    assert lt == before


def test_chromatic_vjtree_frozen():
    # bridge factor times a 4-cycle
    t = VertexJoinTree(4, ((0, 1), (1, 2), (2, 3)), {0: 1, 2: 1})
    assert chromatic_vjtree(t) == TM1 * chromatic_cycle(4)
    assert chromatic_vjtree(VertexJoinTree(1, (), {})) == T**2
    star = VertexJoinTree(4, ((0, 1), (0, 2), (0, 3)), {1: 1, 2: 1, 3: 1})
    assert chromatic_vjtree(star) == oracle_chromatic(star.realize())


def test_multiplicity_invariance():
    t = path3({0: 3, 2: 2})
    assert chromatic_vjtree(t) == chromatic_vjtree(reduce_multiplicities(t))


def test_root_independence():
    t = VertexJoinTree(6, ((0, 1), (1, 2), (2, 3), (2, 4), (4, 5)), {1: 1, 3: 2, 5: 1})
    red = strip_bridges(reduce_multiplicities(t))
    expected = None
    for root in range(red.core.n):
        lt = build_leveled(red.core, root=root)
        got = sweep(lt, red.core)
        if expected is None:
            expected = got
        assert got == expected


@SETTINGS
@given(st.integers(0, 10**9))
def test_oracle_equivalence_random(seed):
    rng = random.Random(seed)
    t = random_vjtree(rng, n_max=7, mult_max=3)
    assert chromatic_vjtree(t) == oracle_chromatic(t.realize())


@SETTINGS
@given(st.integers(0, 10**9))
def test_output_shape_random(seed):
    rng = random.Random(seed)
    t = random_vjtree(rng, n_max=8, mult_max=3)
    p = chromatic_vjtree(t)
    assert p.degree == t.n + 1
    assert p.coeffs[-1] == 1
    assert p.coeffs[0] == 0  # zero constant term
    signs = [c for c in p.coeffs if c]
    for lo, hi in zip(signs, signs[1:]):
        assert (lo > 0) != (hi > 0)  # strictly alternating
    assert p.evaluate(0) == 0
    if t.realize().m:
        assert p.evaluate(1) == 0


def star(leaves, rng):
    """Unjoined centre 0 with at least two joined leaves."""
    joined = rng.sample(range(1, leaves + 1), rng.randint(2, leaves))
    edges = tuple((0, v) for v in range(1, leaves + 1))
    return VertexJoinTree(leaves + 1, edges, {v: 1 for v in joined})


def sweeps_agree(t):
    """Production path and reference sweep on the stripped core; False if there is none."""
    if len(t.mult) < 2:
        return False
    red = strip_bridges(reduce_multiplicities(t))
    assert chromatic_vjtree(t) == sweep(build_leveled(red.core), red.core) * TM1**red.b
    return True


def test_heavy_path_sweep_matches_reference_and_oracle():
    # Small trees and stars also go to the oracle.  Caterpillars have
    # joined and unjoined heavy children along the spine; stars hang
    # every leaf but one off the root's unjoined heavy child.
    rng = random.Random(2026)
    small = [random_vjtree(rng, n_max=9, mult_max=2) for _ in range(200)]
    small += [star(rng.randint(2, 7), rng) for _ in range(20)]
    swept = 0
    for t in small:
        swept += sweeps_agree(t)
        assert chromatic_vjtree(t) == oracle_chromatic(t.realize())
    large = [random_caterpillar(rng, n) for n in (200, 301, 400)]
    large += [star(300, rng)]
    for n in (250, 400):
        edges = tuple((rng.randrange(i), i) for i in range(1, n))
        large.append(VertexJoinTree(n, edges, {v: 1 for v in rng.sample(range(n), n // 10)}))
    for t in large:
        assert sweeps_agree(t)
    assert swept > 100


def test_heavy_path_sweep_needs_joined_leaves():
    (brick,) = split_bricks(path3({0: 1})).branching
    with pytest.raises(InvalidTree):
        heavy_path_sweep(brick)


def no_sweep(brick):
    raise AssertionError(f"swept {brick}")


def test_one_edge_and_path_bricks_are_closed_forms(monkeypatch):
    monkeypatch.setattr(vjtree, "heavy_path_sweep", no_sweep)
    edge = VertexJoinTree(2, ((0, 1),), {0: 1, 1: 2})
    assert split_bricks(edge) == Bricks([1], [])
    assert chromatic_vjtree(edge) == T * TM1 * TM2
    for m in range(2, 12):
        path = VertexJoinTree(m + 1, tuple((i, i + 1) for i in range(m)), {0: 1, m: 1})
        assert split_bricks(path) == Bricks([m], [])
        assert chromatic_vjtree(path) == T * TM1 * cycle_quotient(m + 1)
        assert chromatic_vjtree(path) == chromatic_cycle(m + 2)
    # All joined: every edge is a brick of its own, one (t-2)^(n-1) row.
    n = 500
    path = VertexJoinTree(n, tuple((i, i + 1) for i in range(n - 1)), {v: 1 for v in range(n)})
    assert split_bricks(path) == Bricks([1] * (n - 1), [])
    assert chromatic_vjtree(path) == T * TM1 * TM2 ** (n - 1)


def test_branching_bricks_run_the_sweep(monkeypatch):
    swept = []

    def recording(brick):
        swept.append(brick)
        return heavy_path_sweep(brick)

    monkeypatch.setattr(vjtree, "heavy_path_sweep", recording)
    # A star with an unjoined centre is one brick with three leaves.
    star = VertexJoinTree(4, ((0, 1), (0, 2), (0, 3)), {1: 1, 2: 1, 3: 1})
    assert split_bricks(star) == Bricks([], [Brick((-1,), (3,))])
    assert chromatic_vjtree(star) == oracle_chromatic(star.realize())
    assert swept == [Brick((-1,), (3,))]
    # Joined 0 of degree 3 is a leaf of three bricks: the path 0-1-2, the
    # edge 0-3 and the star of unjoined 4 with leaves 0, 5 and 6.
    swept.clear()
    t = VertexJoinTree(7, ((0, 1), (1, 2), (0, 3), (0, 4), (4, 5), (4, 6)),
                       {0: 1, 2: 1, 3: 1, 5: 1, 6: 1})
    assert split_bricks(t) == Bricks([2, 1], [Brick((-1,), (3,))])
    expected = T * TM1 * TM2 * cycle_quotient(3) * ((TM2**3) + TM1**2)
    assert chromatic_vjtree(t) == expected == oracle_chromatic(t.realize())
    assert swept == [Brick((-1,), (3,))]


def test_bricks_match_reference_on_random_corpus():
    rng = random.Random(1968)
    compared = 0
    while compared < 3000:
        t = random_vjtree(rng, n_max=rng.choice((8, 16, 40)), mult_max=3)
        p = chromatic_vjtree(t)
        compared += sweeps_agree(t)
        if t.n <= 6:
            assert p == oracle_chromatic(t.realize())


def test_flow_of_triangulated_polygons():
    # Duals of triangulations are trees of triangles: bricks are mostly
    # single edges, with branching bricks at the inner triangles.  The
    # oracle gets the graph in polygon order, where its recursion stays
    # small on fans and on random triangulations up to about 24
    # vertices; larger random ones go to the reference sweep.
    rng = random.Random(2015)
    for n in range(3, 65):
        edges = fan_polygon(n)
        assert flow_outerplanar(shuffle_labels(rng, n, edges)) == oracle_flow(
            MultiGraph(n, edges), force=True)
        edges = triangulated_polygon(rng, n)
        got = flow_outerplanar(shuffle_labels(rng, n, edges))
        if n <= 20:
            assert got == oracle_flow(MultiGraph(n, edges), force=True)
        dual = build_dual(find_outer_cycle(MultiGraph(n, edges)))
        if n > 3:
            red = strip_bridges(dual)
            assert T * got == sweep(build_leveled(red.core), red.core) * TM1**red.b
