"""Closed forms for joined cliques and joined cycles (phi-string machinery)."""

from __future__ import annotations

import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromaflow import cli
from chromaflow.errors import InvalidSize, NoSpokes
from chromaflow.generators import random_phi
from chromaflow.multigraph import MultiGraph
from chromaflow.oracle import oracle_chromatic, oracle_flow
from chromaflow.polyring import IntPoly, T, ZERO, chromatic_complete, chromatic_cycle
from chromaflow.wheels import (
    PhiString,
    chromatic_clique_join,
    chromatic_wheel,
    chromatic_wheel_stepwise,
    chromatic_wheel_telescoped,
    face_sizes,
    flow_wheel,
    phi_dual,
)
from test_outerplanar import _scaling_bench

SETTINGS = settings(max_examples=60, deadline=None)
TM1 = IntPoly((-1, 1))
TM2 = IntPoly((-2, 1))

GOLDEN_IN = (1, 0, 1, 2, 0, 0, 1, 4, 0, 1, 1, 0, 3, 0, 0, 0)
GOLDEN_OUT = (2, 1, 0, 3, 1, 0, 0, 0, 2, 1, 2, 0, 0, 4)


def rotations(values):
    n = len(values)
    return {values[i:] + values[:i] for i in range(n)}


def test_phi_string_validation():
    with pytest.raises(InvalidSize):
        PhiString(())
    with pytest.raises(InvalidSize):
        PhiString((1, -1))
    phi = PhiString((2, 0, 1))
    assert phi.n == 3 and phi.s == 3


def test_phi_realize():
    g = PhiString((1, 0, 2)).realize()
    # 3-cycle, apex 3, one spoke to v0 and a doubled spoke to v2
    assert g.n == 4
    assert sorted(g.edges) == [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (2, 3)]


def test_phi_dual_golden_pair():
    assert phi_dual(PhiString(GOLDEN_IN)).values == GOLDEN_OUT


def test_phi_dual_all_ones_fixed_point():
    for n in range(1, 7):
        phi = PhiString((1,) * n)
        assert phi_dual(phi).values == phi.values


def test_phi_dual_no_spokes():
    with pytest.raises(NoSpokes):
        phi_dual(PhiString((0, 0, 0)))
    with pytest.raises(NoSpokes):
        face_sizes(PhiString((0,)))


@SETTINGS
@given(st.integers(0, 10**9))
def test_phi_dual_involution_and_counts(seed):
    rng = random.Random(seed)
    phi = random_phi(rng, n_max=10, a_max=4)
    dual = phi_dual(phi)
    assert dual.n == phi.s
    assert dual.s == phi.n
    back = phi_dual(dual)
    assert back.values in rotations(phi.values)


def test_face_sizes_examples():
    assert face_sizes(PhiString((1, 1, 1, 1))).face_sizes == (3, 3, 3, 3)
    fd = face_sizes(PhiString((2, 0, 0)))
    assert len(fd.face_sizes) == 2
    assert all(f >= 1 for f in fd.face_sizes)
    # faces are the dual string plus 2 elementwise
    dual = phi_dual(PhiString((2, 0, 0)))
    assert fd.face_sizes == tuple(a + 2 for a in dual.values)


def test_clique_join_frozen():
    assert chromatic_clique_join(3, {1: 1, 2: 1}) == T * TM1 * TM2**2
    assert chromatic_clique_join(2, {}) == T**2 * TM1
    assert chromatic_clique_join(4, {0: 1, 1: 1, 2: 1, 3: 1}) == chromatic_complete(5)
    # repeated joins collapse to the underlying set
    assert chromatic_clique_join(4, {1: 3, 2: 2}) == chromatic_clique_join(
        4, {1: 1, 2: 1}
    )
    with pytest.raises(InvalidSize):
        chromatic_clique_join(0, {})


def test_clique_join_oracle_exhaustive():
    for n in range(1, 6):
        for r in range(n + 1):
            for subset in itertools.combinations(range(n), r):
                mult = {v: 1 for v in subset}
                edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
                edges += [(v, n) for v in subset]
                got = chromatic_clique_join(n, mult)
                assert got == oracle_chromatic(MultiGraph(n + 1, edges))


def test_wheel_frozen_values():
    w4 = PhiString((1, 1, 1, 1))
    expect = T * (TM2**4 + TM2)
    assert chromatic_wheel_telescoped(w4) == expect
    assert chromatic_wheel_stepwise(w4) == expect
    assert chromatic_wheel(w4) == expect
    fan = PhiString((1, 0, 1))
    assert chromatic_wheel_telescoped(fan) == oracle_chromatic(fan.realize())
    assert chromatic_wheel(fan) == oracle_chromatic(fan.realize())
    # degenerate spoke counts
    for route in (chromatic_wheel_telescoped, chromatic_wheel):
        assert route(PhiString((0, 0, 0))) == T * chromatic_cycle(3)
        assert route(PhiString((1, 0, 0))) == TM1 * chromatic_cycle(3)
        assert route(PhiString((2,))) == ZERO  # a loop at v0


def test_wheel_doubled_multiplicities():
    phi = PhiString((2, 0, 4, 2))
    reduced = PhiString((1, 0, 1, 1))
    assert chromatic_wheel_telescoped(phi) == chromatic_wheel_telescoped(reduced)
    assert chromatic_wheel_stepwise(phi) == chromatic_wheel_stepwise(reduced)
    assert chromatic_wheel(phi) == chromatic_wheel(reduced)


def test_wheel_oracle_exhaustive_small():
    for n in range(1, 5):
        for values in itertools.product(range(3), repeat=n):
            phi = PhiString(values)
            expect = oracle_chromatic(phi.realize())
            assert chromatic_wheel_telescoped(phi) == expect
            assert chromatic_wheel_stepwise(phi) == expect
            assert chromatic_wheel(phi) == expect


def test_flow_wheel_frozen():
    assert flow_wheel(PhiString((1, 1, 1, 1))) == TM2**4 + TM2
    assert flow_wheel(PhiString((0, 0))) == TM1  # cycle plus isolated apex
    assert flow_wheel(PhiString((1, 0, 0))) == ZERO  # lone spoke is a bridge
    phi = PhiString((2, 0))
    assert flow_wheel(phi) == oracle_flow(phi.realize())


def test_flow_wheel_duality_identity():
    for values in ((1, 1, 1), (2, 1, 0, 2), (3, 0, 0, 1)):
        phi = PhiString(values)
        assert flow_wheel(phi) * T == chromatic_wheel_telescoped(phi_dual(phi))


@SETTINGS
@given(st.integers(0, 10**9))
def test_wheel_oracle_random(seed):
    rng = random.Random(seed)
    phi = random_phi(rng, n_max=7, a_max=3)
    expect = oracle_chromatic(phi.realize())
    assert chromatic_wheel_telescoped(phi) == expect
    assert chromatic_wheel_stepwise(phi) == expect
    assert chromatic_wheel(phi) == expect


@SETTINGS
@given(st.integers(0, 10**9))
def test_flow_wheel_oracle_random(seed):
    rng = random.Random(seed)
    phi = random_phi(rng, n_max=5, a_max=2, require_spokes=True)
    assert flow_wheel(phi) == oracle_flow(phi.realize())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_wheel_long_random_matches_telescoped(seed):
    rng = random.Random(seed)
    phi = PhiString(tuple(rng.choice((0, 0, 1, 1, 2)) for _ in range(rng.randint(50, 70))))
    assert chromatic_wheel(phi) == chromatic_wheel_telescoped(phi)
    if phi.s > 1:
        assert flow_wheel(phi) * T == chromatic_wheel_telescoped(phi_dual(phi))


def _transfer_count(values, t):
    # W(t) = P(t) / t at an integer t by the three-state transfer around
    # the cycle (Biggs-Damerell-Sands): states X (apex colour), Y (v0's
    # colour) and Z (another colour); a joined vertex cannot be X.  An
    # unjoined v0 may also take the apex colour: two states, on or off it.
    x, y, z = 0, 1, 0
    for a in values[1:]:
        x, y, z = 0 if a else y + z, x + z, (t - 2) * (x + y) + (t - 3) * z
    total = (t - 1) * (x + z)
    if not values[0]:
        on_apex, off_apex = 1, 0
        for a in values[1:]:
            on_apex, off_apex = 0 if a else off_apex, (t - 1) * on_apex + (t - 2) * off_apex
        total += off_apex
    return total


def test_long_random_wheel_counts_colourings():
    rng = random.Random(2024)
    values = tuple(rng.randint(0, 1) for _ in range(2000))
    for phi in (PhiString((0, *values)), PhiString((1, *values))):
        poly = chromatic_wheel(phi)
        for t in (3, 4, 7):
            assert poly.evaluate(t) == t * _transfer_count(phi.values, t)
        assert flow_wheel(phi) * T == chromatic_wheel(phi_dual(phi))


def test_plain_wheel_512():
    # The telescoped route takes minutes here; the face product is one
    # binomial row, (t - 2)^n, plus (-1)^n (t - 2).
    n = 512
    flow = TM2**n + TM2 * (-1) ** n
    phi = PhiString((1,) * n)
    assert chromatic_wheel(phi) == T * flow
    assert flow_wheel(phi) == flow


def test_scaling_bench_flow_wheel_at_tiny_sizes(monkeypatch, tmp_path, capsys):
    # The flow-wheel family's strings hold entries 0 to 3 and stop short
    # of the command line's spoke limit; each row times flow_wheel and
    # `flow wheel` on the same string.
    bench = _scaling_bench()
    rng = random.Random(5)
    assert bench.spoked_wheel(rng, 16).n == 16
    phi = bench.spoked_wheel(rng, 4096)
    assert set(phi.values) <= {0, 1, 2, 3} and phi.n < 4096
    assert cli.MAX_PHI_TOTAL - 3 < phi.s <= cli.MAX_PHI_TOTAL
    assert cli.run(bench.flow_wheel_argv(phi, str(tmp_path))) == 0
    capsys.readouterr()

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["scaling_bench.py", "--family", "flow-wheel",
                                      "--sizes", "4,16", "--seed", "3", "--json"])
    bench.main()
    assert len(capsys.readouterr().out.splitlines()) == 3
    rows = json.loads((tmp_path / "BENCH_scaling-flow-wheel.json").read_text())["rows"]
    rng = random.Random(3)
    for row, n in zip(rows, (4, 16), strict=True):
        flow = flow_wheel(bench.spoked_wheel(rng, n))
        assert row["n"] == n and row["cli_seconds"] is not None
        assert row["output_bytes"] == len("poly " + " ".join(map(str, flow.coeffs or (0,))) + "\n")
