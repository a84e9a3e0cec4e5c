"""Pins the benchmark's independent evaluators to brute-force counts.

    python3 -m pytest -q perfbench/test_checks.py

Each evaluator must equal, at small integer t, the number of proper
t-colourings or nowhere-zero Z_t-flows counted by enumeration on tiny
instances; the input generators' dual trees are checked the same way.
A printed polynomial with one coefficient changed must be rejected.
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import (  # noqa: E402
    P,
    CheckFailed,
    Error,
    Phi,
    Poly,
    clique_chromatic_mod,
    exact_decimal,
    fan_flow,
    mod_decimal,
    ones_wheel_chromatic,
    ones_wheel_flow,
    outerplanar_flow_mod,
    tree_chromatic_mod,
    wheel_chromatic_mod,
    wheel_dual,
    wheel_flow_mod,
)
from workloads import outerplanar_block, outerplanar_graph, random_phi, recursive_tree  # noqa: E402


def colourings(n: int, edges, k: int) -> int:
    return sum(all(c[u] != c[v] for u, v in edges) for c in itertools.product(range(k), repeat=n))


def flows(n: int, edges, k: int) -> int:
    """Nowhere-zero Z_k flows, each edge oriented u -> v."""
    count = 0
    for vals in itertools.product(range(1, k), repeat=len(edges)):
        net = [0] * n
        for (u, v), x in zip(edges, vals):
            net[u] -= x
            net[v] += x
        count += all(x % k == 0 for x in net)
    return count


def wheel_edges(phi):
    n = len(phi)
    cycle = [(0, 0)] if n == 1 else [(0, 1), (0, 1)] if n == 2 else [(i, (i + 1) % n) for i in range(n)]
    return n + 1, cycle + [(i, n) for i, a in enumerate(phi) for _ in range(a)]


def interpolate(points: list[tuple[int, int]]) -> list[int]:
    """Integer coefficients of the polynomial through the given points."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = 1
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = [Fraction(0)] + basis
                for k in range(len(basis) - 1):
                    basis[k] -= xj * basis[k + 1]
                denom *= xi - xj
        for k, b in enumerate(basis):
            coeffs[k] += yi * b / denom
    assert all(c.denominator == 1 for c in coeffs)
    out = [int(c) for c in coeffs]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def line(coeffs: list[int]) -> str:
    return "poly " + " ".join(map(str, coeffs))


@pytest.mark.parametrize("seed", range(30))
def test_tree_dp_counts_colourings(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    edges, joined = recursive_tree(rng, n, rng.randint(0, n))
    realized = edges + [(v, n) for v in joined]
    for k in range(5):
        assert tree_chromatic_mod(n, edges, set(joined), k) == colourings(n + 1, realized, k)


@pytest.mark.parametrize("seed", range(30))
def test_wheel_transfer_counts_colourings_and_flows(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    phi = random_phi(rng, n, rng.randint(0, n), rng.randint(0, 1))
    nv, edges = wheel_edges(phi)
    for k in range(5):
        assert wheel_chromatic_mod(phi, k) == colourings(nv, edges, k)
    for k in range(2, 5):
        assert wheel_flow_mod(phi, k) == flows(nv, edges, k)


def test_wheel_dual_swaps_length_and_spokes():
    phi = [1, 0, 1, 2, 0, 0, 1, 4, 0, 1, 1, 0, 3, 0, 0, 0]
    dual = wheel_dual(phi)
    assert len(dual) == sum(phi) and sum(dual) == len(phi)
    twice = wheel_dual(dual)
    assert any(twice == phi[i:] + phi[:i] for i in range(len(phi)))


@pytest.mark.parametrize("n,s", [(1, 0), (1, 1), (3, 2), (4, 4), (5, 1)])
def test_clique_formula_counts_colourings(n, s):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)] + [(v, n) for v in range(s)]
    for k in range(6):
        assert clique_chromatic_mod(n, s, k) == colourings(n + 1, edges, k)


@pytest.mark.parametrize("seed", range(25))
def test_outerplanar_dual_counts_flows(seed):
    rng = random.Random(seed)
    size = rng.randint(3, 5)
    blocks = [dict(size=size, chords=rng.randint(0, size - 3), side_bundles=rng.randint(0, 1),
                   chord_bundles=0)]
    n, edges, expect = outerplanar_graph(rng, blocks, loops=rng.randint(0, 1))
    assert len(edges) <= 9
    for k in range(2, 5):
        assert expect.evaluate(k, P) == flows(n, edges, k)
    assert expect.parity == flows(n, edges, 2)


def test_two_blocks_and_a_bridge():
    rng = random.Random(7)
    blocks = [dict(size=3), dict(size=3, side_bundles=1)]
    n, edges, expect = outerplanar_graph(rng, blocks, isolated=1)
    for k in range(2, 5):
        assert expect.evaluate(k, P) == flows(n, edges, k)
    n, edges, expect = outerplanar_graph(rng, blocks, bridge=True)
    assert expect.degree is None and flows(n, edges, 3) == 0


def test_chord_bundles_in_the_dual():
    rng = random.Random(3)
    edges, dual = outerplanar_block(rng, 5, chords=2, chord_bundles=1)
    for k in range(2, 4):
        assert outerplanar_flow_mod([dual], 0, k) == flows(5, edges, k)


def test_closed_forms():
    for n in range(3, 7):
        edges, _ = outerplanar_block(random.Random(0), n, fan=True)
        assert fan_flow(n) == interpolate([(k, flows(n, edges, k)) for k in range(1, n)])
    for n in range(3, 5):
        nv, edges = wheel_edges([1] * n)
        assert ones_wheel_chromatic(n) == interpolate([(k, colourings(nv, edges, k)) for k in range(n + 2)])
        assert ones_wheel_flow(n) == interpolate([(k, flows(nv, edges, k)) for k in range(1, n + 2)])


def test_decimal_readers_ignore_the_digit_limit():
    x = -(7**20000)  # about 17k digits, above CPython's default int/str limit
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        if limit is not None:
            sys.set_int_max_str_digits(0)
        text = str(x)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert exact_decimal(text) == x
    assert mod_decimal(text) == x % P
    for bad in ("", "-", "01", "1_0", " 1", "+1", "١"):
        with pytest.raises(CheckFailed):
            mod_decimal(bad)


def test_one_perturbed_coefficient_is_caught():
    rng = random.Random(11)
    n = 6
    edges, joined = recursive_tree(rng, n, 3)
    realized = edges + [(v, n) for v in joined]
    coeffs = interpolate([(k, colourings(n + 1, realized, k)) for k in range(n + 2)])
    expect = Poly(lambda t, p: tree_chromatic_mod(n, edges, set(joined), t, p), n + 1, evals=(3,))
    good = [line(coeffs), f"eval 3 {colourings(n + 1, realized, 3)}"]
    expect.check(good, [rng.randrange(2, P) for _ in range(2)])
    for k in range(len(coeffs) - 1):
        for delta in (1, -2 * coeffs[k] or 1):
            bad = coeffs[:]
            bad[k] += delta
            with pytest.raises(CheckFailed):
                expect.check([line(bad), good[1]], [rng.randrange(2, P) for _ in range(2)])
    with pytest.raises(CheckFailed):
        expect.check([good[0], "eval 3 0"], [5])

    wheel = Poly(lambda t, p: wheel_chromatic_mod([1] * 5, t, p), 6, exact=ones_wheel_chromatic(5))
    wheel.check([line(ones_wheel_chromatic(5))], [])
    bad = ones_wheel_chromatic(5)
    bad[3] += 2  # same signs, so only the closed form can tell
    with pytest.raises(CheckFailed):
        wheel.check([line(bad)], [])


def test_zero_phi_and_error_expectations():
    Poly(None, None).check(["poly 0"], [3])
    with pytest.raises(CheckFailed):
        Poly(None, None).check(["poly 0 1"], [3])
    Phi([2, 1]).check(["phi 2,1"], [])
    with pytest.raises(CheckFailed):
        Phi([2, 1]).check(["phi 1,2"], [])
    Error("ParseError").check([], [], "error: ParseError: x.gr:1: bad integer\n")
    with pytest.raises(CheckFailed):
        Error("ParseError").check([], [], "error: NotOuterplanar: K4\n")
