"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Criteria with wall-clock tolerances are timed here, so this file is the
slow part of the suite.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from chromaflow.generators import (
    random_caterpillar,
    random_outerplanar,
    random_phi,
    random_vjtree,
)
from chromaflow.multigraph import MultiGraph
from chromaflow.oracle import (
    count_colorings,
    oracle_chromatic,
    oracle_flow,
)
from chromaflow.outerplanar import flow_outerplanar
from chromaflow.polyring import ZERO
from chromaflow.vjtree import chromatic_vjtree
from chromaflow.wheels import (
    PhiString,
    chromatic_clique_join,
    chromatic_wheel,
    chromatic_wheel_stepwise,
    chromatic_wheel_telescoped,
    flow_wheel,
    phi_dual,
)

GOLDEN_IN = (1, 0, 1, 2, 0, 0, 1, 4, 0, 1, 1, 0, 3, 0, 0, 0)
GOLDEN_OUT = (2, 1, 0, 3, 1, 0, 0, 0, 2, 1, 2, 0, 0, 4)


def verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- fixtures
# Criteria 2-5 share their outputs with the structural sweep of criterion 6,
# so each corpus is computed once per module.


@pytest.fixture(scope="module")
def vjt_corpus():
    rng = random.Random(1002)
    results = []
    t0 = time.perf_counter()
    matches = 0
    for i in range(200):
        joined = 0 if i % 20 == 0 else (1 if i % 20 == 10 else None)
        tree = random_vjtree(rng, n_max=10, mult_max=3, joined=joined)
        g = tree.realize()
        got = chromatic_vjtree(tree)
        if got == oracle_chromatic(g):
            matches += 1
        results.append((g, got))
    return time.perf_counter() - t0, matches, results


@pytest.fixture(scope="module")
def outerplanar_corpus():
    rng = random.Random(1003)
    results = []
    t0 = time.perf_counter()
    matches = 0
    bridge_zeros = True
    for i in range(200):
        with_bridge = i % 8 == 7
        g = random_outerplanar(rng, n_max=10, mult_max=3, max_loops=2,
                               with_bridge=with_bridge)
        got = flow_outerplanar(g)
        if got == oracle_flow(g):
            matches += 1
        if with_bridge and got != ZERO:
            bridge_zeros = False
        results.append((g, got))
    return time.perf_counter() - t0, matches, bridge_zeros, results


@pytest.fixture(scope="module")
def wheel_corpus():
    strings = [
        PhiString(values)
        for n in range(1, 6)
        for values in itertools.product(range(3), repeat=n)
    ]
    rng = random.Random(1004)
    strings += [random_phi(rng, n_max=8, a_max=3) for _ in range(100)]
    chromatics, flows = [], []
    matches = 0
    for phi in strings:
        g = phi.realize()
        closed = chromatic_wheel_telescoped(phi)
        literal = chromatic_wheel_stepwise(phi)
        faces = chromatic_wheel(phi)
        fgot = flow_wheel(phi)
        ok = (
            closed == literal
            and closed == faces
            and closed == oracle_chromatic(g)
            and fgot == oracle_flow(g, force=True)
        )
        matches += ok
        chromatics.append((g, closed))
        flows.append((g, fgot))
    return len(strings), matches, chromatics, flows


@pytest.fixture(scope="module")
def clique_corpus():
    results = []
    matches = 0
    total = 0
    for n in range(1, 7):
        base = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for r in range(n + 1):
            for subset in itertools.combinations(range(n), r):
                g = MultiGraph(n + 1, base + [(v, n) for v in subset])
                got = chromatic_clique_join(n, {v: 1 for v in subset})
                matches += got == oracle_chromatic(g)
                total += 1
                results.append((g, got))
    return total, matches, results


# ---------------------------------------------------------------- criteria


def test_criterion_1_golden_dual():
    phi = PhiString(GOLDEN_IN)
    got = phi_dual(phi)  # warm-up
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        got = phi_dual(phi)
        best = min(best, time.perf_counter() - t0)
    ok = got.values == GOLDEN_OUT and best < 1e-3
    verdict(1, ok, f"output {'exact' if got.values == GOLDEN_OUT else 'WRONG'}, "
                   f"{best * 1000:.3f} ms < 1 ms")


def test_criterion_2_vjtree_oracle(vjt_corpus):
    elapsed, matches, _ = vjt_corpus
    ok = matches == 200 and elapsed < 30.0
    verdict(2, ok, f"{matches}/200 oracle-exact in {elapsed:.1f}s < 30s")


def test_criterion_3_outerplanar_oracle(outerplanar_corpus):
    elapsed, matches, bridge_zeros, _ = outerplanar_corpus
    ok = matches == 200 and bridge_zeros and elapsed < 60.0
    verdict(3, ok, f"{matches}/200 oracle-exact, bridge cases all zero: "
                   f"{bridge_zeros}, {elapsed:.1f}s < 60s")


def test_criterion_4_wheels(wheel_corpus):
    total, matches, _, _ = wheel_corpus
    ok = matches == total
    verdict(4, ok, f"{matches}/{total} strings: closed form == stepwise == "
                   f"face product == chromatic oracle, flow == flow oracle")


def test_criterion_5_cliques(clique_corpus):
    total, matches, _ = clique_corpus
    ok = matches == total
    verdict(5, ok, f"{matches}/{total} subset joins oracle-exact for n <= 6")


def test_criterion_6_structural_invariants(vjt_corpus, outerplanar_corpus,
                                           wheel_corpus, clique_corpus):
    chromatic_outputs = vjt_corpus[2] + wheel_corpus[2] + clique_corpus[2]
    flow_outputs = outerplanar_corpus[3] + wheel_corpus[3]
    checked = 0
    bad = []
    for g, p in chromatic_outputs:
        has_loop = any(u == v for u, v in g.edges)
        if has_loop:
            if p != ZERO:
                bad.append("loop graph with nonzero chromatic polynomial")
            continue
        checked += 1
        if p.degree != g.n or p.coeffs[-1] != 1 or p.coeffs[0] != 0:
            bad.append(f"shape violation at n={g.n}")
            continue
        if any(c and (c > 0) != ((p.degree - i) % 2 == 0)
               for i, c in enumerate(p.coeffs)):
            bad.append(f"sign violation at n={g.n}")
        if g.n <= 8 and p.evaluate(3) != count_colorings(g, 3):
            bad.append(f"count mismatch at n={g.n}, t=3")
    for g, f in flow_outputs:
        checked += 1
        even = all(d % 2 == 0 for d in g.degrees())
        expect = 1 if even and not g.bridges() else 0
        if f.evaluate(2) != expect:
            bad.append(f"parity violation at n={g.n}")
    ok = not bad
    verdict(6, ok, f"{checked} outputs checked"
                   + (f"; first issue: {bad[0]}" if bad else ""))


def test_criterion_7_scaling():
    rng = random.Random(1007)
    sizes = (512, 1024, 2048, 4096)
    times = []
    for n in sizes:
        tree = random_caterpillar(rng, n)
        t0 = time.perf_counter()
        chromatic_vjtree(tree)
        times.append(time.perf_counter() - t0)
    ratios = [b / a for a, b in zip(times, times[1:])]
    ok = all(r <= 5.0 for r in ratios) and times[-1] < 120.0
    detail = (
        "times " + "/".join(f"{t:.2f}s" for t in times)
        + ", ratios " + "/".join(f"{r:.2f}" for r in ratios)
        + f" (bound 5.0), n=4096 in {times[-1]:.1f}s < 120s"
    )
    verdict(7, ok, detail)


def test_criterion_8_involution():
    rng = random.Random(1008)
    good = 0
    for _ in range(500):
        phi = random_phi(rng, n_max=10, a_max=4)
        back = phi_dual(phi_dual(phi)).values
        v = phi.values
        good += any(v[i:] + v[:i] == back for i in range(len(v)))
    verdict(8, good == 500, f"{good}/500 double duals are cyclic rotations")
