"""Command-line wire contract: formats, exit codes, and file grammars."""

from __future__ import annotations

import random
import re
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

import chromaflow.cli as cli
import chromaflow.outerplanar as outerplanar
import chromaflow.vjtree as vjtree
import chromaflow.wheels as wheels
from chromaflow.cli import format_poly, parse_gr_file, parse_vjt_file, run
from chromaflow.errors import NotOuterplanar, ParseError
from chromaflow.generators import fan_polygon, random_caterpillar, shuffle_labels, triangulated_polygon
from chromaflow.multigraph import MultiGraph, _adjacency
from chromaflow.outerplanar import flow_outerplanar
from chromaflow.polyring import FAST_MUL_CUTOFF, IntPoly, ZERO, _Packed
from chromaflow.vjtree import VertexJoinTree, chromatic_vjtree
from chromaflow.wheels import PhiString, chromatic_clique_join


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@contextmanager
def int_digit_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="interpreter has no int/str digit limit",
)


VJT_SQUARE = """# two joined ends of a path
vjt 4
edge 1 2
edge 2 3
edge 3 4
join 1 1
join 3 1
"""

GR_C4 = """p edge 4 4
e 1 2
e 2 3
e 3 4
e 4 1
"""


def test_format_poly():
    assert format_poly(ZERO) == "poly 0"
    assert format_poly(IntPoly((0, -2, 1))) == "poly 0 -2 1"


def test_chromatic_tree(tmp_path, capsys):
    path = write(tmp_path, "square.vjt", VJT_SQUARE)
    code, out, err = invoke(capsys, "chromatic", "tree", path)
    assert code == 0 and err == ""
    # (t-1) * ((t-1)^4 + (t-1)): bridge factor times a 4-cycle
    assert out == "poly 0 3 -9 10 -5 1\n"


def test_chromatic_tree_eval(tmp_path, capsys):
    path = write(tmp_path, "square.vjt", VJT_SQUARE)
    code, out, err = invoke(capsys, "chromatic", "tree", path, "--eval", "2,3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("poly ")
    assert lines[1] == "eval 2 2"
    assert lines[2] == "eval 3 36"


def test_chromatic_clique(capsys):
    code, out, _ = invoke(capsys, "chromatic", "clique", "--n", "3", "--join", "1,2")
    assert code == 0
    assert out == "poly 0 -4 8 -5 1\n"  # t(t-1)(t-2)^2
    # repeated vertices are multiplicities; chromatically inert
    code, out2, _ = invoke(
        capsys, "chromatic", "clique", "--n", "3", "--join", "1,2,2"
    )
    assert code == 0 and out2 == out


def test_chromatic_wheel(capsys):
    code, out, _ = invoke(capsys, "chromatic", "wheel", "--phi", "1,1,1,1")
    assert code == 0
    assert out == "poly 0 14 -31 24 -8 1\n"  # t((t-2)^4 + (t-2))


def test_flow_wheel(capsys):
    code, out, _ = invoke(capsys, "flow", "wheel", "--phi", "1,1,1,1")
    assert code == 0
    assert out == "poly 14 -31 24 -8 1\n"


def test_dual_phi_golden(capsys):
    code, out, _ = invoke(
        capsys, "dual", "phi", "--phi", "1,0,1,2,0,0,1,4,0,1,1,0,3,0,0,0"
    )
    assert code == 0
    assert out == "phi 2,1,0,3,1,0,0,0,2,1,2,0,0,4\n"


def test_dual_phi_refuses_eval(capsys):
    # dual phi prints a phi-string, with nothing to evaluate.
    for argv in (["--eval", "3"], ["--eval=1,2"]):
        code, out, err = invoke(capsys, "dual", "phi", "--phi", "1,0,2", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ParseError: unrecognized arguments: --eval")
        assert err.count("\n") == 1


def test_flow_outerplanar_and_oracle(tmp_path, capsys):
    path = write(tmp_path, "c4.gr", GR_C4)
    code, out, _ = invoke(capsys, "flow", "outerplanar", path)
    assert code == 0 and out == "poly -1 1\n"
    code, out, _ = invoke(capsys, "oracle", "flow", path)
    assert code == 0 and out == "poly -1 1\n"
    code, out, _ = invoke(capsys, "oracle", "chromatic", path)
    assert code == 0 and out == "poly 0 -3 6 -4 1\n"


def test_flow_outerplanar_cut_vertex(tmp_path, capsys):
    bowtie = "p edge 5 6\ne 1 2\ne 2 3\ne 3 1\ne 3 4\ne 4 5\ne 5 3\n"
    path = write(tmp_path, "bowtie.gr", bowtie)
    code, out, err = invoke(capsys, "flow", "outerplanar", path)
    assert code == 0 and err == ""
    assert out == "poly 1 -2 1\n"  # (t-1)^2, one factor per triangle


def test_flow_of_tree_is_zero(tmp_path, capsys):
    path = write(tmp_path, "path.gr", "p edge 3 2\ne 1 2\ne 2 3\n")
    code, out, _ = invoke(capsys, "flow", "outerplanar", path)
    assert code == 0
    assert out == "poly 0\n"


def test_domain_error_exit_1(capsys):
    code, out, err = invoke(capsys, "dual", "phi", "--phi", "0,0")
    assert code == 1 and out == ""
    assert err.startswith("error: NoSpokes: ")
    assert err.count("\n") == 1


def test_not_outerplanar_exit_1(tmp_path, capsys):
    k4 = "p edge 4 6\n" + "".join(
        f"e {i} {j}\n" for i in range(1, 5) for j in range(i + 1, 5)
    )
    path = write(tmp_path, "k4.gr", k4)
    code, out, err = invoke(capsys, "flow", "outerplanar", path)
    assert code == 1
    assert err.startswith("error: NotOuterplanar: ")


def test_not_outerplanar_names_file_vertices(tmp_path, capsys):
    # K_{2,3} with its vertices shuffled: the message names a vertex of
    # degree 2 rejoining between the two of degree 3, as the file
    # numbers them.  The library's own ids are one less.
    rng = random.Random(23)
    for i in range(12):
        ids = rng.sample(range(1, 6), 5)
        hubs, rest = ids[:2], ids[2:]
        lines = [f"e {a} {b}" if rng.random() < 0.5 else f"e {b} {a}" for a in hubs for b in rest]
        rng.shuffle(lines)
        path = write(tmp_path, f"k23-{i}.gr", "\n".join(["p edge 5 6", *lines]) + "\n")
        code, out, err = invoke(capsys, "flow", "outerplanar", path)
        assert code == 1 and out == ""
        match = re.fullmatch(r"error: NotOuterplanar: vertex (\d) cannot rejoin the cycle "
                             r"between (\d) and (\d)\n", err)
        assert match, err
        x, a, b = map(int, match.groups())
        assert x in rest and {a, b} == set(hubs)
        with pytest.raises(NotOuterplanar, match=f"^vertex {x - 1} cannot rejoin the cycle "
                                                 f"between {a - 1} and {b - 1}$"):
            flow_outerplanar(parse_gr_file(path))


def test_not_outerplanar_messages_name_the_file_ids(tmp_path, capsys):
    # `flow outerplanar` hands the file's own ids to the series
    # reduction, so its message must be the library's on the file's
    # 1-based edges, with vertex 0 isolated.  K4, K_{2,3} and a hexagon
    # with two crossing chords, shuffled: as they are, where nothing is
    # shortened, and with some edges made paths of 2-4 inner vertices.
    rng = random.Random(29)
    hexagon = [(i, (i + 1) % 6) for i in range(6)]
    bases = [[(i, j) for i in range(4) for j in range(i + 1, 4)],
             [(a, b) for a in (0, 1) for b in (2, 3, 4)],
             hexagon + [(0, 3), (1, 4)]]
    seen = set()
    for i in range(60):
        edges = bases[i % 3]
        n = 1 + max(max(e) for e in edges)
        if i % 2:
            subdivided = []
            for u, v in edges:
                path = [u, *range(n, n + rng.randint(2, 4)), v] if rng.random() < 0.5 else [u, v]
                n += len(path) - 2
                subdivided += zip(path, path[1:])
            edges = subdivided
        g = shuffle_labels(rng, n, edges)
        shortened = outerplanar._shorten(g.n, g.edges)[0]
        lines = [f"e {u + 1} {v + 1}" if rng.random() < 0.5 else f"e {v + 1} {u + 1}"
                 for u, v in g.edges]
        path = write(tmp_path, f"g{i}.gr", "\n".join([f"p edge {g.n} {g.m}", *lines]) + "\n")
        with pytest.raises(NotOuterplanar) as info:
            flow_outerplanar(MultiGraph(g.n + 1, [(u + 1, v + 1) for u, v in g.edges]))
        message = str(info.value)
        expect = (1, "", f"error: NotOuterplanar: {message}\n")
        assert invoke(capsys, "flow", "outerplanar", path) == expect
        seen.add((i % 3, shortened is not None, bool(re.search(r"vertex \d|\(\d", message))))
    # Every base comes up on both routes.  The elimination stalls on K4
    # and on the crossed chords, and K_{2,3} names vertices on both.
    assert seen == {(k, s, k == 1) for k in range(3) for s in (False, True)}, seen


def test_bad_header_counts_fail_at_the_header(tmp_path, capsys):
    cases = [
        ("zero.vjt", "vjt 0\n", ("chromatic", "tree"), 1, "vertex count must be at least 1, got 0"),
        ("neg.vjt", "# empty\nvjt -3\n", ("chromatic", "tree"), 2,
         "vertex count must be at least 1, got -3"),
        ("m.gr", "p edge 3 -1\n", ("flow", "outerplanar"), 1,
         "edge count must be nonnegative, got -1"),
        ("n.gr", "p edge -1 0\n", ("oracle", "flow"), 1, "vertex count must be nonnegative, got -1"),
        ("nm.gr", "\np edge -2 -1\ne 1 2\n", ("flow", "outerplanar"), 2,
         "vertex count must be nonnegative, got -2"),
    ]
    for name, text, command, lineno, detail in cases:
        path = write(tmp_path, name, text)
        code, out, err = invoke(capsys, *command, path)
        assert code == 2 and out == ""
        assert err == f"error: ParseError: {path}:{lineno}: {detail}\n"


def test_join_errors_name_the_typed_vertex(capsys):
    for join in ("6", "1,6", "0"):
        code, out, err = invoke(capsys, "chromatic", "clique", "--n", "5", "--join", join)
        assert code == 1 and out == ""
        assert err == f"error: InvalidVertex: joined vertex {join[-1]} outside 1..5\n"


def test_file_vertices_outside_the_header(tmp_path, capsys):
    cases = [
        ("t.vjt", "vjt 3\nedge 1 2\nedge 2 4\n", ("chromatic", "tree"), 3, 4),
        ("j.vjt", "vjt 3\nedge 1 2\nedge 2 3\n# the apex\njoin 5 1\n", ("chromatic", "tree"), 5, 5),
        ("z.vjt", "vjt 3\nedge 1 2\nedge 0 3\n", ("chromatic", "tree"), 3, 0),
        ("e.gr", "p edge 3 2\ne 1 2\ne 0 3\n", ("flow", "outerplanar"), 3, 0),
        ("f.gr", "p edge 3 2\r\ne 1 2\r\ne 3 4\r\n", ("oracle", "flow"), 3, 4),
    ]
    for name, text, command, lineno, vertex in cases:
        path = write(tmp_path, name, text)
        code, out, err = invoke(capsys, *command, path)
        assert code == 2 and out == ""
        assert err == f"error: ParseError: {path}:{lineno}: vertex {vertex} outside 1..3\n"


def test_vjt_loop_edge_named_at_its_line(tmp_path, capsys):
    path = write(tmp_path, "t.vjt", "vjt 3\nedge 1 2\nedge 2 2\njoin 1 1\n")
    code, out, err = invoke(capsys, "chromatic", "tree", path)
    assert code == 2 and out == ""
    assert err == f"error: ParseError: {path}:3: tree edge (2, 2) is a loop\n"


def test_parse_error_exit_2(tmp_path, capsys):
    code, _, err = invoke(capsys, "chromatic", "wheel", "--phi", "1,x")
    assert code == 2 and err.startswith("error: ParseError: ")
    code, _, err = invoke(capsys, "chromatic", "bogus")
    assert code == 2 and err.startswith("error: ParseError: ")
    code, _, err = invoke(capsys, "chromatic", "tree", str(tmp_path / "missing.vjt"))
    assert code == 2 and err.startswith("error: ParseError: ")


def test_vjt_file_errors(tmp_path, capsys):
    bad = write(tmp_path, "bad.vjt", "vjt 3\nedge 1 2\n")  # one edge short
    code, _, err = invoke(capsys, "chromatic", "tree", bad)
    assert code == 2 and "error: ParseError:" in err
    bad = write(tmp_path, "bad2.vjt", "vjt 2\nedge 1 5\n")
    code, _, err = invoke(capsys, "chromatic", "tree", bad)
    assert code == 2
    bad = write(tmp_path, "bad3.vjt", "vjt 2\nedge 1 2\nnonsense\n")
    code, _, err = invoke(capsys, "chromatic", "tree", bad)
    assert code == 2 and ":3:" in err  # line-numbered message
    bad = tmp_path / "latin1.vjt"
    bad.write_bytes(b"vjt 2\nedge 1 2 # \xff\n")
    code, out, err = invoke(capsys, "chromatic", "tree", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: ParseError: ") and err.count("\n") == 1


def test_gr_file_errors(tmp_path, capsys):
    bad = write(tmp_path, "bad.gr", "p edge 2 1\ne 1 2\ne 1 2\n")  # extra edge line
    code, _, err = invoke(capsys, "flow", "outerplanar", bad)
    assert code == 2 and "error: ParseError:" in err
    bad = write(tmp_path, "bad2.gr", "e 1 2\n")  # missing header
    code, _, err = invoke(capsys, "flow", "outerplanar", bad)
    assert code == 2 and ":1:" in err
    bad = tmp_path / "latin1.gr"
    bad.write_bytes(b"p edge 2 2\ne 1 2\ne 1 2 # \xff\xfe\n")
    code, out, err = invoke(capsys, "flow", "outerplanar", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: ParseError: ") and err.count("\n") == 1


def _poly_line(p: IntPoly) -> str:
    return "poly " + (" ".join(map(str, p.coeffs)) if p.coeffs else "0")


def _vjt_text(t: VertexJoinTree) -> str:
    lines = [f"vjt {t.n}", *(f"edge {u + 1} {v + 1}" for u, v in t.tree_edges)]
    lines += [f"join {v + 1} {m}" for v, m in sorted(t.mult.items())]
    return "\n".join(lines) + "\n"


def _gr_text(g: MultiGraph) -> str:
    return f"p edge {g.n} {g.m}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in g.edges)


# Sizes on both sides of the fast multiply's cutoff, and well past it.
CUTOFF_SIZES = (FAST_MUL_CUTOFF - 1, FAST_MUL_CUTOFF, FAST_MUL_CUTOFF + 1, 200)
EVAL = "--eval=-3,0,2,7,1000"


def _cutoff_corpus(rng: random.Random, tmp_path) -> list[tuple[list[str], IntPoly, object]]:
    # (argv, library polynomial, top the CLI prints) per input.
    cases = []

    def tree(t: VertexJoinTree) -> None:
        path = write(tmp_path, f"t{len(cases)}.vjt", _vjt_text(t))
        cases.append((["chromatic", "tree", path], chromatic_vjtree(t), vjtree._top(t)))

    def clique(n: int, join: list[int]) -> None:
        mult = {v - 1: join.count(v) for v in join}
        argv = ["chromatic", "clique", "--n", str(n)] + (["--join", ",".join(map(str, join))] if join else [])
        cases.append((argv, chromatic_clique_join(n, mult), wheels._clique_top(n, mult)))

    def graph(g: MultiGraph) -> None:
        path = write(tmp_path, f"g{len(cases)}.gr", _gr_text(g))
        top = outerplanar._top(g.n + 1, outerplanar._Columns([u + 1 for u, _ in g.edges],
                                                             [v + 1 for _, v in g.edges]))
        cases.append((["flow", "outerplanar", path], flow_outerplanar(g), top))

    def wheel(values: list[int]) -> None:
        phi = PhiString(tuple(values))
        arg = "--phi=" + ",".join(map(str, values))
        cases.append((["chromatic", "wheel", arg], wheels.chromatic_wheel(phi), wheels._chromatic_top(phi)))
        cases.append((["flow", "wheel", arg], wheels.flow_wheel(phi), wheels._flow_top(phi)))

    for c in CUTOFF_SIZES:
        # Two factors of c coefficients each: a path brick of c edges
        # (D_c) and the bridge row of c - 2 pendant vertices; and two
        # bundles of c edges at a cut vertex (the flows of two bonds).
        path = [(v, v + 1) for v in range(c - 1)]
        tree(VertexJoinTree(2 * c - 2, tuple(path + [(0, v) for v in range(c, 2 * c - 2)]),
                            {0: 1, c - 1: 2}))
        graph(shuffle_labels(rng, 3, [(0, 1)] * c + [(1, 2)] * c))
        tree(random_caterpillar(rng, c))
        tree(VertexJoinTree(c, tuple((rng.randrange(v), v) for v in range(1, c)),
                            {v: rng.randint(1, 3) for v in rng.sample(range(c), c // 4)}))
        clique(c, [rng.randint(1, c) for _ in range(rng.randint(1, c))])
        for edges in (triangulated_polygon(rng, c), fan_polygon(c)):
            graph(shuffle_labels(rng, c, edges + [(0, 0), (1, 2)]))
    # Cliques whose last product goes from ints to packed digits.
    for n in range(105, 115):
        clique(n, [rng.randint(1, n) for _ in range(n // 4)])
    # Wheels: all spokes, none, one, and random multiplicities 0-3.
    for n in (*CUTOFF_SIZES, 512):
        wheel([1] * n)
        wheel([0] * n)
        wheel([0] * (n - 1) + [rng.randint(1, 3)])
        wheel([rng.randint(0, 3) for _ in range(n)])
    wheel([0])
    # A bridge, a clique with no join and one-vertex cliques.
    graph(MultiGraph(52, fan_polygon(51) + [(50, 51)]))
    clique(200, [])
    clique(1, [])
    clique(1, [1, 1])
    return cases


def test_cli_prints_the_library_polynomial(tmp_path, capsys):
    # Trees, cliques, wheels and outerplanar graphs print from the
    # packed digits of their last product, a wheel's plus its short
    # term; the line must be str() of the library's coefficients, and
    # --eval must read the same polynomial back.
    cases = _cutoff_corpus(random.Random(20), tmp_path)
    commands = {tuple(argv[:2]) for argv, _, _ in cases}
    assert len(commands) == 5
    for command in commands:
        packed = {isinstance(top, _Packed) for argv, _, top in cases if tuple(argv[:2]) == command}
        assert packed == {False, True}, command
    assert any(not poly for _, poly, _ in cases)
    for argv, poly, _ in cases:
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == _poly_line(poly) + "\n", argv
        code, out, err = invoke(capsys, *argv, EVAL)
        assert (code, err) == (0, "")
        assert out.splitlines() == [_poly_line(poly), *(f"eval {x} {poly.evaluate(x)}"
                                                         for x in (-3, 0, 2, 7, 1000))]


def test_flow_outerplanar_files_with_nothing_to_shorten(tmp_path, capsys):
    # No path of a fan or of a triangulated polygon has two inner
    # vertices, loops and isolated vertices added or not, so `flow
    # outerplanar` walks the blocks of the file's own columns, each
    # edge written with its ends in random order.
    rng = random.Random(3141)
    for i in range(40):
        n = rng.choice((4, 5, 6, 9, 17, 60, 200))
        base = fan_polygon(n) if i % 2 else triangulated_polygon(rng, n)
        size = n + rng.randint(0, 3)
        loops = [(v, v) for v in rng.choices(range(size), k=rng.randint(0, 3))]
        g = shuffle_labels(rng, size, base + loops)
        assert outerplanar._shorten(g.n, g.edges)[0] is None
        lines = [f"e {u + 1} {v + 1}" if rng.random() < 0.5 else f"e {v + 1} {u + 1}"
                 for u, v in g.edges]
        path = write(tmp_path, f"g{i}.gr", "\n".join([f"p edge {g.n} {g.m}", *lines]) + "\n")
        expect = (0, _poly_line(flow_outerplanar(g)) + "\n", "")
        assert invoke(capsys, "flow", "outerplanar", path) == expect
        # The walk's lists over the raw 1-based columns are those of the
        # normalized graph, shifted by one and with slot 0 isolated.
        n, us, vs = cli._gr_columns(path)
        shifted = [[]] + [[(w + 1, e) for w, e in row] for row in parse_gr_file(path).adjacency()]
        assert _adjacency(n + 1, outerplanar._Columns(us, vs)) == shifted


@needs_digit_limit
def test_wide_clique_prints_under_the_smallest_digit_limit(capsys):
    # Coefficients past 2000 bits, where str(int) would need Decimal.
    mult = {v: 1 for v in range(0, 1152, 3)}
    join = ",".join(str(v + 1) for v in mult)
    with int_digit_limit(640):
        code, out, err = invoke(capsys, "chromatic", "clique", "--n", "1152", "--join", join)
    assert (code, err) == (0, "")
    poly = chromatic_clique_join(1152, mult)
    assert max(c.bit_length() for c in poly.coeffs) > 2000
    with int_digit_limit(0):
        assert out == _poly_line(poly) + "\n"


def test_parse_helpers_roundtrip(tmp_path):
    t = parse_vjt_file(write(tmp_path, "t.vjt", VJT_SQUARE))
    assert t.n == 4 and t.mult == {0: 1, 2: 1}
    g = parse_gr_file(write(tmp_path, "g.gr", GR_C4))
    assert g.n == 4 and g.m == 4
    loops = parse_gr_file(write(tmp_path, "l.gr", "p edge 1 2\ne 1 1\ne 1 1\n"))
    assert loops.m == 2


def test_join_lines_sum(tmp_path, capsys):
    doubled = VJT_SQUARE + "join 1 2\n"
    path = write(tmp_path, "sum.vjt", doubled)
    code, out, _ = invoke(capsys, "chromatic", "tree", path)
    assert code == 0
    # multiplicity 3 at vertex 1 is chromatically equivalent to 1
    assert out == "poly 0 3 -9 10 -5 1\n"


def test_byte_determinism(tmp_path, capsys):
    path = write(tmp_path, "c4.gr", GR_C4)
    outs = set()
    for _ in range(3):
        _, out, _ = invoke(capsys, "oracle", "chromatic", path, "--eval", "2,3,4")
        outs.add(out)
    assert len(outs) == 1


def test_module_entrypoint_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "chromaflow.cli", "chromatic", "wheel",
         "--phi", "1,1,1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "poly 0 14 -31 24 -8 1\n"
    proc = subprocess.run(
        [sys.executable, "-m", "chromaflow.cli", "dual", "phi", "--phi", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: NoSpokes: ")


@needs_digit_limit
def test_import_leaves_digit_limit_alone():
    code = (
        "import sys; before = sys.get_int_max_str_digits(); "
        "import chromaflow.cli; print(before, sys.get_int_max_str_digits())"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert before == after


@needs_digit_limit
def test_eval_past_default_digit_limit(tmp_path, capsys):
    # A 2000-vertex path joined at one end is a 2001-vertex tree:
    # t(t-1)^2000, whose value at t = 1000 has about 6000 digits.
    lines = ["vjt 2000", *(f"edge {i} {i + 1}" for i in range(1, 2000)), "join 1 1"]
    path = write(tmp_path, "path.vjt", "\n".join(lines) + "\n")
    with int_digit_limit(sys.int_info.default_max_str_digits):
        code, out, err = invoke(capsys, "chromatic", "tree", path, "--eval", "1000")
    assert code == 0 and err == ""
    with int_digit_limit(0):
        expect = f"eval 1000 {1000 * 999**2000}"
    eval_line = out.splitlines()[1]
    assert len(eval_line) > 4300
    assert eval_line == expect


@needs_digit_limit
def test_eval_token_past_default_digit_limit(capsys):
    # K4: t(t-1)(t-2)(t-3), evaluated at tokens of 5000 digits.
    sevens = "7" * 5000
    with int_digit_limit(sys.int_info.default_max_str_digits):
        code, out, err = invoke(capsys, "chromatic", "wheel", "--phi", "1,1,1",
                                f"--eval={sevens},-{sevens[:2500]}_{sevens[2500:]},3")
    assert code == 0 and err == ""
    with int_digit_limit(0):
        t = int(sevens)
        expect = [
            "poly 0 -6 11 -6 1",
            f"eval {t} {t * (t - 1) * (t - 2) * (t - 3)}",
            f"eval {-t} {t * (t + 1) * (t + 2) * (t + 3)}",
            "eval 3 0",
        ]
    assert out.splitlines() == expect


@needs_digit_limit
def test_join_multiplicity_past_default_digit_limit(tmp_path, capsys):
    path = write(tmp_path, "wide.vjt", VJT_SQUARE + f"join 1 {'9' * 5000}\n")
    with int_digit_limit(sys.int_info.default_max_str_digits):
        code, out, err = invoke(capsys, "chromatic", "tree", path)
    assert code == 0 and err == ""
    assert out == "poly 0 3 -9 10 -5 1\n"


def test_int_tokens_follow_int_syntax(tmp_path, capsys):
    code, out, err = invoke(capsys, "chromatic", "wheel", "--phi", "1,1,1",
                            "--eval", " +1_0 ,-0_3,\u0663")
    assert code == 0 and err == ""
    assert out.splitlines()[1:] == ["eval 10 5040", "eval -3 360", "eval 3 0"]
    for bad in ("1__0", "_1", "1_", "--3", "1.0", "0x10"):
        code, out, err = invoke(capsys, "chromatic", "wheel", "--phi", "1,1,1", f"--eval={bad}")
        assert code == 2 and out == "" and err.startswith("error: ParseError: ")
    path = write(tmp_path, "bad.vjt", VJT_SQUARE + "join 1 1__0\n")
    code, _, err = invoke(capsys, "chromatic", "tree", path)
    assert code == 2 and "bad integer" in err


JOIN_TOKENS = [
    "7", "+7", "-7", "0", "007", "1_000", "+1_0", "-0_3", "٣", "١_٢",
    "1__0", "_1", "1_", "--3", "+-1", "1.0", "0x10", "x", "٣x",
    "4" * 4300, "5" * 4301, "6" * 5000, "-" + "6" * 5000, "1_" + "2" * 4999, "7" * 4999 + "x",
]


@needs_digit_limit
@pytest.mark.parametrize("limit", [640, 4300])
def test_join_multiplicity_int_first_matches_to_int(tmp_path, limit):
    # The .vjt reader tries int() first and falls back to cli._to_int
    # only when int() refuses; int() refuses only past the digit limit,
    # so every token reads as _to_int reads it, with the same messages.
    fell_back = 0
    for tok in JOIN_TOKENS:
        try:
            expect = cli._to_int(tok)
        except ValueError:
            expect = None
        with int_digit_limit(limit):
            try:
                first = int(tok)
            except ValueError:
                first = None
            if first is None and expect is not None:
                fell_back += 1
                assert sum(ch.isdigit() for ch in tok) > limit
            else:
                assert first == expect
            path = write(tmp_path, "j.vjt", f"vjt 2\nedge 1 2\njoin 1 {tok}\n")
            if expect is None:
                with pytest.raises(ParseError, match=r":3: bad integer in "):
                    parse_vjt_file(path)
            elif expect < 1:
                with pytest.raises(ParseError, match=r":3: join multiplicity must be >= 1"):
                    parse_vjt_file(path)
            else:
                assert parse_vjt_file(path).mult == {0: expect}
    assert fell_back == (5 if limit == 640 else 4)


@needs_digit_limit
def test_wide_join_multiplicity_parses_under_the_smallest_digit_limit(tmp_path, capsys):
    before = sys.get_int_max_str_digits()
    path = write(tmp_path, "wide.vjt", VJT_SQUARE + f"join 3 {'8' * 5000}\n")
    with int_digit_limit(640):
        t = parse_vjt_file(path)
        code, out, err = invoke(capsys, "chromatic", "tree", path)
    assert sys.get_int_max_str_digits() == before
    assert t.mult == {0: 1, 2: 1 + cli._to_int("8" * 5000)}
    assert (code, err) == (0, "")
    assert out == "poly 0 3 -9 10 -5 1\n"


def test_clique_size_guard(monkeypatch, capsys):
    calls = []

    def fake_clique(n, mult):
        calls.append(n)
        return IntPoly((1,))

    monkeypatch.setattr(cli, "_clique_top", fake_clique)
    code, out, err = invoke(capsys, "chromatic", "clique", "--n", str(cli.MAX_CLIQUE_N + 1))
    assert code == 1 and out == "" and calls == []
    assert err.startswith("error: InvalidSize: ") and err.count("\n") == 1
    code, out, err = invoke(capsys, "chromatic", "clique", "--n", str(cli.MAX_CLIQUE_N))
    assert code == 0 and calls == [cli.MAX_CLIQUE_N]


def test_gr_header_size_guard(tmp_path, monkeypatch, capsys):
    calls = []

    def fake_graph(n, edges):
        calls.append(n)
        return ZERO

    monkeypatch.setattr(cli, "MultiGraph", fake_graph)
    path = write(tmp_path, "huge.gr", f"p edge {cli.MAX_GR_VERTICES + 1} 0\n")
    with pytest.raises(ParseError, match="exceeds the limit"):
        parse_gr_file(path)
    for command in (("flow", "outerplanar"), ("oracle", "chromatic"), ("oracle", "flow")):
        code, out, err = invoke(capsys, *command, path)
        assert code == 2 and out == ""
        assert err.startswith("error: ParseError: ") and err.count("\n") == 1
    assert calls == []
    parse_gr_file(write(tmp_path, "edge.gr", f"p edge {cli.MAX_GR_VERTICES} 0\n"))
    assert calls == [cli.MAX_GR_VERTICES]


def test_deep_oracle_recursion_is_one_line(tmp_path, capsys):
    # Deletion-contraction on a 1200-cycle recurses deeper than the
    # interpreter allows; the oracle reports that as TooLarge.
    n = 1200
    path = write(tmp_path, "c.gr", f"p edge {n} {n}\n"
                 + "".join(f"e {i + 1} {(i + 1) % n + 1}\n" for i in range(n)))
    limit = sys.getrecursionlimit()
    code, out, err = invoke(capsys, "oracle", "flow", path, "--force")
    assert code == 1 and out == ""
    assert err.startswith("error: TooLarge: ") and err.count("\n") == 1
    assert sys.getrecursionlimit() == limit


def test_deep_flow_oracle_refuses_before_recursing(tmp_path, capsys):
    # A bridgeless graph recurses one level per edge, so the flow oracle
    # refuses a 1200-cycle up front; with a pendant edge it is zero.
    n = 1200
    cycle = "".join(f"e {i + 1} {(i + 1) % n + 1}\n" for i in range(n))
    path = write(tmp_path, "c.gr", f"p edge {n} {n}\n" + cycle)
    start = time.perf_counter()
    code, out, err = invoke(capsys, "oracle", "flow", path, "--force")
    assert time.perf_counter() - start < 0.3
    assert (code, out) == (1, "")
    assert err == f"error: TooLarge: {n} edges: deletion-contraction recursion too deep\n"
    bridged = write(tmp_path, "b.gr", f"p edge {n + 1} {n + 1}\n" + cycle + f"e {n} {n + 1}\n")
    assert invoke(capsys, "oracle", "flow", bridged, "--force") == (0, "poly 0\n", "")


def test_phi_total_guard(monkeypatch, capsys):
    huge = "1,10000000000000000000000"
    for command in (("dual", "phi"), ("flow", "wheel")):
        code, out, err = invoke(capsys, *command, "--phi", huge)
        assert code == 1 and out == ""
        assert err.startswith("error: InvalidSize: ") and err.count("\n") == 1
    # Parallel spokes are chromatically inert, so chromatic wheel takes it.
    assert invoke(capsys, "chromatic", "wheel", "--phi", huge) == (0, "poly 0 2 -3 1\n", "")

    calls = []

    def fake_dual(phi):
        calls.append(phi.s)
        return PhiString((1, 1, 1))

    def fake_flow_top(phi):
        calls.append(phi.s)
        return IntPoly((0, 1))

    monkeypatch.setattr(cli, "phi_dual", fake_dual)
    monkeypatch.setattr(cli, "_flow_top", fake_flow_top)
    for command in (("dual", "phi"), ("flow", "wheel")):
        code, out, err = invoke(capsys, *command, "--phi", f"1,{cli.MAX_PHI_TOTAL}")
        assert code == 1 and out == "" and err.startswith("error: InvalidSize: ")
        code, _, _ = invoke(capsys, *command, "--phi", f"1,{cli.MAX_PHI_TOTAL - 1}")
        assert code == 0
    assert calls == [cli.MAX_PHI_TOTAL] * 2


def test_phi_length_guard(monkeypatch, capsys):
    calls = []

    def fake_chromatic_top(phi):
        calls.append(phi.n)
        return IntPoly((0, 1))

    monkeypatch.setattr(cli, "_chromatic_top", fake_chromatic_top)
    code, out, err = invoke(capsys, "chromatic", "wheel", "--phi", ",".join(["1"] * 4097))
    assert code == 1 and out == ""
    assert err.startswith("error: InvalidSize: ") and err.count("\n") == 1
    assert calls == []

    monkeypatch.setattr(cli, "MAX_PHI_LENGTH", 5)
    code, out, err = invoke(capsys, "chromatic", "wheel", "--phi", "1,0,1,0,1,0")
    assert code == 1 and out == "" and err.startswith("error: InvalidSize: ")
    assert calls == []
    assert invoke(capsys, "chromatic", "wheel", "--phi", "1,0,1,0,1")[0] == 0
    assert calls == [5]


def test_help_returns_exit_code(capsys):
    code, out, err = invoke(capsys, "chromatic", "wheel", "-h")
    assert code == 0 and err == ""
    assert out.startswith("usage: chromaflow chromatic wheel")
