"""The CLI's fast front end against the slower one it replaced.

`cli._parse` hands a call that names a (command, subcommand) pair
straight to that leaf parser; the full command tree must parse every
argv to the same namespace, error or help.  The file readers read a
file in one piece and split each line once; the line-by-line readers
below are the reference, and both must return the same graph or the
same error, except that a vertex id outside the header's range is now
reported at its line with the file's 1-based id, a header's vertex or
edge count out of range at the header line, and a tree edge that is a
loop at its line with the file's ids.
"""

from __future__ import annotations

import io
import re
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromaflow import cli
from chromaflow.errors import ChromaflowError, ParseError
from chromaflow.multigraph import MultiGraph
from chromaflow.vjtree import VertexJoinTree
from test_cli_fuzz import JUNK_BYTES, RAW_BYTES, gr_text, invocation, vjt_text


def parse_outcome(parse, args):
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            namespace = parse(args)
    except ParseError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()
    return "ok", vars(namespace)


@pytest.fixture(scope="module")
def tree():
    return cli._build_parser()[0]


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("reference") / "input")


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_leaf_dispatch_matches_tree(tree, input_path, data):
    args, _ = data.draw(invocation(input_path))
    assert parse_outcome(cli._parse, args) == parse_outcome(tree.parse_args, args)


FIXED_ARGV = [
    ["-h"],
    ["chromatic", "-h"],
    ["chromatic", "tree", "-h"],
    ["oracle", "flow", "--help"],
    ["chromatic", "wheel", "--phi", "1,1", "--eval=3,-4"],
    ["chromatic", "wheel", "--phi", "1,1", "--ev", "3"],
    ["chromatic", "wheel", "--ph=1,1", "--e=2"],
    ["chromatic", "tree", "--", "t.vjt"],
    ["chromatic", "tree", "--", "--eval"],
    ["oracle", "flow", "x.gr", "--", "y.gr"],
    ["--", "chromatic", "tree", "t.vjt"],
    ["chromatic", "--", "tree", "t.vjt"],
    ["chromatic", "tree", "--eval", "3", "t.vjt"],
    ["oracle", "chromatic", "--force", "--eval=1", "g.gr"],
    ["chromatic", "wheel", "--phi", "1", "--phi", "2,2"],
    ["chromatic", "clique", "--n", "3", "--n", "4", "--join", "1", "--join", "2"],
    ["chromatic", "wheel"],
    ["chromatic", "clique", "--join", "1"],
    ["chromatic", "bogus"],
    ["bogus", "tree"],
    ["chromatic"],
    [],
    ["dual", "phi", "--phi", "1", "extra"],
    ["flow", "outerplanar"],
    ["flow", "outerplanar", "a.gr", "b.gr"],
    ["dual", "phi", "--phi", "-1,2"],
    ["chromatic", "clique", "--n", "-3"],
    ["chromatic", "clique", "--n", "x"],
]


@pytest.mark.parametrize("args", FIXED_ARGV, ids=" ".join)
def test_leaf_dispatch_matches_tree_fixed(tree, args):
    assert parse_outcome(cli._parse, args) == parse_outcome(tree.parse_args, args)


# The line-by-line readers as they stood before the one-read readers.

def ref_lines(path: str):
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}")
    with fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if line:
                    yield lineno, line
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not UTF-8 text")


def ref_parse_vjt_file(path: str) -> VertexJoinTree:
    n = None
    edges: list[tuple[int, int]] = []
    mult: dict[int, int] = {}
    for lineno, line in ref_lines(path):
        tok = line.split()
        try:
            if tok[0] == "vjt" and len(tok) == 2 and n is None:
                n = int(tok[1])
            elif tok[0] == "edge" and len(tok) == 3 and n is not None:
                edges.append((int(tok[1]) - 1, int(tok[2]) - 1))
            elif tok[0] == "join" and len(tok) == 3 and n is not None:
                v, m = int(tok[1]) - 1, cli._to_int(tok[2])
                if m < 1:
                    raise ParseError(f"{path}:{lineno}: join multiplicity must be >= 1")
                mult[v] = mult.get(v, 0) + m
            else:
                raise ParseError(f"{path}:{lineno}: unrecognized line {line!r}")
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad integer in {line!r}")
    if n is None:
        raise ParseError(f"{path}: missing 'vjt <n>' header")
    if len(edges) != n - 1:
        raise ParseError(f"{path}: expected {n - 1} edge lines, found {len(edges)}")
    try:
        return VertexJoinTree(n, tuple(edges), mult)
    except ChromaflowError as exc:
        raise ParseError(f"{path}: {exc}")


def ref_parse_gr_file(path: str) -> MultiGraph:
    header = None
    edges: list[tuple[int, int]] = []
    for lineno, line in ref_lines(path):
        tok = line.split()
        try:
            if tok[0] == "p" and len(tok) == 4 and tok[1] == "edge" and header is None:
                header = (int(tok[2]), int(tok[3]))
                if header[0] > cli.MAX_GR_VERTICES:
                    raise ParseError(
                        f"{path}:{lineno}: {header[0]} vertices exceeds the limit {cli.MAX_GR_VERTICES}")
            elif tok[0] == "e" and len(tok) == 3 and header is not None:
                edges.append((int(tok[1]) - 1, int(tok[2]) - 1))
            else:
                raise ParseError(f"{path}:{lineno}: unrecognized line {line!r}")
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad integer in {line!r}")
    if header is None:
        raise ParseError(f"{path}: missing 'p edge <n> <m>' header")
    n, m = header
    if len(edges) != m:
        raise ParseError(f"{path}: header promises {m} edges, found {len(edges)}")
    try:
        return MultiGraph(n, edges)
    except ChromaflowError as exc:
        raise ParseError(f"{path}: {exc}")


READERS = [
    (cli.parse_vjt_file, ref_parse_vjt_file, lambda t: (t.n, t.tree_edges, t.mult)),
    (cli.parse_gr_file, ref_parse_gr_file, lambda g: (g.n, g.edges)),
]
# The messages the one-read readers changed: a vertex id outside the
# header's range, which replaces the library's 0-based range message,
# a count in the header out of range, and a tree edge that is a loop,
# named with the file's ids at its line.
CHANGED = re.compile(r":\d+: vertex -?\d+ outside 1\.\.-?\d+|:\d+: (vertex|edge) count must be "
                     r"|:\d+: tree edge \(\d+, \d+\) is a loop")
REF_OUTSIDE = re.compile(r"outside 0\.\.")


def read_outcome(parse, key, path):
    try:
        return "ok", key(parse(path))
    except ParseError as exc:
        return "error", str(exc)


def assert_readers_agree(path):
    for parse, reference, key in READERS:
        new, ref = read_outcome(parse, key, path), read_outcome(reference, key, path)
        if new[0] == "error" and CHANGED.search(new[1]):
            assert ref[0] == "error", (new, ref)
        else:
            assert new == ref
        if ref[0] == "error" and REF_OUTSIDE.search(ref[1]):
            assert new[0] == "error" and CHANGED.search(new[1]), (new, ref)


FILE_BYTES = st.one_of(
    RAW_BYTES,
    *(st.builds(bytes.__add__, text.map(str.encode), JUNK_BYTES) for text in (vjt_text(), gr_text())),
)


@settings(max_examples=300, deadline=None)
@given(content=FILE_BYTES)
def test_readers_match_reference(input_path, content):
    with open(input_path, "wb") as fh:
        fh.write(content)
    assert_readers_agree(input_path)


FIXED_FILES = [
    b"vjt 3\r\nedge 1 2\r\nedge 2 3\r\njoin 1 1\r\njoin 3 2\r\n",
    b"p edge 3 3\r\ne 1 2\r\ne 2 3\r\ne 3 1\r\nbogus\r\n",
    b"vjt 3\redge 1 2\redge 2 3\rjoin 1 1\rbogus 1\r",
    b"p edge 2 1\r\re 1 2\r\n\r\ne 1 2\n",
    b"vjt 3\n\x0cedge 1 2\x0c\nedge\x0c2 3\njoin 1 1\nbogus\x0c\n",
    "vjt 3\nedge 1\x0b2\nedge 2\x1c3\njoin 1\x851\njoin 3 2\nbogus line\n".encode(),
    "p edge 3 2\ne 1\x0b2\ne 2 3\ne\x1c3 1\n\x85x\n".encode(),
    b"# a comment\nvjt 2 # header\nedge 1 2#tail\n#\njoin 1 1 # apex\n",
    b"p edge 2 1 # header\n# e 1 2\ne 1 # 2\n",
    b"\n\n  \t \nvjt 2\n\nedge 1 2\n\n\n\n",
    b"p edge 2 1\n\n\ne 2 1\n   \n",
    b"vjt 2\nedge 1 2",
    b"p edge 2 1\ne 1 2",
    b"vjt\t2\nedge\t1\t2\njoin\t2\t1\t\n",
    b"p\tedge\t2\t1\ne\t1\t2\n",
    b"vjt 2\nedge 1 2 # \xff\n",
    b"p edge 2 2\ne 1 2\ne 1 2 # \xff\xfe\n",
    b"\xff",
    b"vjt 2\nedge 1 2\njoin 1 " + b"9" * 5000 + b"\n",
    b"vjt 2\nedge 1 2\njoin 1 " + b"9" * 5000 + b"\njoin 1 1",
    b"",
    b"vjt 2\nvjt 2\nedge 1 2\n",
    b"p edge 2 1\np edge 2 1\ne 1 2\n",
    b"vjt 2\nedge 1 x\n",
    b"p edge 2 x\ne 1 2\n",
    b"vjt 3\nedge 1 2\nedge 2 4\n",
    b"vjt 3\nedge 1 2\nedge 2 3\njoin 5 1\n",
    b"vjt 3\nedge 1 2\nedge 2 3\njoin 5 0\n",
    b"p edge 3 1\ne 0 3\n",
    b"p edge 3 2\ne 1 4\nbogus\n",
    b"vjt 0\n",
    b"vjt 0\njoin 1 1\n",
    b"p edge -1 0\n",
    b"p edge -1 1\ne 1 1\n",
    b"p edge 1000001 0\n",
    b"vjt 3\nedge 1 2\nedge 2 1\n",
    b"vjt 2\nedge 1 1\n",
    b"vjt 2\nedge 1 2\njoin 1 -1\n",
]


@pytest.mark.parametrize("content", FIXED_FILES)
def test_readers_match_reference_fixed(tmp_path, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    assert_readers_agree(str(path))


def test_readers_match_reference_without_a_file(tmp_path):
    assert_readers_agree(str(tmp_path / "missing"))
    assert_readers_agree(str(tmp_path))
