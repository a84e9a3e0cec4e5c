"""The CLI's fast front end against the slower one it replaced.

`cli._parse` hands a call that names a (command, subcommand) pair
straight to that leaf parser; the full command tree must parse every
argv to the same namespace, error or help.  The file readers read a
file in one piece; a .gr file laid out as a header line and one record
per line goes through a pass over chunks of its tokens, and every other
file through a walk over its lines.  Both hand `flow outerplanar` two
columns of the file's own ids, and the graph built from those columns
is checked too.  The line-by-line readers below are the reference, and
the readers must return the same graph or the same error, except that a
vertex id outside the header's range is now reported at its line with
the file's 1-based id, a header's vertex or edge count out of range at
the header line, and a tree edge that is a loop at its line with the
file's ids.
"""

from __future__ import annotations

import io
import random
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


def column_graph(path: str) -> MultiGraph:
    # The graph on 0..n-1 of the 1-based id columns that `flow
    # outerplanar` reads, built by the checking constructor.
    n, us, vs = cli._gr_columns(path)
    return MultiGraph(n, [(u - 1, v - 1) for u, v in zip(us, vs)])


READERS = [
    (cli.parse_vjt_file, ref_parse_vjt_file, lambda t: (t.n, t.tree_edges, t.mult)),
    (cli.parse_gr_file, ref_parse_gr_file, lambda g: (g.n, g.edges)),
    (column_graph, ref_parse_gr_file, lambda g: (g.n, g.edges)),
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


@st.composite
def reflowed_gr_text(draw):
    # A gr_text with a few of its separators swapped for a newline, a
    # tab, a vertical tab, a blank line or a space: a record or the
    # header may then span two lines, share one, or sit among blank
    # lines, which a pass over the tokens alone cannot tell apart.
    parts = re.split(r"([ \n])", draw(gr_text()))
    seps = st.sampled_from(range(1, len(parts), 2))
    for i in draw(st.lists(seps, min_size=1, max_size=4)):
        parts[i] = draw(st.sampled_from(["\n", "\t", "\x0b", "\n\n", " "]))
    return "".join(parts)


@settings(max_examples=300, deadline=None)
@given(text=reflowed_gr_text())
def test_reflowed_gr_matches_reference(input_path, text):
    with open(input_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert_readers_agree(input_path)


def many_records(count: int = 5000) -> list[str]:
    # A valid .gr file of `count` records on 999 vertices, as lines;
    # its records fill more than one chunk of the chunk pass.  Ids of
    # three digits keep every record nine characters long.
    rng = random.Random(count)
    return [f"p edge 999 {count}", *(f"e {rng.randint(100, 999)} {rng.randint(100, 999)}"
                                     for _ in range(count))]


def boundary_line(lines: list[str]) -> int:
    # The 1-based number of the line that ends the chunk pass's first chunk.
    text = "\n".join(lines) + "\n"
    start = len(lines[0]) + 1
    return text[:text.index("\n", start + cli._CHUNK) + 1].count("\n")


# Corruptions that keep a record's length, so the chunk boundary stays
# where it was, and that the line counts do not see: the chunk pass
# refuses the file only when it reaches the record.
CORRUPTIONS = {
    "bad-integer": lambda rec: rec[:-1] + "x",
    "outside": lambda rec: "e " + "0" * (len(rec) - 4) + " 1",
    "four-tokens": lambda rec: rec[:-2] + " " + rec[-1],
}


def boundary_files() -> list[tuple[str, bytes, int]]:
    # (id, content, the line the error must name): one bad record just
    # before, on and just after the first chunk boundary.
    lines = many_records()
    at = boundary_line(lines)
    files = []
    for where, lineno in (("before", at - 1), ("on", at), ("after", at + 1)):
        for kind, corrupt in CORRUPTIONS.items():
            bad = list(lines)
            bad[lineno - 1] = corrupt(bad[lineno - 1])
            files.append((f"chunk-{where}-{kind}", ("\n".join(bad) + "\n").encode(), lineno))
    return files


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
    # A record split over two lines.
    b"p edge 2 1\ne 1\n2\n",
    b"p edge 3 2\ne 1 2 e\n3 1\n",
    b"p edge 3 2\ne 1 2 e\n3 1",
    b"p edge 3 2\ne 1 2 e 2 3\ne 1 3\n",
    # The header and a record on one line, and a header split over two.
    b"p edge 2 1 e 1 2\n",
    b"p edge 2 1\te 1 2\n",
    b"p edge\n2 1\ne 1 2\n",
    b"p\nedge 2 1\ne 1 2\n",
    # Valid files with tabs, leading or trailing spaces, blank lines or CRLF.
    b"p edge 3 2\ne\t1\t2\ne 2 3\n",
    b"p edge 3 2\n  e 1 2\ne 2 3  \n",
    b" p edge 3 2\ne 1 2\ne 2 3\n",
    b"p edge 3 2 \ne 1 2\ne 2\t3\t\n",
    b"p edge 3 2\n\ne 1 2\n\ne 2 3\n\n",
    b"p edge 3 2\r\ne 1 2\r\ne 2 3\r\n",
    b"p edge 3 2\r\ne 1 2\r\ne 2 3",
    # Ids that int() reads unusually, and one past its digit limit.
    b"p edge 12 3\ne +1 1_0\ne 2 +3\ne 1_1 1\n",
    "p edge 3 2\ne \u0663 1\ne 2 \u0661\n".encode(),
    pytest.param(b"p edge 3 1\ne 1 1" + b"0" * 4300 + b"\n", id="id-of-4301-digits"),
    pytest.param(b"p edge 3 1\ne 1 " + b"0" * 4300 + b"1\n", id="id-of-4301-digits-zero-led"),
    # Files larger than one chunk: valid, and with a bad record near
    # the chunk boundary.
    pytest.param(("\n".join(many_records()) + "\n").encode(), id="chunks-valid"),
    pytest.param("\n".join(many_records()).encode(), id="chunks-valid-no-final-newline"),
    *(pytest.param(content, id=name) for name, content, _ in boundary_files()),
]


@pytest.mark.parametrize("content", FIXED_FILES)
def test_readers_match_reference_fixed(tmp_path, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    assert_readers_agree(str(path))


@pytest.mark.parametrize("name, content, lineno", boundary_files())
def test_bad_record_near_a_chunk_boundary_names_its_line(tmp_path, name, content, lineno):
    path = tmp_path / "input"
    path.write_bytes(content)
    text = content.decode()
    # The line counts pass, so the chunk pass refuses the file only when
    # it reaches the bad record; the line walk then names its line.
    assert text.count("\ne ") == 5000
    assert cli._gr_chunks(text) is None
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:{lineno}: "):
        cli.parse_gr_file(str(path))


def test_chunk_pass_reads_a_clean_file_in_chunks(tmp_path, monkeypatch):
    # A file with no comment, blank line or other spacing goes through
    # the chunk pass, here in two chunks, and reads as the walk reads it.
    # Either way the file is read once.
    lines = many_records()
    assert boundary_line(lines) < len(lines)
    text = "\n".join(lines) + "\n"
    clean, spaced = tmp_path / "clean", tmp_path / "spaced"
    clean.write_text(text)
    spaced.write_text(text.replace("\ne ", "\n e ", 1))
    read = cli._gr_chunks(text)
    assert read is not None and read == cli._gr_walk(str(clean), text)
    n, us, vs = read
    assert (n, len(us), len(vs)) == (999, 5000, 5000)
    assert [f"e {u} {v}" for u, v in zip(us, vs)] == lines[1:]
    read_text, walk, reads = cli._text, cli._gr_walk, []

    def counting(path):
        reads.append(path)
        return read_text(path)

    monkeypatch.setattr(cli, "_text", counting)
    monkeypatch.setattr(cli, "_gr_walk", None)
    assert cli.parse_gr_file(str(clean)) == ref_parse_gr_file(str(clean))
    monkeypatch.setattr(cli, "_gr_walk", walk)
    assert cli.parse_gr_file(str(spaced)) == ref_parse_gr_file(str(spaced))
    assert reads == [str(clean), str(spaced)]


def test_readers_match_reference_without_a_file(tmp_path):
    assert_readers_agree(str(tmp_path / "missing"))
    assert_readers_agree(str(tmp_path))
