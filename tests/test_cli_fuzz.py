"""Property test of the CLI error contract on random argv and input files.

Whatever the arguments and file bytes, `run` returns 0, 1 or 2, prints
nothing on stdout unless it succeeds (a result, or the help for -h),
and prints at most one stderr line, never a traceback.  Sizes stay tiny
and `--force` is never passed, so every call is fast.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromaflow.cli import run

# Small integers, plus tokens that int() refuses or reads unusually.
NUMBER = st.sampled_from(["0", "1", "2", "3", "4", "5", "-1", "+2", "1_0", "٣", " 2 ", "x", ""])
NUMBER_LIST = st.lists(NUMBER, max_size=6).map(",".join)
JUNK = st.sampled_from(["--n", "--phi", "--join", "--eval", "tree", "wheel", "phi", "-x", "--", "1,2", "-h"])

FILE_TOKENS = ["p", "edge", "e", "vjt", "join", "#", "0", "1", "2", "3", "4", "5", "-1", "x", "\t"]
FILE_LINE = st.lists(st.sampled_from(FILE_TOKENS), max_size=5).map(" ".join)


def vertex(n: int):
    # A 1-indexed vertex id, outside 1..n one time in five.
    return st.one_of(*[st.integers(1, n)] * 4 * (n > 0), st.integers(0, 6))


@st.composite
def gr_text(draw):
    # A header and edge lines on at most 5 vertices; the header's edge
    # count is off by one now and then.
    n = draw(st.integers(0, 5))
    edges = draw(st.lists(st.tuples(vertex(n), vertex(n)), max_size=8))
    m = len(edges) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    return "\n".join([f"p edge {n} {m}", *(f"e {u} {v}" for u, v in edges)])


@st.composite
def vjt_text(draw):
    # A random tree on at most 6 vertices with join lines; now and then
    # one edge is replaced by a random pair.
    n = draw(st.integers(1, 6))
    edges = [(draw(st.integers(1, i)), i + 1) for i in range(1, n)]
    if edges and draw(st.booleans()):
        edges[draw(st.integers(0, len(edges) - 1))] = draw(st.tuples(vertex(n), vertex(n)))
    joins = draw(st.lists(st.tuples(vertex(n), st.integers(0, 3)), max_size=4))
    lines = [f"vjt {n}", *(f"edge {u} {v}" for u, v in edges), *(f"join {v} {m}" for v, m in joins)]
    return "\n".join(lines)


JUNK_BYTES = st.sampled_from([b"", b"", b"\n", b"\xff", b"\x00", b"\r\n", b"\n# note", b"\ne 1"])
RAW_BYTES = st.one_of(
    st.binary(max_size=60),
    st.lists(FILE_LINE, max_size=10).map(lambda lines: "\n".join(lines).encode()),
)
FILE_COMMANDS = {
    ("chromatic", "tree"): vjt_text(),
    ("flow", "outerplanar"): gr_text(),
    ("oracle", "chromatic"): gr_text(),
    ("oracle", "flow"): gr_text(),
}
PHI_COMMANDS = [("chromatic", "wheel"), ("flow", "wheel"), ("dual", "phi")]


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@st.composite
def invocation(draw, path: str):
    """Argv and the bytes of the file it may name."""
    content = b""
    kind = draw(st.sampled_from(["file", "phi", "clique"]))
    if kind == "file":
        cmd = draw(st.sampled_from(sorted(FILE_COMMANDS)))
        args = [*cmd, path]
        text = st.builds(bytes.__add__, FILE_COMMANDS[cmd].map(str.encode), JUNK_BYTES)
        content = draw(st.one_of(RAW_BYTES, text, text))
    elif kind == "phi":
        args = [*draw(st.sampled_from(PHI_COMMANDS)), "--phi", draw(NUMBER_LIST)]
    else:
        args = ["chromatic", "clique", "--n", draw(NUMBER), "--join", draw(NUMBER_LIST)]
    if draw(st.booleans()):
        args.append(f"--eval={draw(NUMBER_LIST)}")
    # Drop a token or insert a stray one now and then.
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(args)))
        if draw(st.booleans()) and i < len(args):
            del args[i]
        else:
            args.insert(i, draw(JUNK))
    return args, content


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_contract_on_random_input(input_path, data):
    args, content = data.draw(invocation(str(input_path)))
    input_path.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(args)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        assert out.startswith(("poly ", "phi ")) or ("-h" in args and out.startswith("usage: "))
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
