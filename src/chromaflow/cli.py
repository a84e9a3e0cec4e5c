"""Command-line front end.

Subcommands mirror the library: chromatic tree/clique/wheel, flow
outerplanar/wheel, dual phi, oracle chromatic/flow.  Polynomials print
as one line of ascending decimal coefficients (`poly c0 c1 ... cd`,
zero polynomial as `poly 0`); `--eval t1,t2,...` appends exact
integer evaluations.  Exit codes: 0 ok, 1 domain error, 2 parse or
usage error.  Identical inputs give byte-identical output.

The output is Theta(n^2) bits of decimal text.  Trees, cliques,
wheels and outerplanar graphs end in one product (a wheel's plus a
short term), which the Kronecker multiply already holds as decimal
digits, one slot per coefficient, so they print from those slots
(polyring._decimals) with string operations alone; only --eval reads
the product back into ints.  The oracle prints from its IntPoly.

A .gr file is read into two columns of its own 1-based ids
(_gr_columns).  `flow outerplanar` hands them to the series reduction
as they are (outerplanar._top), so its messages name the file's ids;
the MultiGraph that parse_gr_file builds from them serves only the
oracle commands and library callers.
"""

from __future__ import annotations

import os
import re
import sys
from importlib import import_module
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import ChromaflowError, InvalidSize, InvalidVertex, ParseError
from .polyring import IntPoly, _decimals, _digits, _digits_to_int, _Packed, _read

if TYPE_CHECKING:
    import argparse
    from types import ModuleType

    from .multigraph import MultiGraph
    from .vjtree import VertexJoinTree
    from .wheels import PhiString

# Size limits checked before anything is allocated for the input.
# On a 2-core Xeon VM, chromatic clique --n 4096 with a quarter of the
# vertices joined takes about 10 s and 220 MB and prints 31 MB.
MAX_CLIQUE_N = 4096
# A .gr header's vertex count; the graph keeps a few lists of this length.
MAX_GR_VERTICES = 1_000_000
# The spoke total of a --phi string for dual phi and flow wheel: the
# length of the dual string and the degree of the flow polynomial,
# whose output is Theta(s^2) bits.  On the same VM, flow wheel on 1 to
# 3 spokes at 2048 vertices (4082 in all) takes about 1.0 s and 44 MB
# and prints 5 MB.
MAX_PHI_TOTAL = 4096
# The length of a --phi string for chromatic wheel, the degree of its
# polynomial, whose output is Theta(n^2) bits.  A random 0/1 string of
# 4096 entries takes about 0.9 s and 43 MB on the same VM and prints
# 5 MB.
MAX_PHI_LENGTH = 4096

# int()'s decimal syntax once surrounding whitespace is stripped.
_DECIMAL = re.compile(r"[+-]?\d+(?:_\d+)*")


# The family modules (wheels, vjtree, outerplanar, multigraph, oracle),
# each imported by the first call that needs it and kept here, so that a
# process loads only the modules its commands run.
_FAMILIES: dict[str, ModuleType] = {}


def _family(name: str) -> ModuleType:
    try:
        return _FAMILIES[name]
    except KeyError:
        module = _FAMILIES[name] = import_module(f".{name}", __package__)
        return module


def _to_int(tok: str) -> int:
    """int(tok) without the interpreter's limit on digits."""
    body = tok.strip()
    if not _DECIMAL.fullmatch(body):
        raise ValueError(f"invalid integer {tok!r}")
    value = _digits_to_int(body.lstrip("+-").replace("_", ""), {})
    return -value if body[0] == "-" else value


def _int_list(text: str, what: str, to_int=int) -> list[int]:
    # to_int=_to_int only where values are never formatted with str().
    try:
        return [to_int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise ParseError(f"{what} must be a comma-separated integer list, got {text!r}")


def _text(path: str) -> str:
    # The whole of a UTF-8 file.  A text-mode read turns \r\n and \r
    # into \n, so lines break where iterating over the file breaks them.
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text")


def _lines(text: str):
    # (line number, text, tokens) of each non-blank line, with `#`
    # comments cut off; the text is for error messages.  Every .vjt file
    # is read through it, and every .gr file that _gr_columns' chunk pass
    # cannot vouch for, so that an error names its line.  Lines
    # break at \n alone; str.splitlines() would also break at \x0b,
    # \x1c, \x85, U+2028 and more.
    comments = "#" in text
    for lineno, line in enumerate(text.split("\n"), start=1):
        if comments:
            line = line.split("#", 1)[0]
        tok = line.split()
        if tok:
            yield lineno, line, tok


def _outside(path: str, lineno: int, n: int, *ids: int) -> ParseError:
    bad = next(v for v in ids if not 0 < v <= n)
    return ParseError(f"{path}:{lineno}: vertex {bad} outside 1..{n}")


def parse_vjt_file(path: str) -> VertexJoinTree:
    """`vjt n` header, n-1 `edge u v` lines, `join v mult` lines.

    Vertices are 1-indexed; `#` starts a comment; repeated join lines
    for one vertex sum their multiplicities.
    """
    n = None
    edges: list[tuple[int, int]] = []
    mult: dict[int, int] = {}
    for lineno, line, tok in _lines(_text(path)):
        try:
            if tok[0] == "edge" and len(tok) == 3 and n is not None:
                u, v = int(tok[1]), int(tok[2])
                if not (0 < u <= n and 0 < v <= n):
                    raise _outside(path, lineno, n, u, v)
                if u == v:
                    raise ParseError(f"{path}:{lineno}: tree edge ({u}, {v}) is a loop")
                edges.append((u - 1, v - 1))
            elif tok[0] == "join" and len(tok) == 3 and n is not None:
                v = int(tok[1])
                try:
                    m = int(tok[2])
                except ValueError:  # past the interpreter's digit limit, or not an integer
                    m = _to_int(tok[2])
                if m < 1:
                    raise ParseError(f"{path}:{lineno}: join multiplicity must be >= 1")
                if not 0 < v <= n:
                    raise _outside(path, lineno, n, v)
                mult[v - 1] = mult.get(v - 1, 0) + m
            elif tok[0] == "vjt" and len(tok) == 2 and n is None:
                n = int(tok[1])
                if n < 1:
                    raise ParseError(f"{path}:{lineno}: vertex count must be at least 1, got {n}")
            else:
                raise ParseError(f"{path}:{lineno}: unrecognized line {line.strip()!r}")
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad integer in {line.strip()!r}")
    if n is None:
        raise ParseError(f"{path}: missing 'vjt <n>' header")
    if len(edges) != n - 1:
        raise ParseError(f"{path}: expected {n - 1} edge lines, found {len(edges)}")
    try:
        return _family("vjtree").VertexJoinTree(n, tuple(edges), mult)
    except ChromaflowError as exc:
        raise ParseError(f"{path}: {exc}")


def parse_gr_file(path: str) -> MultiGraph:
    """DIMACS-like: `p edge n m` header then m `e u v` lines, 1-indexed.

    `#` comments, blank lines and other spacing are accepted, and a
    ParseError names the first bad line.  Vertex u of the file is vertex
    u - 1 of the graph.  The file is read once, into two columns of its
    own ids (_gr_columns), and the graph is built from them; `flow
    outerplanar` reads the columns itself, so only the oracle commands
    and library callers build this graph.
    """
    n, us, vs = _gr_columns(path)
    return _family("multigraph").MultiGraph(n, [(u - 1, v - 1) for u, v in zip(us, vs)])


def _gr_columns(path: str) -> tuple[int, list[int], list[int]]:
    # n and the two id columns of a .gr file, 1-based and in file order.
    # When the first line is the header and each of the m lines after it
    # (a final empty one aside) opens with "e ", a chunk pass reads the
    # records a chunk of tokens at a time; any other file, and one whose
    # records the chunk pass refuses, goes through the line walk on the
    # same text, which accepts comments, blank lines and other spacing
    # and names the first bad line.  Both give the same columns and the
    # same messages.
    text = _text(path)
    return _gr_chunks(text) or _gr_walk(path, text)


# The chunk pass splits about this many characters of records at a time,
# cut at a newline, so that its token lists stay small next to the text.
_CHUNK = 1 << 15


def _gr_chunks(text: str) -> tuple[int, list[int], list[int]] | None:
    # n and the 1-based id columns of a .gr text whose first line is a
    # valid header and whose m other lines (a final empty one aside)
    # each hold "e" and two ids in 1..n; None for any other text.  The
    # counts below make the m lines that open with "e " all lines but
    # the header.  Each chunk holds whole lines, and its tokens come in
    # threes whose second and third parse as ints; an "e" does not, so
    # each line opens a three, and m lines in 3m tokens leave three
    # tokens on each.
    if not text.startswith("p "):
        return None
    start = text.find("\n") + 1 or len(text)
    head = text[:start].split()
    try:
        n, m = int(head[2]), int(head[3])
    except (IndexError, ValueError):
        return None
    if (len(head) != 4 or head[1] != "edge" or not 0 <= n <= MAX_GR_VERTICES
            or text.count("\n") != m + text.endswith("\n") or text.count("\ne ") != m):
        return None
    us: list[int] = []
    vs: list[int] = []
    end = len(text)
    while start < end:
        stop = text.find("\n", start + _CHUNK) + 1 or end
        tok = text[start:stop].split()
        start = stop
        if len(tok) % 3:
            return None
        try:
            cu, cv = list(map(int, tok[1::3])), list(map(int, tok[2::3]))
        except ValueError:
            return None
        if cu and not (min(min(cu), min(cv)) >= 1 and max(max(cu), max(cv)) <= n):
            return None
        us += cu
        vs += cv
    return (n, us, vs) if len(us) == m else None


def _gr_walk(path: str, text: str) -> tuple[int, list[int], list[int]]:
    # _gr_chunks' result, line by line; raises ParseError at the first
    # bad line.
    n = m = None
    us: list[int] = []
    vs: list[int] = []
    for lineno, line, tok in _lines(text):
        try:
            if tok[0] == "e" and len(tok) == 3 and n is not None:
                u, v = int(tok[1]), int(tok[2])
                if not (0 < u <= n and 0 < v <= n):
                    raise _outside(path, lineno, n, u, v)
                us.append(u)
                vs.append(v)
            elif tok[0] == "p" and len(tok) == 4 and tok[1] == "edge" and n is None:
                n, m = int(tok[2]), int(tok[3])
                if n < 0:
                    raise ParseError(f"{path}:{lineno}: vertex count must be nonnegative, got {n}")
                if m < 0:
                    raise ParseError(f"{path}:{lineno}: edge count must be nonnegative, got {m}")
                if n > MAX_GR_VERTICES:
                    raise ParseError(
                        f"{path}:{lineno}: {n} vertices exceeds the limit {MAX_GR_VERTICES}")
            else:
                raise ParseError(f"{path}:{lineno}: unrecognized line {line.strip()!r}")
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad integer in {line.strip()!r}")
    if n is None:
        raise ParseError(f"{path}: missing 'p edge <n> <m>' header")
    if len(us) != m:
        raise ParseError(f"{path}: header promises {m} edges, found {len(us)}")
    return n, us, vs


def format_poly(p: IntPoly | _Packed) -> str:
    if isinstance(p, _Packed):
        return "poly " + " ".join(_decimals(p))
    if p.is_zero():
        return "poly 0"
    return "poly " + " ".join(_digits(c) for c in p.coeffs)


# The grammar of every leaf, keyed by (command, subcommand) and declared
# once: the plain parse reads every command line that names a leaf from
# it, and _build_parser builds the argparse tree from it for help and
# usage errors.  A leaf is its help line (None for none), its
# positional's dest (None when it takes none) and its options, each
# option string mapped to (dest, type, default, metavar, help); type
# bool marks a flag, which sets True, and default _REQUIRED an option
# that must be given.
_REQUIRED = object()
_EVAL = {"--eval": ("eval_points", str, None, "t1,t2,...",
                    "also evaluate the polynomial at these integers")}
_PHI = {"--phi": ("phi", str, _REQUIRED, "a1,a2,...", None)}
_FORCE = {"--force": ("force", bool, False, None,
                      "override the size guard (may take very long)")}
_LEAVES = {
    ("chromatic", "tree"): ("generalized vertex join tree from a .vjt file", "file", _EVAL),
    ("chromatic", "clique"): ("clique joined to an apex", None, {
        **_EVAL,
        "--n": ("n", int, _REQUIRED, "N", None),
        "--join": ("join", str, "", "v1,v2,...",
                   "1-indexed joined vertices; repeats add multiplicity"),
    }),
    ("chromatic", "wheel"): ("generalized wheel from a phi-string", None, {**_EVAL, **_PHI}),
    ("flow", "outerplanar"): ("outerplanar multigraph from a .gr file", "file", _EVAL),
    ("flow", "wheel"): ("generalized wheel from a phi-string", None, {**_EVAL, **_PHI}),
    ("dual", "phi"): ("phi-string of the dual wheel", None, _PHI),
    ("oracle", "chromatic"): (None, "file", {**_EVAL, **_FORCE}),
    ("oracle", "flow"): (None, "file", {**_EVAL, **_FORCE}),
}
_COMMANDS = {
    "chromatic": "chromatic polynomials",
    "flow": "flow polynomials",
    "dual": "duality transforms",
    "oracle": "deletion-contraction reference oracle",
}


def _plain_parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace the argparse tree would return for argv, or None.

    It reads argv only when argv names a leaf up front and then gives
    that leaf's options by their exact option strings, each option that
    takes a value followed by one that does not start with "-", and the
    leaf's positional once.  It declines anything else, leaving help,
    --opt=value, abbreviations, "--", a value the option's type refuses
    and a missing or extra argument to argparse.
    """
    leaf = _LEAVES.get(tuple(argv[:2]))
    if leaf is None:
        return None
    _, positional, options = leaf
    values = {"command": argv[0], "subcommand": argv[1]}
    i, end = 2, len(argv)
    while i < end:
        tok = argv[i]
        i += 1
        if tok[:1] != "-":
            if positional is None or positional in values:
                return None
            values[positional] = tok
            continue
        try:
            dest, kind = options[tok][:2]
        except KeyError:
            return None
        if kind is bool:
            values[dest] = True
            continue
        if i == end or argv[i][:1] == "-":
            return None
        try:
            values[dest] = kind(argv[i])
        except ValueError:
            return None
        i += 1
    if positional is not None and positional not in values:
        return None
    for dest, _, default, _, _ in options.values():
        if dest not in values:
            if default is _REQUIRED:
                return None
            values[dest] = default
    return SimpleNamespace(**values)


def _build_parser() -> argparse.ArgumentParser:
    """The argparse command tree, built from _LEAVES."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse's default error handler prints a usage block; the wire
        # contract wants a single machine-parsable line on stderr.
        def error(self, message):
            raise ParseError(message)

    parser = _Parser(prog="chromaflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, summary in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        commands[command] = p.add_subparsers(dest="subcommand", required=True)
    for (command, name), (summary, positional, options) in _LEAVES.items():
        # A leaf given no help keyword is left out of its command's list.
        p = commands[command].add_parser(name, **({} if summary is None else {"help": summary}))
        for opt, (dest, kind, default, metavar, help) in options.items():
            if kind is bool:
                p.add_argument(opt, dest=dest, action="store_true", help=help)
            else:
                required = default is _REQUIRED
                p.add_argument(opt, dest=dest, type=kind, required=required,
                               default=None if required else default, metavar=metavar, help=help)
        if positional is not None:
            p.add_argument(positional)
    return parser


# The argparse tree, built on the first command line the plain parse declines.
_TREE = None


def _parse(argv: list[str]) -> SimpleNamespace | argparse.Namespace:
    global _TREE
    args = _plain_parse(argv)
    if args is None:
        # -h at any level, usage errors, and argv read in ways the plain
        # parse leaves to argparse.
        if _TREE is None:
            _TREE = _build_parser()
        args = _TREE.parse_args(argv)
    return args


def _phi_arg(text: str) -> PhiString:
    return _family("wheels").PhiString(tuple(_int_list(text, "--phi")))


def _dual_phi_arg(text: str) -> PhiString:
    # phi_dual builds a string as long as the spoke total, and the flow
    # polynomial has that degree.  The total is not formatted: str()
    # refuses integers past 4300 digits.
    phi = _phi_arg(text)
    if phi.s > MAX_PHI_TOTAL:
        raise InvalidSize(f"phi entries sum above the limit {MAX_PHI_TOTAL}")
    return phi


def _dispatch(args) -> list[str]:
    cmd = (args.command, args.subcommand)
    if cmd == ("chromatic", "tree"):
        poly = _family("vjtree")._top(parse_vjt_file(args.file))
    elif cmd == ("chromatic", "clique"):
        if args.n > MAX_CLIQUE_N:
            raise InvalidSize(f"clique of {args.n} vertices exceeds the limit {MAX_CLIQUE_N}")
        mult: dict[int, int] = {}
        for v in _int_list(args.join, "--join"):
            if not 0 < v <= args.n:
                raise InvalidVertex(f"joined vertex {v} outside 1..{args.n}")
            mult[v - 1] = mult.get(v - 1, 0) + 1
        poly = _family("wheels")._clique_top(args.n, mult)
    elif cmd == ("chromatic", "wheel"):
        phi = _phi_arg(args.phi)
        if phi.n > MAX_PHI_LENGTH:
            raise InvalidSize(f"phi string of {phi.n} entries exceeds the limit {MAX_PHI_LENGTH}")
        poly = _family("wheels")._chromatic_top(phi)
    elif cmd == ("flow", "outerplanar"):
        # Slot 0 of the columns' range is an isolated vertex, so the
        # vertices, and the messages, keep the file's ids.
        n, us, vs = _gr_columns(args.file)
        outerplanar = _family("outerplanar")
        poly = outerplanar._top(n + 1, outerplanar._Columns(us, vs))
    elif cmd == ("flow", "wheel"):
        poly = _family("wheels")._flow_top(_dual_phi_arg(args.phi))
    elif cmd == ("dual", "phi"):
        out = _family("wheels").phi_dual(_dual_phi_arg(args.phi))
        return ["phi " + ",".join(str(a) for a in out.values)]
    elif cmd == ("oracle", "chromatic"):
        poly = _family("oracle").oracle_chromatic(parse_gr_file(args.file), force=args.force)
    elif cmd == ("oracle", "flow"):
        poly = _family("oracle").oracle_flow(parse_gr_file(args.file), force=args.force)
    else:  # pragma: no cover - argparse enforces the command set
        raise ParseError(f"unknown command {cmd}")

    lines = [format_poly(poly)]
    if args.eval_points:
        poly = _read(poly)
        for t in _int_list(args.eval_points, "--eval", _to_int):
            lines.append(f"eval {_digits(t)} {_digits(poly.evaluate(t))}")
    return lines


def run(argv: list[str]) -> int:
    """Execute one command line; returns the exit code."""
    try:
        for line in _dispatch(_parse(argv)):
            print(line)
        return 0
    except SystemExit as exc:
        # argparse has printed the -h/--help text on stdout.
        return exc.code
    except ParseError as exc:
        print(f"error: ParseError: {exc}", file=sys.stderr)
        return 2
    except ChromaflowError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`| head`).  Point it at devnull so
        # that the interpreter's last flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
