"""Independent checks of the polynomials chromaflow prints.

Nothing here imports chromaflow.  Every printed polynomial is checked
modulo a large prime at seeded random points against an evaluator
written from the graph's structure, plus structural properties, plus
exact closed forms where they exist:

- trees joined to an apex: a two-state tree DP with the apex colour fixed;
- outerplanar flows: the same DP over the dual tree, which the input
  generator knows because it placed the chords;
- generalized wheels: a three-state transfer around the cycle;
- joined cliques: (t - s) t (t - 1) ... (t - n + 1).

Coefficients are read in chunks far below the interpreter's int/str
digit limit, so the checks do not depend on how that limit is set.
"""

from __future__ import annotations

import re

P = (1 << 61) - 1  # Mersenne prime; residues fit comfortably in a machine word
_CHUNK = 1000
_INT = re.compile(r"-?(?:0|[1-9][0-9]*)")


class CheckFailed(Exception):
    """The program's output disagrees with an independent check."""


# -- reading decimal integers ------------------------------------------------


def _digits(tok: str) -> tuple[bool, str]:
    if not _INT.fullmatch(tok):
        raise CheckFailed(f"not a decimal integer: {tok[:40]!r}")
    return (True, tok[1:]) if tok[0] == "-" else (False, tok)


def mod_decimal(tok: str, p: int = P) -> int:
    """The integer written in tok, reduced modulo p."""
    neg, digits = _digits(tok)
    acc = 0
    for i in range(0, len(digits), _CHUNK):
        chunk = digits[i : i + _CHUNK]
        acc = (acc * pow(10, len(chunk), p) + int(chunk)) % p
    return -acc % p if neg else acc


def exact_decimal(tok: str) -> int:
    """The integer written in tok, exactly (divide and conquer on digits)."""
    neg, digits = _digits(tok)

    def value(s: str) -> int:
        if len(s) <= _CHUNK:
            return int(s)
        k = len(s) // 2
        return value(s[:-k]) * 10**k + value(s[-k:])

    v = value(digits)
    return -v if neg else v


# -- evaluators modulo p -----------------------------------------------------


def tree_chromatic_mod(n: int, edges, joined, t: int, p: int = P) -> int:
    """P(t) mod p for a tree on 0..n-1 plus an apex adjacent to `joined`.

    Fix the apex colour A (t ways).  For each vertex v, a[v] counts
    colourings of v's subtree with v coloured A, and o[v] those with v
    coloured one particular colour other than A.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    order = [0]
    parent[0] = 0
    for v in order:
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    if len(order) != n:
        raise ValueError("edges do not span a tree")
    a = [0] * n
    o = [0] * n
    for v in reversed(order):
        av = 0 if v in joined else 1
        ov = 1
        for c in adj[v]:
            if parent[c] == v and c != 0:
                av = av * (t - 1) % p * o[c] % p
                ov = ov * (a[c] + (t - 2) * o[c]) % p
        a[v], o[v] = av, ov
    return t * (a[0] + (t - 1) * o[0]) % p


def wheel_chromatic_mod(phi, t: int, p: int = P) -> int:
    """P(t) mod p for a cycle v0..v(n-1) plus an apex with phi[i] spokes at vi.

    Fix the apex colour A and the colour c0 of v0.  If c0 != A, each
    later vertex is X (= A), Y (= c0) or Z (any other colour; z sums
    over them): X -> (0, 1, t-2), Y -> (1, 0, t-2), Z -> (1, 1, t-3).
    If c0 = A (v0 unjoined), two states remain: A or not A.
    """
    n = len(phi)
    x, y, z = 0, 1, 0
    for a in phi[1:]:
        x, y, z = (
            0 if a else (y + z) % p,
            (x + z) % p,
            ((t - 2) * (x + y) + (t - 3) * z) % p,
        )
    total = (t - 1) * (x + z)
    if not phi[0]:
        xa, w = 1, 0
        for a in phi[1:]:
            xa, w = 0 if a else w, ((t - 1) * xa + (t - 2) * w) % p
        total += w
    return t * total % p


def wheel_dual(phi) -> list[int]:
    """Spoke counts of the planar dual wheel.

    Bounded faces, clockwise, are the two-sided faces between parallel
    spokes and the face between the last spoke at vi and the first
    spoke at the next joined vertex vj, with (j - i) mod n outer edges
    (all n when vi is the only joined vertex).  Each outer edge is one
    dual spoke of its face.
    """
    n = len(phi)
    joined = [i for i, a in enumerate(phi) if a]
    out: list[int] = []
    for k, i in enumerate(joined):
        j = joined[(k + 1) % len(joined)]
        out += [0] * (phi[i] - 1) + [(j - i - 1) % n + 1]
    return out


def wheel_flow_mod(phi, t: int, p: int = P) -> int:
    """F(t) mod p for the wheel: P(dual; t) / t, with the s <= 1 cases."""
    s = sum(phi)
    if s == 0:
        return (t - 1) % p
    if s == 1:
        return 0
    return wheel_chromatic_mod(wheel_dual(phi), t, p) * pow(t, p - 2, p) % p


def clique_chromatic_mod(n: int, s: int, t: int, p: int = P) -> int:
    acc = (t - s) % p
    for i in range(n):
        acc = acc * (t - i) % p
    return acc


def outerplanar_flow_mod(blocks, loops: int, t: int, p: int = P) -> int:
    """F(t) mod p from the dual trees of the blocks: prod P(dual)/t, times (t-1)^loops."""
    inv_t = pow(t, p - 2, p)
    acc = pow(t - 1, loops, p)
    for n, edges, joined in blocks:
        acc = acc * tree_chromatic_mod(n, edges, joined, t, p) % p * inv_t % p
    return acc


# -- closed forms, as exact coefficient lists ---------------------------------


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_pow(a: list[int], k: int) -> list[int]:
    out = [1]
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def fan_flow(n: int) -> list[int]:
    """Flow polynomial of a fan-triangulated n-gon: (t-1)(t-2)^(n-3)."""
    return poly_mul([-1, 1], poly_pow([-2, 1], n - 3))


def ones_wheel_flow(n: int) -> list[int]:
    """Flow polynomial of the plain n-wheel: (t-2)^n + (-1)^n (t-2)."""
    out = poly_pow([-2, 1], n)
    sign = 1 if n % 2 == 0 else -1
    out[0] += sign * -2
    out[1] += sign
    return out


def ones_wheel_chromatic(n: int) -> list[int]:
    """Chromatic polynomial of the plain n-wheel: t((t-2)^n + (-1)^n (t-2))."""
    return [0] + ones_wheel_flow(n)


# -- checking printed output ---------------------------------------------------


class Poly:
    """Expected properties of one printed polynomial.

    evaluate(t, p) gives the value mod p from the independent evaluator;
    degree is None when the polynomial must be `poly 0`; exact, when
    given, is the full coefficient list; parity is F(2) for flows.
    """

    def __init__(self, evaluate, degree, exact=None, parity=None, evals=()):
        self.evaluate = evaluate
        self.degree = degree
        self.exact = exact
        self.parity = parity
        self.evals = tuple(evals)

    def check(self, lines: list[str], points: list[int], err: str = "") -> None:
        if len(lines) != 1 + len(self.evals) or not lines[0].startswith("poly "):
            raise CheckFailed(f"expected a poly line and {len(self.evals)} eval lines")
        toks = lines[0][5:].split(" ")
        if self.degree is None:
            if toks != ["0"]:
                raise CheckFailed("expected the zero polynomial")
            res: list[int] = []
        else:
            check_shape(toks, self.degree)
            res = [mod_decimal(tok) for tok in toks]
            for t in points:
                if horner(res, t) != self.evaluate(t, P):
                    raise CheckFailed(f"value at t={t} disagrees with the independent evaluator")
            if self.parity is not None and horner(res, 2) != self.parity:
                raise CheckFailed(f"F(2) is not {self.parity}")
            if self.exact is not None and [exact_decimal(tok) for tok in toks] != self.exact:
                raise CheckFailed("coefficients differ from the closed form")
        for line, t in zip(lines[1:], self.evals):
            parts = line.split(" ")
            if len(parts) != 3 or parts[0] != "eval" or parts[1] != str(t):
                raise CheckFailed(f"bad eval line {line[:40]!r}")
            v = mod_decimal(parts[2])
            if v != horner(res, t) or (self.degree is not None and v != self.evaluate(t, P)):
                raise CheckFailed(f"eval at {t} is wrong")


def check_shape(toks: list[str], degree: int) -> None:
    """Degree, monic leading coefficient and (weakly) alternating signs."""
    if len(toks) - 1 != degree:
        raise CheckFailed(f"degree {len(toks) - 1}, expected {degree}")
    if toks[-1] != "1":
        raise CheckFailed("leading coefficient is not 1")
    for k, tok in enumerate(toks):
        if tok != "0" and (tok[0] == "-") != ((degree - k) % 2 == 1):
            raise CheckFailed(f"coefficient of t^{k} has the wrong sign")


def horner(residues: list[int], t: int, p: int = P) -> int:
    acc = 0
    for c in reversed(residues):
        acc = (acc * t + c) % p
    return acc


class Phi:
    """Expected `phi a1,a2,...` line."""

    def __init__(self, values: list[int]):
        self.line = "phi " + ",".join(map(str, values))

    def check(self, lines: list[str], points: list[int], err: str = "") -> None:
        if lines != [self.line]:
            raise CheckFailed("dual phi-string differs")


class Error:
    """Expected single `error: <Name>: ...` line on stderr and nothing on stdout."""

    def __init__(self, name: str):
        self.prefix = f"error: {name}: "

    def check(self, lines: list[str], points: list[int], err: str = "") -> None:
        if lines or not err.startswith(self.prefix):
            raise CheckFailed(f"expected stderr {self.prefix!r}, got {err[:60]!r}")
