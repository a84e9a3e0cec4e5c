"""Generalized wheels and joined cliques.

A PhiString a_1..a_n encodes a cycle on n vertices plus an apex carrying
a_i parallel spokes to the i-th cycle vertex (a generalized wheel).  The
planar dual of such a wheel is again one, and phi_dual computes its
string directly: walking the cycle clockwise, each spoke pair at one
vertex bounds a two-sided face (a zero in the dual), and the last spoke
at a vertex bounds, together with the first spoke at the next joined
vertex, a face with one dual spoke per outer edge between them.

The chromatic polynomial is one product over the bounded faces, plus
(t - 2) times a sign.  Fix the apex colour (the factor t, so
W = P / t) and the colour c0 of a joined vertex v0 (t - 1 choices).
Between consecutive joined vertices
m cycle edges apart, the colourings of the path are walks of length m
in K_t that avoid the apex colour at both ends.  Over the states
"colour c0" and "another non-apex colour" (summed over the t - 2 of
them) such a step is the 2x2 block S I + D_m N, where
N = [[0, t-2], [1, t-3]], S = D_m + (-1)^m counts closed walks and
D_k = ((t - 1)^k - (-1)^k) / t (polyring.cycle_quotient).  The blocks
share N, so they commute; their eigenvalues are D_(m+1) (eigenvector
(1, 1)) and (-1)^m (eigenvector (t - 2, -1)).  Projecting the product
back onto c0's state and multiplying by t - 1 gives

  W = (t - 2) (-1)^n + prod_i D_(m_i + 1),

one factor per face, of size m_i + 2; an ordinary wheel gives the
known W = (t - 2)^n + (-1)^n (t - 2).  With no joined vertex W is
P(C_n) = t (t - 1) D_(n-1), where D_0 = 0 gives the one-vertex loop.
The flow polynomial is W of the dual wheel.  In the dual string the
a_i spokes at vertex i become a_i - 1 zeros and one nonzero entry, so
the dual's runs are the multiplicities a_i > 0 and

  F = (t - 2) (-1)^s + prod_(a_i > 0) D_(a_i + 1),

which is t - 1 when there is no spoke.  Nothing here divides.

Each polynomial is one product plus a short term (_chromatic_top,
_flow_top), as every other family's is one product: P = t W multiplies
the factor t into the product's first factor, the (t - 2)^c row of the
faces of size 3, and adds (-1)^n t (t - 2).  A wide product stays
packed through the addition (polyring._plus), so the command line
prints it from its digits.

The paper's closed formulas (spoke-by-spoke deletion-contraction, each
term a chain of cycle polynomials over t(t-1) per gluing) stay at the
end of the module as references the tests compare against: the
telescoped per-term formula driven by face sizes, and the literal
stepwise recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import InvalidSize, InvalidVertex, NoSpokes
from .multigraph import MultiGraph
from .polyring import (
    T,
    IntPoly,
    _face_factors,
    _Packed,
    _plus,
    _product,
    _read,
    balanced_product,
    chromatic_cycle,
    cycle_quotient,
)

_TM1 = IntPoly((-1, 1))
_TTM1 = IntPoly((0, -1, 1))
# (-1)^k (t - 2) and (-1)^k t (t - 2) at k mod 2: the short terms of
# the flow and chromatic tops.
_SIGNED_TM2 = (IntPoly((-2, 1)), IntPoly((2, -1)))
_SIGNED_TTM2 = (IntPoly((0, -2, 1)), IntPoly((0, 2, -1)))


@dataclass(frozen=True)
class PhiString:
    """Spoke multiplicities around the cycle, clockwise."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        if len(vals) < 1:
            raise InvalidSize("phi string must have at least one entry")
        if any(a < 0 for a in vals):
            raise InvalidSize("phi entries must be nonnegative")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def s(self) -> int:
        return sum(self.values)

    def reduce(self) -> PhiString:
        """Clamp entries to 0/1; parallel spokes are chromatically inert."""
        return PhiString(tuple(min(a, 1) for a in self.values))

    def realize(self) -> MultiGraph:
        """Explicit multigraph: cycle 0..n-1 plus apex vertex n."""
        n = self.n
        if n == 1:
            cycle = [(0, 0)]
        elif n == 2:
            cycle = [(0, 1), (0, 1)]
        else:
            cycle = [(i, (i + 1) % n) for i in range(n)]
        spokes = [(i, n) for i, a in enumerate(self.values) for _ in range(a)]
        return MultiGraph(n + 1, cycle + spokes)


def phi_dual(phi: PhiString) -> PhiString:
    """String of the dual wheel; needs at least one spoke.

    Swaps length and total: the dual has one cycle vertex per bounded
    face (s of them) and one spoke per outer edge (n of them).
    """
    values = phi.values
    n = phi.n
    if phi.s == 0:
        raise NoSpokes("dual string undefined without spokes")
    joined = [i for i, a in enumerate(values) if a]
    out: list[int] = []
    for idx, i in enumerate(joined):
        nxt = joined[(idx + 1) % len(joined)]
        gap = (nxt - i - 1) % n
        out.extend([0] * (values[i] - 1))
        out.append(gap + 1)
    return PhiString(tuple(out))


def chromatic_clique_join(n: int, mult: Mapping[int, int]) -> IntPoly:
    """Chromatic polynomial of a complete graph joined to an apex.

    Joined vertices force distinct colors on the apex's neighborhood,
    so the apex sees s forbidden colors: (t - s) * P(K_n).
    """
    return _read(_clique_top(n, mult))


def _clique_top(n: int, mult: Mapping[int, int]) -> IntPoly | _Packed:
    # One product of (t - s) and the n factors t - i of P(K_n), packed
    # when it is wide.
    if n < 1:
        raise InvalidSize(f"clique needs n >= 1, got {n}")
    s = 0
    for v, m in mult.items():
        if not (0 <= v < n):
            raise InvalidVertex(f"joined vertex {v} outside 0..{n - 1}")
        if m < 0:
            raise InvalidSize(f"multiplicity of vertex {v} is negative")
        if m:
            s += 1
    return _product([IntPoly((-s, 1)), *(IntPoly((-i, 1)) for i in range(n))])


def chromatic_wheel(phi: PhiString) -> IntPoly:
    """Chromatic polynomial of the wheel: t times the face product."""
    return _read(_chromatic_top(phi))


def _chromatic_top(phi: PhiString) -> IntPoly | _Packed:
    # t W (module docstring), packed when it is wide.
    joined = [i for i, a in enumerate(phi.values) if a]
    if not joined:
        # t P(C_n) = t^2 (t - 1) D_(n-1).
        return _product([IntPoly((0, 0, -1, 1)), cycle_quotient(phi.n - 1)])
    # Cycle edges between consecutive joined vertices, the last run wrapping.
    runs = [j - i for i, j in zip(joined, [*joined[1:], joined[0] + phi.n])]
    row, *faces = _face_factors(runs)
    return _plus(_product([IntPoly((0, *row.coeffs)), *faces]), _SIGNED_TTM2[phi.n % 2])


def flow_wheel(phi: PhiString) -> IntPoly:
    """Flow polynomial of the wheel: the face product of its dual.

    The dual's runs are the nonzero spoke multiplicities (module
    docstring), so no dual string is built.  With one spoke (a bridge)
    the product is zero; with none (a bare cycle and an isolated apex)
    it is the empty product plus t - 2, that is t - 1.
    """
    return _read(_flow_top(phi))


def _flow_top(phi: PhiString) -> IntPoly | _Packed:
    # F (module docstring), packed when it is wide.
    runs = [a for a in phi.values if a]
    return _plus(_product(_face_factors(runs)), _SIGNED_TM2[sum(runs) % 2])


# -- reference formulas ------------------------------------------------------
# The paper's deletion-contraction formulas, kept as the cross-checks that
# the tests compare chromatic_wheel and flow_wheel against.


@dataclass(frozen=True)
class FaceDecomposition:
    """Bounded face sizes of a wheel, clockwise from the first spoke."""

    n: int
    face_sizes: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.face_sizes)

    def merged_size(self, i: int) -> int:
        """Size u_i of the face left after dropping spokes i..s, 2 <= i <= s+1.

        Dropping a spoke merges the two faces beside it and frees their
        shared pair of spoke sides, hence the -2 per merge.
        """
        if not (2 <= i <= self.s + 1):
            raise InvalidSize(f"merged face index {i} outside 2..{self.s + 1}")
        return 2 * (i - self.s - 1) + sum(self.face_sizes[i - 2 :])

    def term_faces(self, i: int) -> tuple[int, ...]:
        """Face sizes after restoring spokes 1..i and contracting spoke i.

        Contraction shortens the two faces flanking spoke i by one side
        each; for i = 1 the lone bounded face loses both spoke sides.
        """
        if not (1 <= i <= self.s):
            raise InvalidSize(f"telescope term index {i} outside 1..{self.s}")
        if i == 1:
            return (self.n,)
        f = self.face_sizes
        return f[: i - 2] + (f[i - 2] - 1, self.merged_size(i + 1) - 1)


def face_sizes(phi: PhiString) -> FaceDecomposition:
    """Bounded face sizes: each face has two spoke sides plus its outer edges."""
    dual = phi_dual(phi)
    return FaceDecomposition(phi.n, tuple(a + 2 for a in dual.values))


def _chain_value(sizes: Iterable[int], glue_count: int) -> IntPoly:
    # Chromatic polynomial of cycles glued in a chain along single edges:
    # product of the cycles over t(t-1) per gluing.
    prod = balanced_product(chromatic_cycle(x) for x in sizes)
    if glue_count:
        return prod.exact_div(_TTM1**glue_count)
    return prod


def chromatic_wheel_telescoped(phi: PhiString) -> IntPoly:
    """Chromatic polynomial of the wheel via the per-term closed formula."""
    reduced = phi.reduce()
    n, s = reduced.n, reduced.s
    pcn = chromatic_cycle(n)
    if s == 0:
        return T * pcn
    if s == 1:
        return pcn * _TM1
    fd = face_sizes(reduced)
    total = T * pcn
    for i in range(1, s + 1):
        total = total - _chain_value(fd.term_faces(i), i - 1)
    return total


def chromatic_wheel_stepwise(phi: PhiString) -> IntPoly:
    """Same polynomial by literally peeling spokes one at a time.

    Each step applies deletion-contraction to the clockwise-last
    remaining spoke, with the contracted graph's faces read directly
    off the spoke positions.  Kept separate from the telescoped route
    as a guard against index slips in the closed formula.
    """
    reduced = phi.reduce()
    n = reduced.n
    positions = [i for i, a in enumerate(reduced.values) if a]
    total = T * chromatic_cycle(n)
    for k in range(1, len(positions) + 1):
        total = total - _contracted_spoke(n, positions[:k])
    return total


def _contracted_spoke(n: int, positions: list[int]) -> IntPoly:
    # P of the cycle plus the given spokes, with the last spoke contracted.
    m = len(positions)
    if m == 1:
        return chromatic_cycle(n)
    sizes = []
    for a in range(m):
        gap = (positions[(a + 1) % m] - positions[a]) % n
        sizes.append(gap + 2)
    sizes[m - 2] -= 1
    sizes[m - 1] -= 1
    return _chain_value(sizes, m - 1)
