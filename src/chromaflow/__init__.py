"""Exact chromatic and flow polynomials for join-tree structured graphs.

Core objects: IntPoly (exact integer polynomials), MultiGraph,
VertexJoinTree (a tree whose vertices join an extra apex with
multiplicities).  Fast paths: a heavy-path sweep for join-tree chromatic
polynomials, outerplanar flow polynomials through the dual tree, a
closed formula for joined cliques and one product over faces for the
chromatic and flow polynomials of generalized wheels.  Slow
deletion-contraction oracles back everything for validation.
"""

from .errors import (
    ChromaflowError,
    InvalidEdge,
    InvalidSize,
    InvalidTree,
    InvalidVertex,
    NonExactDivision,
    NoSpokes,
    NotBiconnected,
    NotOuterplanar,
    ParseError,
    SelfContract,
    TooLarge,
)
from .multigraph import MultiGraph
from .oracle import count_colorings, count_flows, oracle_chromatic, oracle_flow
from .outerplanar import OuterCycle, build_dual, find_outer_cycle, flow_outerplanar
from .polyring import (
    IntPoly,
    balanced_product,
    chromatic_complete,
    chromatic_cycle,
    chromatic_tree,
)
from .vjtree import VertexJoinTree, chromatic_vjtree
from .wheels import (
    PhiString,
    chromatic_clique_join,
    chromatic_wheel,
    chromatic_wheel_stepwise,
    chromatic_wheel_telescoped,
    flow_wheel,
    phi_dual,
)

__version__ = "0.1.0"

__all__ = [
    "ChromaflowError",
    "InvalidEdge",
    "InvalidSize",
    "InvalidTree",
    "InvalidVertex",
    "NonExactDivision",
    "NoSpokes",
    "NotBiconnected",
    "NotOuterplanar",
    "ParseError",
    "SelfContract",
    "TooLarge",
    "MultiGraph",
    "count_colorings",
    "count_flows",
    "oracle_chromatic",
    "oracle_flow",
    "OuterCycle",
    "build_dual",
    "find_outer_cycle",
    "flow_outerplanar",
    "IntPoly",
    "balanced_product",
    "chromatic_complete",
    "chromatic_cycle",
    "chromatic_tree",
    "VertexJoinTree",
    "chromatic_vjtree",
    "PhiString",
    "chromatic_clique_join",
    "chromatic_wheel",
    "chromatic_wheel_stepwise",
    "chromatic_wheel_telescoped",
    "flow_wheel",
    "phi_dual",
    "__version__",
]
