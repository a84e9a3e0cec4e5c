"""Exact chromatic and flow polynomials for join-tree structured graphs.

Core objects: IntPoly (exact integer polynomials), MultiGraph,
VertexJoinTree (a tree whose vertices join an extra apex with
multiplicities).  Fast paths: a heavy-path sweep for join-tree chromatic
polynomials, outerplanar flow polynomials through the dual tree, a
closed formula for joined cliques and one product over faces for the
chromatic and flow polynomials of generalized wheels.  Slow
deletion-contraction oracles back everything for validation.

The namespace is lazy (PEP 562): importing the package loads none of
its modules, and each public name or submodule is imported on first
access.  So `import chromaflow.cli` loads errors, polyring and cli, and
a command line loads its own family module on first use.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each module and the public names it defines, in the order of __all__.
_NAMES = {
    "errors": ("ChromaflowError", "InvalidEdge", "InvalidSize", "InvalidTree", "InvalidVertex",
               "NonExactDivision", "NoSpokes", "NotBiconnected", "NotOuterplanar", "ParseError",
               "SelfContract", "TooLarge"),
    "multigraph": ("MultiGraph",),
    "oracle": ("count_colorings", "count_flows", "oracle_chromatic", "oracle_flow"),
    "outerplanar": ("OuterCycle", "build_dual", "find_outer_cycle", "flow_outerplanar"),
    "polyring": ("IntPoly", "balanced_product", "chromatic_complete", "chromatic_cycle",
                 "chromatic_tree"),
    "vjtree": ("VertexJoinTree", "chromatic_vjtree"),
    "wheels": ("PhiString", "chromatic_clique_join", "chromatic_wheel", "chromatic_wheel_stepwise",
               "chromatic_wheel_telescoped", "flow_wheel", "phi_dual"),
}
_EXPORTS = {name: module for module, names in _NAMES.items() for name in names}
_SUBMODULES = ("cli", "generators", *_NAMES)

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
