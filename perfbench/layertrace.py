"""Outside-in tracing of chromaflow's layers.

The tracer wraps, from outside the package, every public module-level
function of each layer module, plus IntPoly's product and exact
division and MultiGraph's construction and queries, and rebinds the
wrapper on every chromaflow module that imported the name.  Each call
becomes a span (call id, span id, parent span id, name, start, end)
kept in memory; a span's self time is its duration minus the time its
child spans cover, tracer bookkeeping included.  A function that no
longer exists is simply not wrapped, and the metrics built on it are
left out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "multigraph", "outerplanar", "vjtree", "wheels", "polyring", "oracle")
METHODS = {
    "polyring": ("IntPoly", ("__mul__", "__rmul__", "exact_div")),
    "multigraph": ("MultiGraph", ("__init__", "bridges", "components", "induced_subgraph")),
}
# A product is skinny when its shorter operand has fewer coefficients than
# this.  Fixed here rather than read from the package, so the split stays
# put when the package's own cutoff moves.
SKINNY = 48

# metric -> span names whose self times it sums (in seconds)
SELF_TIMES = {
    "polyring.div_s": ("polyring.IntPoly.exact_div",),
    "vjtree.reduce_s": ("vjtree.reduce_multiplicities", "vjtree.chromatic_small_s"),
    "vjtree.strip_s": ("vjtree.strip_bridges",),
    "vjtree.root_s": ("vjtree.build_leveled",),
    "vjtree.sweep_s": ("vjtree.sweep",),
    "wheels.dual_s": ("wheels.phi_dual", "wheels.face_sizes"),
    "wheels.chromatic_s": ("wheels.chromatic_wheel_telescoped",),
    "wheels.flow_s": ("wheels.flow_wheel",),
    "wheels.clique_s": ("wheels.chromatic_clique_join",),
    "outerplanar.certify_s": ("outerplanar.find_outer_cycle",),
    "outerplanar.dual_s": ("outerplanar.build_dual",),
    "multigraph.bridges_s": ("multigraph.MultiGraph.bridges",),
    "multigraph.components_s": ("multigraph.MultiGraph.components",),
    "multigraph.induced_s": ("multigraph.MultiGraph.induced_subgraph",),
    "cli.parse_s": ("cli.parse_vjt_file", "cli.parse_gr_file"),
    "cli.format_s": ("cli.format_poly",),
    "cli.self_s": ("cli.run",),
}
CALL_COUNTS = {"polyring.div_calls": "polyring.IntPoly.exact_div"}
# counter -> (unit, span name that must exist for the counter to be reported)
COUNTERS = {
    "polyring.mul_skinny_calls": ("count", "polyring.IntPoly.__mul__"),
    "polyring.mul_skinny_s": ("s", "polyring.IntPoly.__mul__"),
    "polyring.mul_wide_calls": ("count", "polyring.IntPoly.__mul__"),
    "polyring.mul_wide_s": ("s", "polyring.IntPoly.__mul__"),
    "polyring.mul_in_mbit": ("Mbit", "polyring.IntPoly.__mul__"),
    "polyring.max_coeff_bits": ("bits", "polyring.IntPoly.__mul__"),
    "vjtree.core_vertices": ("count", "vjtree.strip_bridges"),
    "vjtree.bridges_stripped": ("count", "vjtree.strip_bridges"),
    "vjtree.bridge_factor_s": ("s", "vjtree.chromatic_vjtree"),
}


def _coeffs(x):
    if isinstance(x, int):
        return (x,)
    return getattr(x, "coeffs", None)


def _mul_hook(counts, args, result, self_s):
    a, b = _coeffs(args[0]), _coeffs(args[1])
    if a is None or b is None:
        return
    if min(len(a), len(b)) < SKINNY:
        counts["polyring.mul_skinny_calls"] += 1
        counts["polyring.mul_skinny_s"] += self_s
        return
    counts["polyring.mul_wide_calls"] += 1
    counts["polyring.mul_wide_s"] += self_s
    counts["polyring.mul_in_mbit"] += (sum(map(int.bit_length, a)) + sum(map(int.bit_length, b))) / 1e6
    out = _coeffs(result) or ()
    bits = max(map(int.bit_length, out), default=0)
    if bits > counts["polyring.max_coeff_bits"]:
        counts["polyring.max_coeff_bits"] = bits


def _strip_hook(counts, args, result, self_s):
    core = getattr(result, "core", None)
    if core is not None and hasattr(result, "b"):
        counts["vjtree.core_vertices"] += core.n
        counts["vjtree.bridges_stripped"] += result.b


HOOKS = {"polyring.IntPoly.__mul__": _mul_hook, "vjtree.strip_bridges": _strip_hook}


class Tracer:
    """Installs span-recording wrappers on the chromaflow modules."""

    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()
        self.call_id = 0
        self._next_id = itertools.count(1).__next__
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.stack: list[list] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[object, object] = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"chromaflow.{layer}")
            except ImportError:
                continue
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", layer, obj)
            cls_name, methods = METHODS.get(layer, (None, ()))
            cls = getattr(mod, cls_name, None) if cls_name else None
            for meth in methods:
                fn = vars(cls).get(meth) if cls is not None else None
                if inspect.isfunction(fn):
                    if fn not in wrappers:
                        wrappers[fn] = self._wrap(f"{layer}.{cls_name}.{meth}", layer, fn)
                    self._patch(cls, meth, wrappers[fn])
        for name, mod in list(sys.modules.items()):
            if name == "chromaflow" or name.startswith("chromaflow."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patch(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, layer: str, fn):
        self.wrapped.add(name)
        perf = time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = perf()
            stack = self.stack
            parent = stack[-1] if stack else None
            frame = [0.0, self._next_id(), layer, name]
            stack.append(frame)
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                stack.pop()
                self._close(frame, parent, t0, t1)
                if hook is not None:
                    hook(self.counts, args, result, t1 - t0 - frame[0])
                if parent is not None:
                    parent[0] += perf() - enter

        return traced

    def _close(self, frame, parent, t0: float, t1: float) -> None:
        _, span_id, layer, name = frame
        self_s = t1 - t0 - frame[0]
        self.self_s[name] += self_s
        self.calls[name] += 1
        self.spans.append((self.call_id, span_id, parent[1] if parent else 0, name, t0, t1))
        if layer == "polyring":
            # Polyring work whose nearest caller outside polyring is
            # chromatic_vjtree itself: the closing (t-1)^b factor.
            for up in reversed(self.stack):
                if up[2] != "polyring":
                    if up[3] == "vjtree.chromatic_vjtree":
                        self.counts["vjtree.bridge_factor_s"] += self_s
                    break

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything recorded since the last reset."""
        out: dict[str, tuple[float, str]] = {}
        for metric, names in SELF_TIMES.items():
            if any(n in self.wrapped for n in names):
                out[metric] = (sum(self.self_s[n] for n in names), "s")
        for metric, name in CALL_COUNTS.items():
            if name in self.wrapped:
                out[metric] = (self.calls[name], "count")
        for metric, (unit, name) in COUNTERS.items():
            if name in self.wrapped:
                out[metric] = (self.counts[metric], unit)
        for layer in LAYERS:
            names = [n for n in self.wrapped if n.startswith(layer + ".")]
            if names:
                out[f"{layer}.total_s"] = (sum(self.self_s[n] for n in names), "s")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["call", "span", "parent", "name", "start", "end"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
