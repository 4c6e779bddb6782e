"""Per-layer tracing of ptalgebra, installed from outside the package.

The layers are ptalgebra's modules.  ``LAYERS`` names, for each metric
group, the functions and methods that make up its boundary.  ``Tracer``
replaces each of them with a timing wrapper at every place it is bound:
a function imported by name (``from .algebra import mul_generators`` in
``checks``) is replaced in every ptalgebra module that holds it, and a
method is replaced on its class.  Nothing under ``src/`` changes.

Each wrapped call adds to its target's call count, inclusive time and
self time (inclusive time minus the time of wrapped calls made inside
it).  Calls of groups that are not hot are also kept as spans
``(id, parent, name, start, end)``, where the parent is the nearest
enclosing span; hot groups run about 10^6 times per workload and are
only aggregated.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass

# group -> (home module, hot, targets); "Class.method" names a method.
LAYERS: dict[str, tuple[str, bool, tuple[str, ...]]] = {
    "oracle.build": ("ptalgebra.oracle", False, (
        "perm_operator", "transposed_perm_operator", "partial_transpose_last",
        "element_operator", "identity_operator", "zero_operator")),
    "oracle.matmul": ("ptalgebra.oracle", True, ("TensorOp.__matmul__",)),
    "oracle.linear": ("ptalgebra.oracle", True, (
        "TensorOp.__add__", "TensorOp.__sub__", "TensorOp.__rmul__",
        "TensorOp.adjoint")),
    "oracle.compare": ("ptalgebra.oracle", True, (
        "TensorOp.distance", "TensorOp.max_abs", "TensorOp.trace")),
    "oracle.span_dimension": ("ptalgebra.oracle", False, ("span_dimension",)),
    "oracle.matrix_operators_E": ("ptalgebra.oracle", False, ("matrix_operators_E",)),
    "algebra.mul_generators": ("ptalgebra.algebra", True, ("mul_generators",)),
    "algebra.element_mul": ("ptalgebra.algebra", False, ("AlgebraElement.__mul__",)),
    "algebra.u_element": ("ptalgebra.algebra", False, ("u_element",)),
    "reduction.xa_reduce": ("ptalgebra.reduction", False, ("xa_reduce",)),
    "permutations.compose": ("ptalgebra.permutations", True, ("Permutation.__mul__",)),
    "permutations.inverse": ("ptalgebra.permutations", True, ("Permutation.inverse",)),
    "permutations.other": ("ptalgebra.permutations", True, (
        "Permutation.identity", "Permutation.transposition",
        "Permutation.from_cycles", "Permutation.parse", "Permutation.is_identity",
        "Permutation.cycles", "Permutation.cycle_count", "Permutation.cycle_type",
        "Permutation.sign", "Permutation.cycle_string",
        "Permutation.one_line_string", "Permutation.classify",
        "Permutation.fixes_last", "Permutation.embed", "Permutation.restrict",
        "compose")),
    "dpoly": ("ptalgebra.dpoly", True, (
        "DPoly.d", "DPoly.is_zero", "DPoly.__add__", "DPoly.__radd__",
        "DPoly.__neg__", "DPoly.__sub__", "DPoly.__rsub__", "DPoly.__mul__",
        "DPoly.__rmul__", "DPoly.__pow__", "DPoly.__call__", "DPoly.__str__")),
    "yor.irrep": ("ptalgebra.yor", True, ("irrep",)),
    "yor.image": ("ptalgebra.yor", True, ("SymmetricGroupIrrep.image",)),
    "induced.matrix": ("ptalgebra.induced", True, ("InducedRep.matrix",)),
    "induced.z_matrix": ("ptalgebra.induced", False, ("z_matrix",)),
    "induced.q_matrix": ("ptalgebra.induced", False, ("q_matrix",)),
    "induced.q_via_induced": ("ptalgebra.induced", False, ("q_via_induced",)),
    "induced.spectral_q": ("ptalgebra.induced", False, ("spectral_q",)),
    "irreps.image": ("ptalgebra.irreps", True, ("AlgebraIrrep.image",)),
    "irreps.build": ("ptalgebra.irreps", False, (
        "irrep_M_f", "irrep_M_e", "irrep_S", "all_irreps")),
    "irreps.structure_report": ("ptalgebra.irreps", False, ("structure_report",)),
    "irreps.unit_of_M": ("ptalgebra.irreps", False, ("unit_of_M",)),
    "checks.mul_rule": ("ptalgebra.checks", False, ("check_mul_rule",)),
    "checks.associativity": ("ptalgebra.checks", False, ("check_associativity",)),
    "checks.adjoint_transport": ("ptalgebra.checks", False, ("check_adjoint_transport",)),
    "checks.spectra": ("ptalgebra.checks", False, ("check_spectra",)),
    "checks.irreps": ("ptalgebra.checks", False, ("check_irreps",)),
    "checks.dimensions": ("ptalgebra.checks", False, ("check_dimensions",)),
    "checks.matrix_operators": ("ptalgebra.checks", False, ("check_matrix_operators",)),
    "checks.reduced_matrix_units": ("ptalgebra.checks", False, (
        "check_reduced_matrix_units",)),
    "checks.u_structure": ("ptalgebra.checks", False, ("check_u_structure",)),
    "checks.unit_of_M": ("ptalgebra.checks", False, ("check_unit_of_m",)),
    "checks.run_suite": ("ptalgebra.checks", False, ("run_suite",)),
    "cli.build_mul_table": ("ptalgebra.cli", False, ("build_mul_table",)),
}

# The span the worker opens around each CLI command.
COMMAND_GROUP = "cli.command"

CHECK_NAMES = ("mul_rule", "associativity", "adjoint_transport", "spectra",
               "irreps", "dimensions", "matrix_operators",
               "reduced_matrix_units", "u_structure", "unit_of_M")


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Wraps the ``LAYERS`` targets while installed; see the module docstring."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.groups: dict[str, str] = {}
        self.spans: list[tuple] = []
        self.nnz_built = 0
        self.missing: list[str] = []
        self.sites: dict[str, list[str]] = {}
        self._stack: list[list] = [[0.0, None]]  # [child time, span id]
        self._next_id = 0
        self._build_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self):
        for home in {home for home, _hot, _targets in LAYERS.values()}:
            try:
                importlib.import_module(home)
            except ImportError:
                pass
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ptalgebra"
                                         or name.startswith("ptalgebra."))]
        for group, (home, hot, targets) in LAYERS.items():
            module = sys.modules.get(home)
            for target in targets:
                key = f"{home}.{target}"
                if module is None:
                    self.missing.append(key)
                elif "." in target:
                    self._wrap_method(module, target, group, hot, key)
                else:
                    self._wrap_function(modules, module, target, group, hot, key)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap_function(self, modules, home, name, group, hot, key):
        original = getattr(home, name, None)
        if original is None:
            self.missing.append(key)
            return
        wrapper = self._wrapper(original, group, hot, key)
        sites = self.sites.setdefault(key, [])
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))
                    sites.append(f"{module.__name__}.{attr}")

    def _wrap_method(self, home, target, group, hot, key):
        cls_name, attr = target.split(".")
        cls = getattr(home, cls_name, None)
        raw = None if cls is None else cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(key)
            return
        if isinstance(raw, staticmethod):
            new = staticmethod(self._wrapper(raw.__func__, group, hot, key))
        else:
            new = self._wrapper(raw, group, hot, key)
        setattr(cls, attr, new)
        self._patches.append((cls, attr, raw))
        self.sites[key] = [f"{home.__name__}.{target}"]

    # -- recording --------------------------------------------------------

    def _wrapper(self, fn, group, hot, key):
        stat = self.stats.setdefault(key, Stat())
        self.groups[key] = group
        stack = self._stack
        perf = time.perf_counter
        build = group == "oracle.build"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if hot:
                span_id = parent[1]
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            if build:
                self._build_depth += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[0]
                if not hot:
                    self.spans.append((span_id, parent[1], key, start, end))
                if build:
                    self._build_depth -= 1
            if build and self._build_depth == 0:
                matrix = getattr(result, "matrix", None)
                self.nnz_built += int(getattr(matrix, "nnz", 0))
            return result

        return wrapper

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a recorded span that is not one of the targets."""
        return self._wrapper(fn, name, False, name)(*args, **kwargs)

    def write_spans(self, path):
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")

    # -- metrics ----------------------------------------------------------

    def group_stat(self, prefix: str) -> Stat:
        """Sum of the stats of every target whose group is or starts with prefix."""
        total = Stat()
        for key, group in self.groups.items():
            if group == prefix or group.startswith(prefix + "."):
                stat = self.stats[key]
                total.calls += stat.calls
                total.total_s += stat.total_s
                total.self_s += stat.self_s
        return total

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric, by name; counts are ints, times seconds."""
        out: dict[str, float] = {}

        def calls_and_self(group):
            stat = self.group_stat(group)
            out[f"{group}.calls"] = stat.calls
            out[f"{group}.self_s"] = stat.self_s

        for group in ("oracle.build", "oracle.matmul", "oracle.linear",
                      "oracle.compare", "oracle.span_dimension",
                      "oracle.matrix_operators_E", "algebra.mul_generators",
                      "algebra.element_mul", "algebra.u_element",
                      "reduction.xa_reduce", "yor.image", "induced.matrix",
                      "induced.z_matrix", "irreps.image", "irreps.build"):
            calls_and_self(group)
        out["oracle.nnz_built"] = self.nnz_built
        out["permutations.compose.calls"] = self.group_stat("permutations.compose").calls
        out["permutations.inverse.calls"] = self.group_stat("permutations.inverse").calls
        out["permutations.self_s"] = self.group_stat("permutations").self_s
        out["dpoly.calls"] = self.group_stat("dpoly").calls
        out["dpoly.self_s"] = self.group_stat("dpoly").self_s
        out["yor.irrep.calls"] = self.group_stat("yor.irrep").calls
        for group in ("induced.q_matrix", "induced.q_via_induced",
                      "induced.spectral_q", "irreps.structure_report",
                      "irreps.unit_of_M"):
            out[f"{group}.self_s"] = self.group_stat(group).self_s
        for check in CHECK_NAMES:
            out[f"checks.{check}.s"] = self.group_stat(f"checks.{check}").total_s
        out["checks.self_s"] = self.group_stat("checks").self_s
        out["cli.build_mul_table.s"] = self.group_stat("cli.build_mul_table").total_s
        out["cli.self_s"] = self.group_stat("cli").self_s
        return out
