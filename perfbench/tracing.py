"""Spans and counts recorded from outside the program, around its entry points.

A :class:`Tracer` replaces module attributes with timing wrappers while it is
installed and puts the originals back when it is removed.  Names that the
program looks up at call time are patched in the namespace that looks them
up (``flatcover.cli.solve_exact``, ``flatcover.cover.generate_candidates``),
so calls made inside the program are seen too.

Every wrapped call belongs to a *group* such as ``cover.candidates``; the text
before the first dot is the layer.  For each group the tracer keeps the call
count and the inclusive time of its outermost calls (a group nested in itself
is counted once).  For each layer it keeps self time: a span's duration minus
the part covered by its child spans.  Calls of *hot* groups (millions of tiny
calls) are aggregated only; all other calls are also kept as span records
``(id, parent, instance, name, start, end)``.  Everything stays in memory
until the run writes it out once at the end.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module, attribute path, group, hot).  An attribute path with a dot names
# a method of a class in that module.  Targets that a later version of the
# program no longer has are skipped and listed in Tracer.missing.
PATCH_TABLE = (
    ("flatcover.cli", "_load_json", "io.parse", False),
    ("flatcover.io", "cloud_from_obj", "io.parse", False),
    ("flatcover.io", "cloud_from_csv", "io.parse", False),
    ("flatcover.io", "graph_from_obj", "io.parse", False),
    ("flatcover.io", "instance_from_obj", "io.parse", False),
    ("flatcover.io", "cover_solution_from_obj", "io.parse", False),
    ("flatcover.cli", "_write_output", "io.write", False),
    ("flatcover.io", "dumps_canonical", "io.write", False),
    ("flatcover.io", "cloud_to_obj", "io.write", False),
    ("flatcover.io", "clustering_solution_to_obj", "io.write", False),
    ("flatcover.io", "cover_solution_to_obj", "io.write", False),
    ("flatcover.io", "ds_instance_to_obj", "io.write", False),
    ("flatcover.io", "rmis_instance_to_obj", "io.write", False),
    ("flatcover.io", "build_manifest", "io.manifest", False),
    ("flatcover.geometry", "Hyperplane.contains", "geometry.contains", True),
    ("flatcover.cli", "best_fit_flat", "fitting.best_fit", True),
    ("flatcover.clustering", "best_fit_flat", "fitting.best_fit", True),
    ("flatcover.cover", "fit_hyperplane_exact", "fitting.hyperplane_fit", True),
    ("flatcover.cli", "solve_exact", "clustering.exact", False),
    ("flatcover.cli", "solve_heuristic", "clustering.heuristic", False),
    ("numpy.linalg", "eigvalsh", "clustering.eigvalsh", True),
    ("flatcover.cli", "solve_cover", "cover.solve", False),
    ("flatcover.cli", "solve_cover_kernelized", "cover.solve", False),
    ("flatcover.cover", "solve_cover", "cover.solve", False),
    ("flatcover.cover", "forced_line_kernel", "cover.kernel", False),
    ("flatcover.cover", "generate_candidates", "cover.candidates", False),
    ("flatcover.cover", "_solve_candidates", "cover.strategy_candidates", False),
    ("flatcover.cover", "_solve_partition", "cover.strategy_partition", False),
    ("flatcover.cover", "verify_cover", "cover.verify", False),
    ("flatcover.cli", "ds_to_hyperplane_cover", "reductions.build", False),
    ("flatcover.cli", "rmis_to_line_clustering", "reductions.build", False),
    ("flatcover.cli", "audit_rmis_instance", "reductions.audit", False),
    ("flatcover.cli", "exact_solution_cost", "reductions.cost", False),
    ("flatcover.reductions", "exact_cloud_cost", "reductions.cost_eval", False),
    ("flatcover.cli", "cover_to_dominating_set", "reductions.extract", False),
    ("flatcover.cli", "dominating_set_to_cover_witness", "reductions.extract", False),
    ("flatcover.cli", "independent_set_to_lines", "reductions.extract", False),
)


def _built_records(inst) -> int:
    cloud = getattr(inst, "cloud", None)
    if cloud is not None:
        return len(cloud.records)
    return int(inst.meta.get("record_estimate", 0))


# Counts taken from a group's return value: group -> (counter, function).
RESULT_COUNTS = {
    "cover.candidates": ("cover.candidates", len),
    "reductions.build": ("reductions.records", _built_records),
}


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.instance = None
        self._stack: list[list] = []
        self._depth: Counter = Counter()
        self._next_id = 0
        self._saved: list[tuple] = []

    def _wrap(self, fn, group: str, hot: bool):
        layer = group.split(".", 1)[0]
        result_count = RESULT_COUNTS.get(group)
        stack, depth = self._stack, self._depth
        inclusive, layer_self, calls = self.inclusive, self.layer_self, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            depth[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[group] -= 1
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                if not depth[group]:
                    inclusive[group] += dur
                layer_self[layer] += dur - frame[1]
                calls[group] += 1
                if not hot:
                    self.spans.append((span_id, parent, self.instance, group,
                                       start, end))
            if result_count is not None:
                self.counts[result_count[0]] += result_count[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, group: str, fn, *args, **kwargs):
        """Call fn as one span of ``group``; used for calls the benchmark makes."""
        return self._wrap(fn, group, False)(*args, **kwargs)

    def install(self) -> None:
        for module_name, path, group, hot in PATCH_TABLE:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            original = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, group, hot))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_time(self, layer: str) -> float:
        return self.layer_self.get(layer, 0.0)

    def dump(self) -> dict:
        return {
            "span_fields": ["id", "parent", "instance", "name", "start", "end"],
            "spans": self.spans,
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive),
            "layer_self_s": dict(self.layer_self),
            "counts": dict(self.counts),
            "missing_targets": self.missing,
        }
