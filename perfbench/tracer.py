"""Spans around the calls into each `conndim` layer, installed from outside.

`Tracer.enable` replaces each traced function wherever a `conndim` module
binds it (`conndim.solver.pair_coverage`, `conndim.satreduce.kappa_matrix`,
...), so calls one layer makes into another get spans too.  A function that
a later refactor removes is reported with no bindings instead of failing.
The benchmark calls `conndim` from one thread, so one span stack suffices.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (layer.function, defining module, attribute)
TARGETS = (
    ("kernels.flow_many", "conndim._kernels", "flow_many"),
    ("connectivity.kappa_matrix", "conndim.connectivity", "kappa_matrix"),
    ("connectivity.distance_matrix", "conndim.connectivity",
     "distance_matrix"),
    ("resolver.pair_coverage", "conndim.resolver", "pair_coverage"),
    ("resolver.is_resolving", "conndim.resolver", "is_resolving"),
    ("graphs.twin_classes", "conndim.graphs", "twin_classes"),
    ("graphs.block_cut_tree", "conndim.graphs", "block_cut_tree"),
    ("graphs.is_connected", "conndim.graphs", "is_connected"),
    ("solver.cdim_exact", "conndim.solver", "cdim_exact"),
    ("solver.mdim_exact", "conndim.solver", "mdim_exact"),
    ("satreduce.build_reduction", "conndim.satreduce", "build_reduction"),
    ("satreduce.decide_sat", "conndim.satreduce", "decide_sat"),
)
OP = "op"  # the benchmark's own span around one whole operation


class Tracer:
    def __init__(self):
        # span i: (name, start, end, parent span or -1, operation id)
        self.spans: list = []
        self.calls = {name: 0 for name, _, _ in TARGETS}
        self.self_s = {name: 0.0 for name, _, _ in TARGETS}
        self.flow_pairs = 0
        self.bindings = {name: [] for name, _, _ in TARGETS}
        self.op_id = -1
        self._stack: list = []  # [span index, time covered by children]
        self._sites: list = []  # (module, attribute, original, wrapper)
        self._find_sites()

    def _enter(self) -> tuple[list, float]:
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame, perf_counter()

    def _exit(self, name: str, frame: list, start: float) -> float:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[frame[0]] = (name, start, end,
                                parent[0] if parent else -1, self.op_id)
        duration = end - start
        if parent:
            parent[1] += duration
        return duration - frame[1]

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as operation op_id under a root span."""
        self.op_id = op_id
        frame, start = self._enter()
        try:
            return fn(*args)
        finally:
            self._exit(OP, frame, start)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "kernels.flow_many":
                tracer.flow_pairs += len(args[2] if len(args) > 2
                                         else kwargs["pairs"])
            frame, start = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.self_s[name] += tracer._exit(name, frame, start)
                tracer.calls[name] += 1
        return traced

    def _find_sites(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "conndim" or key.startswith("conndim.")]
        for name, module, attr in TARGETS:
            try:
                original = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                continue
            traced = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._sites.append((mod, key, original, traced))
                        self.bindings[name].append(f"{mod.__name__}.{key}")

    def enable(self) -> None:
        for mod, key, _, traced in self._sites:
            setattr(mod, key, traced)

    def disable(self) -> None:
        for mod, key, original, _ in self._sites:
            setattr(mod, key, original)

    def calls_by_entry(self) -> dict:
        """Call counts grouped by the function the operation called first,
        e.g. how many pair_coverage calls ran inside cdim_exact."""
        entry: list = []
        out: dict = {}
        for name, _, _, parent, _ in self.spans:
            if parent < 0:
                entry.append(None)
                continue
            top = entry[parent] or name
            entry.append(top)
            out.setdefault(top, {}).setdefault(name, 0)
            out[top][name] += 1
        return out

    def dump(self) -> dict:
        names = [OP] + [name for name, _, _ in TARGETS]
        index = {name: i for i, name in enumerate(names)}
        return {"fields": ["name", "start_s", "end_s", "parent", "op"],
                "names": names,
                "spans": [[index[s[0]], *s[1:]] for s in self.spans]}
