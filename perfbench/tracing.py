"""Spans around the public functions at each fthresh module boundary.

The tracer patches, from outside the library, the names listed in
``TARGETS`` and every other binding of the same function object inside the
``fthresh`` package (names callers imported with ``from .x import y``).
Each call becomes a span with a name, start, end, parent span and the op it
ran under; generator functions are timed across all their resumptions.
Per-name calls, inclusive time and self time (duration minus the part of it
covered by child spans) are aggregated for every call, while the span
records themselves are kept up to SPAN_CAP per phase and written out at the
end.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

SPAN_CAP = 100_000

# (module, attribute path) of every wrapped callable
TARGETS = (
    ("graphs", "automorphisms"),
    ("graphs", "canonical_form"),
    ("patterns", "pattern_preset"),
    ("patterns", "derive_params"),
    ("exponents", "select_constants"),
    ("fgraphs", "FEdge.from_embedding"),
    ("fgraphs", "copies_in"),
    ("fgraphs", "all_potential_copies"),
    ("fgraphs", "potential_copies_on"),
    ("fgraphs", "inducing_witness"),
    ("fgraphs", "find_avoidable"),
    ("dgraphs", "clean_cycle_types"),
    ("dgraphs", "sparse_cycle_placements"),
    ("dgraphs", "cycle_placements"),
    ("sampling", "graph_from_uniforms"),
    ("sampling", "sample_gnp"),
    ("sampling", "sample_hf"),
    ("sampling", "sample_gstar"),
    ("factors", "find_f_factor"),
    ("factors", "f_isolated"),
    ("exactengine", "get_engine"),
    ("exactengine", "ExactEngine.valid_h"),
    ("exactengine", "ExactEngine.mu"),
    ("exactengine", "ExactEngine.nu"),
    ("exactengine", "ExactEngine.valid_g_dense"),
    ("exactengine", "ExactEngine.g_weights"),
    ("exactengine", "ExactEngine.sample_g"),
    ("exactengine", "ExactEngine.h_cycle_ids"),
    ("exactengine", "ExactEngine.gstar_cycle_ids"),
    ("coupling", "run_coupling"),
    ("inventory", "inventory_size"),
    ("inventory", "build_inventory"),
    ("inventory", "chen_stein_bound"),
    ("cli", "auto_grid"),
    ("cli", "run_scan"),
)


def _count_result(tracer: "Tracer", name: str, result) -> None:
    """Counters read off return values at the layer boundary."""
    if name == "factors.find_f_factor":
        tracer.count(name + ".nodes_expanded", result.nodes_expanded)
    elif name == "inventory.build_inventory":
        tracer.count(name + ".items",
                     0 if result.items is None else len(result.items))
    elif name == "coupling.run_coupling":
        tracer.count("coupling.outcome." + result.outcome)
        tracer.count("coupling.steps", len(result.steps))
        tracer.count("coupling.q_contributors",
                     sum(s["q"]["n_contributors"] for s in result.steps))


class Tracer:
    """Span recorder for one process; install() and uninstall() swap the
    wrapped and original callables in place."""

    def __init__(self):
        self.phase = "setup"
        self.op = -1
        self.spans = defaultdict(list)  # phase -> span records
        self.spans_dropped = defaultdict(int)
        # phase -> name -> [calls, inclusive ns, self ns]
        self.agg = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
        self.counters = defaultdict(lambda: defaultdict(int))
        self._stack: list[list] = []  # [span id, name, start, child ns]
        self._active: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[self.phase][key] += amount

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter_ns(), 0]
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def _exit(self, frame: list, first_segment: bool = True) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, name, start, child = frame
        self._active[name] -= 1
        dur = end - start
        row = self.agg[self.phase][name]
        row[0] += first_segment
        if not self._active[name]:
            row[1] += dur  # inclusive time counts the outermost call only
        row[2] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        spans = self.spans[self.phase]
        if len(spans) < SPAN_CAP:
            spans.append((span_id, parent[0] if parent else None, self.op,
                          name, start, end))
        else:
            self.spans_dropped[self.phase] += 1

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                first = True
                while True:
                    frame = tracer._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._exit(frame, first)
                        return
                    except BaseException:
                        tracer._exit(frame, first)
                        raise
                    tracer._exit(frame, first)
                    first = False
                    yield item
            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            _count_result(tracer, name, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "fthresh" or k.startswith("fthresh.")]
        for mod_name, path in TARGETS:
            mod = sys.modules[f"fthresh.{mod_name}"]
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    patched = staticmethod(self._wrap(name, raw.__func__))
                else:
                    patched = self._wrap(name, raw)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, patched)
                continue
            fn = getattr(mod, path)
            wrapped = self._wrap(name, fn)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        self._patches.append((m, attr, fn))
                        setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting -----------------------------------------------------------

    def layer_table(self, phase: str) -> dict[str, dict[str, float]]:
        return {name: {"calls": row[0], "ms": row[1] / 1e6,
                       "self_ms": row[2] / 1e6}
                for name, row in sorted(self.agg[phase].items())}

    def write(self, path: str, meta: dict) -> None:
        data = {**meta,
                "layers": {ph: self.layer_table(ph) for ph in self.agg},
                "counters": {ph: dict(c) for ph, c in self.counters.items()},
                "span_fields": ["id", "parent", "op", "name", "start_ns",
                                "end_ns"],
                "spans_dropped": dict(self.spans_dropped),
                "spans": dict(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
