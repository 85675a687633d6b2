"""Span tracing from outside the library.

``Tracer.install`` replaces public functions on the module attributes their
callers look them up through (``relations.canonical_form`` is what the
search calls), so spans nest as the calls do.  No private name of the
library is touched.  Spans stay in memory until the run ends; a layer's
self time is its span's duration minus the spans it directly caused.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

# (module, attribute, span name).  The same function wrapped at two
# attributes reports under one name.
WRAPPED = (
    ("relations", "canonical_form", "canonical.canonical_form"),
    ("relations", "bipartite_minor_closure", "relations.bipartite_minor_closure"),
    ("relations", "bipartite_minor_trace", "relations.bipartite_minor_trace"),
    ("relations", "minor_model", "relations.minor_model"),
    ("relations", "admissible_pairs", "relations.admissible_pairs"),
    ("relations", "peripheral_cycles", "structure.peripheral_cycles"),
    ("relations", "component_count", "structure.component_count"),
    ("structure", "component_count", "structure.component_count"),
    ("relations", "contract_set", "graph_core.contract_set"),
    ("relations", "delete_vertex", "graph_core.delete_vertex"),
    ("relations", "delete_edge", "graph_core.delete_edge"),
    ("structure", "blocks", "structure.blocks"),
    ("structure", "is_k_connected", "structure.is_k_connected"),
    ("structure", "subgraph_embedding", "structure.subgraph_embedding"),
    ("serialize", "parse_graph6", "serialize.parse_graph6"),
    ("serialize", "witness_document", "serialize.witness_document"),
)

GRAPH_OPS = ("graph_core.contract_set", "graph_core.delete_vertex", "graph_core.delete_edge")

QUERY = "query"


def _form_size(cf) -> int:
    return cf.vertex_count + bin(cf.canonical_bits).count("1")


class Tracer:
    """Spans and result counters of one pass."""

    def __init__(self) -> None:
        # (name, parent index or -1, start ns, end ns); a slot is reserved
        # when a span opens so that children can point at it.
        self.spans: list = []
        self._stack = [-1]
        self.canon_inputs: set = set()
        self.canon_forms: set = set()
        self.closure_starts: list = []
        self.closure_members = 0

    def span(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, start, end)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _on_canonical(self, args, form) -> None:
        self.canon_inputs.add(args[0])
        self.canon_forms.add(form)

    def _on_closure(self, args, members) -> None:
        # Every move shrinks |V|+|E|, so the start is the unique largest member.
        self.closure_starts.append(max(members, key=_form_size))
        self.closure_members += len(members)

    def install(self, lib: SimpleNamespace) -> None:
        hooks = {
            "canonical.canonical_form": self._on_canonical,
            "relations.bipartite_minor_closure": self._on_closure,
        }
        for module, attr, name in WRAPPED:
            mod = getattr(lib, module)
            setattr(mod, attr, self.span(name, getattr(mod, attr), hooks.get(name)))

    def run_query(self, fn, *args):
        return self.span(QUERY, fn)(*args)

    # -- per-pass figures --------------------------------------------------

    def layers(self) -> tuple[Counter, Counter]:
        """Calls and self seconds per span name."""
        child_ns = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (name, _, start, end), inner in zip(self.spans, child_ns):
            calls[name] += 1
            self_s[name] += (end - start - inner) / 1e9
        return calls, self_s

    def counts(self) -> dict[str, float]:
        """Count-type figures: identical on every pass of one input."""
        calls, _ = self.layers()
        canon_calls = calls["canonical.canonical_form"]
        children = sum(calls[op] for op in GRAPH_OPS)
        closures = len(self.closure_starts)
        seen: set = set()
        repeats = 0
        for start in self.closure_starts:
            repeats += start in seen
            seen.add(start)
        return {
            "canonical.canonical_form.calls": canon_calls,
            "canonical.canonical_form.distinct_inputs": len(self.canon_inputs),
            "canonical.canonical_form.new_form_ratio": _ratio(len(self.canon_forms), canon_calls),
            "canonical.calls_per_member": _ratio(canon_calls, self.closure_members),
            "relations.bipartite_minor_closure.calls": closures,
            "relations.bipartite_minor_closure.repeat_start_ratio": _ratio(repeats, closures),
            "relations.moves.children": children,
            "relations.moves.new_state_ratio": _ratio(len(self.canon_forms), children),
            "graph_core.delete_vertex.calls": calls["graph_core.delete_vertex"],
            "graph_core.delete_edge.calls": calls["graph_core.delete_edge"],
            "graph_core.contract_set.calls": calls["graph_core.contract_set"],
            "structure.peripheral_cycles.calls": calls["structure.peripheral_cycles"],
            "structure.component_count.calls": calls["structure.component_count"],
            "structure.is_k_connected.calls": calls["structure.is_k_connected"],
            "closure.members": self.closure_members,
            "queries": calls[QUERY],
        }

    def times(self) -> dict[str, float]:
        """Self seconds of the layers, and traced wall time."""
        _, self_s = self.layers()
        out = {
            f"{name}.self_s": self_s[name]
            for name in (
                "canonical.canonical_form",
                "relations.bipartite_minor_closure",
                "relations.bipartite_minor_trace",
                "relations.admissible_pairs",
                "relations.minor_model",
                "structure.peripheral_cycles",
                "structure.component_count",
                "structure.blocks",
                "structure.is_k_connected",
                "structure.subgraph_embedding",
                "serialize.parse_graph6",
                "serialize.witness_document",
            )
        }
        out["graph_core.ops.self_s"] = sum(self_s[op] for op in GRAPH_OPS)
        out["trace.wall_s"] = sum(
            (end - start) / 1e9 for name, _, start, end in self.spans if name == QUERY
        )
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON: names once, then [name, parent, start, ns]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = self.spans[0][2] if self.spans else 0
        rows = [[index[n], p, s - base, e - s] for n, p, s, e in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": names, "spans": rows}, separators=(",", ":")))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
