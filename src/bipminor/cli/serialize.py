"""graph6 parsing/encoding, DOT export, and JSON witness documents.

graph6 packs ``graph_core.upper_bits`` (the upper triangle of the adjacency
matrix, column by column) into 6-bit groups, each stored as one printable
byte (value + 63), after a single size byte (n + 63, n <= 62 here).

A witness document records one relation verdict plus the evidence: an
operation trace for bipartite minors (labels refer to the pre-step graph
under the compact relabeling convention), or a branch-set map for minors
and subgraphs: a subgraph embedding is a minor model whose branch sets are
single vertices, and both are checked by ``validate_minor_model``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Mapping

from ..canonical import are_isomorphic
from ..graph_core import (
    Graph,
    GraphError,
    check_size_cap,
    from_upper_bits,
    upper_bits,
)
from ..relations import (
    AdmissibleContraction,
    EdgeDeletion,
    MinorModel,
    OpTrace,
    Step,
    VertexDeletion,
    WITNESS_SEARCHES,
    validate_minor_model,
)

GRAPH6_MAX = 62
LABELING_CONVENTION = "compact-min-position"


def emit_graph6(g: Graph) -> str:
    """Canonical-length graph6 encoding of the labelled graph."""
    n = g.vertex_count
    if n > GRAPH6_MAX:
        raise GraphError(f"graph6 output supports at most {GRAPH6_MAX} vertices")
    bits_needed = n * (n - 1) // 2
    groups = (bits_needed + 5) // 6
    bits = upper_bits(g) << (6 * groups - bits_needed)
    return chr(n + 63) + "".join(
        chr((bits >> 6 * k & 63) + 63) for k in reversed(range(groups))
    )


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 value; anything beyond surrounding whitespace is
    rejected."""
    s = text.strip()
    if not s:
        raise GraphError("empty graph6 string")
    head = ord(s[0])
    if head == 126:
        raise GraphError("graph6 input has more than 62 vertices (unsupported)")
    if not 63 <= head <= 126:
        raise GraphError(f"malformed graph6 header byte: {s[0]!r}")
    n = head - 63
    bits_needed = n * (n - 1) // 2
    body_len = (bits_needed + 5) // 6
    body = s[1:]
    if len(body) < body_len:
        raise GraphError("truncated graph6 bit section")
    if len(body) > body_len:
        raise GraphError(f"trailing garbage after graph6 value: {body[body_len:]!r}")

    bits = 0
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise GraphError(f"graph6 character out of range: {ch!r}")
        bits = (bits << 6) | val
    padding = 6 * body_len - bits_needed
    if bits & ((1 << padding) - 1):
        raise GraphError("nonzero padding bits in graph6 value")
    return from_upper_bits(n, bits >> padding)


def emit_dot(g: Graph) -> str:
    """DOT text with one line per vertex and per edge, in index order."""
    lines = ["graph {"]
    lines += [f"  {v};" for v in g.vertices]
    lines += [f"  {u} -- {v};" for u, v in sorted(g.edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# witness documents


# Each trace step's op name and class; the class's fields, in order, are
# the step's vertex labels in the document.
_STEP_OPS: dict[str, type[Step]] = {
    "delete_vertex": VertexDeletion,
    "delete_edge": EdgeDeletion,
    "admissible_contract": AdmissibleContraction,
}
_OP_NAMES = {cls: op for op, cls in _STEP_OPS.items()}


def _step_to_json(step: Step) -> dict:
    op = _OP_NAMES.get(type(step))
    if op is None:
        raise GraphError(f"unknown trace step: {step!r}")
    return {"op": op, **vars(step)}


def _vertex(x: object) -> int:
    """A vertex label from a witness document: a JSON integer."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise GraphError(f"witness vertex is not an integer: {x!r}")
    return x


def _step_from_json(obj: Mapping) -> Step:
    try:
        cls = _STEP_OPS.get(obj["op"])
        if cls is None:
            raise GraphError(f"unknown witness op: {obj['op']!r}")
        names = [f.name for f in fields(cls)]
        extra = set(obj) - {"op", *names}
        if extra:
            raise GraphError(f"witness step has unknown keys {sorted(extra)}: {obj!r}")
        return cls(*(_vertex(obj[name]) for name in names))
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed witness step: {obj!r}") from exc


def witness_document(
    relation: str,
    holds: bool,
    source: Graph,
    target: Graph,
    evidence: OpTrace | MinorModel | Mapping[int, int] | None,
) -> dict:
    """Assemble the JSON-serializable witness for one verdict."""
    _check_relation(relation)
    doc = {
        "relation": relation,
        "holds": holds,
        "source": emit_graph6(source),
        "target": emit_graph6(target),
        "labeling_convention": LABELING_CONVENTION,
        "steps": None,
    }
    if not holds:
        return doc
    if relation == "bipartite_minor":
        assert isinstance(evidence, OpTrace)
        doc["steps"] = [_step_to_json(s) for s in evidence.steps]
        return doc
    if relation == "subgraph":
        assert isinstance(evidence, Mapping)
        evidence = MinorModel(tuple(frozenset((v,)) for _, v in sorted(evidence.items())))
    assert isinstance(evidence, MinorModel)
    doc["steps"] = {str(i): sorted(bs) for i, bs in enumerate(evidence.branch_sets)}
    return doc


def _check_relation(relation: object) -> None:
    if not isinstance(relation, str) or relation not in WITNESS_SEARCHES:
        raise GraphError(f"unknown relation: {relation!r}")


def validate_witness(doc: Mapping) -> bool:
    """Re-check a witness document from scratch: parse both graphs, replay
    or validate a positive verdict's evidence or search again for a negative
    verdict, and confirm it.  Returns True or raises GraphError."""
    try:
        relation = doc["relation"]
        holds = doc["holds"]
        texts = doc["source"], doc["target"]
        convention = doc["labeling_convention"]
        steps = doc["steps"]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed witness document: missing field ({exc})") from exc
    if convention != LABELING_CONVENTION:
        raise GraphError(f"unknown labeling convention: {convention!r}")
    _check_relation(relation)
    if not isinstance(holds, bool):
        raise GraphError(f"holds must be true or false, not {holds!r}")
    if not all(isinstance(t, str) for t in texts):
        raise GraphError("source and target must be graph6 strings")
    source, target = (parse_graph6(t) for t in texts)
    # Replaying a contraction enumerates the cycles of the graph it acts on.
    check_size_cap(source)

    if not holds:
        if steps is not None:
            raise GraphError("negative witness must not carry steps")
        if WITNESS_SEARCHES[relation](target, source) is not None:
            raise GraphError(f"negative witness is false: the {relation} relation holds")
        return True

    if relation == "bipartite_minor":
        if not isinstance(steps, list):
            raise GraphError("bipartite_minor witness steps must be a list")
        trace = OpTrace(tuple(_step_from_json(s) for s in steps))
        final = trace.replay(source)
        if not are_isomorphic(final, target):
            raise GraphError("trace replay does not reach the target graph")
        return True

    # A subgraph embedding is a minor model whose branch sets are single
    # vertices.
    if not isinstance(steps, Mapping):
        raise GraphError(f"{relation} witness steps must map target vertices to lists")
    if set(steps) != {str(i) for i in range(target.vertex_count)}:
        raise GraphError(f"{relation} witness steps must be keyed by exactly the target vertices")
    sets = []
    for i in range(target.vertex_count):
        members = steps[str(i)]
        if not isinstance(members, list):
            raise GraphError(f"branch set {i} is not a list")
        if relation == "subgraph" and len(members) != 1:
            raise GraphError(f"image of target vertex {i} is not one vertex")
        sets.append(frozenset(_vertex(x) for x in members))
    validate_minor_model(MinorModel(tuple(sets)), target, source)
    return True
