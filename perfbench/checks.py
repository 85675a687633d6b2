"""Correctness checks on the results of the first timed pass.

They run after every timed pass, so they cannot warm state the timed
queries use.  Apart from ``validate_witness``, which the check of a
positive verdict calls on purpose, they share no code with bipminor:
graphs are decoded here, and networkx decides bipartiteness, isomorphism,
biconnectivity and subgraph monomorphism.  Each check returns the labels
of the queries that failed it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from types import SimpleNamespace

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

from workloads import CLOSURE_HOSTS, Query


def _graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def from_graph6(text: str) -> nx.Graph:
    return nx.from_graph6_bytes(text.encode())


def from_form(n: int, bits: int) -> nx.Graph:
    """Decode a canonical form: ``bits`` holds the upper triangle column by
    column, first bit most significant."""
    total = n * (n - 1) // 2
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return _graph(n, [p for k, p in enumerate(pairs) if bits >> (total - 1 - k) & 1])


def _two_connected(g: nx.Graph) -> bool:
    return g.number_of_nodes() >= 3 and nx.is_biconnected(g)


def _safe(check, *args):
    """The check's value, or None when it raises: a malformed result
    fails its check instead of stopping the run."""
    try:
        return check(*args)
    except Exception:
        return None


# ---------------------------------------------------------------------------


def _closure_ok(q: Query, members: list[str], size: int) -> bool:
    host = from_graph6(q.args[0])
    graphs = [from_graph6(m) for m in members]
    ok = len(members) == size == len(set(members)) and any(
        g.number_of_edges() == host.number_of_edges()
        and g.number_of_nodes() == host.number_of_nodes()
        and nx.is_isomorphic(host, g)
        for g in graphs
    )
    if nx.is_bipartite(host):
        ok = ok and all(nx.is_bipartite(g) for g in graphs)
    return ok


def check_closure_cold(queries: list[Query], results: list) -> list[str]:
    """Pinned closure sizes, the host among its members, and a bipartite
    host's members all bipartite."""
    sizes = {name: size for name, size, _, _ in CLOSURE_HOSTS}
    return [q.label for q, r in zip(queries, results) if not _safe(_closure_ok, q, r, sizes[q.label])]


def _blocks_ok(q: Query, r: dict) -> bool:
    host = from_graph6(q.args[0])
    want_blocks = sorted(
        sorted(tuple(sorted(e)) for e in comp) for comp in nx.biconnected_component_edges(host)
    )
    two_connected = {cf for cf in r["closure"] if _two_connected(from_form(*cf))}
    return (
        r["violations"] == 0
        and sorted(r["blocks"]) == want_blocks
        and two_connected == r["two_connected"]
    )


def check_block_restriction(queries: list[Query], results: list) -> list[str]:
    """No violation, and the blocks and the 2-connected members agree with
    networkx."""
    return [q.label for q, r in zip(queries, results) if not _safe(_blocks_ok, q, r)]


def _replay(source: nx.Graph, steps: list) -> nx.Graph:
    """Apply witness steps under the compact relabelling convention: labels
    above a removed vertex shift down; a contraction keeps the smaller
    label."""
    g = source
    for s in steps:
        if s["op"] == "delete_edge":
            g = g.copy()
            g.remove_edge(s["u"], s["v"])
            continue
        if s["op"] == "delete_vertex":
            gone, keep = s["v"], None
        else:
            keep, gone = sorted((s["u"], s["v"]))
        g = g.copy()
        if keep is not None:
            g.add_edges_from((keep, w) for w in g[gone] if w != keep)
        g.remove_node(gone)
        g = nx.relabel_nodes(g, {v: v - (v > gone) for v in g})
    return g


def _witness_holds(relation: str, doc: dict, h: nx.Graph, g: nx.Graph) -> bool:
    steps = doc["steps"]
    if relation == "bipartite_minor":
        return nx.is_isomorphic(_replay(g, steps), h)
    if relation == "minor":
        sets = [set(steps[str(i)]) for i in range(h.number_of_nodes())]
        owner = {v: i for i, s in enumerate(sets) for v in s}
        return (
            len(owner) == sum(map(len, sets))
            and all(s and nx.is_connected(g.subgraph(s)) for s in sets)
            and all(
                any(owner.get(y) == b for x in sets[a] for y in g[x])
                for a, b in h.edges
            )
        )
    image = {int(k): v[0] for k, v in steps.items()}
    return (
        len(set(image.values())) == len(image) == h.number_of_nodes()
        and all(v in g for v in image.values())
        and all(g.has_edge(image[a], image[b]) for a, b in h.edges)
    )


def _decide_ok(q: Query, doc: dict, lib: SimpleNamespace) -> bool:
    relation, h_text, g_text = q.args
    h, g = from_graph6(h_text), from_graph6(g_text)
    ok = doc["relation"] == relation and nx.utils.graphs_equal(from_graph6(doc["source"]), g)
    if doc["holds"]:
        ok = ok and lib.serialize.validate_witness(doc) and _witness_holds(relation, doc, h, g)
    if relation == "subgraph":
        ok = ok and doc["holds"] == GraphMatcher(g, h).subgraph_is_monomorphic()
    return ok


def check_decide_mix(
    queries: list[Query], results: list[str], lib: SimpleNamespace
) -> list[str]:
    """Every witness replays (``validate_witness`` and networkx), subgraph
    verdicts agree with networkx, and the verdicts of one pair and the
    harness's family facts are consistent."""
    bad = set()
    verdicts: dict[str, dict[str, bool]] = defaultdict(dict)
    for q, text in zip(queries, results):
        relation = q.args[0]
        doc = _safe(json.loads, text)
        if isinstance(doc, dict):
            verdicts[q.label][relation] = doc.get("holds")
        if not _safe(_decide_ok, q, doc, lib):
            bad.add(q.label)
    for label, v in verdicts.items():
        if v.get("subgraph") and not (v.get("minor") and v.get("bipartite_minor")):
            bad.add(label)  # subgraph => minor and subgraph => bipartite minor
        if v.get("bipartite_minor") and v.get("minor") is False:
            bad.add(label)  # bipartite minor => minor
        if label.startswith("bull(") and v.get("minor") is not False:
            bad.add(label)  # a bull is a minor of no cycle
        if label.startswith("dog(") and (not v.get("minor") or v.get("bipartite_minor", False)):
            bad.add(label)  # a stretched dog: a minor, never a bipartite minor
    return sorted(bad)
