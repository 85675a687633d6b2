"""Inputs and queries of the three benchmark workloads.

Every input is plain text (graph6), so a query parses its graphs with the
package it runs against, as ``bipminor check`` and ``bipminor closure`` do.
The library is reached only through module attributes
(``lib.relations.bipartite_minor_closure``), so the wrappers that
``tracing.py`` installs on those attributes see every call.

Host samples are fixed; ``--seed`` sets the order in which the queries of
a pass run.  A sample drawn per seed moved the block-restriction pass time
by 35-56% across seeds (one 9-vertex host of cycle rank 3 costs about 10 s
on its own), and a seeded vertex relabelling of fixed hosts moved it by
14%, both beyond any bound the benchmark can keep.  block-restriction keeps
the harness's host order whatever the seed: its hosts share closures, so
the order changes the work (a shuffled order moved its pass time by 14%).
"""

from __future__ import annotations

import gc
import importlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"

# The harness's own seed for the blocks.restriction claim.
SAMPLE_SEED = 6174
BLOCK_HOSTS = 30
MIX_HOSTS = 12
MIX_MOVED_TARGETS = 3
MIX_UNRELATED_TARGETS = 2
MIX_HOST_MAX_VERTICES = 9
RELATIONS = ("bipartite_minor", "minor", "subgraph")

# (name, closure size that checks.py pins, family, arguments)
CLOSURE_HOSTS = (
    ("C_8", 102, "cycle", (8,)),
    ("C_10", 272, "cycle", (10,)),
    ("B(6,2)", 138, "bull", (6, (2,))),
    ("D(6,4)", 172, "dog", (6, (4,))),
    ("D(6,3,3)", 307, "dog", (6, (3, 3))),
    ("D(5,4,4)", 477, "dog", (5, (4, 4))),
)


def fresh_import() -> SimpleNamespace:
    """Drop every loaded bipminor module and import the package again.

    Nothing an earlier query left in module state survives, which is what
    a new CLI process sees.  Only public modules are returned.
    """
    if not (SRC / "bipminor" / "__init__.py").is_file():
        raise FileNotFoundError(f"bipminor sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "bipminor" or n.startswith("bipminor.")]:
        # Empty the namespace, as interpreter shutdown does: objects that
        # outlive the module (typing caches keep its classes, and with them
        # its globals) then hold none of its state.
        sys.modules.pop(name).__dict__.clear()
    gc.collect()
    importlib.import_module("bipminor.cli")
    mods = {
        short: sys.modules[f"bipminor.{full}"]
        for short, full in (
            ("graph_core", "graph_core"),
            ("canonical", "canonical"),
            ("structure", "structure"),
            ("relations", "relations"),
            ("families", "families"),
            ("serialize", "cli.serialize"),
            ("harness", "cli.harness"),
        )
    }
    return SimpleNamespace(**mods)


@dataclass(frozen=True)
class Query:
    """One closed-loop request: ``args`` are graph6 texts and names only."""

    kind: str
    args: tuple
    label: str


# ---------------------------------------------------------------------------
# input generation (families and harness generators; counted in setup_s)


def _closure_cold_inputs(lib: SimpleNamespace) -> list[Query]:
    emit = lib.serialize.emit_graph6
    out = []
    for name, _, family, args in CLOSURE_HOSTS:
        g = getattr(lib.families, family)(*args)
        out.append(Query("closure", (emit(g),), name))
    return out


def _block_restriction_inputs(lib: SimpleNamespace) -> list[Query]:
    emit = lib.serialize.emit_graph6
    hosts = lib.harness.random_connected_graphs(BLOCK_HOSTS, 9, SAMPLE_SEED)
    return [Query("blocks", (emit(g),), f"host{i}") for i, g in enumerate(hosts)]


def _random_moves(lib: SimpleNamespace, g, rng: random.Random):
    """One to three random deletions or edge contractions of ``g``."""
    core = lib.graph_core
    for _ in range(rng.randint(1, 3)):
        ops = ["vertex"] if g.vertex_count > 2 else []
        if g.edge_count:
            ops += ["edge", "contract"]
        if not ops:
            break
        op = rng.choice(ops)
        if op == "vertex":
            g = core.delete_vertex(g, rng.randrange(g.vertex_count))
        else:
            u, v = rng.choice(sorted(g.edges))
            g = core.delete_edge(g, u, v) if op == "edge" else core.contract_set(g, (u, v))
    return g


def _decide_mix_inputs(lib: SimpleNamespace) -> list[Query]:
    emit = lib.serialize.emit_graph6
    harness, families = lib.harness, lib.families
    rng = random.Random(SAMPLE_SEED)
    out = []
    hosts = harness.random_connected_graphs(MIX_HOSTS, MIX_HOST_MAX_VERTICES, SAMPLE_SEED)
    for i, g in enumerate(hosts):
        targets = [_random_moves(lib, g, rng) for _ in range(MIX_MOVED_TARGETS)]
        targets += harness.random_connected_graphs(
            MIX_UNRELATED_TARGETS, max(3, g.vertex_count), rng.randrange(2**32)
        )
        for j, h in enumerate(targets):
            # Every random pair is asked under all three relations, so the
            # checks can hold the verdicts of one pair against each other.
            for rel in RELATIONS:
                out.append(Query("decide", (rel, emit(h), emit(g)), f"pair{i}.{j}"))
    for snout, horn in harness.BULL_CASES:
        h = families.bull(snout, [horn])
        for p in range(3, 13):
            out.append(
                Query("decide", ("minor", emit(h), emit(families.cycle(p))),
                      f"bull({snout},{horn})/C_{p}")
            )
    for snout, stretch, ears in harness.DOG_CASES:
        h = families.dog(snout, list(ears))
        g = families.dog(snout + stretch, list(ears))
        label = f"dog({snout},{ears})/+{stretch}"
        out.append(Query("decide", ("minor", emit(h), emit(g)), label))
        if g.vertex_count <= MIX_HOST_MAX_VERTICES:
            out.append(Query("decide", ("bipartite_minor", emit(h), emit(g)), label))
    return out


# ---------------------------------------------------------------------------
# queries (the timed work)


def closure_query(lib: SimpleNamespace, host: str) -> list[str]:
    """``bipminor closure``: every member as graph6, in canonical order."""
    g = lib.serialize.parse_graph6(host)
    members = lib.relations.bipartite_minor_closure(g)
    emit = lib.serialize.emit_graph6
    return [emit(cf.to_graph()) for cf in sorted(members)]


def blocks_query(lib: SimpleNamespace, host: str) -> dict:
    """The harness's blocks.restriction claim for one host: every
    standard-2-connected closure member must lie in a block's closure."""
    relations, structure = lib.relations, lib.structure
    g = lib.serialize.parse_graph6(host)
    closure = relations.bipartite_minor_closure(g)
    decomposition = structure.blocks(g)
    reachable = set()
    for block in decomposition.blocks:
        reachable |= relations.bipartite_minor_closure(block.to_graph())
    two_connected = [
        cf for cf in closure if structure.is_k_connected(cf.to_graph(), 2, "standard")
    ]
    # Plain tuples, so a kept result holds no state of this pass's package.
    return {
        "closure": frozenset((cf.vertex_count, cf.canonical_bits) for cf in closure),
        "blocks": [sorted(b.edges) for b in decomposition.blocks],
        "two_connected": frozenset((cf.vertex_count, cf.canonical_bits) for cf in two_connected),
        "violations": sum(cf not in reachable for cf in two_connected),
    }


def decide_query(lib: SimpleNamespace, relation: str, target: str, source: str) -> str:
    """``bipminor check <relation> H G --witness``: the witness JSON text."""
    parse = lib.serialize.parse_graph6
    h, g = parse(target), parse(source)
    if relation == "bipartite_minor":
        evidence = lib.relations.bipartite_minor_trace(h, g)
    elif relation == "minor":
        evidence = lib.relations.minor_model(h, g)
    else:
        evidence = lib.structure.subgraph_embedding(h, g)
    doc = lib.serialize.witness_document(relation, evidence is not None, g, h, evidence)
    return json.dumps(doc)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[SimpleNamespace], list[Query]]
    # closure-cold re-imports the package before every query; the others
    # once per pass, so queries of one pass share whatever state the
    # library keeps, and passes do not.
    import_per_query: bool
    seeded_order: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("closure-cold", _closure_cold_inputs, True, True),
        Workload("block-restriction", _block_restriction_inputs, False, False),
        Workload("decide-mix", _decide_mix_inputs, False, True),
    )
}

QUERY_FUNCS = {"closure": closure_query, "blocks": blocks_query, "decide": decide_query}


def build_inputs(workload: str, seed: int) -> list[Query]:
    """Import the package fresh, build the workload's queries, and put them
    in the order the seed draws."""
    lib = fresh_import()
    queries = WORKLOADS[workload].make_inputs(lib)
    if WORKLOADS[workload].seeded_order:
        random.Random(seed).shuffle(queries)
    return queries


def run_query(lib: SimpleNamespace, query: Query):
    return QUERY_FUNCS[query.kind](lib, *query.args)
