import json
import random
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings

from bipminor.canonical import are_isomorphic, canonical_form
from bipminor.families import bull, cycle, dog, h_tree, path
from bipminor.graph_core import GraphError, SizeCapExceeded, build
from bipminor.relations import WITNESS_SEARCHES, bipartite_minor_trace, minor_model
from bipminor.structure import subgraph_embedding
from bipminor.cli.harness import (
    BULL_CASES,
    DOG_CASES,
    H_FOREST_LENGTHS,
    enumerate_trees,
)
from bipminor.cli.serialize import (
    emit_dot,
    emit_graph6,
    parse_graph6,
    validate_witness,
    witness_document,
)

import oracles
from oracles import graphs, random_graph


class TestGraph6:
    def test_five_isolated_vertices(self):
        g = parse_graph6("D??")
        assert g.vertex_count == 5 and g.edge_count == 0

    def test_known_encoding(self):
        # n=5 with edges 0-2, 0-4, 1-3, 3-4 packs to "DQc".
        g = build(5, [(0, 2), (0, 4), (1, 3), (3, 4)])
        assert emit_graph6(g) == "DQc"
        assert parse_graph6("DQc") == g

    def test_empty_graph(self):
        assert emit_graph6(build(0, [])) == "?"
        assert parse_graph6("?") == build(0, [])

    def test_round_trip_random(self):
        rng = random.Random(51)
        for _ in range(1000):
            g = random_graph(rng, 20)
            assert parse_graph6(emit_graph6(g)) == g

    def test_round_trip_string_identity(self):
        rng = random.Random(52)
        for _ in range(200):
            s = emit_graph6(random_graph(rng, 15))
            assert emit_graph6(parse_graph6(s)) == s

    def test_labeled_not_canonical(self):
        a = cycle(4)
        b = build(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
        assert are_isomorphic(a, b)
        assert emit_graph6(a) != emit_graph6(b)

    def test_agrees_with_networkx(self):
        rng = random.Random(53)
        for _ in range(150):
            g = random_graph(rng, 12)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(g.vertex_count))
            nxg.add_edges_from(g.edges)
            want = nx.to_graph6_bytes(nxg, header=False).decode().strip()
            assert emit_graph6(g) == want
            back = nx.from_graph6_bytes(want.encode())
            assert parse_graph6(want).edge_count == back.number_of_edges()

    def test_empty_string_rejected(self):
        with pytest.raises(GraphError, match="empty"):
            parse_graph6("")

    def test_truncation_rejected(self):
        with pytest.raises(GraphError, match="truncated"):
            parse_graph6("D?")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(GraphError, match="trailing"):
            parse_graph6("D??a")

    def test_out_of_range_character_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            parse_graph6("D?!")

    def test_nonzero_padding_rejected(self):
        # C_5 needs 10 bits; the last two bits of the final byte are pad.
        good = emit_graph6(cycle(5))
        bad = good[:-1] + chr(((ord(good[-1]) - 63) | 1) + 63)
        with pytest.raises(GraphError, match="padding"):
            parse_graph6(bad)

    def test_oversized_rejected(self):
        with pytest.raises(GraphError, match="62"):
            emit_graph6(build(63, []))
        with pytest.raises(GraphError, match="62|unsupported"):
            parse_graph6("~??")

    @settings(max_examples=120, deadline=None)
    @given(graphs(max_vertices=20))
    def test_round_trip_property(self, g):
        assert parse_graph6(emit_graph6(g)) == g


class TestDot:
    def test_c4_line_counts(self):
        text = emit_dot(cycle(4))
        lines = text.strip().splitlines()
        edge_lines = [ln for ln in lines if "--" in ln]
        node_lines = [ln for ln in lines if ln.strip().rstrip(";").isdigit()]
        assert len(edge_lines) == 4
        assert len(node_lines) == 4

    def test_bull_edge_count(self):
        text = emit_dot(bull(3, [1, 1]))
        assert sum("--" in ln for ln in text.splitlines()) == 5

    def test_deterministic(self):
        assert emit_dot(dog(6, [4, 4])) == emit_dot(dog(6, [4, 4]))


class TestWitnessDocuments:
    def test_bipartite_minor_witness_round_trip(self):
        source, target = cycle(6), bull(4, [1])
        trace = bipartite_minor_trace(target, source)
        doc = witness_document("bipartite_minor", True, source, target, trace)
        assert doc["labeling_convention"] == "compact-min-position"
        assert validate_witness(json.loads(json.dumps(doc)))

    def test_unknown_relation_rejected(self):
        with pytest.raises(GraphError, match="unknown relation"):
            witness_document("bogus", False, cycle(6), path(2), None)

    def test_source_above_the_cap_rejected(self, monkeypatch):
        doc = witness_document("minor", False, build(15, []), path(2), None)
        monkeypatch.delenv("BIPMINOR_SIZE_CAP", raising=False)
        with pytest.raises(SizeCapExceeded):
            validate_witness(doc)
        monkeypatch.setenv("BIPMINOR_SIZE_CAP", "15")
        assert validate_witness(doc)

    def test_minor_witness_round_trip(self):
        source, target = dog(6, [3, 3]), dog(5, [3, 3])
        model = minor_model(target, source)
        doc = witness_document("minor", True, source, target, model)
        assert validate_witness(json.loads(json.dumps(doc)))

    def test_subgraph_witness_round_trip(self):
        source, target = cycle(6), path(4)
        image = subgraph_embedding(target, source)
        doc = witness_document("subgraph", True, source, target, image)
        assert validate_witness(json.loads(json.dumps(doc)))

    def test_negative_witness(self):
        doc = witness_document(
            "bipartite_minor", False, dog(6, [3, 3]), dog(5, [3, 3]), None
        )
        assert doc["steps"] is None
        assert validate_witness(doc)

    @pytest.mark.parametrize(
        "relation, source, target",
        [
            pytest.param("subgraph", cycle(6), path(2), id="subgraph-P2-in-C6"),
            pytest.param("bipartite_minor", cycle(6), cycle(6), id="bipminor-C6-in-C6"),
            pytest.param("minor", cycle(6), cycle(4), id="minor-C4-in-C6"),
        ],
    )
    def test_false_negative_rejected(self, relation, source, target):
        # A negative verdict is decided again, so one that does not hold
        # fails validation.
        doc = witness_document(relation, False, source, target, None)
        with pytest.raises(GraphError, match="relation holds"):
            validate_witness(doc)

    @pytest.mark.parametrize(
        "relation, source, target",
        [
            pytest.param("subgraph", h_tree(3), h_tree(2), id="subgraph-H2-in-H3"),
            pytest.param("minor", cycle(4), cycle(6), id="minor-C6-in-C4"),
        ],
    )
    def test_true_negative_validates(self, relation, source, target):
        assert validate_witness(witness_document(relation, False, source, target, None))

    def test_tampered_trace_rejected(self):
        source, target = cycle(6), bull(4, [1])
        trace = bipartite_minor_trace(target, source)
        doc = witness_document("bipartite_minor", True, source, target, trace)
        doc["steps"][0]["v"] = 3  # distance-3 pair is not admissible
        with pytest.raises(GraphError):
            validate_witness(doc)

    def test_wrong_target_rejected(self):
        source, target = cycle(6), bull(4, [1])
        trace = bipartite_minor_trace(target, source)
        doc = witness_document("bipartite_minor", True, source, target, trace)
        doc["target"] = emit_graph6(cycle(5))
        with pytest.raises(GraphError, match="does not reach"):
            validate_witness(doc)

    def test_tampered_model_rejected(self):
        source, target = dog(6, [3, 3]), dog(5, [3, 3])
        model = minor_model(target, source)
        doc = witness_document("minor", True, source, target, model)
        doc["steps"]["0"] = doc["steps"]["1"]
        with pytest.raises(GraphError):
            validate_witness(doc)

    def test_missing_field_rejected(self):
        with pytest.raises(GraphError, match="missing field"):
            validate_witness({"relation": "minor"})

    def test_unknown_convention_rejected(self):
        source, target = cycle(6), bull(4, [1])
        trace = bipartite_minor_trace(target, source)
        doc = witness_document("bipartite_minor", True, source, target, trace)
        doc["labeling_convention"] = "dense-top"
        with pytest.raises(GraphError, match="convention"):
            validate_witness(doc)

    @pytest.mark.parametrize("w", [4, 99])
    def test_contraction_with_a_wrong_w_rejected(self, w):
        # C_6 -> B(4,1) contracts (0, 2) through w = 1; vertex 4 is no
        # common neighbour of 0 and 2, and 99 is no vertex at all.
        source, target = cycle(6), bull(4, [1])
        trace = bipartite_minor_trace(target, source)
        doc = witness_document("bipartite_minor", True, source, target, trace)
        assert doc["steps"] == [{"op": "admissible_contract", "u": 0, "v": 2, "w": 1}]
        doc["steps"][0]["w"] = w
        with pytest.raises(GraphError):
            validate_witness(doc)


def _minor_doc():
    source, target = dog(6, [3, 3]), dog(5, [3, 3])
    return witness_document("minor", True, source, target, minor_model(target, source))


def _subgraph_doc():
    source, target = cycle(6), path(4)
    return witness_document(
        "subgraph", True, source, target, subgraph_embedding(target, source)
    )


def _trace_doc_with_extra_key():
    # C_6 -> B(4,1), the paper's Figure 3: one contraction step, which
    # gains a key that names none of its fields.
    source, target = cycle(6), bull(4, [1])
    trace = bipartite_minor_trace(target, source)
    doc = witness_document("bipartite_minor", True, source, target, trace)
    doc["steps"][0]["extra"] = 99
    return doc


def _set_step(doc, value, key="0"):
    doc["steps"][key] = value
    return doc


class TestMalformedWitnessDocuments:
    """Every malformed document raises GraphError, never another error."""

    @pytest.mark.parametrize(
        "doc",
        [
            pytest.param(_set_step(_minor_doc(), 3), id="minor-set-an-integer"),
            pytest.param(_set_step(_minor_doc(), ["a"]), id="minor-member-a-string"),
            pytest.param(_set_step(_minor_doc(), [0.5]), id="minor-member-a-float"),
            pytest.param(_set_step(_subgraph_doc(), {"0": 1}), id="subgraph-image-a-dict"),
            pytest.param(_set_step(_subgraph_doc(), ["x"]), id="subgraph-image-a-string"),
            # P_4 into C_6 sends 0, 1, 2, 3 to 5, 0, 1, 2.
            pytest.param(_set_step(_subgraph_doc(), [2]), id="subgraph-two-on-one-vertex"),
            pytest.param(_set_step(_subgraph_doc(), [3]), id="subgraph-edge-onto-non-edge"),
            pytest.param(_set_step(_subgraph_doc(), [6]), id="subgraph-image-outside-source"),
            pytest.param(_set_step(_subgraph_doc(), []), id="subgraph-image-empty"),
            pytest.param(_set_step(_subgraph_doc(), [5, 4]), id="subgraph-image-two-vertices"),
            # Both targets have fewer than eight vertices, so "7" names none.
            pytest.param(_set_step(_minor_doc(), "junk", "7"), id="minor-extra-vertex"),
            pytest.param(_set_step(_minor_doc(), [99], "x"), id="minor-junk-key"),
            pytest.param(_set_step(_subgraph_doc(), "junk", "7"), id="subgraph-extra-vertex"),
            pytest.param(_set_step(_subgraph_doc(), [99], "x"), id="subgraph-junk-key"),
            pytest.param(_trace_doc_with_extra_key(), id="trace-step-extra-key"),
            pytest.param({**_subgraph_doc(), "source": 5}, id="source-an-integer"),
            pytest.param({**_subgraph_doc(), "target": None}, id="target-is-null"),
            pytest.param({**_subgraph_doc(), "holds": 1}, id="holds-an-integer"),
            pytest.param({**_subgraph_doc(), "holds": "false"}, id="holds-a-string"),
            pytest.param({**_subgraph_doc(), "relation": ["minor"]}, id="relation-a-list"),
            pytest.param(
                {
                    "relation": "bogus",
                    "holds": False,
                    "source": "Bw",
                    "target": "A_",
                    "labeling_convention": "compact-min-position",
                    "steps": None,
                },
                id="unknown-relation-negative",
            ),
        ],
    )
    def test_rejected_with_graph_error(self, doc):
        with pytest.raises(GraphError):
            validate_witness(doc)


GOLDEN = Path(__file__).parent / "golden"


def _witness_lines(pairs, relations):
    """One JSON witness document per line, for each (target, source) pair
    under each relation in turn."""
    lines = []
    for h, g in pairs:
        for relation in relations:
            evidence = WITNESS_SEARCHES[relation](h, g)
            doc = witness_document(relation, evidence is not None, g, h, evidence)
            lines.append(json.dumps(doc) + "\n")
    return "".join(lines)


def _replayed_on_oracles(host: nx.Graph, steps: list) -> nx.Graph:
    """The graph a bipartite-minor witness's steps leave of ``host``, made
    by the oracles' deletions and contractions; each contraction's w must
    be a middle of its pair on a peripheral cycle, by cycle scan."""
    g = build(host.number_of_nodes(), host.edges)
    for step in steps:
        if step["op"] == "delete_vertex":
            g = oracles.delete_vertex(g, step["v"])
        elif step["op"] == "delete_edge":
            g = oracles.delete_edge(g, step["u"], step["v"])
        else:
            assert step["op"] == "admissible_contract"
            u, v, w = step["u"], step["v"], step["w"]
            assert w in oracles.brute_middles(g).get((min(u, v), max(u, v)), ())
            g = oracles.contract_set(g, {u, v})
    return oracles.to_networkx(g)


def _assert_branch_sets(host: nx.Graph, target: nx.Graph, steps: dict) -> None:
    """The branch sets, one per target vertex, are disjoint sets of host
    vertices, each inducing a connected subgraph, with a host edge behind
    every target edge."""
    assert sorted(steps, key=int) == [str(x) for x in target]
    sets = [set(steps[str(x)]) for x in target]
    assert all(sets) and set().union(*sets) <= set(host)
    assert sum(map(len, sets)) == len(set().union(*sets))
    assert all(nx.is_connected(host.subgraph(s)) for s in sets)
    for a, b in target.edges:
        assert any(host.has_edge(x, y) for x in sets[a] for y in sets[b])


class TestGoldenWitnesses:
    """Any change to a search's witness shows up here as a diff."""

    def test_harness_dog_pairs(self):
        pairs = [
            (dog(snout, list(ears)), dog(snout + stretch, list(ears)))
            for snout, stretch, ears in DOG_CASES
        ]
        text = _witness_lines(pairs, ("minor", "bipartite_minor"))
        assert text == (GOLDEN / "witnesses_dogs.jsonl").read_text()

    def test_h_tree_pairs(self):
        trees = [h_tree(length) for length in H_FOREST_LENGTHS]
        pairs = [(a, b) for a in trees for b in trees]
        text = _witness_lines(pairs, ("subgraph", "minor"))
        assert text == (GOLDEN / "witnesses_h_trees.jsonl").read_text()

    def test_bipartite_minor_bulls_and_trees(self):
        # Bulls under their cycles, then every ordered pair of trees with at
        # most 6 vertices: positive bipartite-minor witnesses, many with more
        # than one step.  The trees are read from the file, in the labels
        # they were pinned with, and must be enumerate_trees(6) up to
        # isomorphism, pair by pair in form order.
        golden = (GOLDEN / "witnesses_bipartite_minor.jsonl").read_text()
        pairs = [
            (bull(snout, [horn]), cycle(snout + 2 * horn))
            for snout, horn in BULL_CASES
        ]
        docs = [json.loads(line) for line in golden.splitlines()[len(pairs):]]
        tree_pairs = [
            (parse_graph6(d["target"]), parse_graph6(d["source"])) for d in docs
        ]
        forms = [canonical_form(t) for t in enumerate_trees(6)]
        assert [(canonical_form(h), canonical_form(g)) for h, g in tree_pairs] == [
            (a, b) for a in forms for b in forms
        ]
        text = _witness_lines(pairs + tree_pairs, ("bipartite_minor",))
        assert text == golden

    def test_golden_documents_validate(self):
        for path in sorted(GOLDEN.glob("witnesses_*.jsonl")):
            for line in path.read_text().splitlines():
                assert validate_witness(json.loads(line))

    def test_positive_documents_replay_on_the_oracles(self):
        # Each positive golden witness is checked with no production form,
        # move or parser: graphs are read by networkx, a bipartite-minor
        # witness is replayed on the edge-set operations of the oracles,
        # each contraction's w checked against the cycle-scan oracle and
        # the end against the target with networkx, and a branch-set map
        # is checked set by set in networkx.
        checked = {"bipartite_minor": 0, "minor": 0, "subgraph": 0}
        for path in sorted(GOLDEN.glob("witnesses_*.jsonl")):
            for line in path.read_text().splitlines():
                doc = json.loads(line)
                if not doc["holds"]:
                    continue
                host = nx.from_graph6_bytes(doc["source"].encode())
                target = nx.from_graph6_bytes(doc["target"].encode())
                if doc["relation"] == "bipartite_minor":
                    end = _replayed_on_oracles(host, doc["steps"])
                    assert nx.is_isomorphic(end, target), line
                else:
                    _assert_branch_sets(host, target, doc["steps"])
                checked[doc["relation"]] += 1
        assert checked == {"bipartite_minor": 81, "minor": 18, "subgraph": 4}

