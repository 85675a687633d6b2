"""The harness's graph generators (the isomorph-free enumeration of
connected bipartite graphs and trees, and the seeded random hosts), and its
claims reading their parameters from the module constants."""

import hashlib
from collections import Counter

import networkx as nx
import pytest

from bipminor.canonical import canonical_form
from bipminor.graph_core import build
from bipminor.cli import harness
from bipminor.cli.harness import (
    enumerate_connected_bipartite,
    enumerate_trees,
    random_connected_graphs,
    verify_harness,
)
from bipminor.cli.serialize import emit_graph6

import oracles

# Classes per vertex count from 1: OEIS A005142 (connected bipartite
# graphs, to 9 vertices) and A000055 (trees, to 10).
CONNECTED_BIPARTITE_COUNTS = [1, 1, 1, 3, 5, 17, 44, 182, 730]
TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]


@pytest.fixture(scope="module")
def bipartite_9():
    return enumerate_connected_bipartite(9)


def _counts(graphs, max_vertices):
    sizes = Counter(g.vertex_count for g in graphs)
    return [sizes[n] for n in range(1, max_vertices + 1)]


class TestEnumeration:
    def test_equals_brute_force_oracles(self):
        assert {canonical_form(g) for g in enumerate_connected_bipartite(7)} == (
            oracles.connected_bipartite_by_edge_subsets(7)
        )
        assert {canonical_form(g) for g in enumerate_trees(7)} == oracles.trees_by_pruefer(7)

    def test_counts_per_size(self, bipartite_9):
        assert _counts(bipartite_9, 9) == CONNECTED_BIPARTITE_COUNTS
        trees = enumerate_trees(10)
        assert _counts(trees, 10) == TREE_COUNTS
        assert len(trees) == sum(TREE_COUNTS) == 201
        # Leaf addition lists the trees among the bipartite graphs, in order.
        small = [g for g in trees if g.vertex_count <= 9]
        assert small == [g for g in bipartite_9 if g.edge_count == g.vertex_count - 1]

    def test_trees_match_networkx(self):
        trees = enumerate_trees(9)
        for n in range(1, 10):
            expected = {
                canonical_form(build(n, t.edges)) for t in nx.nonisomorphic_trees(n)
            }
            assert {canonical_form(g) for g in trees if g.vertex_count == n} == expected

    def test_members_are_canonical_in_form_order(self, bipartite_9):
        forms = [canonical_form(g) for g in bipartite_9]
        assert all(cf.to_graph() == g for cf, g in zip(forms, bipartite_9))
        assert all(a < b for a, b in zip(forms, forms[1:]))

    def test_nothing_below_one_vertex(self):
        assert enumerate_connected_bipartite(0) == enumerate_trees(0) == []
        assert enumerate_trees(1) == [build(1, [])]


class TestRandomHosts:
    """The hosts of blocks.restriction (200) and of the benchmark (30)."""

    @pytest.mark.parametrize(
        "count, digest",
        [
            (200, "2c7d0997684b6bd3faf71d4c1901b60dd167a2ce9db243797a38491ab14b88e6"),
            (30, "f8a2e9883fcc04a2a06628ed98e3b2895fbe70a2a7e0c9319d136b0f11edddd3"),
        ],
    )
    def test_pinned_samples(self, count, digest):
        graphs = random_connected_graphs(count, 9, 6174)
        text = "".join(emit_graph6(g) + "\n" for g in graphs)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestClaimParameters:
    def test_a_claim_and_its_params_read_the_constant(self, monkeypatch):
        # Two equal H-trees are comparable, so both H-forest claims fail
        # and report what they found against the unchanged pass text.
        monkeypatch.setattr(harness, "H_FOREST_LENGTHS", (3, 3))
        claims = {c.claim_id: c for c in verify_harness("antichain").claims}
        subgraph = claims["antichain.hforest.subgraph"]
        assert subgraph.params == "H-trees with connector in {3,3} under subgraph"
        assert subgraph.expected == "pairwise incomparable"
        assert subgraph.computed == "unexpected matrix: ((True, True), (True, True))"
        assert not subgraph.passed
        assert not claims["antichain.hforest.minor"].passed
        assert claims["antichain.dogs.matrix"].passed
