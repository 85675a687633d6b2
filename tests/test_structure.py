import random

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher
from hypothesis import given, settings
from hypothesis import strategies as st

from bipminor.families import bull, cycle, dog, h_tree, path
from bipminor.graph_core import (
    Graph,
    GraphError,
    SizeCapExceeded,
    build,
    delete_vertex,
    normalize_edge,
)
from bipminor.structure import (
    _induced_cycles,
    blocks,
    component_count,
    is_connected,
    is_k_connected,
    is_subgraph,
    peripheral_cycles,
    subgraph_embedding,
)

from oracles import (
    _chordless,
    all_simple_cycles,
    brute_blocks,
    graphs,
    brute_peripheral,
    brute_subgraph,
    permute,
    random_forest,
    random_graph,
    random_sparse_connected,
    to_networkx,
)


class TestComponents:
    def test_cycle_is_one_component(self):
        assert component_count(cycle(4)) == 1

    def test_two_disjoint_edges(self):
        g = build(4, [(0, 1), (2, 3)])
        assert component_count(g) == 2

    def test_empty_graph_has_zero_components(self):
        assert component_count(build(0, [])) == 0
        assert not is_connected(build(0, []))


class TestAgainstNetworkx:
    """Cross-checks of the mask-based connectivity against networkx."""

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_vertices=10))
    def test_components(self, g):
        assert component_count(g) == nx.number_connected_components(to_networkx(g))

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_vertices=10))
    def test_standard_k_connectivity(self, g):
        G = to_networkx(g)
        for k in (1, 2, 3):
            want = g.vertex_count >= k + 1 and nx.node_connectivity(G) >= k
            assert is_k_connected(g, k, "standard") == want

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_vertices=10), st.randoms(use_true_random=False))
    def test_nonseparating(self, g, rng):
        # Whether deleting a vertex set separates the graph: the components
        # of what is left.
        G = to_networkx(g)
        for size in range(g.vertex_count + 1):
            removed = rng.sample(range(g.vertex_count), size)
            rest = g
            for v in sorted(removed, reverse=True):
                rest = delete_vertex(rest, v)
            left = G.subgraph(set(g.vertices) - set(removed))
            assert component_count(rest) == nx.number_connected_components(left)

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_vertices=10))
    def test_blocks(self, g):
        G = to_networkx(g)
        want = {
            frozenset(normalize_edge(u, v) for u, v in edges)
            for edges in nx.biconnected_component_edges(G)
        }
        got = blocks(g)
        assert {b.edges for b in got.blocks} == want
        assert got.cut_vertices == set(nx.articulation_points(G))

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_vertices=6), graphs(max_vertices=9))
    def test_subgraph_embedding(self, h, g):
        want = GraphMatcher(to_networkx(g), to_networkx(h)).subgraph_is_monomorphic()
        image = subgraph_embedding(h, g)
        assert (image is not None) == want
        if image is not None:
            assert sorted(image) == list(h.vertices)
            assert len(set(image.values())) == h.vertex_count
            assert all(g.has_edge(image[u], image[v]) for u, v in h.edges)


class TestKConnectivity:
    def test_cycles_are_two_connected(self):
        for k in (3, 4, 5, 8):
            assert is_k_connected(cycle(k), 2)
            assert is_k_connected(cycle(k), 2, "standard")

    def test_bull_is_not_two_connected(self):
        assert not is_k_connected(bull(4, [1]), 2)

    def test_p3_middle_vertex_cuts(self):
        assert not is_k_connected(path(3), 2)
        assert not is_k_connected(path(3), 2, "standard")

    def test_single_edge_quirk_between_modes(self):
        k2 = build(2, [(0, 1)])
        assert is_k_connected(k2, 2, "paper")
        assert not is_k_connected(k2, 2, "standard")

    def test_k1_is_not_two_connected(self):
        assert not is_k_connected(build(1, []), 2, "paper")

    def test_dogs_are_two_connected(self):
        for d in (dog(5, [3, 3]), dog(6, [4, 4]), dog(8, [4, 4])):
            assert is_k_connected(d, 2, "paper")
            assert is_k_connected(d, 2, "standard")

    def test_bad_arguments(self):
        with pytest.raises(GraphError):
            is_k_connected(cycle(3), 0)
        with pytest.raises(GraphError):
            is_k_connected(cycle(3), 2, "loose")


class TestBlocks:
    def test_two_horned_bull(self):
        decomposition = blocks(bull(3, [1, 1]))
        kinds = [b.trivial for b in decomposition.blocks]
        assert sorted(kinds) == [False, True, True]
        triangle = next(b for b in decomposition.blocks if not b.trivial)
        assert triangle.vertices == {0, 1, 2}
        assert decomposition.cut_vertices == {0, 1}

    def test_cycle_is_one_block(self):
        decomposition = blocks(cycle(6))
        assert len(decomposition.blocks) == 1
        assert decomposition.blocks[0].edges == cycle(6).edges
        assert decomposition.cut_vertices == frozenset()

    def test_one_eared_dog_is_one_block(self):
        decomposition = blocks(dog(6, [4]))
        assert len(decomposition.blocks) == 1
        assert not decomposition.cut_vertices

    def test_matches_cycle_based_oracle(self):
        rng = random.Random(21)
        for _ in range(120):
            g = random_graph(rng, 8)
            got = blocks(g)
            want_blocks, want_cuts = brute_blocks(g)
            assert {b.edges for b in got.blocks} == want_blocks
            assert got.cut_vertices == want_cuts

    def test_blocks_partition_edges_and_are_two_connected(self):
        rng = random.Random(22)
        for _ in range(60):
            g = random_sparse_connected(rng, 9, extra=3)
            decomposition = blocks(g)
            all_edges = [e for b in decomposition.blocks for e in b.edges]
            assert len(all_edges) == g.edge_count
            assert set(all_edges) == set(g.edges)
            for a in decomposition.blocks:
                for b in decomposition.blocks:
                    if a is not b:
                        assert len(a.vertices & b.vertices) <= 1
                if not a.trivial:
                    assert is_k_connected(a.to_graph(), 2)

    def test_deterministic_order_by_smallest_vertex(self):
        decomposition = blocks(bull(3, [1, 1]))
        mins = [min(b.vertices) for b in decomposition.blocks]
        assert mins == sorted(mins)


class TestInducedCycles:
    """``peripheral_cycles`` keeps the chordless cycles (``_induced_cycles``)
    whose deletion adds no component."""

    def test_square_in_k4_has_chords(self):
        k4 = build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert [c for c, _ in _induced_cycles(k4)] == [
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)
        ]

    def test_dog_ear_is_induced(self):
        d = dog(6, [4, 4])
        assert (0, 1, 6, 7) in [c for c, _ in _induced_cycles(d)]

    def test_dog_snout_is_induced(self):
        d = dog(6, [4, 4])
        assert (0, 1, 2, 3, 4, 5) in [c for c, _ in _induced_cycles(d)]

    def test_order_is_kept(self):
        # The search runs in the 2-core, and finds what the search over
        # every vertex found, in the same order.
        d = dog(6, [4, 4])
        assert [c for c, _ in _induced_cycles(d)] == [
            (0, 1, 2, 3, 4, 5), (0, 1, 6, 7), (2, 3, 8, 9)
        ]
        # K_4 on 0, 2, 3 and 5, with pendant trees at 1, 4 and 6.
        k4 = [(0, 2), (0, 3), (0, 5), (2, 3), (2, 5), (3, 5)]
        g = build(7, [*k4, (0, 1), (1, 4), (5, 6)])
        assert [c for c, _ in _induced_cycles(g)] == [
            (0, 2, 3), (0, 2, 5), (0, 3, 5), (2, 3, 5)
        ]


def _hang(rng, g: Graph, extra: int, pendant_paths: bool) -> Graph:
    """``g`` with ``extra`` more vertices in trees hanging from it, each new
    vertex joined to one vertex before it (to the one just before it, for
    pendant paths, save where a path starts), then relabelled at random so
    that the trees' vertices sit among g's."""
    n = g.vertex_count + extra
    edges = list(g.edges)
    for v in range(g.vertex_count, n):
        fresh = pendant_paths and v > g.vertex_count and rng.random() < 0.7
        edges.append((v, v - 1 if fresh else rng.randrange(v)))
    order = list(range(n))
    rng.shuffle(order)
    return permute(build(n, edges), order)


def _union(a: Graph, b: Graph) -> Graph:
    shift = a.vertex_count
    edges = [*a.edges, *((u + shift, v + shift) for u, v in b.edges)]
    return build(a.vertex_count + b.vertex_count, edges)


def _with_hanging_trees(rng) -> Graph:
    """A cycle with pendant paths, K_4 or a sparse graph with chorded
    cycles with pendant trees, or a forest."""
    kind = rng.randrange(4)
    if kind == 0:
        return _hang(rng, cycle(rng.randint(3, 7)), rng.randint(1, 5), True)
    if kind == 1:
        k4 = build(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        return _hang(rng, k4, rng.randint(1, 5), False)
    if kind == 2:
        sparse = random_sparse_connected(rng, 7, extra=4, min_vertices=5)
        return _hang(rng, sparse, rng.randint(1, 4), False)
    return random_forest(rng, 8)


class TestTwoCore:
    """``_induced_cycles`` grows paths in the 2-core only: the trees that
    hang from it hold no cycle."""

    def test_graphs_with_hanging_trees_match_exhaustive_enumeration(self):
        rng = random.Random(126)
        hosts = [_with_hanging_trees(rng) for _ in range(60)]
        hosts += [_union(_with_hanging_trees(rng), _with_hanging_trees(rng)) for _ in range(30)]
        forests = found = 0
        for g in hosts:
            got = _induced_cycles(g)
            cycles = [c for c, _ in got]
            # Chordless cycles, each once, sorted as the search over every
            # vertex emits them.
            chordless = {c for c in all_simple_cycles(g) if _chordless(g, c)}
            assert set(cycles) == chordless and len(cycles) == len(chordless)
            assert cycles == sorted(cycles)
            assert all(mask == sum(1 << v for v in c) for c, mask in got)
            assert set(peripheral_cycles(g)) == brute_peripheral(g)
            forests += not cycles
            found += len(cycles)
        assert forests > 10 and found > 100


class TestNonseparating:
    def test_whole_cycle_is_nonseparating(self):
        # Deleting a whole component leaves fewer components, not more.
        g = build(10, [*cycle(6).edges, (6, 7), (7, 8), (8, 9), (6, 9)])
        assert peripheral_cycles(g) == ((6, 7, 8, 9), (0, 1, 2, 3, 4, 5))

    def test_bull_triangle_separates_horn_tips(self):
        assert [c for c, _ in _induced_cycles(bull(3, [1, 1]))] == [(0, 1, 2)]
        assert peripheral_cycles(bull(3, [1, 1])) == ()

    def test_dog_snout_separates(self):
        assert (0, 1, 2, 3, 4, 5) not in peripheral_cycles(dog(6, [4, 4]))


class TestPeripheralCycles:
    def test_cycle_has_itself(self):
        assert peripheral_cycles(cycle(6)) == ((0, 1, 2, 3, 4, 5),)

    def test_trees_have_none(self):
        assert peripheral_cycles(path(6)) == ()
        assert peripheral_cycles(h_tree(3)) == ()

    def test_dog_has_exactly_its_ears(self):
        assert peripheral_cycles(dog(6, [4, 4])) == ((0, 1, 6, 7), (2, 3, 8, 9))

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(23)
        for _ in range(120):
            g = random_graph(rng, 8)
            assert set(peripheral_cycles(g)) == brute_peripheral(g)

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_vertices=10))
    def test_matches_networkx_chordless_cycles(self, g):
        G = to_networkx(g)
        base = nx.number_connected_components(G)
        want = set()
        for c in nx.chordless_cycles(G):
            rest = G.subgraph(set(G) - set(c))
            if len(c) >= 3 and nx.number_connected_components(rest) <= base:
                want.add(frozenset(c))
        got = [frozenset(c) for c in peripheral_cycles(g)]
        assert len(set(got)) == len(got)
        assert set(got) == want

    def test_any_size(self, monkeypatch):
        # Only the searches check the size cap.
        monkeypatch.delenv("BIPMINOR_SIZE_CAP", raising=False)
        assert peripheral_cycles(cycle(15)) == (tuple(range(15)),)


class TestSubgraph:
    def test_path_in_cycle(self):
        assert is_subgraph(path(3), cycle(4))

    def test_c4_not_in_c6(self):
        assert not is_subgraph(cycle(4), cycle(6))

    def test_h_trees_incomparable(self):
        assert not is_subgraph(h_tree(2), h_tree(3))
        assert not is_subgraph(h_tree(3), h_tree(2))

    def test_embedding_maps_edges_onto_edges(self):
        rng = random.Random(24)
        found = 0
        for _ in range(200):
            h = random_graph(rng, 4)
            g = random_graph(rng, 6)
            image = subgraph_embedding(h, g)
            if image is not None:
                found += 1
                assert len(set(image.values())) == h.vertex_count
                for u, v in h.edges:
                    assert g.has_edge(image[u], image[v])
        assert found > 20

    def test_matches_brute_force(self):
        rng = random.Random(25)
        for _ in range(200):
            h = random_graph(rng, 4)
            g = random_graph(rng, 6)
            assert is_subgraph(h, g) == brute_subgraph(h, g)

    def test_cap(self):
        with pytest.raises(SizeCapExceeded):
            is_subgraph(path(2), build(15, []))
