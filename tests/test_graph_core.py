import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipminor import graph_core
from bipminor.canonical import are_isomorphic
from bipminor.cli.serialize import GRAPH6_MAX, emit_graph6, parse_graph6
from bipminor.families import bull, cycle, path
from bipminor.graph_core import (
    Graph,
    GraphError,
    _drop,
    build,
    contract_set,
    delete_edge,
    delete_vertex,
    from_upper_bits,
    is_bipartite,
    upper_bits,
)

import oracles
from oracles import graphs, has_odd_cycle, random_graph


class TestBuild:
    def test_four_cycle(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.vertex_count == 4
        assert g.edges == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_empty_graph(self):
        g = build(0, [])
        assert g.vertex_count == 0
        assert g.edge_count == 0

    def test_edge_order_irrelevant(self):
        a = build(3, [(0, 1), (1, 2)])
        b = build(3, [(2, 1), (1, 0)])
        assert a == b

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            build(3, [(0, 1), (0, 1)])
        with pytest.raises(GraphError, match="duplicate edge"):
            build(3, [(0, 1), (1, 0)])

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="loop"):
            build(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            build(3, [(0, 3)])


class TestMasks:
    def test_masks_are_the_only_data(self):
        assert [f.name for f in fields(Graph)] == ["vertex_count", "neighbor_masks"]
        assert build(3, [(0, 1), (1, 2)]).neighbor_masks == (0b010, 0b101, 0b010)

    @pytest.mark.parametrize(
        "n, masks, message",
        [
            (-1, (), "nonnegative"),
            (3, (0b010, 0b001), "expected 3"),
            (2, (0b110, 0b001, 0b001), "expected 2"),
            (2, (0b110, 0b001), "at or above 2"),
            (2, (-1, 0b001), "at or above 2"),
            (3, (0b001, 0b000, 0b000), "loop"),
            (3, (0b010, 0b000, 0b000), "one end only"),
            (3, (0b000, 0b001, 0b000), "one end only"),
        ],
    )
    def test_bad_masks_rejected(self, n, masks, message):
        with pytest.raises(GraphError, match=message):
            Graph(n, masks)

    def test_has_edge_outside_the_graph(self):
        g = cycle(4)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(1, 1)
        assert not g.has_edge(-1, 0) and not g.has_edge(0, -3)
        assert not g.has_edge(3, 4) and not g.has_edge(9, 0)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_vertices=10))
    def test_views_agree_with_masks(self, g):
        assert build(g.vertex_count, g.edges) == g
        assert g.edge_count == len(g.edges)
        for v in g.vertices:
            assert g.degree(v) == len(g.neighbors(v))
            assert all(g.has_edge(v, w) for w in g.neighbors(v))

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_vertices=10), st.randoms(use_true_random=False))
    def test_operations_match_edge_set_reference(self, g, rng):
        for v in g.vertices:
            assert delete_vertex(g, v) == oracles.delete_vertex(g, v)
        for u, v in sorted(g.edges):
            assert delete_edge(g, u, v) == oracles.delete_edge(g, u, v)
            assert contract_set(g, (u, v)) == oracles.contract_set(g, (u, v))
        for _ in range(5 if g.vertex_count else 0):
            members = rng.sample(g.vertices, rng.randint(1, g.vertex_count))
            assert contract_set(g, members) == oracles.contract_set(g, members)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_vertices=10), st.randoms(use_true_random=False))
    def test_operation_results_pass_the_constructor(self, g, rng):
        # The operations skip the constructor's checks, so their masks
        # must be valid by construction.
        results = [delete_vertex(g, v) for v in g.vertices]
        for u, v in sorted(g.edges):
            results += [delete_edge(g, u, v), contract_set(g, (u, v))]
        for _ in range(5 if g.vertex_count else 0):
            results.append(contract_set(g, rng.sample(g.vertices, rng.randint(1, g.vertex_count))))
        for r in results:
            assert Graph(r.vertex_count, r.neighbor_masks) == r

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_vertices=10))
    def test_upper_bits_round_trip(self, g):
        n = g.vertex_count
        column_by_column = "".join(
            "1" if g.has_edge(i, j) else "0" for j in range(1, n) for i in range(j)
        )
        assert upper_bits(g) == int(column_by_column or "0", 2)
        h = from_upper_bits(n, upper_bits(g))
        # from_upper_bits skips the constructor's checks too.
        assert h == g and Graph(n, h.neighbor_masks) == h
        assert oracles.from_upper_bits_by_columns(n, upper_bits(g)) == g
        assert parse_graph6(emit_graph6(g)) == g

    def test_upper_bits_reads_a_column_per_vertex(self):
        # upper_bits walks the set bits of each vertex's column, the mirror
        # of from_upper_bits: the two invert each other on seeded graphs of
        # every density, on graphs of 0, 1, 2, 14 and 62 vertices (graph6's
        # limit) and on a path of 1050 vertices.  Up to 62 vertices they
        # also agree with graph6 and with the reference that reads every
        # position of every column.
        rng = random.Random(126)
        cases = [random_graph(rng, 16) for _ in range(200)] + [path(1050)]
        for n in (0, 1, 2, 14, 62):
            complete = build(n, [(i, j) for j in range(n) for i in range(j)])
            cases += [build(n, []), random_graph(rng, n, n), complete]
            if n > 2:
                cases += [path(n), cycle(n)]
        for g in cases:
            n = g.vertex_count
            bits = upper_bits(g)
            assert bits >> (n * (n - 1) // 2) == 0
            assert bits.bit_count() == g.edge_count
            assert from_upper_bits(n, bits) == g
            assert upper_bits(from_upper_bits(n, bits)) == bits
            if n <= GRAPH6_MAX:
                assert oracles.from_upper_bits_by_columns(n, bits) == g
                assert parse_graph6(emit_graph6(g)) == g

    def test_decodes_past_the_table_keep_it_fixed(self):
        # Past 62 vertices a decode builds its own pairs: a large graph
        # decodes alike before and after small ones, and the shared table
        # still holds the pairs of 62 vertices in position order.
        table = graph_core._PAIRS
        rng = random.Random(3101)
        for n in (70, 5, 70, 62, 14):
            for g in (random_graph(rng, n, n), build(n, [(i, n - 1) for i in range(n - 1)])):
                bits = upper_bits(g)
                assert from_upper_bits(n, bits) == oracles.from_upper_bits_by_columns(n, bits)
        assert graph_core._PAIRS is table
        assert [(i, j) for i, j, _, _ in table] == [(i, j) for j in range(62) for i in range(j)]
        assert all(bi == 1 << i and bj == 1 << j for i, j, bi, bj in table)

    @pytest.mark.parametrize("n, bits", [(-1, 0), (3, -1), (3, 0b1000), (0, 1), (1, 1)])
    def test_bits_outside_the_triangle_rejected(self, n, bits):
        with pytest.raises(GraphError, match="upper triangle"):
            from_upper_bits(n, bits)


class TestDrop:
    def test_one_vertex_matches_the_multi_vertex_path_and_delete_vertex(self):
        # An isolated vertex appended at the end is in no mask, so dropping
        # it with v, one more cut, gives the same masks.
        rng = random.Random(3102)
        for _ in range(300):
            g = random_graph(rng, 14, 1)
            n, masks = g.vertex_count, g.neighbor_masks
            for v in sorted({0, n // 2, n - 1}):
                got = _drop(masks, 1 << v)
                assert got == _drop(masks + (0,), (1 << v) | (1 << n))
                assert got == delete_vertex(g, v).neighbor_masks
                assert got == oracles.delete_vertex(g, v).neighbor_masks


class TestDeleteVertex:
    def test_cycle_becomes_path(self):
        assert delete_vertex(cycle(4), 0) == path(3)

    def test_bull_horn_tip_leaves_cycle(self):
        b = bull(4, [1])
        tip = next(v for v in b.vertices if b.degree(v) == 1)
        assert are_isomorphic(delete_vertex(b, tip), cycle(4))

    def test_single_vertex_to_empty(self):
        assert delete_vertex(build(1, []), 0) == build(0, [])

    def test_relabeling_shifts_down(self):
        g = build(4, [(0, 1), (2, 3)])
        assert delete_vertex(g, 1) == build(3, [(1, 2)])

    def test_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            delete_vertex(cycle(3), 3)


class TestDeleteEdge:
    def test_cycle_becomes_path(self):
        got = delete_edge(cycle(4), 0, 1)
        assert are_isomorphic(got, path(4))
        assert got.vertex_count == 4

    def test_single_edge(self):
        assert delete_edge(build(2, [(0, 1)]), 0, 1) == build(2, [])

    def test_non_edge_rejected(self):
        with pytest.raises(GraphError, match="not an edge"):
            delete_edge(cycle(4), 0, 2)


class TestContractSet:
    def test_c6_distance_two_pair_gives_bull(self):
        got = contract_set(cycle(6), {0, 2})
        assert are_isomorphic(got, bull(4, [1]))

    def test_edge_contraction_in_path(self):
        got = contract_set(path(3), {0, 1})
        assert got == build(2, [(0, 1)])

    def test_opposite_pair_of_c4(self):
        # Expanding the definition by hand: 0 and 2 merge, both of the
        # other vertices keep an edge to the merged vertex, nothing else.
        got = contract_set(cycle(4), {0, 2})
        assert got == build(3, [(0, 1), (0, 2)])
        assert are_isomorphic(got, path(3))

    def test_merged_vertex_sits_at_min_position(self):
        g = build(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        got = contract_set(g, {1, 3})
        # Survivors 0,2,4 keep relative order around the merged vertex at
        # position min({1,3}) = 1.
        assert got == build(4, [(0, 1), (1, 2), (1, 3)])

    def test_whole_graph_contracts_to_k1(self):
        assert contract_set(cycle(5), set(range(5))) == build(1, [])

    def test_empty_set_rejected(self):
        with pytest.raises(GraphError, match="empty"):
            contract_set(cycle(3), set())

    def test_out_of_range_member_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            contract_set(cycle(3), {0, 5})


class TestIsBipartite:
    def test_even_cycle(self):
        part = is_bipartite(cycle(4))
        assert part is not None
        assert part.side_of == (0, 1, 0, 1)

    def test_odd_cycle(self):
        assert is_bipartite(cycle(5)) is None

    def test_lowest_vertex_of_each_component_in_class_zero(self):
        g = build(4, [(0, 1), (2, 3)])
        part = is_bipartite(g)
        assert part.side_of[0] == 0 and part.side_of[2] == 0

    def test_no_edge_inside_a_class(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_graph(rng, 8)
            part = is_bipartite(g)
            if part is not None:
                for u, v in g.edges:
                    assert part.side_of[u] != part.side_of[v]

    def test_agrees_with_odd_cycle_search(self):
        rng = random.Random(12)
        for _ in range(150):
            g = random_graph(rng, 8)
            assert (is_bipartite(g) is not None) == (not has_odd_cycle(g))

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_vertices=10))
    def test_sides_match_the_depth_first_colouring(self, g):
        part = is_bipartite(g)
        assert (None if part is None else part.side_of) == oracles.dfs_sides(g)


class TestInvariants:
    @settings(max_examples=80, deadline=None)
    @given(graphs())
    def test_delete_vertex_counts(self, g):
        if g.vertex_count == 0:
            return
        v = g.vertex_count // 2
        got = delete_vertex(g, v)
        assert got.vertex_count == g.vertex_count - 1
        assert got.edge_count == g.edge_count - g.degree(v)

    @settings(max_examples=80, deadline=None)
    @given(graphs())
    def test_delete_edge_counts(self, g):
        for u, v in sorted(g.edges):
            got = delete_edge(g, u, v)
            assert got.edge_count == g.edge_count - 1
            assert got.vertex_count == g.vertex_count
            break

    @settings(max_examples=80, deadline=None)
    @given(graphs(), st.randoms(use_true_random=False))
    def test_contract_set_counts_and_simplicity(self, g, rng):
        if g.vertex_count < 2:
            return
        size = rng.randint(2, g.vertex_count)
        members = set(rng.sample(range(g.vertex_count), size))
        got = contract_set(g, members)
        assert got.vertex_count == g.vertex_count - len(members) + 1
        # Simplicity is enforced by the Graph invariants on construction.
        assert all(u != v for u, v in got.edges)
        assert got.edge_count <= g.edge_count

    @settings(max_examples=80, deadline=None)
    @given(graphs(), st.randoms(use_true_random=False))
    def test_size_strictly_decreases_when_set_interacts(self, g, rng):
        # |V|+|E| must drop whenever the contracted pair shares an edge or
        # a common neighbor: exactly the situations the relations use.
        pairs = [
            (u, v)
            for u in g.vertices
            for v in range(u + 1, g.vertex_count)
            if g.has_edge(u, v) or g.neighbors(u) & g.neighbors(v)
        ]
        if not pairs:
            return
        u, v = pairs[rng.randrange(len(pairs))]
        got = contract_set(g, {u, v})
        assert got.vertex_count + got.edge_count < g.vertex_count + g.edge_count

    def test_operations_are_pure(self):
        g = cycle(5)
        delete_vertex(g, 0)
        delete_edge(g, 0, 1)
        contract_set(g, {0, 1})
        assert g == cycle(5)

    def test_graphs_hashable_and_equal_by_value(self):
        assert hash(cycle(4)) == hash(build(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
