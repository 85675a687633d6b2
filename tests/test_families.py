import pytest

from bipminor.canonical import are_isomorphic
from bipminor.families import bull, cycle, dog, h_tree, path
from bipminor.graph_core import GraphError, contract_set, is_bipartite
from bipminor.structure import blocks, is_connected, is_k_connected


def all_valid_dog_params(max_vertices):
    """Every (snout, ears) with at most max_vertices vertices."""
    out = []

    def extend(snout, ears, used):
        if ears:
            out.append((snout, tuple(ears)))
        if len(ears) == snout // 2:
            return
        for e in range(3, max_vertices - used + 2 + 1):
            if used + e - 2 <= max_vertices:
                extend(snout, ears + [e], used + e - 2)

    for snout in range(3, max_vertices + 1):
        extend(snout, [], snout)
    return out


class TestCycleAndPath:
    def test_cycle_counts(self):
        for k in (3, 6, 8):
            g = cycle(k)
            assert g.vertex_count == k and g.edge_count == k
            assert all(g.degree(v) == 2 for v in g.vertices)

    def test_even_cycles_bipartite(self):
        assert is_bipartite(cycle(8)) is not None
        assert is_bipartite(cycle(7)) is None

    def test_path_counts(self):
        for k in (1, 2, 4):
            g = path(k)
            assert g.vertex_count == k and g.edge_count == k - 1

    def test_bad_parameters(self):
        with pytest.raises(GraphError):
            cycle(2)
        with pytest.raises(GraphError):
            path(0)


class TestBull:
    def test_b311_matches_picture(self):
        g = bull(3, [1, 1])
        assert g.vertex_count == 5 and g.edge_count == 5
        degrees = sorted(g.degree(v) for v in g.vertices)
        assert degrees == [1, 1, 2, 3, 3]

    def test_b4123_counts(self):
        g = bull(4, [1, 2, 3])
        assert g.vertex_count == 10 and g.edge_count == 10

    def test_b41_is_contracted_c6(self):
        assert are_isomorphic(bull(4, [1]), contract_set(cycle(6), {0, 2}))

    def test_count_formulas(self):
        for snout in (3, 4, 5, 6):
            for horns in ([1], [2, 1], [1, 1, 1], [3, 2]):
                if len(horns) > snout:
                    continue
                g = bull(snout, horns)
                assert g.vertex_count == snout + sum(horns)
                assert g.edge_count == snout + sum(horns)
                assert is_connected(g)

    def test_exactly_one_nontrivial_block(self):
        for snout, horns in ((3, [1]), (4, [1, 2]), (5, [2, 2, 1])):
            decomposition = blocks(bull(snout, horns))
            nontrivial = [b for b in decomposition.blocks if not b.trivial]
            assert len(nontrivial) == 1
            assert are_isomorphic(nontrivial[0].to_graph(), cycle(snout))

    def test_bad_parameters(self):
        with pytest.raises(GraphError, match="snout"):
            bull(2, [1])
        with pytest.raises(GraphError, match="horns"):
            bull(3, [])
        with pytest.raises(GraphError, match="horns"):
            bull(3, [1, 1, 1, 1])
        with pytest.raises(GraphError, match="length"):
            bull(3, [0])


class TestDog:
    def test_d1044_counts(self):
        g = dog(10, [4, 4])
        assert g.vertex_count == 14
        assert g.edge_count == 10 + 3 + 3

    def test_d6365_counts(self):
        g = dog(6, [3, 6, 5])
        assert g.vertex_count == 14
        assert g.edge_count == 6 + 2 + 5 + 4

    def test_d444(self):
        g = dog(4, [4, 4])
        assert g.vertex_count == 8 and g.edge_count == 10
        assert is_bipartite(g) is not None

    def test_count_formulas(self):
        for snout, ears in all_valid_dog_params(12):
            g = dog(snout, list(ears))
            assert g.vertex_count == snout + sum(e - 2 for e in ears)
            assert g.edge_count == snout + sum(e - 1 for e in ears)

    def test_single_block_both_modes(self):
        for snout, ears in ((3, (3,)), (5, (3, 4)), (6, (4, 4)), (7, (5,))):
            g = dog(snout, list(ears))
            assert len(blocks(g).blocks) == 1
            assert is_k_connected(g, 2, "paper")

    def test_bipartite_iff_all_even(self):
        for snout, ears in all_valid_dog_params(14):
            g = dog(snout, list(ears))
            want = snout % 2 == 0 and all(e % 2 == 0 for e in ears)
            assert (is_bipartite(g) is not None) == want, (snout, ears)

    def test_each_ear_shares_one_snout_edge(self):
        g = dog(8, [3, 4])
        assert g.has_edge(0, 1) and g.has_edge(2, 3)
        ear1 = g.neighbors(8)
        assert ear1 == {0, 1}

    def test_bad_parameters(self):
        with pytest.raises(GraphError, match="snout"):
            dog(2, [3])
        with pytest.raises(GraphError, match="ears"):
            dog(5, [3, 3, 3])
        with pytest.raises(GraphError, match="greater than two"):
            dog(6, [2])
        with pytest.raises(GraphError, match="ears"):
            dog(6, [])


class TestHTree:
    def test_smallest_member(self):
        g = h_tree(2)
        assert g.vertex_count == 6 and g.edge_count == 5
        assert sorted(g.degree(v) for v in g.vertices) == [1, 1, 1, 1, 3, 3]

    def test_seven_vertex_member(self):
        g = h_tree(3)
        assert g.vertex_count == 7 and g.edge_count == 6

    def test_always_a_tree(self):
        for length in range(2, 9):
            g = h_tree(length)
            assert g.vertex_count == length + 4
            assert g.edge_count == g.vertex_count - 1
            assert is_connected(g)

    def test_four_vertex_arm_variant(self):
        g = h_tree(2, arm_vertices=4)
        assert g.vertex_count == 8
        assert g.edge_count == 7
        assert is_connected(g)

    def test_bad_parameters(self):
        with pytest.raises(GraphError, match="connector"):
            h_tree(1)
        with pytest.raises(GraphError, match="arm_vertices"):
            h_tree(3, arm_vertices=5)


class TestDeterminismAndSpec:
    def test_generators_are_deterministic(self):
        assert bull(5, [2, 1]) == bull(5, [2, 1])
        assert dog(7, [3, 4]) == dog(7, [3, 4])
        assert h_tree(4) == h_tree(4)
