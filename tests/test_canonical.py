import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

from bipminor import canonical, relations
from bipminor.canonical import (
    CanonicalForm,
    _labelling,
    _minimal_bits,
    are_isomorphic,
    automorphism_generators,
    canonical_form,
    padded,
)
from bipminor.families import bull, cycle, dog, path
from bipminor.graph_core import SizeCapExceeded, build, contract_set, normalize_edge
from bipminor.relations import bipartite_minor_closure

from oracles import (
    brute_isomorphic,
    brute_min_bits,
    eager_min_bits,
    graphs,
    permute,
    random_forest,
    random_graph,
    random_sparse_connected,
    to_networkx,
)


def shuffled(g, rng):
    order = list(g.vertices)
    rng.shuffle(order)
    return permute(g, order)


# Non-isomorphic pairs that colour refinement does not tell apart: C_6 and
# two triangles (2-regular), K_{3,3} and the triangular prism (3-regular).
SAME_CERTIFICATE = [
    (cycle(6), build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
    (
        build(6, [(u, v) for u in range(3) for v in range(3, 6)]),
        build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
    ),
]


class TestCanonicalForm:
    def test_matches_brute_force_minimum(self):
        rng = random.Random(101)
        for _ in range(250):
            g = random_graph(rng, 6)
            assert canonical_form(g).canonical_bits == brute_min_bits(g)

    def test_matches_brute_force_on_seven_vertices(self):
        rng = random.Random(108)
        graphs = [cycle(7), bull(5, [2]), bull(4, [1, 2]), dog(5, [4]), dog(5, [3, 3])]
        graphs = [shuffled(g, rng) for g in graphs for _ in range(2)]
        graphs += [random_sparse_connected(rng, 7, extra=3) for _ in range(8)]
        for g in graphs:
            assert canonical_form(g).canonical_bits == brute_min_bits(g)

    def test_invariant_under_relabeling(self):
        rng = random.Random(102)
        for g in [cycle(6), bull(4, [1, 2]), dog(5, [3, 3]), path(7)]:
            want = canonical_form(g)
            for _ in range(100):
                assert canonical_form(shuffled(g, rng)) == want

    def test_c4_same_as_permuted_c4(self):
        g = permute(cycle(4), [2, 0, 3, 1])
        assert canonical_form(g) == canonical_form(cycle(4))

    def test_c4_differs_from_p4(self):
        assert canonical_form(cycle(4)) != canonical_form(path(4))

    def test_contracted_c6_is_one_horned_bull(self):
        got = contract_set(cycle(6), {0, 2})
        assert canonical_form(got) == canonical_form(bull(4, [1]))

    def test_to_graph_round_trip(self):
        rng = random.Random(103)
        for _ in range(80):
            cf = canonical_form(random_graph(rng, 9))
            assert canonical_form(cf.to_graph()) == cf

    def test_forms_are_ordered_values(self):
        forms = sorted(canonical_form(g) for g in [cycle(4), path(2), cycle(3)])
        assert forms[0].vertex_count <= forms[-1].vertex_count
        assert isinstance(forms[0], CanonicalForm)

    def test_size_cap(self, monkeypatch):
        # The size cap bounds the searches, which check their host; the
        # per-graph functions take graphs above it.
        monkeypatch.delenv("BIPMINOR_SIZE_CAP", raising=False)
        assert canonical_form(build(17, [])) == CanonicalForm(17, 0)
        g = cycle(15)
        h = shuffled(g, random.Random(104))
        assert canonical_form(h) == canonical_form(g)
        assert are_isomorphic(g, h)
        assert not are_isomorphic(g, path(15))
        assert len(automorphism_generators(h)) >= 2

    def test_size_cap_is_the_search_cap(self, monkeypatch):
        # The cap bounds the search, not the labelling: with the variable
        # unset the closure refuses a 15-vertex host that canonical_form
        # labels, and a raised cap lets the closure label its members.
        monkeypatch.delenv("BIPMINOR_SIZE_CAP", raising=False)
        host = build(15, [])
        assert canonical_form(host) == CanonicalForm(15, 0)
        with pytest.raises(SizeCapExceeded, match="size cap is 14"):
            bipartite_minor_closure(host)
        monkeypatch.setenv("BIPMINOR_SIZE_CAP", "16")
        closure = bipartite_minor_closure(host)
        assert sorted(cf.vertex_count for cf in closure) == list(range(16))
        assert canonical_form(host) in closure


def _networkx_orbits(g):
    """Vertex and edge orbits of the full automorphism group."""
    G = to_networkx(g)
    vertex = {v: {v} for v in g.vertices}
    edge = {e: {e} for e in g.edges}
    for iso in GraphMatcher(G, G).isomorphisms_iter():
        for v in g.vertices:
            vertex[v].add(iso[v])
        for u, v in g.edges:
            edge[(u, v)].add(normalize_edge(iso[u], iso[v]))
    return vertex, edge


def _generated_orbit(x, gens, act):
    seen = {x}
    stack = [x]
    while stack:
        y = stack.pop()
        for p in gens:
            image = act(p, y)
            if image not in seen:
                seen.add(image)
                stack.append(image)
    return seen


def _assert_full_orbits(g, gens):
    """The orbits ``gens`` generate are those of the full group."""
    vertex, edge = _networkx_orbits(g)
    for v in g.vertices:
        assert _generated_orbit(v, gens, lambda p, w: p[w]) == vertex[v], (g, v)
    for e in g.edges:
        got = _generated_orbit(e, gens, lambda p, f: normalize_edge(p[f[0]], p[f[1]]))
        assert got == edge[e], (g, e)


class TestPaddingLemma:
    """The form of ``X + kK_1`` is X's form with k zero columns in front,
    checked against a labelling of ``X + kK_1`` that no cache answers."""

    @staticmethod
    def _assert_padded(g, rng=None):
        form = canonical_form(g)
        for k in range(4):
            bigger = build(g.vertex_count + k, g.edges)
            if rng is not None:
                bigger = shuffled(bigger, rng)
            bits, _ = _minimal_bits(bigger)
            assert padded(form, k) == CanonicalForm(bigger.vertex_count, bits)
            assert padded(padded(form, k), -k) == form

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_vertices=9), st.randoms(use_true_random=False))
    def test_random_graphs(self, g, rng):
        # The added vertices land anywhere among the labels.
        self._assert_padded(g, rng)

    @pytest.mark.parametrize(
        "host, members", [(cycle(10), 272), (dog(6, [4]), 172)], ids=["C10", "D(6,4)"]
    )
    def test_closure_members(self, host, members):
        closure = bipartite_minor_closure(host)
        assert len(closure) == members
        for cf in closure:
            self._assert_padded(cf.to_graph())


class TestAutomorphisms:
    def test_generators_map_edges_onto_edges(self):
        rng = random.Random(109)
        graphs = [cycle(9), dog(6, [4, 4]), bull(5, [1, 1]), build(6, [])]
        graphs += [random_graph(rng, 9) for _ in range(150)]
        for g in graphs:
            for p in automorphism_generators(g):
                assert sorted(p) == list(g.vertices)
                assert {normalize_edge(p[u], p[v]) for u, v in g.edges} == g.edges

    def test_orbits_match_full_group(self):
        rng = random.Random(110)
        graphs = [cycle(8), dog(4, [3, 3]), build(5, []), build(4, [(0, 1), (2, 3)])]
        graphs += [random_graph(rng, 8) for _ in range(120)]
        graphs += [random_sparse_connected(rng, 8, extra=2) for _ in range(80)]
        for g in graphs:
            _assert_full_orbits(g, automorphism_generators(g))


def _vertex_orbits(g, gens):
    return {frozenset(_generated_orbit(v, gens, lambda p, w: p[w])) for v in g.vertices}


def _edge_orbits(g, gens):
    act = lambda p, f: normalize_edge(p[f[0]], p[f[1]])  # noqa: E731
    return {frozenset(_generated_orbit(e, gens, act)) for e in g.edges}


def _assert_as_eager(g, bits, gens):
    """The form and the vertex and edge orbits of the eager search."""
    want, want_gens = eager_min_bits(g)
    assert bits == want, g
    assert _vertex_orbits(g, gens) == _vertex_orbits(g, want_gens), g
    assert _edge_orbits(g, gens) == _edge_orbits(g, want_gens), g


# The forest P3 + P5 + 2K1: its isolated vertices and leaves tie on many
# columns, and an eager search made each order of them a subtree.
FOREST = build(10, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7)])


class TestBlocks:
    def test_exact_on_forests_with_isolated_vertices(self):
        # Disconnected sparse graphs are where blocks, joins and the
        # setwise stabiliser cut most; a cut that dropped a subtree holding
        # the minimum or an automorphism would show as a wrong form or a
        # smaller orbit.
        rng = random.Random(113)
        for _ in range(24):
            g = random_forest(rng, 8, min_vertices=4)
            bits, gens = _minimal_bits(g)
            assert bits == brute_min_bits(g), g
            _assert_full_orbits(g, gens)

    def test_invariant_under_relabelling(self):
        # A cut that depended on vertex numbers beyond the order of ties
        # would give labelling-dependent forms.
        rng = random.Random(116)
        for _ in range(300):
            g = random_graph(rng, 9, min_vertices=6)
            want = _minimal_bits(g)[0]
            for _ in range(3):
                assert _minimal_bits(shuffled(g, rng))[0] == want, g

    @pytest.mark.parametrize(
        "g, bound",
        [
            # The eager search placed 804 vertices on the forest and 11570
            # on D(10,4,4), with its cell bound.
            (FOREST, 60),
            (dog(10, [4, 4]), 200),
            # 7K_2: pruning with only the automorphisms that fix every
            # placed vertex lets the edges' orders multiply.
            (build(14, [(2 * i, 2 * i + 1) for i in range(7)]), 60),
            # The empty graph: one block, each set joined once.
            (build(14, []), 14),
            (build(14, [(u, v) for u in range(7) for v in range(7, 14)]), 40),
        ],
        ids=["P3+P5+2K1", "D(10,4,4)", "7K2", "E14", "K77"],
    )
    def test_nodes_within_bound(self, monkeypatch, g, bound):
        # One _columns call per node of the search.
        calls = []
        columns = canonical._columns

        def counting(*args):
            calls.append(None)
            return columns(*args)

        monkeypatch.setattr(canonical, "_columns", counting)
        bits, gens = _minimal_bits(g)
        assert len(calls) <= bound
        monkeypatch.undo()
        # These groups are too large to list, so the eager search checks.
        _assert_as_eager(g, bits, gens)


class TestEagerOracle:
    @settings(max_examples=150, deadline=None)
    @given(graphs(max_vertices=10))
    def test_matches_the_eager_search(self, g):
        _assert_as_eager(g, *_minimal_bits(g))

    def test_matches_on_sparse_graphs_beyond_brute_force(self):
        rng = random.Random(117)
        pool = [dog(10, [4, 4]), bull(8, [2, 2]), cycle(13)]
        while len(pool) < 9:
            g = random_sparse_connected(rng, 14, extra=4)
            if g.vertex_count >= 12:
                pool.append(shuffled(g, rng))
        for g in pool:
            _assert_as_eager(g, *_minimal_bits(g))


class TestAreIsomorphic:
    def test_relabeled_c6(self):
        rng = random.Random(104)
        assert are_isomorphic(cycle(6), shuffled(cycle(6), rng))

    def test_c6_vs_bull(self):
        assert not are_isomorphic(cycle(6), bull(4, [1]))

    def test_dog_with_swapped_ears(self):
        # The two ear slots are exchanged by a reflection of the snout.
        assert are_isomorphic(dog(6, [3, 5]), dog(6, [5, 3]))
        assert are_isomorphic(dog(10, [4, 4]), dog(10, [4, 4]))

    def test_matches_brute_force_on_pairs(self):
        rng = random.Random(105)
        agree = disagree = 0
        for _ in range(150):
            g = random_graph(rng, 5)
            h = random_graph(rng, 5)
            want = brute_isomorphic(g, h)
            assert are_isomorphic(g, h) == want
            agree += want
            disagree += not want
        assert agree > 0 and disagree > 0

    def test_matches_brute_force_on_shuffles(self):
        rng = random.Random(106)
        for _ in range(60):
            g = random_graph(rng, 6)
            h = shuffled(g, rng)
            assert are_isomorphic(g, h)
            assert brute_isomorphic(g, h)

    def test_equivalence_relation_on_samples(self):
        rng = random.Random(107)
        pool = [random_graph(rng, 6) for _ in range(40)]
        for g in pool:
            assert are_isomorphic(g, g)
        for _ in range(200):
            a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            assert are_isomorphic(a, b) == are_isomorphic(b, a)
            if are_isomorphic(a, b) and are_isomorphic(b, c):
                assert are_isomorphic(a, c)

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_vertices=10), st.randoms(use_true_random=False))
    def test_matches_networkx(self, g, rng):
        # Closures key their shared store by form, so form equality must be
        # isomorphism.  The second graph has g's vertex and edge counts, so
        # the cheap count checks do not decide the negatives.
        pairs = [(i, j) for i in range(g.vertex_count) for j in range(i + 1, g.vertex_count)]
        other = build(g.vertex_count, rng.sample(pairs, g.edge_count))
        for h in (shuffled(g, rng), other):
            want = nx.is_isomorphic(to_networkx(g), to_networkx(h))
            assert are_isomorphic(g, h) == want
            assert (canonical_form(g) == canonical_form(h)) == want

    def test_same_degree_sequence_not_enough(self):
        # C_6 versus two triangles: all degrees 2, not isomorphic.
        two_triangles = build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not are_isomorphic(cycle(6), two_triangles)

    def test_needs_no_labelling(self, monkeypatch):
        def refuse(g):
            raise AssertionError("are_isomorphic labelled a graph")

        monkeypatch.setattr(canonical, "_minimal_bits", refuse)
        rng = random.Random(111)
        for g in [cycle(8), dog(6, [4, 4]), random_graph(rng, 9)]:
            assert are_isomorphic(g, shuffled(g, rng))
        assert not are_isomorphic(*SAME_CERTIFICATE[0])


@pytest.fixture
def empty_cache():
    """Every process-wide cache, emptied before the test."""
    relations.clear_caches()


class TestClassCache:
    @settings(max_examples=150, deadline=None)
    @given(graphs(max_vertices=10), st.randoms(use_true_random=False))
    def test_match_agrees_with_a_cold_labelling(self, g, rng):
        h = shuffled(g, rng)
        cold_bits, cold_gens = _minimal_bits(h)
        relations.clear_caches()
        _labelling(g)
        form, gens = _labelling(h)
        # h was matched to g, not labelled (unless it is g itself).
        assert list(canonical._reps) == [g]
        assert form == CanonicalForm(h.vertex_count, cold_bits)
        for p in gens:
            assert sorted(p) == list(h.vertices)
            assert {normalize_edge(p[u], p[v]) for u, v in h.edges} == h.edges
        assert _vertex_orbits(h, gens) == _vertex_orbits(h, cold_gens)

    @pytest.mark.parametrize("pair", SAME_CERTIFICATE, ids=["C6-2C3", "K33-prism"])
    def test_same_certificate_different_forms(self, pair, empty_cache):
        g, h = pair
        assert canonical._stable(g)[2] == canonical._stable(h)[2]
        assert not are_isomorphic(g, h)
        assert canonical_form(g) != canonical_form(h)
        assert canonical_form(g).canonical_bits == brute_min_bits(g)
        assert canonical_form(h).canonical_bits == brute_min_bits(h)
        assert set(canonical._reps) == {g, h}

    def test_leaf_checks_every_edge(self):
        # Discrete colourings pair the vertices at once; only the edges can
        # tell the path P_3 from the triangle.
        p3, k3 = path(3), cycle(3)
        nbrs = canonical._neighbours
        assert canonical._isomorphism(nbrs(p3), [0, 1, 2], k3, [0, 1, 2], []) is None
        assert canonical._isomorphism(nbrs(k3), [0, 1, 2], k3, [2, 0, 1], []) == [1, 2, 0]

    def test_colliding_keys_give_exact_forms(self, monkeypatch, empty_cache):
        # With every certificate hashed to one key, each graph is matched
        # against every representative so far, of any size, before labelling.
        monkeypatch.setattr(canonical, "hash", lambda key: 0, raising=False)
        rng = random.Random(112)
        for _ in range(150):
            g = random_graph(rng, 6)
            assert canonical_form(g).canonical_bits == brute_min_bits(g)
            assert canonical_form(shuffled(g, rng)) == canonical_form(g)

    def test_a_kept_path_gives_the_fresh_match(self):
        rng = random.Random(114)
        pool = [cycle(8), dog(6, [4, 4]), bull(5, [1, 2]), FOREST]
        pool += [random_graph(rng, 9) for _ in range(30)]
        for g in pool:
            relations.clear_caches()
            canonical_form(g)
            colours, _, _, path = canonical._reps[g]
            levels = None
            for _ in range(5):
                h = shuffled(g, rng)
                nbrs, h_colours, _ = canonical._stable(h)
                kept = canonical._isomorphism(nbrs, h_colours, g, colours, path)
                assert kept is not None
                assert kept == canonical._isomorphism(nbrs, h_colours, g, colours, [])
                # The first match built the path; later ones only read it.
                assert levels in (None, len(path))
                levels = len(path)
            assert levels <= g.vertex_count

    def test_the_memo_keeps_graphs_above_the_cap(self, monkeypatch, empty_cache):
        monkeypatch.delenv("BIPMINOR_SIZE_CAP", raising=False)
        g = cycle(16)
        h = shuffled(g, random.Random(115))
        form = canonical_form(g)
        assert canonical_form(h) == form
        assert canonical._forms == {h.neighbor_masks: form}
        monkeypatch.setattr(canonical, "_labelling", None)
        assert canonical_form(h) == form

    def test_closure_labels_each_member_once(self, monkeypatch, empty_cache):
        labelled = []

        def counting(g):
            labelled.append(g)
            return _minimal_bits(g)

        monkeypatch.setattr(canonical, "_minimal_bits", counting)
        closure = bipartite_minor_closure(cycle(10))
        assert len(closure) == 272
        assert len(labelled) <= len(closure)
