import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import networkx as nx

from bipminor import canonical, relations
from bipminor.canonical import (
    K,
    CanonicalForm,
    _code,
    _minimal_bits,
    are_isomorphic,
    canonical_form,
    padded,
)
from bipminor.cli.harness import verify_harness
from bipminor.cli.main import run_cli
from bipminor.cli.serialize import emit_graph6
from bipminor.families import bull, cycle, dog, path
from bipminor.graph_core import (
    SizeCapExceeded,
    build,
    contract_set,
    normalize_edge,
    strip_isolated,
)
from bipminor.relations import bipartite_minor_closure

from oracles import (
    brute_isomorphic,
    brute_min_bits,
    eager_min_bits,
    graphs,
    kernel_sizes,
    large_kernels,
    permute,
    pseudoforests,
    random_forest,
    random_graph,
    random_sparse_connected,
    small_kernels,
    stable_cells,
    to_networkx,
)


def shuffled(g, rng):
    order = list(g.vertices)
    rng.shuffle(order)
    return permute(g, order)


def label(g):
    """``_minimal_bits`` called as ``canonical_form`` calls it: with g's
    stable colouring, so over the orders that list its cells in colour
    order."""
    return _minimal_bits(g, canonical._stable(g))


def cold_form(g):
    """g's form from no cache: spelled from its code, or labelled."""
    code = _code(g)
    if code is None:
        return CanonicalForm(g.vertex_count, label(g)[0])
    return canonical._spell(code)


def _has_large_kernel(g):
    """True iff some component of g's 2-core has more than K kernel
    vertices (networkx)."""
    return max(kernel_sizes(g), default=0) > K


def _assert_form(g):
    """g's form keeps its contract, checked by oracles apart from the
    package: a graph with a kernel of more than K vertices takes the least
    bits over cell orders (brute force), and any other the bits of a graph
    isomorphic to g (networkx), which has g's code."""
    form = canonical_form(g)
    assert form.vertex_count == g.vertex_count, g
    if _has_large_kernel(g):
        assert form.canonical_bits == brute_min_bits(g), g
    else:
        assert nx.is_isomorphic(to_networkx(form.to_graph()), to_networkx(g)), g
        assert _code(form.to_graph()) == _code(g), g


# Non-isomorphic pairs that colour refinement (the 1-WL certificate) does
# not tell apart: C_6 and two triangles (2-regular), K_{3,3} and the
# triangular prism (3-regular).
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
        labelled = 0
        for _ in range(250):
            g = random_graph(rng, 6)
            _assert_form(g)
            labelled += _has_large_kernel(g)
        # Most small random graphs have a code and are spelled, so graphs
        # with a kernel of more than K vertices, which have none and are
        # always labelled, follow: 195 labelled in all, as many as when
        # every graph with more edges than vertices was labelled.
        while labelled < 195:
            g = random_graph(rng, 6)
            if _has_large_kernel(g):
                labelled += 1
                _assert_form(g)
                assert canonical_form(shuffled(g, rng)) == canonical_form(g)

    def test_matches_brute_force_on_seven_vertices(self):
        rng = random.Random(108)
        graphs = [cycle(7), bull(5, [2]), bull(4, [1, 2]), dog(5, [4]), dog(5, [3, 3])]
        graphs = [shuffled(g, rng) for g in graphs for _ in range(2)]
        graphs += [random_sparse_connected(rng, 7, extra=3) for _ in range(8)]
        # Seven labelled graphs, as many as when every graph with more edges
        # than vertices was labelled.
        labelled = []
        while len(labelled) < 7:
            g = random_sparse_connected(rng, 7, extra=9, min_vertices=7)
            if _has_large_kernel(g):
                labelled.append(g)
        for g in graphs + labelled:
            _assert_form(g)

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

    def test_forms_sort_hash_and_print_as_pairs(self):
        # A form is a named pair of its two fields: over every graph of at
        # most 6 vertices, forms sort by vertex count, then bits, and a
        # relabelled copy's form, found from no cache, is equal and hashes
        # equal.
        rng = random.Random(127)
        small = [g for g in ATLAS if g.vertex_count <= 6]
        forms = [canonical_form(g) for g in small]
        assert len(set(forms)) == len(small) == 209
        rng.shuffle(forms)
        assert sorted(forms) == sorted(
            forms, key=lambda cf: (cf.vertex_count, cf.canonical_bits)
        )
        for g in small:
            form = canonical_form(g)
            relations.clear_caches()
            again = canonical_form(shuffled(g, rng))
            assert again == form and hash(again) == hash(form)
            assert {again: 1}[form] == 1
        assert repr(CanonicalForm(3, 5)) == "CanonicalForm(vertex_count=3, canonical_bits=5)"

    def test_no_form_meets_a_plain_tuple(self, monkeypatch, capsys, tmp_path):
        # A named pair equals the plain tuple of its fields, so nothing in
        # the package may compare, sort or look up a form beside one.
        # Here every form the package makes refuses to meet a tuple of any
        # other kind, through the searches, the CLI and every claim.
        def other(x):
            assert isinstance(x, CanonicalForm) or not isinstance(x, tuple), x
            return x

        class Strict(CanonicalForm):
            __slots__ = ()
            __hash__ = CanonicalForm.__hash__

            def __eq__(self, x):
                return tuple.__eq__(self, other(x))

            def __ne__(self, x):
                return tuple.__ne__(self, other(x))

            def __lt__(self, x):
                return tuple.__lt__(self, other(x))

            def __le__(self, x):
                return tuple.__le__(self, other(x))

            def __gt__(self, x):
                return tuple.__gt__(self, other(x))

            def __ge__(self, x):
                return tuple.__ge__(self, other(x))

        relations.clear_caches()
        monkeypatch.setattr(canonical, "CanonicalForm", Strict)
        try:
            assert type(canonical_form(cycle(4))) is Strict
            with pytest.raises(AssertionError):
                assert canonical_form(cycle(4)) != (4, 0)
            assert len(bipartite_minor_closure(dog(6, [4]))) == 172
            h = build(6, cycle(4).edges)
            assert relations.bipartite_minor_trace(h, dog(6, [4])) is not None
            assert relations.bipartite_minor_trace(dog(5, [4]), cycle(10)) is None
            host = tmp_path / "C8.g6"
            host.write_text(emit_graph6(cycle(8)) + "\n")
            assert run_cli(["closure", str(host)]) == 0
            assert len(capsys.readouterr().out.splitlines()) == 102
            assert all(c.passed for c in verify_harness("all").claims)
        finally:
            relations.clear_caches()

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
        for x in (build(17, []), g, h):
            _assert_labelling(x)

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

    def test_labelling_has_no_recursion_limit(self):
        # Both are larger than Python's default recursion limit of 1000:
        # the search recurses only where a node has two or more children.
        rng = random.Random(121)
        edges = set()
        while len(edges) < 3600:
            u, v = sorted(rng.sample(range(1200), 2))
            edges.add((u, v))
        for g in (path(1050), build(1200, sorted(edges))):
            bits, gens = label(g)
            form = CanonicalForm(g.vertex_count, bits)
            assert label(form.to_graph())[0] == bits
            assert label(shuffled(g, rng))[0] == bits
            _assert_automorphisms(g, gens)
        spelled = canonical_form(path(1050))
        assert canonical_form(shuffled(spelled.to_graph(), rng)) == spelled


def _assert_automorphisms(g, gens):
    """Each of ``gens`` permutes g's vertices and maps edges onto edges."""
    for p in gens:
        assert sorted(p) == list(g.vertices), (g, p)
        assert {normalize_edge(p[u], p[v]) for u, v in g.edges} == g.edges, (g, p)


def _assert_labelling(g):
    """``_minimal_bits`` gives the least bits over cell orders, checked by
    brute force up to seven vertices and by the eager search beyond, and
    prunes only with automorphisms."""
    bits, gens = label(g)
    if g.vertex_count <= 7:
        assert bits == brute_min_bits(g), g
    else:
        assert bits == eager_min_bits(g)[0], g
    _assert_automorphisms(g, gens)


class TestPaddingLemma:
    """The form of ``X + kK_1`` is X's form with k zero columns in front,
    checked against a spelling or labelling of ``X + kK_1`` that no cache
    answers."""

    @staticmethod
    def _assert_padded(g, rng=None):
        form = canonical_form(g)
        assert padded(form, 0) is form
        for k in range(4):
            bigger = build(g.vertex_count + k, g.edges)
            if rng is not None:
                bigger = shuffled(bigger, rng)
            assert padded(form, k) == cold_form(bigger)
            # A trace's target is the form of the target's core.
            core, isolated = strip_isolated(bigger)
            assert padded(canonical_form(core), isolated) == padded(form, k)

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


# networkx's atlas lists every graph of at most 7 vertices once.
ATLAS = [build(x.number_of_nodes(), list(x.edges())) for x in nx.graph_atlas_g()]


class TestTreeCodes:
    """A graph's code, where it has one, is complete: equal codes iff
    isomorphic."""

    def test_atlas_codes_match_the_golden_file(self):
        # One line per atlas graph: its graph6, then its code or "-".  The
        # file pins every code byte for byte, so a change to the peel or
        # the encodings that moves a code, even one that keeps codes
        # complete, shows here.
        golden = Path(__file__).parent / "golden" / "codes_atlas7.txt"
        lines = []
        for g in ATLAS:
            code = _code(g)
            lines.append(f"{emit_graph6(g)} {'-' if code is None else code}\n")
        assert "".join(lines) == golden.read_text()

    def test_all_graphs_of_at_most_seven_vertices(self):
        # 659 of the 1253 graphs are coded: each component of their 2-core
        # has at most K kernel vertices.  The graph a code spells has that
        # code again.
        rng = random.Random(116)
        assert len(ATLAS) == 1253
        by_code = {}
        for g in ATLAS:
            code = _code(g)
            assert (code is None) == _has_large_kernel(g), g
            if code is not None:
                assert _code(shuffled(g, rng)) == code, g
                assert _code(canonical._spell(code).to_graph()) == code, g
                by_code.setdefault(code, []).append(g)
        assert len(by_code) == 659
        # Equal codes: isomorphic.  Unequal codes: not isomorphic, checked
        # by networkx on every pair that vertex and edge counts and degrees
        # leave open.
        assert all(len(same) == 1 for same in by_code.values())
        buckets = {}
        for g in (same[0] for same in by_code.values()):
            degrees = sorted(map(int.bit_count, g.neighbor_masks))
            buckets.setdefault((g.edge_count, *degrees), []).append(g)
        pairs = [
            (a, b)
            for bucket in buckets.values()
            for i, a in enumerate(bucket)
            for b in bucket[i + 1:]
        ]
        assert len(pairs) > 20
        assert not any(
            nx.is_isomorphic(to_networkx(a), to_networkx(b)) for a, b in pairs
        )

    @settings(max_examples=150, deadline=None)
    @given(pseudoforests(max_vertices=12), st.randoms(use_true_random=False))
    def test_coded_form_is_a_cold_spelling(self, g, rng):
        h = shuffled(g, rng)
        cold = cold_form(h)
        relations.clear_caches()
        assert _code(g) == _code(h) is not None
        canonical_form(g)
        assert canonical_form(h) == cold
        # h took g's form by its code, which maps straight to the form: the
        # memo holds one form, under both graphs' masks and the code.
        memo = canonical._forms
        assert memo == {g.neighbor_masks: cold, h.neighbor_masks: cold, _code(g): cold}
        assert memo[h.neighbor_masks] is memo[g.neighbor_masks]

    def test_trees_with_two_centres(self):
        # Two centres, 0 and 1: a leaf and a 2-path at 0, a 2-path at 1.
        tree = build(7, [(0, 1), (0, 2), (0, 3), (3, 4), (1, 5), (5, 6)])
        swapped = permute(tree, [1, 0, 5, 6, 2, 3, 4])
        # The leaf moved from centre 0 to the middle of its 2-path.
        moved = build(7, [(0, 1), (0, 3), (3, 2), (3, 4), (1, 5), (5, 6)])
        trees = [path(2), path(4), path(6), tree, swapped, moved]
        assert all(_code(t).startswith("[") for t in trees)
        for a in trees:
            for b in trees:
                assert (_code(a) == _code(b)) == brute_isomorphic(a, b)
        assert _code(tree) == _code(swapped) != _code(moved)

    def test_a_chiral_unicyclic_graph(self):
        # C_4 with horns of 1 and 2 vertices on adjacent vertices: the
        # hanging trees read (1, 2, 0, 0) one way round and (2, 1, 0, 0),
        # which is no rotation of it, the other.  Only the reflection
        # identifies the two.  Horns on opposite vertices give another graph.
        chiral, mirrored = bull(4, [1, 2]), bull(4, [2, 1])
        opposite = build(7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 5), (5, 6)])
        assert brute_isomorphic(chiral, mirrored)
        assert _code(chiral) == _code(mirrored)
        assert not brute_isomorphic(chiral, opposite)
        assert _code(chiral) != _code(opposite)
        relations.clear_caches()
        form = canonical_form(chiral)
        assert canonical_form(mirrored) == form == cold_form(mirrored)
        assert nx.is_isomorphic(to_networkx(form.to_graph()), to_networkx(mirrored))

    def test_isolated_vertices(self):
        assert [_code(build(n, [])) for n in range(4)] == ["", "()", "()()", "()()()"]
        k2_k1, p3 = build(3, [(1, 2)]), path(3)
        assert _code(k2_k1) != _code(p3)
        assert _code(build(4, [(0, 1), (2, 3)])) != _code(build(4, [(1, 2)]))
        # A component whose kernel has more than K vertices leaves the graph
        # uncoded, beside any number of isolated vertices; a smaller kernel
        # is coded beside them as a pseudoforest is.
        theta = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
        assert _code(build(6, theta)) == "()()" + _code(build(4, theta))
        k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        assert [_code(build(n, k5)) for n in (5, 6, 7)] == [None] * 3
        rng = random.Random(117)
        relations.clear_caches()
        for g in [
            build(5, [(2, 3)]),
            build(6, [(0, 5), (5, 2), (2, 0)]),
            FOREST,
            build(7, theta),
            build(7, k5),
        ]:
            canonical_form(g)
            h = shuffled(g, rng)
            assert canonical_form(h) == cold_form(h)
            _assert_form(h)

    def test_a_known_code_takes_no_refinement_and_no_labelling(self, monkeypatch):
        # The form comes from the memo by the code alone: no refinement, no
        # labelling and no second spelling.
        rng = random.Random(118)
        relations.clear_caches()
        # The last is K_4 with a path hung from one vertex: a kernel code.
        k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        graphs = [bull(5, [1, 2]), FOREST, cycle(9), path(7)]
        graphs.append(build(6, k4 + [(3, 4), (4, 5)]))
        for g in graphs:
            canonical_form(g)

        def refuse(*args):
            raise AssertionError("a known code was labelled, refined or spelled")

        monkeypatch.setattr(canonical, "_minimal_bits", refuse)
        monkeypatch.setattr(canonical, "_stable", refuse)
        monkeypatch.setattr(canonical, "_spell", refuse)
        for g in graphs:
            assert canonical_form(shuffled(g, rng)) == canonical_form(g)
        codes = [key for key in canonical._forms if isinstance(key, str)]
        assert sorted(codes) == sorted(_code(g) for g in graphs)

    def test_disjoint_copies_of_k4_are_spelled(self, monkeypatch, empty_cache):
        # Each K_4 is a kernel of 4 vertices, so the union is coded and
        # spelled; labelling it took seconds.
        def refuse(*args):
            raise AssertionError("a coded graph was refined or labelled")

        g = _disjoint_copies(100, _from_networkx(nx.complete_graph(4)))
        monkeypatch.setattr(canonical, "_minimal_bits", refuse)
        monkeypatch.setattr(canonical, "_stable", refuse)
        form = canonical_form(g)
        assert nx.is_isomorphic(to_networkx(form.to_graph()), to_networkx(g))


class TestSpelledForms:
    """A coded graph's form is the graph its code spells, checked by oracles
    that share no code with the spell or the code."""

    @settings(max_examples=150, deadline=None)
    @given(pseudoforests(max_vertices=12), st.randoms(use_true_random=False))
    def test_spelled_graph_is_isomorphic(self, g, rng):
        relations.clear_caches()
        form = canonical_form(g)
        assert form.vertex_count == g.vertex_count
        assert nx.is_isomorphic(to_networkx(form.to_graph()), to_networkx(g))
        # A relabelling, spelled from no cache, keeps the form.
        relations.clear_caches()
        assert canonical_form(shuffled(g, rng)) == form

    @settings(max_examples=150, deadline=None)
    @given(small_kernels(max_vertices=12), st.randoms(use_true_random=False))
    def test_small_kernels_are_spelled(self, g, rng):
        # A graph is coded exactly when no kernel has more than K vertices;
        # a coded graph's form is a graph isomorphic to it, with its code,
        # and a relabelling from no cache keeps both.
        relations.clear_caches()
        code = _code(g)
        assert (code is None) == _has_large_kernel(g)
        form = canonical_form(g)
        h = shuffled(g, rng)
        assert _code(h) == code
        relations.clear_caches()
        assert canonical_form(h) == form
        if code is not None:
            assert nx.is_isomorphic(to_networkx(form.to_graph()), to_networkx(g))
            assert _code(form.to_graph()) == code

    def test_forms_are_distinct_exactly_when_not_isomorphic(self):
        # Over every graph of at most 7 vertices, coded or not: a relabelled
        # copy takes the same form, and the 1253 classes take 1253 forms.
        # networkx finds no isomorphism inside any bucket of equal degree
        # sequences, so the atlas holds one graph per class.
        rng = random.Random(122)
        buckets = {}
        for g in ATLAS:
            degrees = sorted(map(int.bit_count, g.neighbor_masks))
            buckets.setdefault((g.vertex_count, *degrees), []).append(to_networkx(g))
        assert not any(
            nx.is_isomorphic(a, b)
            for bucket in buckets.values()
            for i, a in enumerate(bucket)
            for b in bucket[i + 1:]
        )
        forms = []
        for g in ATLAS:
            relations.clear_caches()
            forms.append(canonical_form(g))
            assert canonical_form(shuffled(g, rng)) == forms[-1], g
        assert len(set(forms)) == len(ATLAS)

    def test_isolated_vertices_are_numbered_first(self):
        # P3 + 2K1 + C4: the code lists the trees, the () parts and the
        # cycles in code order; the spell puts the isolated vertices first.
        g = build(9, [(0, 1), (1, 2), (5, 6), (6, 7), (7, 8), (5, 8)])
        assert _code(g) == "(()())()()<()()()()>"
        form = canonical._spell(_code(g))
        assert form.to_graph().edges == {(2, 3), (2, 4), (5, 6), (5, 8), (6, 7), (7, 8)}


class TestAutomorphisms:
    """The automorphisms ``_minimal_bits`` prunes with, which it returns
    beside the bits; they need not generate the whole group."""

    def test_generators_map_edges_onto_edges(self):
        rng = random.Random(109)
        graphs = [cycle(9), dog(6, [4, 4]), bull(5, [1, 1]), build(6, [])]
        graphs += [random_graph(rng, 9) for _ in range(150)]
        for g in graphs:
            _assert_labelling(g)

    def test_generators_on_eight_vertex_graphs(self):
        rng = random.Random(110)
        graphs = [cycle(8), dog(4, [3, 3]), build(5, []), build(4, [(0, 1), (2, 3)])]
        graphs += [random_graph(rng, 8) for _ in range(120)]
        graphs += [random_sparse_connected(rng, 8, extra=2) for _ in range(80)]
        for g in graphs:
            _assert_labelling(g)


def _assert_as_eager(g, bits, gens):
    """The form of the eager search, found with automorphisms only."""
    assert bits == eager_min_bits(g)[0], g
    _assert_automorphisms(g, gens)


# The forest P3 + P5 + 2K1: its isolated vertices and leaves tie on many
# columns, and an eager search made each order of them a subtree.
FOREST = build(10, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7)])


class TestBlocks:
    """Where the search cuts most: forests with isolated vertices and graphs
    with many automorphisms."""

    def test_exact_on_forests_with_isolated_vertices(self):
        # Disconnected sparse graphs are where twins, backjumps and orbits
        # cut most; a cut that dropped a subtree holding the minimum would
        # show as a wrong form, and a pruning map that is no automorphism as
        # a generator that moves an edge off the edges.
        rng = random.Random(113)
        for _ in range(24):
            g = random_forest(rng, 8, min_vertices=4)
            bits, gens = label(g)
            assert bits == brute_min_bits(g), g
            _assert_automorphisms(g, gens)

    def test_invariant_under_relabelling(self):
        # A cut that depended on vertex numbers beyond the order of ties
        # would give labelling-dependent forms.
        rng = random.Random(116)
        for _ in range(300):
            g = random_graph(rng, 9, min_vertices=6)
            want = label(g)[0]
            for _ in range(3):
                assert label(shuffled(g, rng))[0] == want, g

    @pytest.mark.parametrize(
        "g, bound",
        [
            # Over all orders, an eager search with a sorted-column bound
            # placed 804 vertices on the forest and 11570 on D(10,4,4);
            # inside the stable cells this one places 16 and 36.
            (FOREST, 60),
            (dog(10, [4, 4]), 200),
            # 7K_2: the orbits of the automorphisms that fix every placed
            # vertex leave the edges' orders to multiply; 83 placements.
            (build(14, [(2 * i, 2 * i + 1) for i in range(7)]), 100),
            # The empty graph: all twins, so one leaf and no branching.
            (build(14, []), 14),
            # K_{7,7}: two classes of twins, two leaves, 28 placements.
            (build(14, [(u, v) for u in range(7) for v in range(7, 14)]), 40),
        ],
        ids=["P3+P5+2K1", "D(10,4,4)", "7K2", "E14", "K77"],
    )
    def test_nodes_within_bound(self, monkeypatch, g, bound):
        # One _place call per vertex placed.
        calls = []
        place = canonical._place

        def counting(*args):
            calls.append(None)
            return place(*args)

        monkeypatch.setattr(canonical, "_place", counting)
        bits, gens = label(g)
        assert len(calls) <= bound
        monkeypatch.undo()
        # Brute force cannot reach these, so the eager search checks.
        _assert_as_eager(g, bits, gens)


class TestEagerOracle:
    # Graphs are drawn with a kernel of more than K vertices: those that
    # canonical_form labels.
    @settings(max_examples=150, deadline=None)
    @given(large_kernels(max_vertices=10))
    def test_matches_the_eager_search(self, g):
        _assert_as_eager(g, *label(g))

    def test_matches_on_sparse_graphs_beyond_brute_force(self):
        rng = random.Random(117)
        pool = [dog(10, [4, 4]), bull(8, [2, 2]), cycle(13)]
        while len(pool) < 9:
            g = random_sparse_connected(rng, 14, extra=6)
            if g.vertex_count >= 12 and _has_large_kernel(g):
                pool.append(shuffled(g, rng))
        for g in pool:
            _assert_as_eager(g, *label(g))


def _from_networkx(x):
    x = nx.convert_node_labels_to_integers(x)
    return build(x.number_of_nodes(), list(x.edges()))


def _disjoint_copies(k, g):
    n = g.vertex_count
    return build(k * n, [(i * n + u, i * n + v) for i in range(k) for u, v in g.edges])


# Graphs whose stable colouring has one cell, so that every order is a
# cell order.
ONE_CELL = {
    **{f"C{n}": cycle(n) for n in range(3, 13)},
    **{f"K{n}": _from_networkx(nx.complete_graph(n)) for n in range(2, 9)},
    "cube": _from_networkx(nx.hypercube_graph(3)),
    "Petersen": _from_networkx(nx.petersen_graph()),
    "7K2": _disjoint_copies(7, path(2)),
}

VERTEX_TRANSITIVE = {
    "cube": ONE_CELL["cube"],
    "Q4": _from_networkx(nx.hypercube_graph(4)),
    "Petersen": ONE_CELL["Petersen"],
    "Heawood": _from_networkx(nx.heawood_graph()),
    "Moebius-Kantor": _from_networkx(nx.moebius_kantor_graph()),
    "K66": _from_networkx(nx.complete_bipartite_graph(6, 6)),
    "K12": _from_networkx(nx.complete_graph(12)),
    "C12": cycle(12),
    "3C5": _disjoint_copies(3, cycle(5)),
    "7K2": ONE_CELL["7K2"],
}


class TestCellOrders:
    """Forms are least over the orders that list the cells of the stable
    colouring in colour order.  That colouring depends on no labels, so a
    relabelling maps the allowed orders onto themselves and keeps the form."""

    @pytest.mark.parametrize("g", ONE_CELL.values(), ids=ONE_CELL.keys())
    def test_one_cell_keeps_the_all_orders_minimum(self, g):
        # One cell of every vertex allows every order.
        assert stable_cells(g) == [list(g.vertices)]
        if g.vertex_count <= 7:
            want = brute_min_bits(g)
        else:
            want = eager_min_bits(g)[0]
        assert label(g)[0] == want

    @pytest.mark.parametrize(
        "g", VERTEX_TRANSITIVE.values(), ids=VERTEX_TRANSITIVE.keys()
    )
    def test_vertex_transitive_graphs(self, g):
        # One cell and a large group: every tie is an automorphism.
        rng = random.Random(119)
        want, gens = label(g)
        _assert_automorphisms(g, gens)
        for _ in range(5):
            assert label(shuffled(g, rng))[0] == want

    def test_cores_of_the_2x6_grid_closure(self):
        # The closure spells or labels each class once, on whichever core
        # reaches it first; a cold form of a relabelled core must be that
        # form.  Every core is also labelled, coded or not, and a
        # relabelling keeps its least bits over cell orders.
        edges = [(v, v + 1) for v in range(11) if v != 5]
        edges += [(v, v + 6) for v in range(6)]
        closure = bipartite_minor_closure(build(12, edges))
        assert len(closure) == 4491
        cores = dict.fromkeys(strip_isolated(cf.to_graph())[0] for cf in sorted(closure))
        assert len(cores) == 2210
        rng = random.Random(120)
        for core in cores:
            h = shuffled(core, rng)
            assert cold_form(h) == canonical_form(core)
            assert label(h)[0] == label(core)[0]


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


@pytest.fixture
def empty_cache():
    """Every process-wide cache, emptied before the test."""
    relations.clear_caches()


class TestClassCache:
    """The form memo, keyed by neighbour masks and by codes: no form
    depends on it."""

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_vertices=10), st.randoms(use_true_random=False))
    def test_match_agrees_with_a_cold_form(self, g, rng):
        h = shuffled(g, rng)
        cold = cold_form(h)
        relations.clear_caches()
        canonical_form(g)
        assert canonical_form(h) == cold
        # A coded h took its form by g's code, which the memo holds beside
        # both graphs' masks; an uncoded h was labelled, and the memo holds
        # the masks alone.
        keys = {g.neighbor_masks, h.neighbor_masks}
        if _code(g) is not None:
            keys.add(_code(g))
        assert canonical._forms == dict.fromkeys(keys, cold)

    @pytest.mark.parametrize("pair", SAME_CERTIFICATE, ids=["C6-2C3", "K33-prism"])
    def test_same_certificate_different_forms(self, pair, empty_cache):
        g, h = pair
        assert stable_cells(g) == stable_cells(h)
        assert not are_isomorphic(g, h)
        assert canonical_form(g) != canonical_form(h)
        _assert_form(g)
        _assert_form(h)

    def test_the_memo_keeps_graphs_above_the_cap(self, monkeypatch, empty_cache):
        monkeypatch.delenv("BIPMINOR_SIZE_CAP", raising=False)
        g = cycle(16)
        h = shuffled(g, random.Random(115))
        form = canonical_form(g)
        assert canonical_form(h) == form
        assert canonical._forms == {
            g.neighbor_masks: form,
            h.neighbor_masks: form,
            _code(g): form,
        }
        monkeypatch.setattr(canonical, "_code", None)
        monkeypatch.setattr(canonical, "_minimal_bits", None)
        assert canonical_form(h) == form

    @pytest.mark.parametrize(
        "host, members, uncoded_cores",
        [
            (cycle(10), 272, 0),
            (dog(6, [4]), 172, 0),
            (_from_networkx(nx.complete_bipartite_graph(3, 4)), 137, 5),
        ],
        ids=["C10", "D(6,4)", "K34"],
    )
    def test_closure_refines_and_labels_only_uncoded_cores(
        self, monkeypatch, empty_cache, host, members, uncoded_cores
    ):
        # A coded graph's form is spelled: every core of C_10's closure is
        # a pseudoforest, and every core of D(6,4)'s has a kernel of at
        # most two vertices, so nothing is refined or labelled; of
        # K_{3,4}'s only the cores with a kernel of more than K vertices
        # are.
        refined, labelled = [], []
        stable = canonical._stable

        def counting_stable(g):
            refined.append(g)
            return stable(g)

        def counting_label(g, colours):
            labelled.append(g)
            return _minimal_bits(g, colours)

        monkeypatch.setattr(canonical, "_stable", counting_stable)
        monkeypatch.setattr(canonical, "_minimal_bits", counting_label)
        closure = bipartite_minor_closure(host)
        monkeypatch.undo()
        assert len(closure) == members
        uncoded = set()
        for cf in closure:
            g = cf.to_graph()
            if _has_large_kernel(g) and not strip_isolated(g)[1]:
                uncoded.add(cf)
        assert len(uncoded) == uncoded_cores
        assert refined == labelled
        assert {canonical_form(g) for g in labelled} == uncoded
        assert all(strip_isolated(g)[1] == 0 for g in labelled)
