import itertools
import random

import networkx as nx
import pytest

from bipminor import canonical, relations
from bipminor.canonical import are_isomorphic, canonical_form
from bipminor.cli.harness import enumerate_connected_bipartite, random_connected_graphs
from bipminor.families import bull, cycle, dog, h_tree, path
from bipminor.graph_core import (
    Graph,
    GraphError,
    SizeCapExceeded,
    build,
    contract_set,
    delete_vertex,
    is_bipartite,
    normalize_edge,
    strip_isolated,
)
from bipminor.relations import (
    AdmissibleContraction,
    MinorModel,
    OpTrace,
    VertexDeletion,
    _moves,
    admissible_contract,
    admissible_pairs,
    bipartite_minor_closure,
    bipartite_minor_trace,
    compare_family,
    is_bipartite_minor,
    is_minor,
    minor_model,
    validate_minor_model,
)
from bipminor.structure import (
    _connected_subsets,
    blocks,
    is_k_connected,
    is_subgraph,
    subgraph_embedding,
)

import oracles
from oracles import (
    bipminor_by_unpruned_search,
    brute_admissible_pairs,
    brute_middles,
    brute_peripheral,
    closure_by_isomorphism_test,
    minor_by_operations,
    permute,
    random_graph,
    random_sparse_connected,
    to_networkx,
)


def _consecutive(cyc, u, w, v) -> bool:
    """True when u, w, v lie consecutively on the cycle, in either
    direction."""
    m = len(cyc)
    return any(
        cyc[i] == w and {cyc[i - 1], cyc[(i + 1) % m]} == {u, v} for i in range(m)
    )


class TestAdmissiblePairs:
    def test_c6_has_the_six_distance_two_pairs(self):
        got = {(p.u, p.v) for p in admissible_pairs(cycle(6))}
        assert got == {(0, 2), (1, 3), (2, 4), (3, 5), (0, 4), (1, 5)}

    def test_forests_have_none(self):
        assert admissible_pairs(path(6)) == ()
        assert admissible_pairs(h_tree(3)) == ()
        assert admissible_pairs(build(5, [(0, 1), (2, 3)])) == ()

    def test_dog_pairs_sit_on_ears(self):
        d = dog(6, [4, 4])
        pairs = admissible_pairs(d)
        ears = [{0, 1, 6, 7}, {2, 3, 8, 9}]
        for p in pairs:
            assert any({p.u, p.v, p.w} <= ear for ear in ears)
        assert {(p.u, p.v) for p in pairs} == {(1, 7), (0, 6), (3, 9), (2, 8)}

    def test_witness_cycle_contains_the_path(self):
        for p in admissible_pairs(dog(7, [3, 4])):
            cyc = p.cycle
            m = len(cyc)
            triples = {
                (cyc[i], cyc[(i + 1) % m], cyc[(i + 2) % m]) for i in range(m)
            }
            assert (p.u, p.w, p.v) in triples or (p.v, p.w, p.u) in triples

    def test_matches_cycle_scan_oracle(self):
        # Each pair's witness is its least middle w and the first cycle, by
        # length then lexicographically, on which u, w, v lie consecutively;
        # replay accepts exactly the middles among the common neighbours.
        rng = random.Random(31)
        accepted = rejected = 0
        for _ in range(150):
            g = random_graph(rng, 7)
            middles = brute_middles(g)
            cycles = sorted(brute_peripheral(g), key=lambda c: (len(c), c))
            pairs = admissible_pairs(g)
            assert {(p.u, p.v) for p in pairs} == set(middles)
            for p in pairs:
                assert p.w == min(middles[(p.u, p.v)])
                assert p.cycle == next(
                    c for c in cycles if _consecutive(c, p.u, p.w, p.v)
                )
            for u, v in itertools.combinations(g.vertices, 2):
                common = g.neighbor_masks[u] & g.neighbor_masks[v]
                for w in g.vertices:
                    if not (common >> w) & 1:
                        continue
                    trace = OpTrace((AdmissibleContraction(u, v, w),))
                    if w in middles.get((u, v), ()):
                        assert trace.replay(g) == contract_set(g, {u, v})
                        accepted += 1
                    else:
                        with pytest.raises(GraphError):
                            trace.replay(g)
                        rejected += 1
        assert accepted > 100 and rejected > 100

    def test_adjacent_pairs_allowed_in_triangles(self):
        got = {(p.u, p.v) for p in admissible_pairs(cycle(3))}
        assert got == {(0, 1), (0, 2), (1, 2)}


class TestAdmissibleContract:
    def test_c6_gives_one_horned_bull(self):
        assert are_isomorphic(admissible_contract(cycle(6), 0, 2), bull(4, [1]))

    def test_two_steps_from_c8_to_b42(self):
        first = admissible_contract(cycle(8), 0, 2)
        assert are_isomorphic(first, bull(6, [1]))
        tip = next(v for v in first.vertices if first.degree(v) == 1)
        hub = next(iter(first.neighbors(tip)))
        u, w = sorted(x for x in first.neighbors(hub) if x != tip)
        assert are_isomorphic(admissible_contract(first, u, w), bull(4, [2]))

    def test_no_common_neighbor_diagnostic(self):
        with pytest.raises(GraphError, match="no common neighbor"):
            admissible_contract(cycle(6), 0, 3)

    def test_no_peripheral_cycle_diagnostic(self):
        # Horn tips of a bull share the snout vertex as a neighbor with its
        # snout neighbors, but no cycle passes through a tip.
        b = bull(3, [1, 1])
        with pytest.raises(GraphError, match="non-separating cycle"):
            admissible_contract(b, 1, 3)

    def test_self_pair_rejected(self):
        with pytest.raises(GraphError):
            admissible_contract(cycle(6), 2, 2)

    def test_accepts_exactly_the_admissible_pairs(self):
        rng = random.Random(32)
        for _ in range(60):
            g = random_graph(rng, 7, min_vertices=2)
            want = brute_admissible_pairs(g)
            for u in g.vertices:
                for v in range(u + 1, g.vertex_count):
                    try:
                        admissible_contract(g, u, v)
                        got = True
                    except GraphError:
                        got = False
                    assert got == ((u, v) in want)


class TestBipartiteMinor:
    def test_bull_from_cycle_one_step(self):
        trace = bipartite_minor_trace(bull(4, [1]), cycle(6))
        assert trace is not None and len(trace) == 1
        assert isinstance(trace.steps[0], AdmissibleContraction)
        assert are_isomorphic(trace.replay(cycle(6)), bull(4, [1]))

    def test_reflexive_with_empty_trace(self):
        g = dog(5, [3, 4])
        trace = bipartite_minor_trace(g, g)
        assert trace == OpTrace(())

    def test_c4_under_c6(self):
        trace = bipartite_minor_trace(cycle(4), cycle(6))
        assert trace is not None
        assert are_isomorphic(trace.replay(cycle(6)), cycle(4))

    def test_dog_pair_is_not_bipartite_minor(self):
        assert not is_bipartite_minor(dog(5, [3, 3]), dog(6, [3, 3]))

    def test_larger_graph_never_below_smaller(self):
        assert not is_bipartite_minor(cycle(6), cycle(4))

    def test_bipartite_analogue_of_wagners_theorem(self):
        """Chudnovsky, Kalai, Nevo, Novik and Seymour, *Bipartite minors*
        (JCTB 2016), abstract: "a bipartite graph is planar if and only if
        it does not contain K_{3,3} as a bipartite minor."  Checked on every
        connected bipartite graph of at most 9 vertices against networkx's
        planarity test, which shares no code with the search."""
        k33 = build(6, [(a, b) for a in range(3) for b in range(3, 6)])
        graphs = enumerate_connected_bipartite(9)
        nonplanar = 0
        for g in graphs:
            planar, _ = nx.check_planarity(to_networkx(g))
            nonplanar += not planar
            assert is_bipartite_minor(k33, g) != planar
        assert (len(graphs), nonplanar) == (984, 176)

    def test_matches_unpruned_reference_search(self):
        rng = random.Random(32)
        positives = negatives = 0
        for _ in range(60):
            g = random_sparse_connected(rng, 6, extra=2)
            h = random_graph(rng, 4)
            want = bipminor_by_unpruned_search(h, g)
            assert is_bipartite_minor(h, g) == want
            positives += want
            negatives += not want
        assert positives > 5 and negatives > 5

    def test_matches_unpruned_reference_search_on_eight_vertex_hosts(self):
        # On hosts this large the depth-first walk and the breadth-first
        # oracle visit forms in different orders.  A depth-first witness
        # need not be shortest, so only the bound every path obeys is
        # checked: each step shrinks |V| + |E| by at least one.
        rng = random.Random(34)
        positives = negatives = 0
        for _ in range(30):
            g = random_sparse_connected(rng, 8, extra=3, min_vertices=8)
            if rng.random() < 0.5:
                h = random_sparse_connected(rng, 6, extra=2)
            else:
                h = random_graph(rng, 5)
            trace = bipartite_minor_trace(h, g)
            assert (trace is not None) == bipminor_by_unpruned_search(h, g)
            if trace is None:
                negatives += 1
                continue
            positives += 1
            assert are_isomorphic(trace.replay(g), h)
            assert len(trace) <= (
                g.vertex_count + g.edge_count - h.vertex_count - h.edge_count
            )
        assert positives > 10 and negatives > 5

    def test_moves_keep_the_first_move_to_each_child(self):
        # Every move is yielded, so the first move to each child is too:
        # every admissible contraction, with its least middle vertex, then
        # every edge deletion, each in sorted order, as the cycle-scan
        # oracle finds them.  Each child's core, made on masks, is the graph
        # the edge-set operations of the oracles make, isolated vertices
        # stripped: the same vertex count and masks.  The searches expand
        # cores, graphs without isolated vertices, and no move deletes a
        # vertex.
        for g in (oracles.strip_isolated(x)[0] for x in _move_hosts()):
            got = list(_moves(g))
            assert got == _oracle_moves(g)
            # The searches check the size cap on the host alone: no move
            # adds a vertex, and every move shrinks |V| + |E|.  A child is
            # its core with i isolated vertices beside it, and a valid graph.
            for *_, core, i in got:
                assert Graph(core.vertex_count, core.neighbor_masks) == core
                assert core.vertex_count + i <= g.vertex_count
                assert (
                    core.vertex_count + i + core.edge_count
                    < g.vertex_count + g.edge_count
                )

    def test_moves_delete_no_vertex(self):
        # No move uses an isolated vertex except to delete it, so the
        # searches count the isolated vertices instead: every move of a
        # core is a contraction of an admissible pair or the deletion of
        # an edge, and the closure still holds the graph less any number
        # of its isolated vertices.
        cases = [build(6, [(0, 3), (3, 5)]), build(3, []), build(4, [(1, 2)])]
        for g in (strip_isolated(x)[0] for x in cases + _move_hosts()):
            pairs = {(p.u, p.v, p.w) for p in admissible_pairs(g)}
            for u, v, w, _, _ in _moves(g):
                assert (u, v, w) in pairs if w is not None else g.has_edge(u, v)
        for g in cases:
            closure = bipartite_minor_closure(g)
            lone = [v for v in g.vertices if not g.neighbor_masks[v]]
            for k in range(len(lone) + 1):
                less = build(g.vertex_count - k, strip_isolated(g)[0].edges)
                assert canonical_form(less) in closure

    def test_closures_still_reach_every_vertex_deletion(self):
        # Deleting a vertex of degree d is d edge deletions, then the
        # deletion of the isolated vertex.
        for g in _move_hosts():
            closure = bipartite_minor_closure(g)
            for v in g.vertices:
                assert canonical_form(delete_vertex(g, v)) in closure

    @pytest.mark.parametrize(
        "h",
        [
            build(1, []),
            build(2, []),
            build(5, [(0, 1), (1, 2), (2, 3), (3, 0)]),
            build(4, [(0, 1)]),
        ],
        ids=["K1", "2K1", "C4+K1", "K2+2K1"],
    )
    def test_targets_with_isolated_vertices_match_unpruned_search(self, h):
        # The oracle deletes every vertex directly; the trace deletes a
        # vertex only once its edges are gone.  Half the hosts carry an
        # isolated vertex of their own.
        rng = random.Random(45)
        positives = 0
        for i in range(8):
            g = random_sparse_connected(rng, 7, extra=2, min_vertices=6)
            if i % 2:
                g = build(g.vertex_count + 1, g.edges)
            trace = bipartite_minor_trace(h, g)
            assert (trace is not None) == bipminor_by_unpruned_search(h, g)
            if trace is not None:
                positives += 1
                assert are_isomorphic(trace.replay(g), h)
        assert positives > 3

    @pytest.mark.parametrize("isolated", [1, 2, 3])
    def test_targets_padded_with_isolated_vertices_match_unpruned_search(self, isolated):
        # A target H + hK_1 is reached at H's core with h isolated vertices
        # carried beside it; the oracle deletes every vertex as a move of
        # its own.  Half the hosts carry an isolated vertex too.
        rng = random.Random(47 + isolated)
        positives = negatives = 0
        for base in (path(2), path(3), cycle(4), bull(4, [1])):
            h = build(base.vertex_count + isolated, base.edges)
            for i in range(4):
                g = random_sparse_connected(rng, 7, extra=2, min_vertices=6)
                if i % 2:
                    g = build(g.vertex_count + 1, g.edges)
                trace = bipartite_minor_trace(h, g)
                assert (trace is not None) == bipminor_by_unpruned_search(h, g)
                if trace is None:
                    negatives += 1
                    continue
                positives += 1
                assert are_isomorphic(trace.replay(g), h)
        assert positives > 5 and negatives > 2

    def test_three_isolated_vertices_in_c4(self):
        h = build(3, [])
        assert bipminor_by_unpruned_search(h, cycle(4))
        trace = bipartite_minor_trace(h, cycle(4))
        assert trace is not None and are_isomorphic(trace.replay(cycle(4)), h)

    def test_every_move_to_one_core_isolates_as_many(self, monkeypatch):
        # The count lemma at ``relations._children``: all moves from a core
        # to one child core isolate the same number of vertices, so the
        # store keeps one count per child and the replay needs no count.
        # The children are the oracles' graphs, which ``_moves`` matches.
        rng = random.Random(48)
        hosts = [cycle(10), dog(6, [4]), *_move_hosts()]
        hosts += [random_sparse_connected(rng, 8, extra=4) for _ in range(40)]
        assert sum(not is_bipartite(g) for g in hosts) > 10
        monkeypatch.setattr(relations, "_store", {})
        for g in hosts:
            bipartite_minor_closure(g)
        near = 0
        for _, core, _ in relations._store.values():
            moves = _oracle_moves(core)
            assert list(_moves(core)) == moves, core
            counts: dict = {}
            for *_, x, i in moves:
                counts.setdefault(canonical_form(x), set()).add(i)
            assert all(len(c) == 1 for c in counts.values()), core
            # The one clash the sizes allow: a contraction and a pendant
            # edge's deletion, both leaving |V|-1 vertices and |E|-1 edges.
            sizes = {(cf.vertex_count, cf.to_graph().edge_count, i) for cf, (i,) in counts.items()}
            near += any((v, e, 0) in sizes and (v, e, 1) in sizes for v, e, _ in sizes)
        assert near > 10

    def test_children_made_on_masks_match_the_graph_operations(self, monkeypatch):
        # _children makes each child with _moves and names it by
        # canonical_form.  For every core the closures store, its children
        # as {form: isolated count} are those the edge-set operations of the
        # oracles and canonical_form give on graphs, and the store gains,
        # for each form new to it, the oracles' first graph of that form:
        # expanded with the memo emptied before each core, and again with
        # it warm.
        rng = random.Random(49)
        hosts = [cycle(10), dog(6, [4]), *_move_hosts()]
        hosts += [random_sparse_connected(rng, 8, extra=4) for _ in range(40)]
        relations.clear_caches()
        for g in hosts:
            bipartite_minor_closure(g)
        cores = [(cf, core) for cf, core, _ in relations._store.values()]
        want = []
        for _, core in cores:
            kids: dict = {}
            for *_, x, i in _oracle_moves(core):
                kids.setdefault(canonical_form(x), (i, x))
            want.append(kids)
        for warm in (False, True):
            monkeypatch.setattr(relations, "_store", {})
            for (cf, core), kids in zip(cores, want):
                if not warm:
                    canonical.clear_cache()
                known = set(relations._store)
                relations._store[cf] = (cf, core, None)
                got = dict(relations._children(cf))
                assert got == {ccf: i for ccf, (i, _) in kids.items()}, core
                for ccf, (_, x) in kids.items():
                    if ccf not in known:
                        assert relations._store[ccf][1] == x, core
        assert len(cores) > 400

    def test_every_positive_trace_replays(self):
        rng = random.Random(33)
        replayed = 0
        for _ in range(40):
            g = random_sparse_connected(rng, 6, extra=2)
            h = random_graph(rng, 4)
            trace = bipartite_minor_trace(h, g)
            if trace is not None:
                assert are_isomorphic(trace.replay(g), h)
                replayed += 1
        assert replayed > 5

    def test_monotone_in_counts(self):
        rng = random.Random(34)
        for _ in range(40):
            g = random_graph(rng, 6)
            h = random_graph(rng, 6)
            if is_bipartite_minor(h, g):
                assert h.vertex_count <= g.vertex_count
                assert h.edge_count <= g.edge_count

    def test_empty_graph_below_everything(self):
        assert is_bipartite_minor(build(0, []), cycle(4))

    def test_witnesses_are_reproducible(self):
        rng = random.Random(42)
        for _ in range(15):
            g = random_sparse_connected(rng, 6, extra=2)
            h = random_graph(rng, 4)
            assert bipartite_minor_trace(h, g) == bipartite_minor_trace(h, g)

    def test_cap(self, monkeypatch):
        host = build(15, [(0, 1), (1, 2)])
        monkeypatch.delenv("BIPMINOR_SIZE_CAP", raising=False)
        with pytest.raises(SizeCapExceeded, match="size cap is 14"):
            bipartite_minor_trace(build(3, []), host)
        with pytest.raises(SizeCapExceeded, match="size cap is 14"):
            bipartite_minor_closure(host)
        monkeypatch.setenv("BIPMINOR_SIZE_CAP", "15")
        # Two edge deletions isolate vertices 0 to 2; then 12 deletions.
        assert len(bipartite_minor_trace(build(3, []), host)) == 14
        # Edgeless, one edge or P_3, plus isolated vertices: 16 + 14 + 13.
        assert len(bipartite_minor_closure(host)) == 43

    def test_search_cap_reaches_canonical_forms(self, monkeypatch):
        # A raised cap admits hosts above the default cap of 14, and the
        # search labels every graph below them.
        monkeypatch.setenv("BIPMINOR_SIZE_CAP", "20")
        trace = bipartite_minor_trace(build(16, []), build(17, []))
        assert trace is not None and len(trace) == 1


# The searches besides the bipartite-minor ones (``TestBipartiteMinor``),
# each run on a host of 15 vertices: one above the default cap.
SEARCHES_ON_A_HOST = {
    "minor_model": lambda g: minor_model(path(2), g),
    "subgraph_embedding": lambda g: subgraph_embedding(path(2), g),
    "compare_family": lambda g: compare_family([path(2), g], "bipartite_minor"),
}


class TestSizeCap:
    @pytest.mark.parametrize("search", SEARCHES_ON_A_HOST)
    def test_searches_check_the_host(self, search, monkeypatch):
        host = build(15, [(0, 1), (1, 2)])
        monkeypatch.delenv("BIPMINOR_SIZE_CAP", raising=False)
        with pytest.raises(SizeCapExceeded, match="size cap is 14"):
            SEARCHES_ON_A_HOST[search](host)
        monkeypatch.setenv("BIPMINOR_SIZE_CAP", "15")
        assert SEARCHES_ON_A_HOST[search](host) is not None

    def test_branch_sets_check_the_target(self, monkeypatch):
        monkeypatch.delenv("BIPMINOR_SIZE_CAP", raising=False)
        with pytest.raises(SizeCapExceeded):
            minor_model(build(15, []), path(2))

    def test_admissible_pairs_take_any_size(self, monkeypatch):
        # Only the searches check the cap; no move adds a vertex, so every
        # graph inside a search is at most its host's size.
        monkeypatch.delenv("BIPMINOR_SIZE_CAP", raising=False)
        g = cycle(15)
        assert [(p.u, p.v) for p in admissible_pairs(g)] == sorted(
            normalize_edge(v, (v + 2) % 15) for v in g.vertices
        )
        assert admissible_contract(g, 0, 2) == contract_set(g, {0, 2})
        assert OpTrace((AdmissibleContraction(0, 2, 1),)).replay(g).vertex_count == 14


class TestTraceReplay:
    def test_tampered_contraction_rejected(self):
        trace = OpTrace((AdmissibleContraction(0, 3, 1),))
        with pytest.raises(GraphError):
            trace.replay(cycle(6))

    def test_tampered_deletion_rejected(self):
        trace = OpTrace((VertexDeletion(9),))
        with pytest.raises(GraphError):
            trace.replay(cycle(6))

    def test_any_middle_vertex_of_a_peripheral_path_replays(self):
        # In C_4 both 1 and 3 join 0 and 2 along the cycle; in C_5 only 1
        # does.
        for w in (1, 3):
            got = OpTrace((AdmissibleContraction(0, 2, w),)).replay(cycle(4))
            assert are_isomorphic(got, path(3))
        with pytest.raises(GraphError):
            OpTrace((AdmissibleContraction(0, 2, 3),)).replay(cycle(5))

    def test_labels_refer_to_pre_step_graph(self):
        trace = OpTrace((VertexDeletion(5), VertexDeletion(4)))
        got = trace.replay(cycle(6))
        assert got == path(4)


class TestMinor:
    def test_dog_pair_is_minor(self):
        model = minor_model(dog(5, [3, 3]), dog(6, [3, 3]))
        assert model is not None
        validate_minor_model(model, dog(5, [3, 3]), dog(6, [3, 3]))

    def test_bulls_are_no_cycles_minor(self):
        for p in range(3, 13):
            assert not is_minor(bull(4, [1]), cycle(p))

    def test_path_under_cycle(self):
        assert is_minor(path(3), cycle(4))

    def test_matches_operation_sequence_oracle(self):
        rng = random.Random(35)
        positives = negatives = 0
        for _ in range(50):
            g = random_sparse_connected(rng, 6, extra=2)
            h = random_graph(rng, 4)
            want = minor_by_operations(h, g)
            assert is_minor(h, g) == want
            positives += want
            negatives += not want
        assert positives > 5 and negatives > 5

    def test_models_validate_on_positives(self):
        rng = random.Random(36)
        for _ in range(40):
            g = random_sparse_connected(rng, 7, extra=2)
            h = random_graph(rng, 4)
            model = minor_model(h, g)
            if model is not None:
                validate_minor_model(model, h, g)

    def test_validate_rejects_broken_models(self):
        h, g = path(2), path(3)
        with pytest.raises(GraphError, match="one branch set"):
            validate_minor_model(MinorModel((frozenset({0}),)), h, g)
        with pytest.raises(GraphError, match="empty"):
            validate_minor_model(
                MinorModel((frozenset(), frozenset({1}))), h, g
            )
        with pytest.raises(GraphError, match="overlap"):
            validate_minor_model(
                MinorModel((frozenset({0}), frozenset({0}))), h, g
            )
        with pytest.raises(GraphError, match="not connected"):
            validate_minor_model(
                MinorModel((frozenset({0, 2}), frozenset({1}))), h, g
            )
        with pytest.raises(GraphError, match="no source edge"):
            validate_minor_model(
                MinorModel((frozenset({0}), frozenset({2}))), h, g
            )

    def test_empty_target(self):
        assert is_minor(build(0, []), cycle(5))

    def test_connected_subsets_come_by_size(self):
        # The branch-set search stops at the first subset over its budget,
        # which relies on the sizes being popcounts in nondecreasing order.
        rng = random.Random(37)
        pool = [dog(6, [4, 4]), h_tree(3)] + [random_graph(rng, 8) for _ in range(20)]
        for g in pool:
            subsets = _connected_subsets(g)
            assert all(size == bin(mask).count("1") for mask, _, size in subsets)
            sizes = [size for _, _, size in subsets]
            assert sizes == sorted(sizes)


class TestClosure:
    def test_closure_of_p3_is_its_subgraphs(self):
        got = bipartite_minor_closure(path(3))
        want = {
            canonical_form(build(0, [])),
            canonical_form(build(1, [])),
            canonical_form(build(2, [])),
            canonical_form(build(2, [(0, 1)])),
            canonical_form(build(3, [])),
            canonical_form(build(3, [(0, 1)])),
            canonical_form(path(3)),
        }
        assert got == want

    def test_closure_of_c6_contains_bull_and_c4(self):
        closure = bipartite_minor_closure(cycle(6))
        assert canonical_form(bull(4, [1])) in closure
        assert canonical_form(cycle(4)) in closure
        assert canonical_form(cycle(6)) in closure
        assert canonical_form(cycle(5)) not in closure

    def test_two_connected_members_of_c8_closure(self):
        closure = bipartite_minor_closure(cycle(8))
        std = {
            cf
            for cf in closure
            if is_k_connected(cf.to_graph(), 2, "standard")
        }
        assert std == {canonical_form(cycle(k)) for k in (4, 6, 8)}

    def test_closure_members_of_bipartite_host_are_bipartite(self):
        rng = random.Random(37)
        for _ in range(25):
            g = random_graph(rng, 6)
            if is_bipartite(g) is None:
                continue
            for cf in bipartite_minor_closure(g):
                assert is_bipartite(cf.to_graph()) is not None

    def test_preservation_on_eight_vertex_hosts(self):
        # Sampled at the top of the supported range, disconnected included.
        rng = random.Random(43)
        for _ in range(8):
            left = rng.randint(1, 4)
            cross = [
                (i, j) for i in range(left) for j in range(left, 8)
            ]
            g = build(8, rng.sample(cross, rng.randint(4, len(cross))))
            assert is_bipartite(g) is not None
            for cf in bipartite_minor_closure(g):
                assert is_bipartite(cf.to_graph()) is not None

    def test_matches_isomorphism_test_oracle(self):
        # The oracle expands every move, every vertex deletion included, and
        # dedupes with networkx, so it shares neither the canonical forms
        # nor the orbit pruning of moves nor the isolated-only deletions.
        # The later hosts have isolated vertices, pendant vertices and
        # several components.
        rng = random.Random(39)
        hosts = [cycle(6), bull(4, [2]), dog(5, [4]), dog(4, [3, 3])]
        hosts += [random_sparse_connected(rng, 7, extra=3) for _ in range(6)]
        hosts += [
            build(6, [(0, 1), (1, 2), (2, 3), (3, 0)]),
            build(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (5, 6)]),
            build(6, [(0, 1), (0, 2), (0, 3), (4, 5)]),
            bull(4, [1, 1]),
        ]
        rng = random.Random(46)
        hosts += [random_graph(rng, 7) for _ in range(8)]
        for g in hosts:
            want = closure_by_isomorphism_test(g)
            got = bipartite_minor_closure(g)
            assert len(got) == len(want)
            assert {canonical_form(x) for x in want} == got

    def test_isolated_vertices_match_isomorphism_test_oracle(self):
        # The walk counts the isolated vertices beside each core, and the
        # oracle deletes each as a move of its own: hosts with isolated
        # vertices, several components, 3K_1 and K_0.
        c4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
        b = bull(4, [1])
        hosts = [
            build(0, []),
            build(3, []),
            build(6, c4),
            build(7, [(0, 1), (1, 2), (3, 4), (5, 6)]),
            build(8, c4 + [(4, 5), (5, 6)]),
            build(9, [(v, (v + 1) % 6) for v in range(6)] + [(6, 7)]),
            build(b.vertex_count + 2, b.edges),
        ]
        for g in hosts:
            want = closure_by_isomorphism_test(g)
            got = bipartite_minor_closure(g)
            assert len(got) == len(want)
            assert {canonical_form(x) for x in want} == got
        assert bipartite_minor_closure(build(0, [])) == {canonical_form(build(0, []))}

    def test_closure_agrees_with_decision_procedure(self):
        rng = random.Random(38)
        g = random_sparse_connected(rng, 6, extra=2)
        closure = bipartite_minor_closure(g)
        for _ in range(30):
            h = random_graph(rng, 5)
            assert (canonical_form(h) in closure) == is_bipartite_minor(h, g)


def _oracle_moves(g: Graph) -> list:
    """The moves ``relations._moves`` should yield from the core ``g``, made
    by the oracles on edge sets: each admissible pair with its least middle
    vertex, then each edge, in sorted order, with the child's core and the
    number of vertices the move isolated."""
    middles = brute_middles(g)
    every = [
        (u, v, min(middles[u, v]), oracles.contract_set(g, {u, v}))
        for u, v in sorted(brute_admissible_pairs(g))
    ]
    every += [(u, v, None, oracles.delete_edge(g, u, v)) for u, v in sorted(g.edges)]
    return [(u, v, w, *oracles.strip_isolated(x)) for u, v, w, x in every]


def _move_hosts() -> list:
    """Fixed hosts and twenty random sparse connected ones, up to 8
    vertices."""
    rng = random.Random(44)
    hosts = [cycle(8), dog(6, [4]), bull(4, [1, 1]), build(5, [])]
    return hosts + [random_sparse_connected(rng, 8, extra=3) for _ in range(20)]


def _grid(rows: int, cols: int):
    """The rows x cols grid graph, vertex ``r * cols + c`` at (r, c)."""
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range((rows - 1) * cols)]
    return build(rows * cols, edges)


def _cores(forms) -> set:
    """The forms of the members' cores: each without its isolated
    vertices."""
    return {canonical_form(strip_isolated(cf.to_graph())[0]) for cf in forms}


def _hosts_and_blocks() -> list:
    """Twelve random connected hosts, each followed by its blocks."""
    out = []
    for g in random_connected_graphs(12, 8, 2718):
        out.append(g)
        out += [b.to_graph() for b in blocks(g).blocks]
    return out


class TestClosureStore:
    """Closures share one operation graph keyed by canonical form."""

    def test_order_and_sharing_do_not_change_closures(self, monkeypatch):
        graphs = _hosts_and_blocks()
        monkeypatch.setattr(relations, "_store", {})
        in_order = [bipartite_minor_closure(g) for g in graphs]
        monkeypatch.setattr(relations, "_store", {})
        in_reverse = [bipartite_minor_closure(g) for g in reversed(graphs)][::-1]
        alone = []
        for g in graphs:
            monkeypatch.setattr(relations, "_store", {})
            alone.append(bipartite_minor_closure(g))
        assert in_order == in_reverse == alone

    def test_block_closures_after_the_host_label_no_child(self, monkeypatch):
        # Every block is a bipartite minor of its host, so the host's closure
        # has expanded every form below it; a block's closure then labels
        # only its own start graph.
        monkeypatch.setattr(relations, "_store", {})
        labelled = []

        def counting(g):
            labelled.append(g)
            return canonical_form(g)

        for host in random_connected_graphs(12, 8, 2718):
            monkeypatch.setattr(relations, "canonical_form", canonical_form)
            bipartite_minor_closure(host)
            block_graphs = [b.to_graph() for b in blocks(host).blocks]
            labelled.clear()
            monkeypatch.setattr(relations, "canonical_form", counting)
            for b in block_graphs:
                bipartite_minor_closure(b)
            assert labelled == block_graphs

    def test_child_tuples_share_the_store_forms(self, monkeypatch):
        # Each entry carries the form object it is keyed by, and every
        # child tuple names a child by its entry's object, so the store
        # holds one object per form, though the memo, emptied past a small
        # limit mid-walk, answers later children with new objects.
        monkeypatch.setattr(relations, "_store", {})
        monkeypatch.setattr(canonical, "STORE_LIMIT", 20)
        canonical.clear_cache()
        bipartite_minor_closure(dog(6, [4]))
        store = relations._store
        assert all(cf is entry[0] for cf, entry in store.items())
        kids = [ccf for *_, children in store.values() for ccf, _ in children or ()]
        assert len(kids) > 300
        assert all(ccf is store[ccf][0] for ccf in kids)
        canonical.clear_cache()

    def test_store_past_its_limit_starts_again_empty(self, monkeypatch):
        graphs = _hosts_and_blocks()
        monkeypatch.setattr(relations, "_store", {})
        want = [bipartite_minor_closure(g) for g in graphs]
        monkeypatch.setattr(relations, "_store", {})
        monkeypatch.setattr(canonical, "STORE_LIMIT", 20)
        emptied = 0
        for g, closure in zip(graphs, want):
            full = len(relations._store) > 20
            assert bipartite_minor_closure(g) == closure
            # The store holds cores only.
            assert all(all(x.neighbor_masks) for _, x, _ in relations._store.values())
            if full:
                # Walked from an empty store, the closure's cores are all it
                # holds.
                assert set(relations._store) == _cores(closure)
                emptied += 1
            else:
                assert set(relations._store) >= _cores(closure)
        assert emptied > 3

    def _trace_pairs(self, graphs) -> list:
        """Per graph, one random target (mostly negative) and one relabelled
        member of its closure (positive)."""
        rng = random.Random(40)
        pairs = []
        for g in graphs:
            member = rng.choice(sorted(bipartite_minor_closure(g))).to_graph()
            order = list(member.vertices)
            rng.shuffle(order)
            pairs += [(random_graph(rng, 5), g), (permute(member, order), g)]
        return pairs

    def test_traces_do_not_depend_on_the_store(self, monkeypatch):
        graphs = _hosts_and_blocks()
        pairs = self._trace_pairs(graphs)

        def traces(some: list) -> list:
            return [bipartite_minor_trace(h, g) for h, g in some]

        monkeypatch.setattr(relations, "_store", {})
        in_order = traces(pairs)
        monkeypatch.setattr(relations, "_store", {})
        in_reverse = traces(pairs[::-1])[::-1]
        alone = []
        for pair in pairs:
            monkeypatch.setattr(relations, "_store", {})
            alone += traces([pair])
        monkeypatch.setattr(relations, "_store", {})
        for g in graphs:
            bipartite_minor_closure(g)
        after_closures = traces(pairs)
        assert in_order == in_reverse == alone == after_closures
        assert sum(t is not None and len(t) > 1 for t in in_order) > 10

    @pytest.mark.parametrize(
        "h, g, steps, bound",
        [
            (build(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)]), _grid(3, 4), 9, 1000),
            (bull(4, [1]), _grid(2, 6), 10, 200),
            (cycle(4), _grid(2, 6), 12, 200),
        ],
        ids=["K23-in-3x4-grid", "B41-in-2x6-grid", "C4-in-2x6-grid"],
    )
    def test_traces_at_cap_scale_expand_few_forms(self, h, g, steps, bound):
        # The walk follows the least new child first and stops when the
        # target is generated, so a positive trace stores only forms near
        # its path; a walk that sweeps every level above the target stores
        # thousands (9189, 3542 and 4014 for these pairs).
        relations.clear_caches()
        trace = bipartite_minor_trace(h, g)
        assert len(relations._store) < bound
        assert trace is not None and len(trace) == steps
        assert are_isomorphic(trace.replay(g), h)

    def test_trace_after_the_closure_labels_nothing(self, monkeypatch):
        # The host's closure has spelled or labelled and expanded every
        # core below it, so a trace from the host expands no core: it walks
        # the store and replays its own steps through the memo and the code
        # table alone, with one call of _moves per step that is not a
        # vertex deletion.
        graphs = _hosts_and_blocks()
        pairs = self._trace_pairs(graphs)
        relations.clear_caches()
        labelled, moved = [], []
        label, spell, moves = canonical._minimal_bits, canonical._spell, relations._moves

        def recording_labels(g, colours):
            labelled.append(g)
            return label(g, colours)

        def recording_spells(code):
            labelled.append(code)
            return spell(code)

        def recording_moves(g):
            moved.append(g)
            return moves(g)

        monkeypatch.setattr(canonical, "_minimal_bits", recording_labels)
        monkeypatch.setattr(canonical, "_spell", recording_spells)
        monkeypatch.setattr(relations, "_moves", recording_moves)
        for h, g in pairs:
            bipartite_minor_closure(g)
            canonical_form(h)
            labelled.clear()
            moved.clear()
            trace = bipartite_minor_trace(h, g)
            assert labelled == []
            steps = () if trace is None else trace.steps
            assert len(moved) == sum(not isinstance(s, VertexDeletion) for s in steps)

    def test_class_cache_past_the_limit_changes_no_result(self, monkeypatch):
        graphs = _hosts_and_blocks()
        rng = random.Random(39)
        pairs = [(random_graph(rng, 5), g) for g in graphs[:12] for _ in range(3)]

        def run() -> tuple[list, list]:
            relations.clear_caches()
            closures = [bipartite_minor_closure(g) for g in graphs]
            traces = [bipartite_minor_trace(h, g) for h, g in pairs]
            return closures, traces

        want = run()
        sizes = []  # the memo's size after each form the searches ask for
        spelled = []
        form, spell = relations.canonical_form, canonical._spell

        def recording(g):
            out = form(g)
            sizes.append(len(canonical._forms))
            return out

        def recording_spells(code):
            spelled.append(code)
            return spell(code)

        monkeypatch.setattr(canonical, "STORE_LIMIT", 20)
        monkeypatch.setattr(relations, "canonical_form", recording)
        monkeypatch.setattr(canonical, "_spell", recording_spells)
        assert run() == want
        # The memo is checked against the limit once per form it answers
        # anew, which adds the graph's masks and any code: it went
        # past the limit by at most those two entries, and was emptied
        # several times, after which some codes were spelled again.
        assert 20 < max(sizes) <= 22
        assert sum(a > b for a, b in zip(sizes, sizes[1:])) > 3
        assert len(spelled) > len(set(spelled))
        assert sum(trace is not None for trace in want[1]) > 5

    def test_form_memo_is_emptied_with_the_class_cache(self, monkeypatch):
        # Codes and masks share the memo and its one emptying rule: each
        # emptying past the limit, mid-walk, drops both kinds of key, and no
        # closure changes.
        graphs = _hosts_and_blocks()[:20]
        relations.clear_caches()
        want = [bipartite_minor_closure(g) for g in graphs]
        emptied = []  # the (codes, masks) keys the memo held at each emptying

        class Memo(dict):
            def clear(self):
                codes = sum(isinstance(key, str) for key in self)
                emptied.append((codes, len(self) - codes))
                super().clear()

        relations.clear_caches()
        monkeypatch.setattr(canonical, "STORE_LIMIT", 20)
        monkeypatch.setattr(canonical, "_forms", Memo())
        got = []
        for g in graphs:
            got.append(bipartite_minor_closure(g))
            assert len(canonical._forms) <= 22
        assert got == want
        assert len(emptied) > 3
        assert all(codes + masks > 20 for codes, masks in emptied)
        assert all(codes and masks for codes, masks in emptied)

    def test_clear_caches_leaves_no_module_state(self):
        # Every dict, list and set held by ``canonical`` or ``relations`` is
        # a cache that ``clear_caches`` empties, besides the upper-case
        # constant tables.
        bipartite_minor_closure(cycle(8))
        assert bipartite_minor_trace(bull(4, [1]), dog(6, [4, 4])) is not None

        def state() -> dict:
            return {
                f"{module.__name__}.{name}": value
                for module in (canonical, relations)
                for name, value in vars(module).items()
                if isinstance(value, (dict, list, set))
                and not name.startswith("__")
                and not name.isupper()
            }

        assert all(state().values())
        # The memo holds masks and codes, in one dict.
        assert {type(key) for key in canonical._forms} == {tuple, str}
        relations.clear_caches()
        assert {name: len(value) for name, value in state().items() if value} == {}


class TestCompareFamily:
    def test_dog_antichain_prefix(self):
        family = [dog(4, [4, 4]), dog(6, [4, 4])]
        cm = compare_family(family, "bipartite_minor")
        assert cm.matrix == ((True, False), (False, True))
        # Reflexive diagonal entries do not spoil an antichain.
        assert cm.is_antichain

    def test_h_trees_subgraph_antichain(self):
        family = [h_tree(k) for k in (2, 3, 4)]
        cm = compare_family(family, "subgraph")
        assert cm.is_antichain

    def test_h_trees_antichain_under_four_vertex_arm_reading(self):
        # The alternative reading of the family (4-vertex arm paths) is an
        # antichain as well.
        family = [h_tree(k, arm_vertices=4) for k in (2, 3, 4)]
        assert compare_family(family, "subgraph").is_antichain
        assert compare_family(family, "minor").matrix == (
            (True, True, True),
            (False, True, True),
            (False, False, True),
        )

    def test_h_trees_minor_chain(self):
        family = [h_tree(k) for k in (2, 3, 4)]
        cm = compare_family(family, "minor")
        assert cm.matrix == (
            (True, True, True),
            (False, True, True),
            (False, False, True),
        )

    def test_unknown_relation(self):
        with pytest.raises(GraphError, match="unknown relation"):
            compare_family([cycle(3)], "homeomorphism")


class TestRelationInclusions:
    def test_subgraph_containment_implies_both_relations(self):
        # Vertex and edge deletions are legal moves for both relations, so
        # every subgraph is simultaneously a minor and a bipartite minor.
        rng = random.Random(44)
        hits = 0
        for _ in range(80):
            g = random_graph(rng, 6)
            h = random_graph(rng, 5)
            if is_subgraph(h, g):
                hits += 1
                assert is_minor(h, g)
                assert is_bipartite_minor(h, g)
        assert hits > 10

    def test_bipartite_minor_does_not_imply_minor(self):
        assert is_bipartite_minor(bull(4, [1]), cycle(6))
        assert not is_minor(bull(4, [1]), cycle(6))

    def test_minor_does_not_imply_bipartite_minor(self):
        assert is_minor(dog(5, [3, 3]), dog(6, [3, 3]))
        assert not is_bipartite_minor(dog(5, [3, 3]), dog(6, [3, 3]))


class TestQuasiOrderLaws:
    def test_reflexive(self):
        rng = random.Random(39)
        for _ in range(20):
            g = random_graph(rng, 6)
            assert is_bipartite_minor(g, g)
            assert is_minor(g, g)

    def test_transitive_on_random_triples(self):
        rng = random.Random(40)
        pool = [random_graph(rng, 5) for _ in range(30)]
        checked = 0
        for _ in range(120):
            a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            for rel in (is_bipartite_minor, is_minor):
                if rel(a, b) and rel(b, c):
                    assert rel(a, c)
                    checked += 1
        assert checked > 10

    def test_antisymmetric_up_to_isomorphism(self):
        rng = random.Random(41)
        pool = [random_graph(rng, 5) for _ in range(30)]
        for _ in range(100):
            a, b = rng.choice(pool), rng.choice(pool)
            if is_bipartite_minor(a, b) and is_bipartite_minor(b, a):
                assert are_isomorphic(a, b)


class TestForestReduction:
    def test_spot_check_small_trees(self):
        trees = [
            path(1),
            path(4),
            h_tree(2),
            build(4, [(0, 1), (0, 2), (0, 3)]),
            build(5, [(0, 1), (0, 2), (0, 3), (3, 4)]),
        ]
        for t1 in trees:
            for t2 in trees:
                assert is_bipartite_minor(t1, t2) == is_subgraph(t1, t2)
