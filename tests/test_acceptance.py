"""Acceptance suite: the headline facts, one test per criterion, each
printing a pass/fail line (run pytest with -s to see them live)."""

import random
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from bipminor.canonical import are_isomorphic, canonical_form
from bipminor.families import bull, cycle, dog, h_tree, path
from bipminor.graph_core import contract_set, is_bipartite
from bipminor.relations import (
    AdmissibleContraction,
    admissible_contract,
    bipartite_minor_trace,
    compare_family,
    is_bipartite_minor,
    is_minor,
    minor_model,
    validate_minor_model,
)
from bipminor.structure import is_k_connected, is_subgraph, subgraph_embedding
from bipminor.cli.harness import (
    ANTICHAIN_DOG_EARS,
    ANTICHAIN_DOG_SNOUTS,
    BLOCK_RESTRICTION_SAMPLES,
    BULL_CASES,
    DOG_CASES,
    H_FOREST_LENGTHS,
    NONMINOR_CYCLES,
    verify_harness,
)

from oracles import permute, random_graph


@contextmanager
def criterion(number, name):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL ({perf_counter() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({perf_counter() - start:.1f}s)")


_blocks_report = None


def blocks_report():
    """The blocks suite backs criteria 9 and 10; run it once."""
    global _blocks_report
    if _blocks_report is None:
        _blocks_report = verify_harness("blocks")
    return _blocks_report


def test_criterion_01_bull_bipartite_minor():
    with criterion(1, "bull theorem"):
        assert len(BULL_CASES) == 8
        for snout, horn in BULL_CASES:
            host = cycle(snout + 2 * horn)
            target = bull(snout, [horn])
            trace = bipartite_minor_trace(target, host)
            assert trace is not None, (snout, horn)
            assert len(trace) == horn
            assert all(isinstance(s, AdmissibleContraction) for s in trace.steps)
            assert are_isomorphic(trace.replay(host), target)


def test_criterion_02_bull_not_a_cycle_minor():
    with criterion(2, "bull non-minor"):
        for snout, horn in BULL_CASES:
            target = bull(snout, [horn])
            for p in NONMINOR_CYCLES:
                assert not is_minor(target, cycle(p)), (snout, horn, p)


def test_criterion_03_contraction_replays():
    with criterion(3, "contraction figures replay"):
        assert are_isomorphic(contract_set(cycle(6), {0, 2}), bull(4, [1]))

        first = admissible_contract(cycle(8), 0, 2)
        assert are_isomorphic(first, bull(6, [1]))
        tip = next(v for v in first.vertices if first.degree(v) == 1)
        hub = next(iter(first.neighbors(tip)))
        u, w = sorted(x for x in first.neighbors(hub) if x != tip)
        second = admissible_contract(first, u, w)
        assert are_isomorphic(second, bull(4, [2]))


def test_criterion_04_dog_minor_but_not_bipartite_minor():
    with criterion(4, "dog theorem"):
        assert dog(8, [4, 4]).vertex_count == 12
        for snout, stretch, ears in DOG_CASES:
            small = dog(snout, list(ears))
            large = dog(snout + stretch, list(ears))
            model = minor_model(small, large)
            assert model is not None, (snout, stretch, ears)
            validate_minor_model(model, small, large)
            assert not is_bipartite_minor(small, large), (snout, stretch, ears)


def test_criterion_05_dog_antichain():
    with criterion(5, "dog antichain"):
        family = [dog(k, list(ANTICHAIN_DOG_EARS)) for k in ANTICHAIN_DOG_SNOUTS]
        for d in family:
            assert is_bipartite(d) is not None
            assert is_k_connected(d, 2, "paper")
            assert is_k_connected(d, 2, "standard")
        cm = compare_family(family, "bipartite_minor")
        for i in range(len(family)):
            for j in range(len(family)):
                assert cm.matrix[i][j] == (i == j)
        assert cm.is_antichain


def test_criterion_06_forest_reduction():
    with criterion(6, "forest reduction"):
        report = verify_harness("forest")
        assert report.ok, report.render()
        claim = report.claims[0]
        assert claim.computed == "0 mismatches over 625 ordered pairs"


def test_criterion_07_h_forest_antichain_and_minor_chain():
    with criterion(7, "H-forest antichain / minor chain"):
        family = [h_tree(k) for k in H_FOREST_LENGTHS]
        sub = compare_family(family, "subgraph")
        assert sub.is_antichain
        minor = compare_family(family, "minor")
        for i in range(len(family)):
            for j in range(len(family)):
                assert minor.matrix[i][j] == (i <= j)


def test_criterion_08_bipartiteness_preservation():
    with criterion(8, "bipartiteness preservation"):
        report = verify_harness("preservation")
        assert report.ok, report.render()
        claim = report.claims[0]
        assert claim.computed == "0 violations over 72 closures"


def test_criterion_09_block_restriction():
    with criterion(9, "block restriction"):
        report = blocks_report()
        claim = next(
            c for c in report.claims if c.claim_id == "blocks.restriction"
        )
        assert claim.passed, (claim.expected, claim.computed)
        assert claim.computed == (
            f"0 violations over {BLOCK_RESTRICTION_SAMPLES} random graphs"
        )


def test_criterion_10_two_connected_closure_members():
    with criterion(10, "closure corollary"):
        report = blocks_report()
        for claim_id in ("blocks.corollary.cycle", "blocks.corollary.one_eared_dog"):
            claim = next(c for c in report.claims if c.claim_id == claim_id)
            assert claim.passed, (claim.expected, claim.computed)


def test_criterion_11_property_suites():
    with criterion(11, "property suites"):
        # Witness soundness on the headline positives.
        for snout, horn in BULL_CASES:
            host = cycle(snout + 2 * horn)
            trace = bipartite_minor_trace(bull(snout, [horn]), host)
            assert are_isomorphic(trace.replay(host), bull(snout, [horn]))
        for snout, stretch, ears in DOG_CASES:
            small = dog(snout, list(ears))
            large = dog(snout + stretch, list(ears))
            validate_minor_model(minor_model(small, large), small, large)
        for k in (2, 3, 4):
            image = subgraph_embedding(h_tree(k), h_tree(k))
            assert image is not None
            for u, v in h_tree(k).edges:
                assert h_tree(k).has_edge(image[u], image[v])

        # Canonical-form relabel invariance: 100 permutations x 50 graphs.
        rng = random.Random(2001)
        pool = [
            cycle(3), cycle(4), cycle(6), cycle(8), path(2), path(5), path(7),
            bull(3, [1]), bull(4, [1]), bull(4, [2]), bull(5, [1, 2]),
            bull(3, [1, 1]), dog(4, [4, 4]), dog(5, [3, 3]), dog(6, [4, 4]),
            dog(6, [4]), dog(7, [3, 4]), h_tree(2), h_tree(3), h_tree(5),
        ]
        while len(pool) < 50:
            pool.append(random_graph(rng, 10, min_vertices=2))
        assert len(pool) == 50
        for g in pool:
            want = canonical_form(g)
            for _ in range(100):
                order = list(g.vertices)
                rng.shuffle(order)
                assert canonical_form(permute(g, order)) == want

        # Transitivity: 200 random triples, 6 vertices or fewer.
        triples = 0
        pool_small = [random_graph(rng, 6) for _ in range(40)]
        while triples < 200:
            a, b, c = (rng.choice(pool_small) for _ in range(3))
            triples += 1
            for rel in (is_bipartite_minor, is_minor, is_subgraph):
                if rel(a, b) and rel(b, c):
                    assert rel(a, c)


def test_full_harness_through_cli(capsys):
    from bipminor.cli.main import run_cli

    assert run_cli(["verify", "all"]) == 0
    golden = Path(__file__).parent / "golden" / "verify_all.txt"
    assert capsys.readouterr().out == golden.read_text()
