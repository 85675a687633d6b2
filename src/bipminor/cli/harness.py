"""Verification harness: every headline fact about the three relations,
executed as timed pass/fail claims grouped into suites.

Suites: bull (cycle-to-bull contractions, bulls are no cycle's minor),
dog (minor but not bipartite minor), antichain (incomparable dogs, the
H-shaped forest family), forest (bipartite minor reduces to subgraph),
preservation (closures of bipartite graphs stay bipartite), blocks
(2-connected closure members live in a block's closure; closure members
of cycles and one-eared dogs), and all.  The forest and preservation
suites list their graphs once per isomorphism class, by vertex
augmentation over canonical forms.

Each claim parameter is a module constant, read by the claim, its params
text and the acceptance tests; each pass text is written once, at ``_run``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations
from operator import eq, le
from time import perf_counter
from typing import Callable, Iterable, Iterator, Sequence

from .. import families
from ..canonical import CanonicalForm, are_isomorphic, canonical_form
from ..graph_core import Graph, GraphError, build, contract_set, is_bipartite
from ..relations import (
    admissible_contract,
    bipartite_minor_closure,
    bipartite_minor_trace,
    compare_family,
    is_bipartite_minor,
    is_minor,
    minor_model,
    validate_minor_model,
)
from ..structure import KCONN_MODES, blocks, is_k_connected, is_subgraph

BLOCK_RESTRICTION_SEED = 6174
BLOCK_RESTRICTION_SAMPLES = 200
BLOCK_RESTRICTION_MAX_VERTICES = 9
FOREST_MAX_VERTICES = 7
PRESERVATION_MAX_VERTICES = 7


@dataclass
class ClaimResult:
    claim_id: str
    params: str
    expected: str
    computed: str
    passed: bool
    seconds: float
    mode: str | None = None
    detail: str = ""


# A claim's body returns what it found, optionally with a detail line; None
# stands for the claim's expected text, the claim holding as stated.
Claim = Callable[[], "str | None | tuple[str | None, str]"]


@dataclass
class VerificationReport:
    suite: str
    claims: tuple[ClaimResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.claims)

    def render(self) -> str:
        """Per-claim pass/fail lines; deterministic (no timings)."""
        lines = []
        for c in self.claims:
            status = "PASS" if c.passed else "FAIL"
            mode = f"  [mode: {c.mode}]" if c.mode else ""
            lines.append(f"[{status}] {c.claim_id}  {c.params}{mode}")
            if c.detail:
                lines.append(f"       {c.detail}")
            if not c.passed:
                lines.append(f"       expected: {c.expected}")
                lines.append(f"       computed: {c.computed}")
        passed = sum(c.passed for c in self.claims)
        lines.append(f"suite {self.suite}: {passed}/{len(self.claims)} claims passed")
        return "\n".join(lines) + "\n"

    def render_timings(self) -> str:
        lines = [f"{c.seconds:9.3f}s  {c.claim_id}" for c in self.claims]
        lines.append(f"{sum(c.seconds for c in self.claims):9.3f}s  total")
        return "\n".join(lines) + "\n"


def _run(
    claim_id: str,
    params: str,
    expected: str,
    fn: Claim,
    mode: str | None = None,
) -> ClaimResult:
    start = perf_counter()
    try:
        computed = fn()
        detail = ""
        if isinstance(computed, tuple):
            computed, detail = computed
        if computed is None:
            computed = expected
    except GraphError as exc:
        computed, detail = f"error: {exc}", ""
    seconds = perf_counter() - start
    return ClaimResult(
        claim_id, params, expected, computed, computed == expected, seconds, mode, detail
    )


# ---------------------------------------------------------------------------
# graph enumeration used by the forest / preservation / blocks suites


def _tree_edges_from_pruefer(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapify(leaves)
    edges = []
    for x in seq:
        leaf = heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heappush(leaves, x)
    a, b = heappop(leaves), heappop(leaves)
    edges.append((min(a, b), max(a, b)))
    return edges


def _augment(
    max_vertices: int, joins: Callable[[Graph], Iterable[tuple[int, ...]]]
) -> list[Graph]:
    """The graphs with 1..max_vertices vertices grown from ``K_1``, one per
    isomorphism class, canonically labelled and in form order.  Each size
    is the size below plus a new vertex joined to each vertex set that
    ``joins`` lists, deduped by canonical form (McKay, *Isomorph-free
    exhaustive generation*, 1998)."""
    forms = {canonical_form(build(1, []))} if max_vertices > 0 else set()
    for n in range(1, max_vertices):
        for g in [cf.to_graph() for cf in forms if cf.vertex_count == n]:
            for joined in joins(g):
                h = build(n + 1, [*g.edges, *((v, n) for v in joined)])
                forms.add(canonical_form(h))
    return [cf.to_graph() for cf in sorted(forms)]


def _one_side_subsets(g: Graph) -> Iterator[tuple[int, ...]]:
    for side in is_bipartite(g).classes():
        for r in range(1, len(side) + 1):
            yield from combinations(sorted(side), r)


def enumerate_connected_bipartite(max_vertices: int) -> list[Graph]:
    """All connected bipartite graphs with 1..max_vertices vertices: a
    vertex joined to a nonempty subset of one side (a spanning tree's leaf
    has its neighbours on one side)."""
    return _augment(max_vertices, _one_side_subsets)


def enumerate_trees(max_vertices: int) -> list[Graph]:
    """All trees with 1..max_vertices vertices: a leaf joined to one vertex."""
    return _augment(max_vertices, lambda g: ((v,) for v in g.vertices))


def random_connected_graphs(
    count: int, max_vertices: int, seed: int
) -> list[Graph]:
    """Seeded sample of small connected graphs: a random tree plus up to
    three extra edges."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(3, max_vertices)
        seq = tuple(rng.randrange(n) for _ in range(n - 2))
        edges = set(_tree_edges_from_pruefer(seq, n))
        non_edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges
        ]
        rng.shuffle(non_edges)
        edges.update(non_edges[: rng.randint(0, 3)])
        out.append(build(n, edges))
    return out


def _dog_name(snout: int | str, ears: Sequence[int]) -> str:
    """The paper's name of a dog, ``D(snout,e1,e2,...)``."""
    return f"D({','.join(map(str, (snout, *ears)))})"


def _is_cycle_or_one_eared_dog(g: Graph) -> bool:
    """Whether ``g`` is a cycle ``C_n`` or a dog ``D(snout,ear)`` with one ear."""
    n = g.vertex_count
    shapes = [families.cycle(n)] if n >= 3 else []
    shapes += [families.dog(snout, [n - snout + 2]) for snout in range(3, n)]
    return any(are_isomorphic(g, h) for h in shapes)


# The canonical form of K_2: two vertices, its one bit set.
_K2_FORM = CanonicalForm(2, 1)


# ---------------------------------------------------------------------------
# bull suite

BULL_CASES = [
    (snout, horn)
    for snout in (3, 4, 5, 6)
    for horn in (1, 2)
    if snout + 2 * horn <= 10
]
# The lengths p of the cycles C_p that each bull is checked not to be a minor of.
NONMINOR_CYCLES = range(3, 13)


def _claim_fig3() -> str | None:
    got = contract_set(families.cycle(6), {0, 2})
    if not are_isomorphic(got, families.bull(4, [1])):
        return "contraction result not isomorphic to B(4,1)"
    return None


def _claim_fig4() -> str | None:
    first = admissible_contract(families.cycle(8), 0, 2)
    if not are_isomorphic(first, families.bull(6, [1])):
        return "first contraction does not give B(6,1)"
    tip = next(v for v in first.vertices if first.degree(v) == 1)
    hub = next(iter(first.neighbors(tip)))
    u, w = sorted(x for x in first.neighbors(hub) if x != tip)
    second = admissible_contract(first, u, w)
    if not are_isomorphic(second, families.bull(4, [2])):
        return "second contraction does not give B(4,2)"
    return None


def _claim_bull_bipminor(snout: int, horn: int) -> Claim:
    def body() -> str | None:
        host = families.cycle(snout + 2 * horn)
        target = families.bull(snout, [horn])
        trace = bipartite_minor_trace(target, host)
        if trace is None:
            return "no witness found"
        if len(trace) != horn or trace.contraction_count() != horn:
            return f"witness is not {horn} contractions: {trace.steps}"
        if not are_isomorphic(trace.replay(host), target):
            return "witness replay does not reach the bull"
        return None

    return body


def _claim_bull_nonminor(snout: int, horn: int) -> Claim:
    def body() -> str | None:
        target = families.bull(snout, [horn])
        hits = [p for p in NONMINOR_CYCLES if is_minor(target, families.cycle(p))]
        return f"minor of C_p for p in {hits}" if hits else None

    return body


def _suite_bull() -> list[ClaimResult]:
    lengths = NONMINOR_CYCLES
    no_cycle = f"minor of no cycle C_p, p in [{lengths[0]}, {lengths[-1]}]"
    return [
        _run(
            "bull.fig3",
            "contract C_6 at a distance-2 pair",
            "isomorphic to B(4,1)",
            _claim_fig3,
        ),
        _run(
            "bull.fig4",
            "two admissible contractions from C_8",
            "C_8 -> B(6,1) -> B(4,2)",
            _claim_fig4,
        ),
        *(
            _run(
                f"bull.bipminor.B({snout},{horn})",
                f"B({snout},{horn}) <=B C_{snout + 2 * horn}",
                f"holds with {horn} admissible contractions",
                _claim_bull_bipminor(snout, horn),
            )
            for snout, horn in BULL_CASES
        ),
        *(
            _run(
                f"bull.nonminor.B({snout},{horn})",
                f"B({snout},{horn}) <=M C_p for no p",
                no_cycle,
                _claim_bull_nonminor(snout, horn),
            )
            for snout, horn in BULL_CASES
        ),
    ]


# ---------------------------------------------------------------------------
# dog suite

DOG_CASES = [
    (snout, stretch, ears)
    for (snout, stretch) in ((5, 1), (5, 2), (6, 1), (6, 2))
    for ears in ((3, 3), (4, 4))
]


def _claim_dog_pair(snout: int, stretch: int, ears: tuple[int, int]) -> Claim:
    def body() -> str | None:
        small = families.dog(snout, list(ears))
        large = families.dog(snout + stretch, list(ears))
        model = minor_model(small, large)
        if model is None:
            return "not even a minor"
        validate_minor_model(model, small, large)
        if is_bipartite_minor(small, large):
            return "unexpectedly a bipartite minor"
        return None

    return body


def _suite_dog() -> list[ClaimResult]:
    return [
        _run(
            f"dog.pair.{_dog_name(snout, ears)}<D({snout + stretch},...)",
            f"{_dog_name(snout, ears)} vs {_dog_name(snout + stretch, ears)}",
            "minor but not bipartite minor",
            _claim_dog_pair(snout, stretch, ears),
        )
        for snout, stretch, ears in DOG_CASES
    ]


# ---------------------------------------------------------------------------
# antichain suite

ANTICHAIN_DOG_SNOUTS = (4, 6, 8)
ANTICHAIN_DOG_EARS = (4, 4)
H_FOREST_LENGTHS = (2, 3, 4, 5)


def _antichain_dogs() -> list[Graph]:
    return [families.dog(k, list(ANTICHAIN_DOG_EARS)) for k in ANTICHAIN_DOG_SNOUTS]


def _h_forest() -> list[Graph]:
    return [families.h_tree(length) for length in H_FOREST_LENGTHS]


def _claim_matrix(
    family: Callable[[], list[Graph]], relation: str, want: Callable[[int, int], bool]
) -> Claim:
    """The claim that ``relation`` holds from member i to member j exactly
    when ``want(i, j)``: ``eq`` for an antichain, ``le`` for a chain."""

    def body() -> str | None:
        cm = compare_family(family(), relation)
        n = len(cm.matrix)
        if all(cm.matrix[i][j] == want(i, j) for i in range(n) for j in range(n)):
            return None
        return f"unexpected matrix: {cm.matrix}"

    return body


def _claim_dog_antichain_wellformed() -> str | None:
    for k, d in zip(ANTICHAIN_DOG_SNOUTS, _antichain_dogs()):
        name = _dog_name(k, ANTICHAIN_DOG_EARS)
        if is_bipartite(d) is None:
            return f"{name} is not bipartite"
        for mode in KCONN_MODES:
            if not is_k_connected(d, 2, mode):
                return f"{name} is not 2-connected ({mode} mode)"
    return None


def _suite_antichain() -> list[ClaimResult]:
    dogs = _dog_name("k", ANTICHAIN_DOG_EARS)
    snouts = ",".join(str(k) for k in ANTICHAIN_DOG_SNOUTS)
    lengths = ",".join(str(k) for k in H_FOREST_LENGTHS)
    return [
        _run(
            "antichain.dogs.matrix",
            f"{dogs} for k in {{{snouts}}} under bipartite_minor",
            "pairwise incomparable",
            _claim_matrix(_antichain_dogs, "bipartite_minor", eq),
        ),
        _run(
            "antichain.dogs.wellformed",
            f"{dogs} for k in {{{snouts}}}",
            "all bipartite and 2-connected in both modes",
            _claim_dog_antichain_wellformed,
            mode="paper+standard",
        ),
        _run(
            "antichain.hforest.subgraph",
            f"H-trees with connector in {{{lengths}}} under subgraph",
            "pairwise incomparable",
            _claim_matrix(_h_forest, "subgraph", eq),
        ),
        _run(
            "antichain.hforest.minor",
            f"H-trees with connector in {{{lengths}}} under minor",
            "chain increasing with connector length",
            _claim_matrix(_h_forest, "minor", le),
        ),
    ]


# ---------------------------------------------------------------------------
# forest suite


def _claim_forest_reduction() -> tuple[str, str]:
    trees = enumerate_trees(FOREST_MAX_VERTICES)
    mismatches = []
    positives = 0
    for t1 in trees:
        for t2 in trees:
            trace = bipartite_minor_trace(t1, t2)
            if (trace is not None) != is_subgraph(t1, t2):
                mismatches.append((t1, t2))
            elif trace is not None:
                positives += 1
                if not are_isomorphic(trace.replay(t2), t1):
                    mismatches.append((t1, t2))
    pairs = len(trees) ** 2
    if mismatches:
        return f"{len(mismatches)} mismatches", ""
    return (
        f"0 mismatches over {pairs} ordered pairs",
        f"{len(trees)} trees, {positives} positive verdicts replayed",
    )


def _suite_forest() -> list[ClaimResult]:
    return [
        _run(
            "forest.reduction",
            "bipartite_minor == subgraph on all trees with "
            f"<= {FOREST_MAX_VERTICES} vertices",
            "0 mismatches over 625 ordered pairs",
            _claim_forest_reduction,
        )
    ]


# ---------------------------------------------------------------------------
# preservation suite


def _claim_preservation() -> tuple[str, str]:
    hosts = enumerate_connected_bipartite(PRESERVATION_MAX_VERTICES)
    violations = 0
    members = 0
    for g in hosts:
        for cf in bipartite_minor_closure(g):
            members += 1
            if is_bipartite(cf.to_graph()) is None:
                violations += 1
    return (
        f"{violations} violations over {len(hosts)} closures",
        f"{members} closure members checked",
    )


def _suite_preservation() -> list[ClaimResult]:
    return [
        _run(
            "preservation.closures",
            "closures of all connected bipartite graphs with "
            f"<= {PRESERVATION_MAX_VERTICES} vertices",
            "0 violations over 72 closures",
            _claim_preservation,
        )
    ]


# ---------------------------------------------------------------------------
# blocks suite


def _claim_block_restriction() -> tuple[str, str]:
    hosts = random_connected_graphs(
        BLOCK_RESTRICTION_SAMPLES, BLOCK_RESTRICTION_MAX_VERTICES, BLOCK_RESTRICTION_SEED
    )
    violations = 0
    members = 0
    for g in hosts:
        closure = bipartite_minor_closure(g)
        reachable_in_blocks: set[CanonicalForm] = set()
        for block in blocks(g).blocks:
            reachable_in_blocks |= bipartite_minor_closure(block.to_graph())
        for cf in closure:
            if is_k_connected(cf.to_graph(), 2, "standard"):
                members += 1
                if cf not in reachable_in_blocks:
                    violations += 1
    return (
        f"{violations} violations over {len(hosts)} random graphs",
        f"{members} 2-connected closure members located in block closures",
    )


def _claim_corollary_cycle() -> tuple[str | None, str]:
    closure = bipartite_minor_closure(families.cycle(8))
    std = {cf for cf in closure if is_k_connected(cf.to_graph(), 2, "standard")}
    extras = {cf for cf in closure - std if is_k_connected(cf.to_graph(), 2, "paper")}
    wanted = {canonical_form(families.cycle(k)) for k in (4, 6, 8)}
    if std != wanted:
        got = sorted((cf.vertex_count, cf.to_graph().edge_count) for cf in std)
        return f"unexpected standard-mode members: {got}", ""
    if extras != {_K2_FORM}:
        return f"unexpected paper-mode extras: {sorted(extras)}", ""
    return None, f"closure size {len(closure)}"


def _claim_corollary_one_eared_dog() -> tuple[str | None, str]:
    closure = bipartite_minor_closure(families.dog(6, [4]))
    std = {cf for cf in closure if is_k_connected(cf.to_graph(), 2, "standard")}
    extras = {cf for cf in closure - std if is_k_connected(cf.to_graph(), 2, "paper")}
    stray = [cf for cf in std if not _is_cycle_or_one_eared_dog(cf.to_graph())]
    if stray:
        got = sorted((cf.vertex_count, cf.to_graph().edge_count) for cf in stray)
        return f"members that are neither cycles nor one-eared dogs: {got}", ""
    if extras != {_K2_FORM}:
        return f"unexpected paper-mode extras: {sorted(extras)}", ""
    return None, f"{len(std)} standard-mode members of {len(closure)} total"


def _suite_blocks() -> list[ClaimResult]:
    return [
        _run(
            "blocks.restriction",
            f"{BLOCK_RESTRICTION_SAMPLES} random connected graphs, "
            f"<= {BLOCK_RESTRICTION_MAX_VERTICES} vertices, "
            f"seed {BLOCK_RESTRICTION_SEED}",
            f"0 violations over {BLOCK_RESTRICTION_SAMPLES} random graphs",
            _claim_block_restriction,
            mode="standard",
        ),
        _run(
            "blocks.corollary.cycle",
            "2-connected members of closure(C_8)",
            "standard members are C_4, C_6, C_8; paper-mode extra is K_2",
            _claim_corollary_cycle,
            mode="standard+paper",
        ),
        _run(
            "blocks.corollary.one_eared_dog",
            "2-connected members of closure(D(6,4))",
            "standard members are cycles or one-eared dogs; paper-mode extra is K_2",
            _claim_corollary_one_eared_dog,
            mode="standard+paper",
        ),
    ]


# ---------------------------------------------------------------------------

_SUITES: dict[str, Callable[[], list[ClaimResult]]] = {
    "bull": _suite_bull,
    "dog": _suite_dog,
    "antichain": _suite_antichain,
    "forest": _suite_forest,
    "preservation": _suite_preservation,
    "blocks": _suite_blocks,
}

SUITE_NAMES = (*_SUITES, "all")


def verify_harness(suite: str) -> VerificationReport:
    """Run one suite (or "all") and return its per-claim report."""
    if suite == "all":
        claims = (c for run_suite in _SUITES.values() for c in run_suite())
        return VerificationReport("all", tuple(claims))
    if suite not in _SUITES:
        raise GraphError(f"unknown suite: {suite!r} (choose from {SUITE_NAMES})")
    return VerificationReport(suite, tuple(_SUITES[suite]()))
