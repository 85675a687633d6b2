"""The three containment relations and their witnesses.

``is_bipartite_minor`` decides reachability from a host graph via vertex
deletion, edge deletion, and admissible contraction (contracting a pair
with a common neighbor on an induced non-separating cycle).  The searches
delete a vertex only once it is isolated: deleting a vertex of degree d
is d edge deletions and then the deletion of the isolated vertex, and
every graph on the way is itself reachable, so no closure or verdict
changes, while each form has fewer children to label.  Traces and
closures walk one operation graph shared by every search in the process.
It maps each canonical form reached to one labelled representative and,
once the form is expanded, to its distinct child forms, so each form is
expanded and its children labelled once per process, whichever search
reached it first (McKay, *Isomorph-free exhaustive generation*, 1998).
One depth-first loop, ``_walk``, serves both searches.  It pushes the
children first reached from each form in reverse canonical order, so the
least is expanded next and its parent links do not depend on what
earlier searches left in the store.  A search that finds the store above
``canonical.STORE_LIMIT`` entries empties it first; no result depends on
what the store holds.

``bipartite_minor_closure`` (everything reachable, up to isomorphism) is
the set of forms the walk reaches, which no order changes.
``bipartite_minor_trace`` walks toward the target's form and stops when a
form generates it as a child: every operation strictly shrinks |V|+|E|
and never increases the cycle rank |E|-|V|+(components), so children
below the target on any of those measures are skipped.  Those floors
hold on every graph between a vertex's edge deletions and its own, so
they cut no path to the target.  A witness is the path the walk took,
not always a shortest one; it deletes a vertex's edges one by one.  The
stored graphs carry their own labels, so the trace names its steps by
replay: from the host, it takes at each form of the path the first move
reaching the next.  Both check the size cap on the host alone: no move
adds a vertex.

``is_minor`` uses the equivalent branch-set formulation: disjoint
connected sets in the host, one per target vertex, with a host edge behind
every target edge.  It is ``structure``'s branch-set search run over the
host's connected vertex sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from . import canonical
from .canonical import CanonicalForm, Perm, automorphism_generators, canonical_form
from .graph_core import (
    Edge,
    Graph,
    GraphError,
    check_size_cap,
    contract_set,
    delete_edge,
    delete_vertex,
    normalize_edge,
)
from .structure import (
    Cycle,
    _branch_sets,
    _connected_subsets,
    _members,
    component_count,
    peripheral_cycles,
    reach,
    subgraph_embedding,
)


# ---------------------------------------------------------------------------
# admissible contractions


@dataclass(frozen=True)
class AdmissiblePair:
    """A contractible pair with one admissibility witness: a common
    neighbor ``w`` such that u,w,v lie consecutively on the given induced
    non-separating cycle."""

    u: int
    v: int
    w: int
    cycle: Cycle


def admissible_pairs(g: Graph) -> tuple[AdmissiblePair, ...]:
    """All unordered pairs admitting an admissible contraction, one witness
    each (smallest w, then smallest cycle), sorted by pair."""
    pairs = []
    for (u, v), middles in sorted(_middle_map(g).items()):
        w = min(middles)
        pairs.append(AdmissiblePair(u, v, w, middles[w]))
    return tuple(pairs)


def admissible_contract(g: Graph, u: int, v: int) -> Graph:
    """Contract the pair {u, v}, which must be admissible."""
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        raise GraphError("cannot contract a vertex with itself")
    if not _middles(g, u, v):
        if not g.neighbor_masks[u] & g.neighbor_masks[v]:
            raise GraphError(f"pair ({u}, {v}) has no common neighbor")
        raise GraphError(
            f"no induced non-separating cycle passes through ({u}, w, {v}) "
            "for any common neighbor w"
        )
    return contract_set(g, {u, v})


def _middle_map(g: Graph) -> dict[tuple[int, int], dict[int, Cycle]]:
    """Each pair (u < v) that lies two apart on an induced non-separating
    cycle of ``g``, mapped to every w between them on one, each with the
    first such cycle in ``peripheral_cycles`` order: the shortest, then
    the lexicographically least."""
    out: dict[tuple[int, int], dict[int, Cycle]] = {}
    for cyc in peripheral_cycles(g):
        m = len(cyc)
        for i in range(m):
            u, w, v = cyc[i - 1], cyc[i], cyc[(i + 1) % m]
            out.setdefault(normalize_edge(u, v), {}).setdefault(w, cyc)
    return out


def _middles(g: Graph, u: int, v: int) -> set[int]:
    """Every w such that u, w, v lie consecutively on an induced
    non-separating cycle of ``g``."""
    return set(_middle_map(g).get(normalize_edge(u, v), ()))


# ---------------------------------------------------------------------------
# operation traces


@dataclass(frozen=True)
class VertexDeletion:
    v: int


@dataclass(frozen=True)
class EdgeDeletion:
    u: int
    v: int


@dataclass(frozen=True)
class AdmissibleContraction:
    u: int
    v: int
    w: int


# A ``|`` union, not ``typing.Union``: typing caches every Union it builds,
# which would keep the classes of each fresh import of the package alive.
Step = VertexDeletion | EdgeDeletion | AdmissibleContraction


@dataclass(frozen=True)
class OpTrace:
    """A replayable operation sequence; each step's labels refer to the
    graph state immediately before that step."""

    steps: tuple[Step, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def replay(self, source: Graph) -> Graph:
        """Apply the steps to ``source``, re-checking that every
        contraction's u, w, v lie consecutively on an induced
        non-separating cycle; raises if any step is illegal."""
        g = source
        for step in self.steps:
            if isinstance(step, VertexDeletion):
                g = delete_vertex(g, step.v)
            elif isinstance(step, EdgeDeletion):
                g = delete_edge(g, step.u, step.v)
            elif isinstance(step, AdmissibleContraction):
                u, v, w = step.u, step.v, step.w
                if w not in _middles(g, u, v):
                    raise GraphError(
                        f"({u}, {w}, {v}) lie consecutively on no induced "
                        "non-separating cycle"
                    )
                g = contract_set(g, {u, v})
            else:
                raise GraphError(f"unknown trace step: {step!r}")
        return g

    def contraction_count(self) -> int:
        return sum(isinstance(s, AdmissibleContraction) for s in self.steps)


# ---------------------------------------------------------------------------
# bipartite-minor decision search


def _cycle_rank(g: Graph) -> int:
    return g.edge_count - g.vertex_count + component_count(g)


def _moves(g: Graph) -> Iterator[tuple[Step, Graph]]:
    """Single-operation successors, contractions first, in a fixed order.

    Only isolated vertices are deleted: any other vertex deletion is
    reached by deleting the vertex's edges first, through graphs that are
    themselves reachable, so no search loses a state by skipping it.
    Moves that an automorphism of ``g`` maps onto each other give
    isomorphic children, so only the first move of each orbit is yielded;
    any permutation of the isolated vertices is an automorphism, so they
    form one orbit, and only the least of them is deleted.
    A search that skips children it has already seen keeps the same
    states and the same witness steps as with every move of each orbit
    yielded."""
    gens = automorphism_generators(g)
    pairs = {(p.u, p.v): p for p in admissible_pairs(g)}
    for u, v in _orbit_firsts(pairs, gens):
        p = pairs[(u, v)]
        yield AdmissibleContraction(u, v, p.w), contract_set(g, {u, v})
    for v in g.vertices:
        if not g.neighbor_masks[v]:
            yield VertexDeletion(v), delete_vertex(g, v)
            break
    for u, v in _orbit_firsts(sorted(g.edges), gens):
        yield EdgeDeletion(u, v), delete_edge(g, u, v)


def _orbit_firsts(pairs: Iterable[Edge], gens: tuple[Perm, ...]) -> Iterator[Edge]:
    """The vertex pairs, in order, whose orbit under ``gens`` holds no
    earlier pair; ``pairs`` must be closed under the action."""
    if not gens:
        yield from pairs
        return
    covered: set = set()
    for x in pairs:
        if x in covered:
            continue
        covered.add(x)
        stack = [x]
        while stack:
            y = stack.pop()
            for p in gens:
                z = normalize_edge(p[y[0]], p[y[1]])
                if z not in covered:
                    covered.add(z)
                    stack.append(z)
        yield x


def bipartite_minor_trace(h: Graph, g: Graph) -> OpTrace | None:
    """A replayable witness that ``h`` is a bipartite minor of ``g``, or
    ``None``.  The search is exhaustive within the cap, so ``None`` is a
    definite negative."""
    check_size_cap(g)
    if h.vertex_count > g.vertex_count or h.edge_count > g.edge_count:
        return None
    target = canonical_form(h)
    rank_floor = _cycle_rank(h)

    def keep(child: Graph) -> bool:
        return (
            child.vertex_count >= h.vertex_count
            and child.edge_count >= h.edge_count
            and _cycle_rank(child) >= rank_floor
        )

    parent = _walk(g, keep, target)
    if target not in parent:
        return None
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    # Name each step on the host's own labels: replay the path, taking the
    # first move of each graph that reaches the next form.
    steps: list[Step] = []
    cur = g
    for nxt in reversed(path[:-1]):
        step, cur = next(
            (move, child)
            for move, child in _moves(cur)
            if keep(child) and canonical_form(child) == nxt
        )
        steps.append(step)
    return OpTrace(tuple(steps))


def is_bipartite_minor(h: Graph, g: Graph) -> bool:
    return bipartite_minor_trace(h, g) is not None


# ---------------------------------------------------------------------------
# the shared operation graph

# The operation graph shared by every search in the process: each form
# reached maps to its first labelled graph and, once expanded, to the
# distinct forms of its children.  An entry costs about 330 bytes besides
# its graph (CPython 3.11, 64-bit), and ``verify all`` leaves 1,718.
# It is bounded by ``canonical.STORE_LIMIT``, as the class cache is.
_store: dict[CanonicalForm, tuple[Graph, tuple[CanonicalForm, ...] | None]] = {}


def clear_caches() -> None:
    """Empty every process-wide cache: ``canonical``'s class cache and form
    memo, and the operation graph.  No result depends on what they hold;
    only the time of the next searches does."""
    canonical.clear_cache()
    _store.clear()


def _children(cf: CanonicalForm) -> tuple[CanonicalForm, ...]:
    """The distinct forms one move from ``cf``, expanding it on first use."""
    g, kids = _store[cf]
    if kids is None:
        found: dict[CanonicalForm, None] = {}
        for _, child in _moves(g):
            ccf = canonical_form(child)
            found[ccf] = None
            if ccf not in _store:
                _store[ccf] = (child, None)
        kids = tuple(found)
        _store[cf] = (g, kids)
    return kids


def _walk(
    g: Graph,
    keep: Callable[[Graph], bool] | None = None,
    target: CanonicalForm | None = None,
) -> dict[CanonicalForm, CanonicalForm | None]:
    """Depth-first walk over the store from ``g``, through the children
    whose stored graph ``keep`` accepts.  Maps every form reached to the
    form it was first reached from (``None`` for the start); stops as soon
    as ``target`` is generated as a child.  The children first reached
    from a form are pushed so that the least in canonical order is
    expanded next; a trace's path is therefore not always the shortest."""
    if len(_store) > canonical.STORE_LIMIT:
        _store.clear()
    start = canonical_form(g)
    _store.setdefault(start, (g, None))
    parent: dict[CanonicalForm, CanonicalForm | None] = {start: None}
    stack = [] if start == target else [start]
    while stack:
        cf = stack.pop()
        new: list[CanonicalForm] = []
        for ccf in _children(cf):
            if ccf in parent or (keep is not None and not keep(_store[ccf][0])):
                continue
            parent[ccf] = cf
            if ccf == target:
                return parent
            new.append(ccf)
        # Canonical order keeps the parent links, and so a trace's witness,
        # independent of the order in which earlier calls filled the store.
        new.sort(reverse=True)
        stack += new
    return parent


def bipartite_minor_closure(g: Graph) -> frozenset[CanonicalForm]:
    """Every graph (up to isomorphism, including ``g`` itself) reachable by
    deletions and admissible contractions."""
    check_size_cap(g)
    return frozenset(_walk(g))


# ---------------------------------------------------------------------------
# classical minor via branch sets


@dataclass(frozen=True)
class MinorModel:
    """Branch sets indexed by target vertex: disjoint, each inducing a
    connected subgraph of the source, together covering every target edge."""

    branch_sets: tuple[frozenset[int], ...]


def validate_minor_model(model: MinorModel, h: Graph, g: Graph) -> None:
    """Raise GraphError unless the model proves h is a minor of g."""
    if len(model.branch_sets) != h.vertex_count:
        raise GraphError("model must have one branch set per target vertex")
    taken = 0
    sets: list[int] = []  # the branch sets as masks
    for i, bs in enumerate(model.branch_sets):
        if not bs:
            raise GraphError(f"branch set {i} is empty")
        mask = 0
        for v in bs:
            g.check_vertex(v)
            if (taken >> v) & 1:
                raise GraphError(f"branch sets overlap at source vertex {v}")
            taken |= 1 << v
            mask |= 1 << v
        if reach(g, mask & -mask, mask) != mask:
            raise GraphError(f"branch set {i} is not connected in the source")
        sets.append(mask)
    for a, b in h.edges:
        if not any(g.neighbor_masks[v] & sets[b] for v in model.branch_sets[a]):
            raise GraphError(f"target edge ({a}, {b}) has no source edge behind it")


def minor_model(h: Graph, g: Graph) -> MinorModel | None:
    """A branch-set witness that ``h`` is a minor of ``g``, or ``None``: the
    branch-set search over connected sets."""
    sets = _branch_sets(h, g, _connected_subsets)
    if sets is None:
        return None
    model = MinorModel(tuple(_members(g, mask) for mask in sets))
    validate_minor_model(model, h, g)
    return model


def is_minor(h: Graph, g: Graph) -> bool:
    return minor_model(h, g) is not None


# ---------------------------------------------------------------------------
# comparability matrices

# Each relation's witness search: evidence that ``h`` is below ``g``, or
# ``None``.
WITNESS_SEARCHES: dict[str, Callable[..., object]] = {
    "bipartite_minor": bipartite_minor_trace,
    "minor": minor_model,
    "subgraph": subgraph_embedding,
}


@dataclass(frozen=True)
class ComparisonMatrix:
    """Pairwise comparisons: ``matrix[i][j]`` holds iff graph i is below
    graph j under the relation."""

    relation: str
    matrix: tuple[tuple[bool, ...], ...]

    @property
    def is_antichain(self) -> bool:
        return all(
            not cell
            for i, row in enumerate(self.matrix)
            for j, cell in enumerate(row)
            if i != j
        )


def compare_family(graphs: Sequence[Graph], relation: str) -> ComparisonMatrix:
    """Compare every ordered pair of the family under the named relation."""
    search = WITNESS_SEARCHES.get(relation)
    if search is None:
        raise GraphError(f"unknown relation: {relation!r}")
    matrix = tuple(
        tuple(search(a, b) is not None for b in graphs) for a in graphs
    )
    return ComparisonMatrix(relation, matrix)
