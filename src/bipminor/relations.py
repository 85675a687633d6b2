"""The three containment relations and their witnesses.

``is_bipartite_minor`` decides reachability from a host graph via vertex
deletion, edge deletion, and admissible contraction (contracting a pair
with a common neighbor on an induced non-separating cycle).  An isolated
vertex stays isolated under every move, and no move uses it except to
delete it (Chudnovsky, Kalai, Nevo, Novik and Seymour, *Bipartite
minors*, 2016), so the searches walk **cores**, graphs with their
isolated vertices stripped, and count those vertices instead.  A state
is ``(X, j)``: the core X with j isolated vertices beside it.  A move is
a contraction or an edge deletion of X; a move that isolates i vertices
leads to the stripped child's core with j + i.  Deleting a vertex of
degree d is d edge deletions and then the deletion of the isolated
vertex, and every graph on the way is itself reachable, so no closure or
verdict changes.  Traces and closures walk one operation graph shared by
every search in the process.  It maps each core form reached to one
labelled representative and, once the core is expanded, to its distinct
child cores, so each core is expanded and its children labelled once per
process, whichever search reached it first (McKay, *Isomorph-free
exhaustive generation*, 1998); a graph with isolated vertices is never
labelled or expanded.  ``_moves`` makes each child on neighbour masks,
stripping the ends an edge deletion isolates, and ``canonical_form``
names it; a ``Step`` is made only for a step the replay names.  One
depth-first loop, ``_walk``, serves both searches.  It pushes the states
first reached from each state in reverse canonical order, so the least
is expanded next and its parent links do not depend on what earlier
searches left in the store.  A state with more isolated vertices beside
the same core supersedes one with fewer.  A search that finds the store
above ``canonical.STORE_LIMIT`` entries empties it first; no result
depends on what the store holds.

``bipartite_minor_closure`` (everything reachable, up to isomorphism) is
``{X + kK_1 : k <= J(X)}`` over the cores X the walk reaches, where J(X)
is the most isolated vertices reached beside X; no order changes that.
Each member's form is X's form padded with k zero columns in front
(``canonical.padded``), with no labelling.  ``bipartite_minor_trace``
splits the target into ``H0 + hK_1``, caps j at h, and walks toward
``(H0, h)``, stopping when a state generates it as a child: every
operation strictly shrinks |V|+|E| and never increases the cycle rank
|E|-|V|+(components), so states below the target on vertices (the
core's and those carried), edges or rank are skipped.  Those floors hold
on every graph between a vertex's edge deletions and its own, so they
cut no path to the target.  A witness is the path the walk took, not always a
shortest one; it deletes a vertex's edges one by one.  The stored graphs
carry their own labels, so the trace names its steps by replay: from the
host, it takes at each graph of the path its first move (its core's
moves, on its own labels) whose stripped child has the next core (by
the count lemma at ``_children``, it isolates as many vertices as the
walk's step), and then deletes the isolated vertices beyond the
target's, least first.
Both check the size cap on the host alone: no move adds a vertex.

``is_minor`` uses the equivalent branch-set formulation: disjoint
connected sets in the host, one per target vertex, with a host edge behind
every target edge.  It is ``structure``'s branch-set search run over the
host's connected vertex sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from . import canonical
from .canonical import CanonicalForm, canonical_form, padded
from .graph_core import (
    Graph,
    GraphError,
    _derived,
    _drop,
    _merged,
    check_size_cap,
    contract_set,
    delete_edge,
    delete_vertex,
    normalize_edge,
    strip_isolated,
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


# A move of a core: the contraction of u and v through w, or the deletion
# of the edge uv when w is None; then the child's core and how many
# vertices the move isolated.
Move = tuple[int, int, int | None, Graph, int]


def _moves(g: Graph) -> Iterator[Move]:
    """Single-operation successors of the core ``g`` in a fixed order: every
    admissible contraction, with the least ``w``, then every edge deletion,
    each in sorted order.  Each child is made on the masks: a contraction
    is ``graph_core._merged``, the pair merge that ``contract_set`` folds
    over a set, and isolates no vertex, as u and v keep w; an edge deletion
    clears two bits and strips an end it left with no neighbours, as
    ``delete_edge`` then ``strip_isolated`` would.

    No move uses an isolated vertex except to delete it, so the searches
    strip isolated vertices from every child and count them instead.  Any
    other vertex deletion is reached by deleting the vertex's edges
    first, through graphs that are themselves reachable, and then the
    isolated vertex, so no search loses a state."""
    n, masks = g.vertex_count, g.neighbor_masks
    for p in admissible_pairs(g):
        yield p.u, p.v, p.w, _derived(n - 1, _merged(masks, p.u, p.v)), 0
    for u, mu in enumerate(masks):
        ends = mu >> (u + 1) << (u + 1)
        while ends:
            bv = ends & -ends
            ends ^= bv
            v = bv.bit_length() - 1
            out = list(masks)
            out[u] ^= bv
            out[v] ^= 1 << u
            lone = (0 if out[u] else 1 << u) | (0 if out[v] else bv)
            i = lone.bit_count()
            yield u, v, None, _derived(n - i, _drop(out, lone) if lone else tuple(out)), i


def bipartite_minor_trace(h: Graph, g: Graph) -> OpTrace | None:
    """A replayable witness that ``h`` is a bipartite minor of ``g``, or
    ``None``.  The search is exhaustive within the cap, so ``None`` is a
    definite negative."""
    check_size_cap(g)
    if h.vertex_count > g.vertex_count or h.edge_count > g.edge_count:
        return None
    core, isolated = strip_isolated(h)
    target = canonical_form(core)
    rank_floor = _cycle_rank(h)

    def keep(x: Graph, j: int) -> bool:
        # The state is the core x with j isolated vertices beside it, which
        # change neither |E| nor the cycle rank.  As j is capped at the
        # target's isolated vertices, x is never smaller than its core.
        return (
            x.vertex_count + j >= h.vertex_count
            and x.edge_count >= h.edge_count
            and _cycle_rank(x) >= rank_floor
        )

    reached = _walk(g, isolated, keep, target)
    if target not in reached:
        return None
    path = [target]
    while reached[path[-1]][1] is not None:
        path.append(reached[path[-1]][1])
    # Name each step on the host's own labels: replay the path, taking at
    # each graph the first move of its core that reaches the next core.  No
    # move uses an isolated vertex, and stripping keeps the other vertices
    # in their order, so a graph's moves are its core's, in the same order,
    # on the labels of the vertices with neighbours.
    steps: list[Step] = []
    cur = g
    for y in reversed(path[:-1]):
        live = [v for v in cur.vertices if cur.neighbor_masks[v]]
        for u, v, w, child, _ in _moves(strip_isolated(cur)[0]):
            if canonical_form(child) == y:
                break
        else:
            raise RuntimeError(f"no move of the walk's path reaches {y}")
        u, v = live[u], live[v]
        if w is None:
            steps.append(EdgeDeletion(u, v))
            cur = delete_edge(cur, u, v)
        else:
            steps.append(AdmissibleContraction(u, v, live[w]))
            cur = contract_set(cur, {u, v})
    # Then delete the isolated vertices beyond the target's, least first;
    # each deletion shifts the labels above it down by one.
    lone = [v for v in cur.vertices if not cur.neighbor_masks[v]]
    steps += [VertexDeletion(v - k) for k, v in enumerate(lone[: len(lone) - isolated])]
    return OpTrace(tuple(steps))


def is_bipartite_minor(h: Graph, g: Graph) -> bool:
    return bipartite_minor_trace(h, g) is not None


# ---------------------------------------------------------------------------
# the shared operation graph

# The operation graph shared by every search in the process, over cores:
# each core form reached maps to that form object itself, its first graph
# and, once expanded, its distinct child cores, each with the one number of
# vertices every move to it isolates (the count lemma at ``_children``).
# Each child is named by its own entry's form object, so the store holds
# one object per form.  An entry costs about 620 bytes besides its graph
# (CPython 3.11, 64-bit: ``sys.getsizeof`` of the dict and of every object
# its entries hold after ``verify all``, each object once), most of it the
# (core, count) pairs of its children, and ``verify all`` leaves 920
# (1,718 when the store held every form).  It is bounded by
# ``canonical.STORE_LIMIT``, as the form memo is.
Children = tuple[tuple[CanonicalForm, int], ...]
_store: dict[CanonicalForm, tuple[CanonicalForm, Graph, Children | None]] = {}


def clear_caches() -> None:
    """Empty every process-wide cache: ``canonical``'s form memo and the
    operation graph.  No result depends on what they hold; only the time
    of the next searches does."""
    canonical.clear_cache()
    _store.clear()


def _children(cf: CanonicalForm) -> Children:
    """The distinct cores one move from the core ``cf``, each with the
    number of vertices a move to it isolates, expanding ``cf`` on first use.

    Count lemma: every move from a core X to one child core isolates the
    same number of vertices.  A contraction of u and v isolates none and
    leaves |V|-1 vertices and at most |E|-1 edges, exactly |E|-1 when u
    and v are non-adjacent with one common neighbour w; an edge deletion
    that isolates i vertices leaves |V|-i vertices and |E|-1 edges.  So
    the only possible clash is such a contraction against the deletion of
    a pendant edge, which keeps X's 2-core.  Pull the edges of the
    contracted graph's 2-core back into X (one from the merged vertex to x
    as ux or vx) and add the cycle through u, w, v: the result has minimum
    degree two, so it lies in X's 2-core, and at least one more edge, as
    the cycle holds both uw and vw.  So the two children's 2-cores differ."""
    cf, g, kids = _store[cf]
    if kids is None:
        found = {_stored(child): i for *_, child, i in _moves(g)}
        kids = tuple(found.items())
        _store[cf] = (cf, g, kids)
    return kids


def _stored(g: Graph) -> CanonicalForm:
    """The form of the core ``g``, as the store's own key object; ``g`` is
    stored, unexpanded, when its form is new."""
    cf = canonical_form(g)
    return _store.setdefault(cf, (cf, g, None))[0]


def _walk(
    g: Graph,
    most: int,
    keep: Callable[[Graph, int], bool] | None = None,
    target: CanonicalForm | None = None,
) -> dict[CanonicalForm, tuple[int, CanonicalForm | None]]:
    """Depth-first walk over the store from ``g``'s core, through states
    ``(X, j)``: the core X with j isolated vertices beside it, j capped at
    ``most``.  A move from ``(X, j)`` to a core Y that isolates i vertices
    gives ``(Y, j + i)``, which is kept if ``keep`` accepts Y's stored
    graph and j + i.  A state with more isolated vertices beside the same
    core supersedes one with fewer.  Maps every core reached to the most
    isolated vertices reached beside it and the core that state was
    reached from (``None`` for the start); stops as soon as ``target`` is
    generated as a child, and ``keep`` must accept the target's core only
    with ``most`` beside it.  The states first reached from a state are
    pushed so that the least in canonical order is expanded next; a
    trace's path is therefore not always the shortest."""
    if len(_store) > canonical.STORE_LIMIT:
        _store.clear()
    core, isolated = strip_isolated(g)
    start = _stored(core)
    reached: dict[CanonicalForm, tuple[int, CanonicalForm | None]] = {
        start: (min(isolated, most), None)
    }
    stack = [] if start == target else [(start, min(isolated, most))]
    while stack:
        cf, j = stack.pop()
        if j < reached[cf][0]:
            continue
        new: list[tuple[CanonicalForm, int]] = []
        for ccf, i in _children(cf):
            jj = min(j + i, most)
            if jj <= reached.get(ccf, (-1, None))[0] or (
                keep is not None and not keep(_store[ccf][1], jj)
            ):
                continue
            reached[ccf] = (jj, cf)
            if ccf == target:
                return reached
            new.append((ccf, jj))
        # Canonical order keeps the parent links, and so a trace's witness,
        # independent of the order in which earlier calls filled the store.
        new.sort(reverse=True)
        stack += new
    return reached


def bipartite_minor_closure(g: Graph) -> frozenset[CanonicalForm]:
    """Every graph (up to isomorphism, including ``g`` itself) reachable by
    deletions and admissible contractions: each core reached, with up to
    as many isolated vertices as the walk reached beside it."""
    check_size_cap(g)
    return frozenset(
        padded(cf, k)
        for cf, (j, _) in _walk(g, g.vertex_count).items()
        for k in range(j + 1)
    )


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
