"""Connectivity, blocks, peripheral (induced non-separating) cycles, and
subgraph containment.

Two notions of k-connectivity are provided.  The default ("paper") asks
that removing any vertex set of size at most k-1 leaves a connected graph,
so the single edge counts as 2-connected.  The "standard" mode additionally
requires at least k+1 vertices.  A graph with exactly one component is
connected; the empty graph has zero components and is not.  Every
connectivity question here and in ``relations``, blocks and cut vertices
included, is answered by ``reach`` on neighbour masks.

One backtracking search, ``_branch_sets``, places a vertex set of the host
for each target vertex.  Over singletons it finds subgraph embeddings;
``relations`` runs it over connected sets for minor models.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .graph_core import (
    Edge,
    Graph,
    GraphError,
    build,
    check_size_cap,
)

Cycle = tuple[int, ...]

KCONN_MODES = ("paper", "standard")


def reach(g: Graph, seed: int, within: int) -> int:
    """The vertices joined to ``seed`` by paths inside ``within``, as a
    mask; ``seed`` is a mask of vertices inside ``within``."""
    masks = g.neighbor_masks
    seen = frontier = seed
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = masks[low.bit_length() - 1] & within & ~seen
        seen |= new
        frontier |= new
    return seen


def _count_components(g: Graph, within: int) -> int:
    """Components of the subgraph induced on the mask ``within``."""
    count = 0
    while within:
        within &= ~reach(g, within & -within, within)
        count += 1
    return count


def _members(g: Graph, mask: int) -> frozenset[int]:
    return frozenset(v for v in g.vertices if (mask >> v) & 1)


def component_count(g: Graph) -> int:
    return _count_components(g, (1 << g.vertex_count) - 1)


def is_connected(g: Graph) -> bool:
    return component_count(g) == 1


def is_k_connected(g: Graph, k: int, mode: str = "paper") -> bool:
    """True iff every deletion of at most k-1 vertices leaves the graph
    connected; "standard" mode additionally requires at least k+1 vertices."""
    if k < 1:
        raise GraphError("k must be at least 1")
    if mode not in KCONN_MODES:
        raise GraphError(f"unknown connectivity mode: {mode!r}")
    if mode == "standard" and g.vertex_count < k + 1:
        return False
    if not is_connected(g):
        return False
    full = (1 << g.vertex_count) - 1
    bits = [1 << v for v in g.vertices]
    for size in range(1, min(k, g.vertex_count + 1)):
        for removed in combinations(bits, size):
            if _count_components(g, full ^ sum(removed)) != 1:
                return False
    return True


@dataclass(frozen=True)
class Block:
    """One block of a graph: its edges together with their vertices."""

    vertices: frozenset[int]
    edges: frozenset[Edge]

    @property
    def trivial(self) -> bool:
        return len(self.edges) == 1

    def to_graph(self) -> Graph:
        """The block as a standalone compactly relabelled graph."""
        order = sorted(self.vertices)
        label = {v: i for i, v in enumerate(order)}
        return build(len(order), [(label[u], label[v]) for u, v in self.edges])


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[Block, ...]
    cut_vertices: frozenset[int]


def blocks(g: Graph) -> BlockDecomposition:
    """Biconnected components, ordered by smallest contained vertex.

    The blocks partition the edge set; isolated vertices belong to no block.
    A cut vertex is one whose deletion adds a component.  A vertex x lies
    in the block of the edge uv iff, for every cut vertex c other than x,
    x is still joined to {u, v} - c once c is deleted (the block minus c
    stays connected, and a cut vertex of the block-cut tree separates
    every other vertex from it).
    """
    full = (1 << g.vertex_count) - 1
    base = _count_components(g, full)
    cuts = [1 << c for c in g.vertices if _count_components(g, full ^ (1 << c)) > base]
    edges = sorted(g.edges)
    out = []
    covered: set[Edge] = set()
    for u, v in edges:
        if (u, v) in covered:
            continue
        ends = (1 << u) | (1 << v)
        mask = reach(g, ends, full)
        for c in cuts:
            mask &= reach(g, ends & ~c, full ^ c) | c
        piece = frozenset(e for e in edges if (mask >> e[0]) & 1 and (mask >> e[1]) & 1)
        covered |= piece
        out.append(Block(_members(g, mask), piece))
    out.sort(key=lambda b: (min(b.vertices), sorted(b.vertices), sorted(b.edges)))
    cut_vertices = frozenset(c.bit_length() - 1 for c in cuts)
    return BlockDecomposition(tuple(out), cut_vertices)


def _induced_cycles(g: Graph) -> list[tuple[Cycle, int]]:
    """All chordless cycles as canonical tuples, each with its vertex mask:
    smallest vertex first, oriented toward its smaller cycle neighbor.

    Every vertex of a cycle keeps two neighbours on it, so no cycle loses a
    vertex when the vertices of degree at most one are peeled, round after
    round: every cycle lies in the 2-core, what peeling leaves.  The search
    peels first, then grows induced paths from each start s of the 2-core
    using only its vertices above s, each step along the last vertex's
    neighbours that are off the path and not adjacent to its interior, in
    increasing order; a candidate adjacent to s closes a cycle and never
    extends the path.  Paths through the peeled trees never closed a
    cycle, so the cycles and their order are those of the same search over
    every vertex.
    """
    n = g.vertex_count
    masks = g.neighbor_masks
    core = (1 << n) - 1
    degree = [m.bit_count() for m in masks]
    peel = [v for v, d in enumerate(degree) if d <= 1]
    while peel:
        v = peel.pop()
        core ^= 1 << v
        m = masks[v] & core
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length() - 1
            degree[w] -= 1
            if degree[w] == 1:
                peel.append(w)
    out: list[tuple[Cycle, int]] = []

    def extend(s: int, above: int, path: list[int], path_mask: int, inner: int) -> None:
        # ``inner`` holds the neighbours of the path's interior vertices.
        last = path[-1]
        second = path[1]
        step = masks[last] & above & ~(path_mask | inner)
        while step:
            low = step & -step
            step ^= low
            w = low.bit_length() - 1
            if (masks[w] >> s) & 1:
                if w > second:
                    out.append((tuple(path) + (w,), path_mask | low))
            else:
                path.append(w)
                extend(s, above, path, path_mask | low, inner | masks[last])
                path.pop()

    rest = core
    while rest:
        start = rest & -rest
        rest ^= start
        s = start.bit_length() - 1
        seconds = masks[s] & rest
        while seconds:
            low = seconds & -seconds
            seconds ^= low
            extend(s, rest, [s, low.bit_length() - 1], start | low, 0)
    return out


def peripheral_cycles(g: Graph) -> tuple[Cycle, ...]:
    """Every induced non-separating cycle, each reported once up to
    rotation and reflection, sorted by length then lexicographically."""
    base = component_count(g)
    full = (1 << g.vertex_count) - 1
    found = [
        c for c, mask in _induced_cycles(g) if _count_components(g, full ^ mask) <= base
    ]
    return tuple(sorted(found, key=lambda c: (len(c), c)))


Candidates = list[tuple[int, int, int]]


def _branch_sets(
    h: Graph, g: Graph, candidates: Callable[[Graph], Candidates]
) -> list[int] | None:
    """Disjoint vertex sets of ``g``, one per vertex of ``h`` (as masks
    indexed by it), with an edge of ``g`` between the two sets of every
    edge of ``h``; ``None`` if there are none.

    ``candidates(g)`` lists the sets a vertex may take as (mask,
    neighbourhood mask, size) triples sorted by size: singletons give
    subgraph embeddings, connected sets minor models.  The vertices of
    ``h`` are placed most-anchored first, then by degree.  Each takes the
    first candidate that avoids the sets placed, touches the set of every
    placed neighbour, and has at least as many neighbours as the vertex
    has; that last test is exact because the neighbours' sets are disjoint.
    """
    check_size_cap(h)
    check_size_cap(g)
    if h.vertex_count > g.vertex_count or h.edge_count > g.edge_count:
        return None
    hm = h.neighbor_masks
    degree = [m.bit_count() for m in hm]
    order: list[int] = []
    placed = 0
    for _ in h.vertices:
        pick = max(
            (v for v in h.vertices if not (placed >> v) & 1),
            key=lambda v: ((hm[v] & placed).bit_count(), degree[v], -v),
        )
        order.append(pick)
        placed |= 1 << pick
    anchors = [[w for w in order[:i] if (hm[v] >> w) & 1] for i, v in enumerate(order)]
    options = candidates(g)
    sets = [0] * h.vertex_count
    nbrs = [0] * h.vertex_count

    def assign(i: int, used: int, budget: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        need = degree[v]
        touch = [nbrs[w] for w in anchors[i]]
        room = budget - (len(order) - i - 1)
        for mask, nbr, size in options:
            if size > room:
                break  # the candidates come by size, so the rest are too big
            if mask & used or nbr.bit_count() < need:
                continue
            if any(not t & mask for t in touch):
                continue
            sets[v] = mask
            nbrs[v] = nbr
            if assign(i + 1, used | mask, budget - size):
                return True
        return False

    return sets if assign(0, 0, g.vertex_count) else None


def _singletons(g: Graph) -> Candidates:
    return [(1 << v, m, 1) for v, m in enumerate(g.neighbor_masks)]


def _connected_subsets(g: Graph) -> Candidates:
    """All vertex subsets inducing a connected subgraph, as (mask,
    neighborhood-mask, size) triples sorted by size, each subset
    enumerated exactly once."""
    n = g.vertex_count
    masks = g.neighbor_masks
    out: Candidates = []

    def grow(cur: int, nbr: int, banned: int) -> None:
        # nbr is the neighbourhood of cur.
        out.append((cur, nbr, cur.bit_count()))
        ext = nbr & ~banned
        taken = banned
        while ext:
            low = ext & -ext
            ext ^= low
            new = cur | low
            grow(new, (nbr | masks[low.bit_length() - 1]) & ~new, taken)
            taken |= low

    for v in range(n):
        # Subsets whose minimum vertex is v: never grow below v.
        grow(1 << v, masks[v], (1 << v) - 1)
    out.sort(key=lambda t: (t[2], t[0]))
    return out


def subgraph_embedding(h: Graph, g: Graph) -> dict[int, int] | None:
    """An injective map sending every edge of ``h`` onto an edge of ``g``,
    or ``None`` if no such map exists: the branch-set search over
    singleton sets."""
    sets = _branch_sets(h, g, _singletons)
    return None if sets is None else {v: m.bit_length() - 1 for v, m in enumerate(sets)}


def is_subgraph(h: Graph, g: Graph) -> bool:
    """True iff ``h`` embeds into ``g`` up to isomorphism."""
    return subgraph_embedding(h, g) is not None
