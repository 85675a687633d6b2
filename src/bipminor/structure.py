"""Connectivity, blocks, induced and non-separating cycles, and subgraph
containment.

Two notions of k-connectivity are provided.  The default ("paper") asks
that removing any vertex set of size at most k-1 leaves a connected graph,
so the single edge counts as 2-connected.  The "standard" mode additionally
requires at least k+1 vertices.  A graph with exactly one component is
connected; the empty graph has zero components and is not.  Every
connectivity question here and in ``relations`` is answered by ``reach``
on neighbour masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph_core import (
    Edge,
    Graph,
    GraphError,
    build,
    check_size_cap,
    normalize_edge,
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


def components(g: Graph) -> tuple[frozenset[int], ...]:
    """Maximal connected vertex sets, ordered by smallest member."""
    left = (1 << g.vertex_count) - 1
    parts: list[frozenset[int]] = []
    while left:
        comp = reach(g, left & -left, left)
        left ^= comp
        parts.append(frozenset(v for v in g.vertices if (comp >> v) & 1))
    return tuple(parts)


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
    """
    n = g.vertex_count
    adj = [sorted(g.adjacency[v]) for v in range(n)]
    disc = [-1] * n
    low = [0] * n
    timer = 0
    edge_stack: list[Edge] = []
    raw_blocks: list[list[Edge]] = []
    cut: set[int] = set()

    def settle(v: int, w: int) -> None:
        stop = normalize_edge(v, w)
        piece: list[Edge] = []
        while True:
            e = edge_stack.pop()
            piece.append(e)
            if e == stop:
                break
        raw_blocks.append(piece)

    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack: list[list[int]] = [[root, -1, 0]]
        while stack:
            frame = stack[-1]
            v, parent, idx = frame
            if idx < len(adj[v]):
                frame[2] += 1
                w = adj[v][idx]
                if disc[w] == -1:
                    if v == root:
                        root_children += 1
                    edge_stack.append(normalize_edge(v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append([w, v, 0])
                elif w != parent and disc[w] < disc[v]:
                    edge_stack.append(normalize_edge(v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] >= disc[pv]:
                        # One block per subtree that cannot reach above pv.
                        if pv != root:
                            cut.add(pv)
                        settle(pv, v)
        if root_children > 1:
            cut.add(root)

    out = []
    for piece in raw_blocks:
        verts = frozenset(x for e in piece for x in e)
        out.append(Block(verts, frozenset(piece)))
    out.sort(key=lambda b: (min(b.vertices), sorted(b.vertices), sorted(b.edges)))
    return BlockDecomposition(tuple(out), frozenset(cut))


def is_cycle(g: Graph, seq: Cycle) -> bool:
    """Valid cycle of ``g``: at least 3 distinct vertices, consecutive
    pairs adjacent (indices wrap around)."""
    m = len(seq)
    if m < 3 or len(set(seq)) != m:
        return False
    if any(not 0 <= v < g.vertex_count for v in seq):
        return False
    return all(g.has_edge(seq[i], seq[(i + 1) % m]) for i in range(m))


def is_induced_cycle(g: Graph, seq: Cycle) -> bool:
    """True iff the cycle has no chord."""
    if not is_cycle(g, seq):
        raise GraphError(f"not a cycle of the graph: {seq}")
    m = len(seq)
    for i in range(m):
        for j in range(i + 1, m):
            if (j - i) % m in (1, m - 1):
                continue
            if g.has_edge(seq[i], seq[j]):
                return False
    return True


def is_nonseparating(g: Graph, vertex_set) -> bool:
    """Deleting the set does not increase the number of components."""
    rest = (1 << g.vertex_count) - 1
    for v in vertex_set:
        g.check_vertex(v)
        rest &= ~(1 << v)
    return _count_components(g, rest) <= component_count(g)


def _induced_cycles(g: Graph) -> list[tuple[Cycle, int]]:
    """All chordless cycles as canonical tuples, each with its vertex mask:
    smallest vertex first, oriented toward its smaller cycle neighbor.

    Grows induced paths from each start s using only vertices above s; a
    candidate adjacent to s closes a cycle and never extends the path.
    """
    n = g.vertex_count
    masks = g.neighbor_masks
    out: list[tuple[Cycle, int]] = []

    def extend(s: int, path: list[int], path_mask: int) -> None:
        last = path[-1]
        second = path[1]
        mid_mask = path_mask & ~(1 << s) & ~(1 << last)
        for w in range(s + 1, n):
            if (path_mask >> w) & 1:
                continue
            mw = masks[w]
            if not (mw >> last) & 1 or mw & mid_mask:
                continue
            if (mw >> s) & 1:
                if w > second:
                    out.append((tuple(path) + (w,), path_mask | (1 << w)))
            else:
                path.append(w)
                extend(s, path, path_mask | (1 << w))
                path.pop()

    for s in range(n):
        above = masks[s] >> (s + 1) << (s + 1)
        while above:
            low = above & -above
            above ^= low
            extend(s, [s, low.bit_length() - 1], (1 << s) | low)
    return out


def peripheral_cycles(g: Graph, cap: int | None = None) -> tuple[Cycle, ...]:
    """Every induced non-separating cycle, each reported once up to
    rotation and reflection, sorted by length then lexicographically."""
    check_size_cap(g, cap)
    base = component_count(g)
    full = (1 << g.vertex_count) - 1
    found = [
        c for c, mask in _induced_cycles(g) if _count_components(g, full ^ mask) <= base
    ]
    return tuple(sorted(found, key=lambda c: (len(c), c)))


def subgraph_embedding(
    h: Graph, g: Graph, cap: int | None = None
) -> dict[int, int] | None:
    """An injective map sending every edge of ``h`` onto an edge of ``g``,
    or ``None`` if no such map exists."""
    check_size_cap(h, cap)
    check_size_cap(g, cap)
    if h.vertex_count > g.vertex_count or h.edge_count > g.edge_count:
        return None
    if h.vertex_count == 0:
        return {}

    deg_h = [h.degree(v) for v in h.vertices]
    deg_g = [g.degree(v) for v in g.vertices]

    # Order h's vertices so each one (after the first of a component) has a
    # previously placed neighbor: failures surface early.
    order: list[int] = []
    placed: set[int] = set()
    while len(order) < h.vertex_count:
        pick = max(
            (v for v in h.vertices if v not in placed),
            key=lambda v: (sum(w in placed for w in h.adjacency[v]), deg_h[v], -v),
        )
        order.append(pick)
        placed.add(pick)

    image: dict[int, int] = {}
    used = [False] * g.vertex_count

    def assign(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        anchors = [image[w] for w in h.adjacency[v] if w in image]
        for c in g.vertices:
            if used[c] or deg_g[c] < deg_h[v]:
                continue
            if any(not g.has_edge(c, a) for a in anchors):
                continue
            image[v] = c
            used[c] = True
            if assign(i + 1):
                return True
            used[c] = False
            del image[v]
        return False

    return dict(sorted(image.items())) if assign(0) else None


def is_subgraph(h: Graph, g: Graph, cap: int | None = None) -> bool:
    """True iff ``h`` embeds into ``g`` up to isomorphism."""
    return subgraph_embedding(h, g, cap) is not None
