"""Immutable simple graphs and the elementary operations on them.

Vertices are the dense integers ``0..vertex_count-1``, and a graph is its
vertex count plus one neighbour bitmask per vertex; the edge set and each
vertex's neighbour set are derived from the masks.  Every operation works
on the masks and returns a fresh graph, relabelled compactly, so a
recorded sequence of operations replays to the same labelled graph on
every run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Sequence

Edge = tuple[int, int]

DEFAULT_SIZE_CAP = 14
SIZE_CAP_ENV = "BIPMINOR_SIZE_CAP"


class GraphError(ValueError):
    """Invalid graph construction, operation argument, or input data."""


class SizeCapExceeded(GraphError):
    """Input graph is larger than the active size cap."""


def check_size_cap(g: "Graph") -> None:
    """Raise SizeCapExceeded if ``g`` has more vertices than the search cap:
    BIPMINOR_SIZE_CAP if set, a nonnegative integer, else 14."""
    env = os.environ.get(SIZE_CAP_ENV, "").strip()
    try:
        cap = int(env) if env else DEFAULT_SIZE_CAP
    except ValueError:
        cap = -1
    if cap < 0:
        raise GraphError(f"bad {SIZE_CAP_ENV} value: {env!r}")
    if g.vertex_count > cap:
        raise SizeCapExceeded(f"graph has {g.vertex_count} vertices, size cap is {cap}")


@dataclass(frozen=True, slots=True)
class Graph:
    """A finite simple undirected graph on vertices ``0..vertex_count-1``.

    ``neighbor_masks[v]`` has bit ``w`` set iff ``vw`` is an edge; the masks
    are the graph's only data, and ``edges``, ``neighbors(v)`` and
    ``edge_count`` are views derived from them.  Construction rejects masks
    of the wrong length, bits at or above ``vertex_count``, loops, and
    edges recorded at one end only; the operations below skip those checks,
    since an operation on a valid graph yields valid masks.  Instances are
    immutable and hashable.
    """

    vertex_count: int
    neighbor_masks: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.vertex_count
        masks = self.neighbor_masks
        if n < 0:
            raise GraphError("vertex_count must be nonnegative")
        if len(masks) != n:
            raise GraphError(f"expected {n} neighbor masks, got {len(masks)}")
        upper = 0  # edges vw with v < w, each checked at both ends
        for v, m in enumerate(masks):
            if m >> n:
                raise GraphError(f"neighbor mask of vertex {v} has a bit at or above {n}")
            if (m >> v) & 1:
                raise GraphError(f"loop edge at vertex {v}")
            m >>= v + 1
            upper += m.bit_count()
            while m:
                low = m & -m
                w = v + low.bit_length()
                if not (masks[w] >> v) & 1:
                    raise GraphError(f"edge ({v}, {w}) recorded at one end only")
                m ^= low
        # Each upper bit has its lower partner, so equal counts leave no
        # lower bit without one.
        if sum(map(int.bit_count, masks)) != 2 * upper:
            raise GraphError("an edge is recorded at one end only")

    @property
    def edges(self) -> frozenset[Edge]:
        """The edges as normalized pairs ``(u, v)`` with ``u < v``."""
        out = []
        for u, m in enumerate(self.neighbor_masks):
            m >>= u + 1
            while m:
                low = m & -m
                out.append((u, u + low.bit_length()))
                m ^= low
        return frozenset(out)

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.neighbor_masks)) >> 1

    @property
    def vertices(self) -> range:
        return range(self.vertex_count)

    def neighbors(self, v: int) -> frozenset[int]:
        self.check_vertex(v)
        m = self.neighbor_masks[v]
        return frozenset(w for w in range(self.vertex_count) if (m >> w) & 1)

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return self.neighbor_masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        n = self.vertex_count
        return 0 <= u < n and 0 <= v < n and bool((self.neighbor_masks[u] >> v) & 1)

    def check_vertex(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise GraphError(
                f"vertex {v} out of range for graph on {self.vertex_count} vertices"
            )

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, edges={sorted(self.edges)})"


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def build(vertex_count: int, edge_list: Iterable[Sequence[int]]) -> Graph:
    """Build a graph from an edge list, rejecting loops, duplicates, and
    out-of-range endpoints with distinct diagnostics."""
    if vertex_count < 0:
        raise GraphError("vertex_count must be nonnegative")
    masks = [0] * vertex_count
    for pair in edge_list:
        u, v = pair
        if u == v:
            raise GraphError(f"loop edge at vertex {u}")
        if not 0 <= u < vertex_count or not 0 <= v < vertex_count:
            raise GraphError(f"edge endpoint out of range: ({u}, {v})")
        if (masks[u] >> v) & 1:
            raise GraphError(f"duplicate edge: ({u}, {v})")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(vertex_count, tuple(masks))


def upper_bits(g: Graph) -> int:
    """The upper triangle of the adjacency matrix read column by column
    (x01, x02, x12, x03, ...), first pair most significant: the bit order
    of canonical forms and graph6."""
    bits = 0
    for j, m in enumerate(g.neighbor_masks):
        # Bit j - 1 - i of column j is the pair ij; walk the set bits only,
        # as ``from_upper_bits`` does.
        below = m & ((1 << j) - 1)
        col = 0
        while below:
            low = below & -below
            below ^= low
            col |= 1 << (j - low.bit_length())
        bits = (bits << j) | col
    return bits


def from_upper_bits(vertex_count: int, bits: int) -> Graph:
    """The graph on ``vertex_count`` vertices with these ``upper_bits``."""
    n = vertex_count
    if n < 0 or bits < 0 or bits >> (n * (n - 1) // 2):
        raise GraphError(f"{bits} is not an upper triangle on {n} vertices")
    masks = [0] * n
    for j in range(n - 1, 0, -1):  # the columns in reverse, lowest first
        col = bits & ((1 << j) - 1)
        bits >>= j
        # Bit j - 1 - i of column j is the pair ij; walk the set bits only.
        while col:
            low = col & -col
            col ^= low
            i = j - low.bit_length()
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return _derived(n, tuple(masks))


def _derived(vertex_count: int, masks: tuple[int, ...]) -> Graph:
    """A graph made by an operation on a valid graph, whose masks are
    valid by construction, so the constructor's checks are skipped."""
    g = object.__new__(Graph)
    object.__setattr__(g, "vertex_count", vertex_count)
    object.__setattr__(g, "neighbor_masks", masks)
    return g


def _drop(masks: Sequence[int], removed: int) -> tuple[int, ...]:
    """The masks of the vertices outside ``removed``, with those vertices
    taken out and the rest relabelled compactly in their old order."""
    # One cut per removed vertex, highest first, so that the positions
    # still to cut stay put: a cut keeps the bits below it and shifts the
    # bits above it down by one.
    cuts = []
    r = removed
    while r:
        top = r.bit_length() - 1
        cuts.append((1 << top) - 1)
        r ^= 1 << top
    out = []
    for x, m in enumerate(masks):
        if not (removed >> x) & 1:
            for below in cuts:
                m = (m & below) | ((m >> 1) & ~below)
            out.append(m)
    return tuple(out)


def strip_isolated(g: Graph) -> tuple[Graph, int]:
    """``g`` without its isolated vertices, the rest relabelled compactly
    in their old order, and how many there were."""
    isolated = 0
    for v, m in enumerate(g.neighbor_masks):
        if not m:
            isolated |= 1 << v
    if not isolated:
        return g, 0
    k = isolated.bit_count()
    return _derived(g.vertex_count - k, _drop(g.neighbor_masks, isolated)), k


def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove ``v`` and its incident edges; labels above ``v`` shift down."""
    g.check_vertex(v)
    return _derived(g.vertex_count - 1, _drop(g.neighbor_masks, 1 << v))


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    """Remove the edge ``uv``; the vertex set is unchanged."""
    g.check_vertex(u)
    g.check_vertex(v)
    if not g.has_edge(u, v):
        raise GraphError(f"not an edge: ({u}, {v})")
    masks = list(g.neighbor_masks)
    masks[u] ^= 1 << v
    masks[v] ^= 1 << u
    return _derived(g.vertex_count, tuple(masks))


def _merged(masks: Sequence[int], u: int, v: int) -> tuple[int, ...]:
    """The masks after merging ``v`` into ``u``: u takes v's neighbours,
    v goes, and the labels above v shift down by one."""
    bu, bv = 1 << u, 1 << v
    # Dropping v keeps the bits below it and shifts those above down.
    below, above = bv - 1, -bv
    out = []
    for x, m in enumerate(masks):
        if x == u:
            m = (m | masks[v]) & ~(bu | bv)
        elif x == v:
            continue
        elif m & bv:
            m |= bu
        out.append((m & below) | ((m >> 1) & above))
    return tuple(out)


def contract_set(g: Graph, vertex_set: Iterable[int]) -> Graph:
    """Contract a vertex set to a single new vertex.

    The new vertex is adjacent to every vertex outside the set that had a
    neighbor inside it, parallel edges collapse, and it takes the label
    position of the smallest contracted vertex; all other survivors keep
    their relative order.
    """
    members = sorted(set(vertex_set))
    if not members:
        raise GraphError("cannot contract an empty vertex set")
    for v in members:
        g.check_vertex(v)
    # Highest first, so that the members still to merge keep their labels.
    masks = g.neighbor_masks
    for v in reversed(members[1:]):
        masks = _merged(masks, members[0], v)
    return _derived(len(masks), masks)


@dataclass(frozen=True)
class Bipartition:
    """Two-coloring of the vertices; ``side_of[v]`` is 0 or 1."""

    side_of: tuple[int, ...]

    def classes(self) -> tuple[frozenset[int], ...]:
        return (
            frozenset(v for v, s in enumerate(self.side_of) if s == 0),
            frozenset(v for v, s in enumerate(self.side_of) if s == 1),
        )


def is_bipartite(g: Graph) -> Bipartition | None:
    """Two-color ``g`` if it has no odd cycle, else return ``None``.

    The lowest-indexed vertex of each component is assigned class 0.  The
    walk goes by breadth-first layers of neighbour masks; the odd layers
    form class 1, and an edge inside a layer closes an odd cycle.
    """
    masks = g.neighbor_masks
    left = (1 << g.vertex_count) - 1
    ones = 0
    while left:
        layer, odd = left & -left, False
        while layer:
            left &= ~layer
            if odd:
                ones |= layer
            reached, rest = 0, layer
            while rest:
                low = rest & -rest
                reached |= masks[low.bit_length() - 1]
                rest ^= low
            if reached & layer:
                return None
            layer, odd = reached & left, not odd
    return Bipartition(tuple((ones >> v) & 1 for v in g.vertices))
