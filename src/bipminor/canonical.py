"""Exact canonical forms, automorphisms and isomorphism tests for small graphs.

The canonical form of a graph is the lexicographically minimal
upper-triangular adjacency bit sequence over all vertex orderings, read
column by column (the same bit order graph6 uses).  It is computed by
branch and bound over partial orderings.  Placing a vertex at position j
fixes column j: its adjacency to the j vertices placed before it, first
placed most significant.

- **Cells.**  The unplaced vertices are held as an ordered list of
  ``(column value, vertex mask)`` cells, one per distinct running column,
  in increasing column order.  Placing ``u`` splits every cell by
  ``masks[u]`` (non-neighbours first), which keeps the list sorted.
  Columns have fixed width, so only the vertices of the first cell can
  reach the optimum; they are tried in increasing vertex order.
- **Incumbent.**  A node whose prefix equals the best leaf's prefix is
  cut when its column exceeds the best's column at that depth.  A node
  whose prefix is already smaller is not compared, until a leaf below it
  becomes the new best; from then on its remaining children are compared
  against that best too (the re-tie).
- **Automorphisms.**  A leaf whose bits equal the best leaf's gives the
  automorphism mapping the best ordering onto it (McKay, *Practical graph
  isomorphism*, 1981).  The search then backjumps to the node where the
  two orderings part, since the subtree it left is the image of one
  already searched.  At every node, a candidate is skipped when an
  automorphism found so far that fixes the node's prefix pointwise maps
  an already tried sibling onto it.  The transpositions of twin vertices
  (vertices that agree off each other) seed the list of automorphisms.

Pruning never removes a subtree whose minimum was not reached elsewhere,
so the result is the exact minimum.  The automorphisms found generate the
full automorphism group, and ``automorphism_generators`` returns them, so
a caller can act on orbits (``relations._moves`` emits one successor move
per orbit).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_core import Graph, GraphError, build, check_size_cap

# A permutation ``p`` of the vertices maps vertex ``v`` to ``p[v]``.
Perm = tuple[int, ...]

_cache: dict[Graph, tuple["CanonicalForm", tuple[Perm, ...]]] = {}


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Isomorphism-invariant fingerprint of a graph.

    ``canonical_bits`` packs the minimal upper-triangle sequence into an
    integer of ``vertex_count * (vertex_count - 1) / 2`` bits, first bit
    most significant.  Two graphs have equal forms iff they are isomorphic.
    """

    vertex_count: int
    canonical_bits: int

    def bit_length(self) -> int:
        return self.vertex_count * (self.vertex_count - 1) // 2

    def to_graph(self) -> Graph:
        """Rebuild the canonically labelled representative graph."""
        n = self.vertex_count
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        bits = format(self.canonical_bits, f"0{len(pairs)}b")
        return build(n, [pair for pair, bit in zip(pairs, bits) if bit == "1"])


def canonical_form(g: Graph, cap: int | None = None) -> CanonicalForm:
    """Canonical form of ``g``; rejects graphs above the size cap
    (``graph_core.resolve_size_cap``)."""
    return _labelling(g, cap)[0]


def automorphism_generators(g: Graph, cap: int | None = None) -> tuple[Perm, ...]:
    """Permutations of ``g``'s vertices that generate its automorphism
    group (empty when the group is trivial); computed with, and cached
    beside, the canonical form."""
    return _labelling(g, cap)[1]


def _labelling(g: Graph, cap: int | None) -> tuple[CanonicalForm, tuple[Perm, ...]]:
    check_size_cap(g, cap)
    cached = _cache.get(g)
    if cached is None:
        bits, generators = _minimal_bits(g)
        cached = (CanonicalForm(g.vertex_count, bits), generators)
        _cache[g] = cached
    return cached


def are_isomorphic(g: Graph, h: Graph, cap: int | None = None) -> bool:
    """True iff an edge-preserving vertex bijection exists."""
    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return False
    if _degree_profile(g) != _degree_profile(h):
        return False
    return canonical_form(g, cap) == canonical_form(h, cap)


def _degree_profile(g: Graph) -> tuple:
    adj = g.adjacency
    degs = [len(a) for a in adj]
    per_vertex = sorted(
        (degs[v], tuple(sorted(degs[w] for w in adj[v]))) for v in g.vertices
    )
    return tuple(per_vertex)


def _orbit(mask: int, generators: list[Perm] | tuple[Perm, ...]) -> int:
    """The union of the orbits of the vertices in ``mask``, as a mask."""
    covered = frontier = mask
    while frontier:
        image = 0
        for p in generators:
            f = frontier
            while f:
                low = f & -f
                image |= 1 << p[low.bit_length() - 1]
                f ^= low
        frontier = image & ~covered
        covered |= frontier
    return covered


def _twin_transpositions(masks: tuple[int, ...]) -> list[Perm]:
    """Transpositions of consecutive members of each twin class.  Twins
    agree off each other, so swapping them is an automorphism; being
    twins is an equivalence relation."""
    n = len(masks)
    out: list[Perm] = []
    classed = 0
    for u in range(n):
        if (classed >> u) & 1:
            continue
        prev = u
        for v in range(u + 1, n):
            if masks[u] & ~(1 << v) == masks[v] & ~(1 << u):
                classed |= 1 << v
                p = list(range(n))
                p[prev], p[v] = v, prev
                out.append(tuple(p))
                prev = v
    return out


def _place(cells: list, bit: int, mu: int) -> list:
    """The cells after placing the vertex ``bit`` with neighbour mask
    ``mu``: each cell loses it and splits into non-neighbours (column bit
    0) and neighbours (column bit 1), which keeps the cells sorted."""
    out = []
    for c, m in cells:
        m &= ~bit
        if m:
            hi = m & mu
            if m != hi:
                out.append((c << 1, m ^ hi))
            if hi:
                out.append((c << 1 | 1, hi))
    return out


def _minimal_bits(g: Graph) -> tuple[int, tuple[Perm, ...]]:
    n = g.vertex_count
    if n <= 1:
        return 0, ()
    masks = g.neighbor_masks

    generators = _twin_transpositions(masks)
    # fixed[i]: the vertices that generators[i] maps to themselves.
    fixed = [sum(1 << v for v in range(n) if p[v] == v) for p in generators]

    best_cols: list[int] = []
    best_order: list[int] = []
    improvements = 0  # how often best has changed
    cols: list[int] = []  # column chosen at each depth of the current path
    order: list[int] = []  # vertex placed at each depth of the current path

    def extend(depth: int, placed: int, cells: list, tied: bool) -> int:
        """Search below the current path; ``tied`` says its columns equal
        the best leaf's so far.  Returns the depth of the node the search
        resumes at: ``n`` to go on normally, less to backjump.  Appends to
        ``cols`` and ``order``, which the caller truncates."""
        nonlocal improvements
        while True:
            if not cells:
                if tied:
                    perm = [0] * n
                    for b, o in zip(best_order, order):
                        perm[b] = o
                    generators.append(tuple(perm))
                    fixed.append(sum(1 << v for v in range(n) if perm[v] == v))
                    k = 0
                    while best_order[k] == order[k]:
                        k += 1
                    return k
                best_cols[:] = cols
                best_order[:] = order
                improvements += 1
                return n
            min_col, candidates = cells[0]
            if tied:
                ref = best_cols[depth]
                if min_col > ref:
                    return n
                tied = min_col == ref
            if candidates & (candidates - 1):
                break
            # A lone candidate is placed without branching.
            cells = _place(cells, candidates, masks[candidates.bit_length() - 1])
            cols.append(min_col)
            order.append(candidates.bit_length() - 1)
            placed |= candidates
            depth += 1

        child_tied = tied
        entry_improvements = improvements
        tried = 0
        # pruned: the orbit of the tried candidates under the automorphisms
        # fixing the prefix, recomputed when an automorphism is found.
        pruned = 0
        stabiliser: list[Perm] = []
        known = -1
        rest = candidates
        while rest:
            bit = rest & -rest
            rest ^= bit
            if pruned & bit:
                continue
            u = bit.bit_length() - 1
            cols.append(min_col)
            order.append(u)
            jump = extend(depth + 1, placed | bit, _place(cells, bit, masks[u]), child_tied)
            del cols[depth:]
            del order[depth:]
            if jump < depth:
                return jump
            if improvements != entry_improvements:
                # A new best lies below this node, so its prefix is ours.
                child_tied = True
            tried |= bit
            if rest and generators:
                if len(generators) != known:
                    known = len(generators)
                    stabiliser = [
                        p for p, fx in zip(generators, fixed) if not placed & ~fx
                    ]
                    pruned = _orbit(tried, stabiliser)
                elif stabiliser:
                    pruned |= _orbit(bit, stabiliser)
        return n

    extend(0, 0, [(0, (1 << n) - 1)], False)

    bits = 0
    for j, col in enumerate(best_cols):
        bits = (bits << j) | col
    return bits, tuple(generators)


def permute(g: Graph, order: list[int] | tuple[int, ...]) -> Graph:
    """Relabel ``g`` so old vertex ``order[i]`` becomes new vertex ``i``."""
    if sorted(order) != list(g.vertices):
        raise GraphError("order must be a permutation of the vertices")
    pos = {v: i for i, v in enumerate(order)}
    return build(g.vertex_count, [(pos[u], pos[v]) for u, v in g.edges])
