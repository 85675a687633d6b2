"""Exact canonical forms, automorphisms and isomorphism tests for small graphs.

The canonical form of a graph is the lexicographically minimal
upper-triangular adjacency bit sequence over all vertex orderings, read
column by column (the same bit order graph6 uses).  Each isomorphism
class is labelled once per process; every other graph of the class is
matched to the labelled one.

**The class cache.**  A graph's certificate is the hash of the sorted
colour-refinement (1-WL) signatures of every round from the all-equal
colouring.  It is built from ints only, so it does not depend on the
hash seed.  Under its certificate the cache keeps each class's
representative, the first graph of the class labelled, with its stable
colouring, form, automorphism generators and path.  A graph that is not
itself a representative is refined and matched against each
representative under its certificate by an individualisation-refinement
isomorphism search (McKay 1981; McKay and Piperno, *Practical graph
isomorphism II*, 2014) that checks every edge at the leaf, so
non-isomorphic graphs that share a certificate, such as ``C_6`` and two
triangles, are never confused.  The representative's side of that search
is one chain of individualised cells and refined colourings, the same
for every graph matched against it; it is kept as the representative's
path, built one level at a time as matches first reach it, with a hash
of each level's refinement rounds, so a match refines only the graph's
own side.  A hash that agrees only admits a branch; the leaf's edge check
still decides.  On a match ``phi`` (graph vertex ``v`` to representative
vertex ``phi[v]``) the graph gets the representative's form and its
generators conjugated by ``phi``, ``q[v] = inv[p[phi[v]]]``, which
generate the graph's own automorphism group, and the form memo keeps the
form under the graph's neighbour masks, so ``canonical_form`` matches
each labelled graph once.  Only a graph that matches no representative
is labelled, and it becomes a representative.  The cache and the memo
each start again empty once they hold more than ``STORE_LIMIT`` entries,
the limit that also bounds ``relations._store``, and the memo empties
with the cache; no result depends on what they hold.  ``are_isomorphic``
compares two certificates and runs the same search on a path of its own,
and labels neither graph.

**Labelling** is a branch and bound over partial orderings.  Placing a
vertex at position j fixes column j: its adjacency to the j vertices
placed before it, first placed most significant.

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
  against that best too (the re-tie).  At a node whose prefix equals the
  best's, the cells also bound every remaining column: the vertices are
  placed in cell order, so column ``depth + k`` is at least ``c_k << k``,
  ``c_k`` the k-th cell value counted with multiplicity.  The node is cut
  when that bound sequence exceeds the best's remaining columns at their
  first difference.  Every leaf below a cut node is worse than the best,
  so the search finds the same best leaves and automorphisms without it.
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
full automorphism group, and ``automorphism_generators`` returns them (or
their conjugates), so a caller can act on orbits (``relations._moves``
emits one successor move per orbit); only the generating set, never the
group, depends on which graph of the class was labelled first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph_core import Graph, GraphError, build, check_size_cap

# A permutation ``p`` of the vertices maps vertex ``v`` to ``p[v]``.
Perm = tuple[int, ...]

# Entries a process-wide cache may hold: the class cache below and the
# closure store in ``relations`` start again empty once past it.
STORE_LIMIT = 20_000

# One level of a representative's individualisation-refinement path: the
# cell individualised, the refined colouring and the hash of the rounds.
Level = tuple[int, tuple[int, ...], int]

# The class cache: each representative maps to its stable colouring, form,
# generators and path, and each certificate to its representatives.  The
# form memo maps the neighbour masks of each graph matched to its form.
_reps: dict[Graph, tuple[tuple[int, ...], "CanonicalForm", tuple[Perm, ...], list[Level]]] = {}
_classes: dict[int, list[Graph]] = {}
_forms: dict[tuple[int, ...], "CanonicalForm"] = {}


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
    check_size_cap(g, cap)
    form = _forms.get(g.neighbor_masks)
    return _labelling(g)[0] if form is None else form


def automorphism_generators(g: Graph, cap: int | None = None) -> tuple[Perm, ...]:
    """Permutations of ``g``'s vertices that generate its automorphism
    group (empty when the group is trivial); computed with, or conjugated
    from, the canonical form of its class."""
    check_size_cap(g, cap)
    return _labelling(g)[1]


def clear_cache() -> None:
    """Empty the class cache and the form memo."""
    _reps.clear()
    _classes.clear()
    _forms.clear()


def _labelling(g: Graph) -> tuple[CanonicalForm, tuple[Perm, ...]]:
    rep = _reps.get(g)
    if rep is not None:
        return rep[1], rep[2]
    nbrs, colours, rounds = _stable(g)
    key = hash((g.vertex_count, *rounds))
    for r in _classes.get(key, ()):
        r_colours, form, generators, path = _reps[r]
        phi = _isomorphism(nbrs, colours, r, r_colours, path)
        if phi is not None:
            if len(_forms) > STORE_LIMIT:
                _forms.clear()
            _forms[g.neighbor_masks] = form
            inv = [0] * g.vertex_count
            for v, w in enumerate(phi):
                inv[w] = v
            return form, tuple(tuple(inv[p[w]] for w in phi) for p in generators)
    if len(_reps) > STORE_LIMIT:
        clear_cache()
    bits, generators = _minimal_bits(g)
    form = CanonicalForm(g.vertex_count, bits)
    _reps[g] = (tuple(colours), form, generators, [])
    _classes.setdefault(key, []).append(g)
    return form, generators


def are_isomorphic(g: Graph, h: Graph, cap: int | None = None) -> bool:
    """True iff an edge-preserving vertex bijection exists."""
    check_size_cap(g, cap)
    check_size_cap(h, cap)
    g_nbrs, g_colours, g_rounds = _stable(g)
    h_colours, h_rounds = _stable(h)[1:]
    if g_rounds != h_rounds:
        return False
    return _isomorphism(g_nbrs, g_colours, h, h_colours, []) is not None


def _stable(g: Graph) -> tuple[list[list[int]], list[int], list[tuple[tuple, ...]]]:
    """``g``'s neighbour lists, and its stable colouring and refinement
    rounds from the all-equal colouring (the rounds are the certificate)."""
    nbrs = _neighbours(g)
    return (nbrs, *_refine(nbrs, [0] * g.vertex_count))


def _refine(
    nbrs: list[list[int]], colours: Sequence[int]
) -> tuple[Sequence[int], list[tuple[tuple, ...]]]:
    """Colour refinement (1-WL) of ``colours``, which must be the integers
    ``0..k-1``, to the coarsest stable colouring that refines it.  Each
    round gives a vertex the signature (its colour, its neighbours' colours
    sorted) and recolours it by the rank of its signature, so colours
    depend on no labelling.  Returns the stable colouring and the sorted
    signatures of every round."""
    n = len(colours)
    count = max(colours, default=-1) + 1
    rounds = []
    while count < n:
        get = colours.__getitem__
        sigs = [(c, *sorted(map(get, nb))) for c, nb in zip(colours, nbrs)]
        ordered = tuple(sorted(sigs))
        rounds.append(ordered)
        rank = {s: i for i, s in enumerate(dict.fromkeys(ordered))}
        if len(rank) == count:
            break
        colours = [rank[s] for s in sigs]
        count = len(rank)
    return colours, rounds


def _neighbours(g: Graph) -> list[list[int]]:
    """Each vertex's neighbours in increasing order."""
    n = g.vertex_count
    return [[w for w in range(n) if (m >> w) & 1] for m in g.neighbor_masks]


def _isomorphism(
    g_nbrs: list[list[int]],
    g_colours: Sequence[int],
    h: Graph,
    h_colours: Sequence[int],
    path: list[Level],
) -> list[int] | None:
    """An isomorphism ``phi`` from g onto h (``phi[v]`` is the image of
    ``v``) that respects the two stable colourings, or ``None``.

    Individualisation-refinement (McKay 1981): while h's colouring has a
    cell of two or more vertices, the lowest vertex of the first such cell
    gets a colour of its own and h is refined again; each vertex of g's
    cell of that colour is tried in its place, and a branch whose
    refinement rounds hash differently from h's is cut.  At a discrete
    colouring the vertices pair up by colour, and the pairing is returned
    only if it is a bijection that maps every neighbourhood onto its
    image's.  h's side is one chain, the same for every g: ``path`` holds
    its levels from ``h_colours`` on, and the search extends it as it goes
    deeper, so a path kept with h is refined once for all its matches."""
    n = len(g_nbrs)
    h_masks = h.neighbor_masks
    if len(h_masks) != n:
        return None
    h_nbrs: list[list[int]] | None = None

    def search(depth: int, gc: Sequence[int], hc: Sequence[int]) -> list[int] | None:
        nonlocal h_nbrs
        count = max(hc, default=-1) + 1
        if count == n:
            at = [0] * n
            for w, c in enumerate(hc):
                at[c] = w
            phi = [at[c] for c in gc]
            if len(set(phi)) != n:
                return None
            for v, nb in enumerate(g_nbrs):
                image = 0
                for w in nb:
                    image |= 1 << phi[w]
                if image != h_masks[phi[v]]:
                    return None
            return phi
        if depth == len(path):
            if h_nbrs is None:
                h_nbrs = _neighbours(h)
            sizes = [0] * count
            for c in hc:
                sizes[c] += 1
            cell = next(c for c, size in enumerate(sizes) if size > 1)
            h_split = list(hc)
            h_split[hc.index(cell)] = count
            h_next, h_rounds = _refine(h_nbrs, h_split)
            path.append((cell, tuple(h_next), hash(tuple(h_rounds))))
        cell, h_next, h_hash = path[depth]
        for y, c in enumerate(gc):
            if c != cell:
                continue
            g_split = list(gc)
            g_split[y] = count
            g_next, g_rounds = _refine(g_nbrs, g_split)
            if hash(tuple(g_rounds)) == h_hash:
                phi = search(depth + 1, g_next, h_next)
                if phi is not None:
                    return phi
        return None

    return search(0, g_colours, h_colours)


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


def _beyond(cells: list, best_cols: list[int], depth: int) -> bool:
    """True when every leaf below a node whose columns so far equal the
    best leaf's is worse than it.  The search places from the first cell,
    so the vertices are placed in cell order and column ``depth + k`` is at
    least ``c_k << k``, ``c_k`` the k-th cell value counted with
    multiplicity.  Only a first difference of that bound from the best
    columns that is greater decides; a smaller one says nothing, since the
    low bits of later columns are still free."""
    k = depth
    for c, m in cells:
        for _ in range(m.bit_count()):
            bound = c << (k - depth)
            ref = best_cols[k]
            if bound != ref:
                return bound > ref
            k += 1
    return False


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
                if tied and _beyond(cells, best_cols, depth):
                    return n
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
