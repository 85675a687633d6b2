"""Brute-force oracles used to pin expected values.

Everything here is deliberately naive: vertex deletion, edge deletion
and contraction on edge sets, permutations for isomorphism, injective
maps for subgraph containment, exhaustive cycle enumeration for
chordless / non-separating / block questions, and operation-sequence
searches for the two minor relations.  Trees and connected bipartite
graphs are listed from every Prüfer sequence and from every edge subset
of ``K_{a,b}``.  These stay independent of the library's production
search paths.  The one exception to naivety, ``eager_min_bits``, is an
eager labelling search kept as a second, independently written check on
the lazy one in ``canonical``.  Both labelling oracles minimise over the
orders that list the cells of ``stable_cells`` in turn, as canonical forms
do.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import networkx as nx
from hypothesis import assume
from hypothesis import strategies as st

from bipminor.canonical import K, CanonicalForm, canonical_form
from bipminor.graph_core import Graph, GraphError, build, normalize_edge


# ---------------------------------------------------------------------------
# reference graph operations on edge sets, sharing no code with the
# neighbour-mask operations of ``graph_core``


def permute(g: Graph, order: list[int] | tuple[int, ...]) -> Graph:
    """Relabel ``g`` so old vertex ``order[i]`` becomes new vertex ``i``."""
    if sorted(order) != list(g.vertices):
        raise GraphError("order must be a permutation of the vertices")
    pos = {v: i for i, v in enumerate(order)}
    return build(g.vertex_count, [(pos[u], pos[v]) for u, v in g.edges])


def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove ``v`` and its incident edges; labels above ``v`` shift down."""
    g.check_vertex(v)

    def relabel(x: int) -> int:
        return x if x < v else x - 1

    return build(
        g.vertex_count - 1,
        [(relabel(a), relabel(b)) for a, b in g.edges if v not in (a, b)],
    )


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    """Remove the edge ``uv``; the vertex set is unchanged."""
    g.check_vertex(u)
    g.check_vertex(v)
    if normalize_edge(u, v) not in g.edges:
        raise GraphError(f"not an edge: ({u}, {v})")
    return build(g.vertex_count, g.edges - {normalize_edge(u, v)})


def contract_set(g: Graph, vertex_set: Iterable[int]) -> Graph:
    """Contract a vertex set to one vertex at the slot of its smallest
    member; the other survivors keep their relative order."""
    members = set(vertex_set)
    if not members:
        raise GraphError("cannot contract an empty vertex set")
    for v in members:
        g.check_vertex(v)

    anchor = min(members)
    order = sorted([v for v in g.vertices if v not in members] + [anchor])
    new_label = {v: i for i, v in enumerate(order)}
    merged = new_label[anchor]

    edges: set[tuple[int, int]] = set()
    for a, b in g.edges:
        a_in, b_in = a in members, b in members
        if a_in and b_in:
            continue
        if a_in:
            edges.add(normalize_edge(merged, new_label[b]))
        elif b_in:
            edges.add(normalize_edge(merged, new_label[a]))
        else:
            edges.add(normalize_edge(new_label[a], new_label[b]))
    return build(len(order), edges)


def strip_isolated(g: Graph) -> tuple[Graph, int]:
    """``g`` without its isolated vertices, the rest in their old order, and
    how many there were: each deleted in turn, highest first."""
    touched = {v for e in g.edges for v in e}
    lone = [v for v in g.vertices if v not in touched]
    for v in reversed(lone):
        g = delete_vertex(g, v)
    return g, len(lone)


@st.composite
def graphs(draw, max_vertices=8):
    n = draw(st.integers(0, max_vertices))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build(n, edges)


@st.composite
def pseudoforests(draw, max_vertices=12):
    """A graph each of whose components is a tree or has one cycle: a
    random forest, then in some of its trees one more edge."""
    n = draw(st.integers(0, max_vertices))
    root = list(range(n))
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(-1, v - 1))  # -1 starts a new tree
        if parent >= 0:
            edges.append((parent, v))
            root[v] = root[parent]
    for r in sorted(set(root)):
        tree = [v for v in range(n) if root[v] == r]
        free = [
            (a, b) for a, b in itertools.combinations(tree, 2) if (a, b) not in edges
        ]
        if free and draw(st.booleans()):
            edges.append(draw(st.sampled_from(free)))
    return build(n, edges)


@st.composite
def small_kernels(draw, max_vertices=12):
    """A pseudoforest with one to three edges more: most have a 2-core
    component with a kernel, few have one of more than ``K`` vertices."""
    g = draw(pseudoforests(max_vertices=max_vertices))
    n = g.vertex_count
    free = [p for p in itertools.combinations(range(n), 2) if p not in g.edges]
    if not free:
        return g
    extra = draw(st.lists(st.sampled_from(free), min_size=1, max_size=3, unique=True))
    return build(n, [*g.edges, *extra])


@st.composite
def large_kernels(draw, max_vertices=10):
    """A graph some component of whose 2-core has more than ``K`` kernel
    vertices: each pair an edge by a coin flip, on enough vertices."""
    n = draw(st.integers(K + 2, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = build(n, [p for p, flip in zip(pairs, flips) if flip])
    assume(max(kernel_sizes(g), default=0) > K)
    return g


def random_graph(rng, max_vertices: int, min_vertices: int = 0) -> Graph:
    n = rng.randint(min_vertices, max_vertices)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = rng.sample(pairs, rng.randint(0, len(pairs))) if pairs else []
    return build(n, chosen)


def random_sparse_connected(
    rng, max_vertices: int, extra: int = 2, min_vertices: int = 2
) -> Graph:
    n = rng.randint(min_vertices, max_vertices)
    edges = set()
    for v in range(1, n):
        edges.add(normalize_edge(v, rng.randrange(v)))
    pool = [
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges
    ]
    rng.shuffle(pool)
    edges.update(pool[: rng.randint(0, extra)])
    return build(n, edges)


def random_forest(rng, max_vertices: int, min_vertices: int = 1) -> Graph:
    """A random forest, usually with several trees and isolated vertices:
    each vertex after the first joins a random earlier one, or starts a
    tree of its own with probability 1/2."""
    n = rng.randint(min_vertices, max_vertices)
    order = list(range(n))
    rng.shuffle(order)
    edges = [
        (order[v], order[rng.randrange(v)]) for v in range(1, n) if rng.random() < 0.5
    ]
    return build(n, edges)


def stable_cells(g: Graph) -> list[list[int]]:
    """The cells of g's stable colouring, in colour order: from the
    all-equal colouring, each round colours a vertex by the rank of its
    signature (its colour, its neighbours' colours sorted), and rounds stop
    when the number of colours stops growing."""
    colour = {v: 0 for v in g.vertices}
    while True:
        signature = {
            v: (colour[v], tuple(sorted(colour[w] for w in g.neighbors(v))))
            for v in g.vertices
        }
        ranked = sorted(set(signature.values()))
        if len(ranked) == len(set(colour.values())):
            break
        colour = {v: ranked.index(signature[v]) for v in g.vertices}
    count = len(set(colour.values()))
    return [[v for v in g.vertices if colour[v] == c] for c in range(count)]


def brute_min_bits(g: Graph) -> int:
    """Minimum upper-triangle bit string over the vertex orderings that list
    the cells of ``stable_cells(g)`` in turn, each cell in any order."""
    cells = stable_cells(g)
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in cells)):
        perm = [v for part in parts for v in part]
        bits = 0
        for j in range(1, g.vertex_count):
            for i in range(j):
                bits = (bits << 1) | (1 if g.has_edge(perm[i], perm[j]) else 0)
        if best is None or bits < best:
            best = bits
    return best if best is not None else 0


def eager_min_bits(g: Graph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The least bits over the orders that list the cells of
    ``stable_cells(g)`` in turn and the automorphism generators of an
    eager branch and bound, written apart from ``canonical._minimal_bits``
    as a check on it.  Like it, each node places one vertex; unlike it,
    the search seeds the twins' transpositions as automorphisms instead of
    skipping twins, and cuts with a bound on later columns.  The unplaced
    vertices sit in ``(column, mask)`` groups, each inside one cell, sorted
    by cell and then by running column; only the first group's vertices
    can come next.  A node tied with the best leaf is cut when its column,
    or the bound ``c_k << k`` on column ``depth + k`` from the k-th group
    value counted with multiplicity, exceeds the best's: the vertex at that
    position lies in the same cell as the k-th, and at most k of the cell's
    vertices with smaller values come before it.  A leaf equal to the
    best gives an automorphism and a backjump to where the two orders part;
    a sibling is skipped when an automorphism found so far that fixes the
    prefix pointwise maps a tried sibling onto it.  Fast enough for sparse
    graphs of 12 to 14 vertices, which brute force cannot reach."""
    n = g.vertex_count
    if n <= 1:
        return 0, ()
    masks = g.neighbor_masks
    cells = stable_cells(g)

    def orbit(mask, gens):
        covered = frontier = mask
        while frontier:
            image = 0
            for p in gens:
                for v in range(n):
                    if (frontier >> v) & 1:
                        image |= 1 << p[v]
            frontier = image & ~covered
            covered |= frontier
        return covered

    def place(groups, bit, mu):
        out = []
        for c, m in groups:
            m &= ~bit
            if m & ~mu:
                out.append((c << 1, m & ~mu))
            if m & mu:
                out.append((c << 1 | 1, m & mu))
        return out

    def beyond(groups, depth):
        k = depth
        for c, m in groups:
            for _ in range(bin(m).count("1")):
                bound, ref = c << (k - depth), best_cols[k]
                if bound != ref:
                    return bound > ref
                k += 1
        return False

    generators = []
    for u in range(n):
        twins = [v for v in range(u + 1, n) if masks[u] & ~(1 << v) == masks[v] & ~(1 << u)]
        if all(masks[w] & ~(1 << u) != masks[u] & ~(1 << w) for w in range(u)):
            for a, b in zip([u] + twins, twins):
                p = list(range(n))
                p[a], p[b] = b, a
                generators.append(tuple(p))
    fixed = [sum(1 << v for v in range(n) if p[v] == v) for p in generators]
    best_cols: list[int] = []
    best_order: list[int] = []
    path_cols: list[int] = []
    path_order: list[int] = []
    improvements = [0]

    def extend(depth, placed, groups, tied):
        if not groups:
            if not tied:
                best_cols[:], best_order[:] = path_cols, path_order
                improvements[0] += 1
                return n
            perm = [0] * n
            for b, o in zip(best_order, path_order):
                perm[b] = o
            generators.append(tuple(perm))
            fixed.append(sum(1 << v for v in range(n) if perm[v] == v))
            k = 0
            while best_order[k] == path_order[k]:
                k += 1
            return k
        col, candidates = groups[0]
        if tied:
            if col > best_cols[depth]:
                return n
            tied = col == best_cols[depth]
            if tied and beyond(groups, depth):
                return n
        child_tied, entry, tried = tied, improvements[0], 0
        for u in range(n):
            bit = 1 << u
            if not candidates & bit:
                continue
            stabiliser = [p for p, fx in zip(generators, fixed) if not placed & ~fx]
            if tried and orbit(tried, stabiliser) & bit:
                continue
            path_cols.append(col)
            path_order.append(u)
            jump = extend(depth + 1, placed | bit, place(groups, bit, masks[u]), child_tied)
            del path_cols[depth:], path_order[depth:]
            if jump < depth:
                return jump
            if improvements[0] != entry:
                child_tied = True
            tried |= bit
        return n

    # Splitting keeps each cell's groups sorted, so the groups start as the
    # cells themselves, in order.
    extend(0, 0, [(0, sum(1 << v for v in cell)) for cell in cells], False)
    bits = 0
    for j, col in enumerate(best_cols):
        bits = (bits << j) | col
    return bits, tuple(generators)


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return False
    n = g.vertex_count
    for perm in itertools.permutations(range(n)):
        if all(
            h.has_edge(perm[u], perm[v]) == g.has_edge(u, v)
            for u in range(n)
            for v in range(u + 1, n)
        ):
            return True
    return False


def brute_subgraph(h: Graph, g: Graph) -> bool:
    if h.vertex_count > g.vertex_count or h.edge_count > g.edge_count:
        return False
    for image in itertools.permutations(range(g.vertex_count), h.vertex_count):
        if all(g.has_edge(image[u], image[v]) for u, v in h.edges):
            return True
    return False


def all_simple_cycles(g: Graph) -> list[tuple[int, ...]]:
    """Every simple cycle once: smallest vertex first, smaller neighbor
    second."""
    out = []
    adj = [g.neighbors(v) for v in g.vertices]

    def grow(start: int, path: list[int], used: set[int]) -> None:
        last = path[-1]
        for w in sorted(adj[last]):
            if w == start and len(path) >= 3 and path[1] < last:
                out.append(tuple(path))
            elif w > start and w not in used:
                path.append(w)
                used.add(w)
                grow(start, path, used)
                used.remove(w)
                path.pop()

    for start in g.vertices:
        grow(start, [start], {start})
    return out


def _components_without(g: Graph, removed: set[int]) -> int:
    adj = [g.neighbors(v) for v in g.vertices]
    left = [v for v in g.vertices if v not in removed]
    seen: set[int] = set()
    count = 0
    for v in left:
        if v in seen:
            continue
        count += 1
        stack = [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in removed and y not in seen:
                    seen.add(y)
                    stack.append(y)
    return count


def has_odd_cycle(g: Graph) -> bool:
    return any(len(c) % 2 == 1 for c in all_simple_cycles(g))


def dfs_sides(g: Graph) -> tuple[int, ...] | None:
    """Two-colouring by depth-first search over adjacency sets, the lowest
    vertex of each component on side 0; None if an edge joins two
    vertices of one side."""
    side = [-1] * g.vertex_count
    adj = [g.neighbors(v) for v in g.vertices]
    for start in g.vertices:
        if side[start] != -1:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if side[w] == -1:
                    side[w] = 1 - side[v]
                    stack.append(w)
                elif side[w] == side[v]:
                    return None
    return tuple(side)


def _chordless(g: Graph, cyc: tuple[int, ...]) -> bool:
    m = len(cyc)
    for i in range(m):
        for j in range(i + 1, m):
            if (j - i) % m not in (1, m - 1) and g.has_edge(cyc[i], cyc[j]):
                return False
    return True


def brute_peripheral(g: Graph) -> set[tuple[int, ...]]:
    base = _components_without(g, set())
    return {
        c
        for c in all_simple_cycles(g)
        if _chordless(g, c) and _components_without(g, set(c)) <= base
    }


def brute_middles(g: Graph) -> dict[tuple[int, int], set[int]]:
    """Each pair (u < v) mapped to every w such that u, w, v sit
    consecutively on some chordless non-separating cycle; found by
    scanning all cycles."""
    middles: dict[tuple[int, int], set[int]] = {}
    for cyc in brute_peripheral(g):
        m = len(cyc)
        for i in range(m):
            u, w, v = cyc[i], cyc[(i + 1) % m], cyc[(i + 2) % m]
            middles.setdefault((u, v) if u < v else (v, u), set()).add(w)
    return middles


def brute_admissible_pairs(g: Graph) -> set[tuple[int, int]]:
    """Pairs with a common neighbor w such that u,w,v sit consecutively on
    some chordless non-separating cycle; found by scanning all cycles."""
    return set(brute_middles(g))


def brute_blocks(g: Graph) -> tuple[set[frozenset], set[int]]:
    """Edge partition via "lie on a common cycle" classes plus bridge
    singletons, and cut vertices via component counting."""
    parent: dict = {e: e for e in g.edges}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for cyc in all_simple_cycles(g):
        m = len(cyc)
        first = normalize_edge(cyc[0], cyc[1])
        for i in range(1, m):
            e = normalize_edge(cyc[i], cyc[(i + 1) % m])
            ra, rb = find(first), find(e)
            if ra != rb:
                parent[ra] = rb

    groups: dict = {}
    for e in g.edges:
        groups.setdefault(find(e), set()).add(e)
    block_sets = {frozenset(s) for s in groups.values()}

    base = _components_without(g, set())
    cuts = {
        v for v in g.vertices if _components_without(g, {v}) > base
    }
    return block_sets, cuts


def bipminor_by_unpruned_search(h: Graph, g: Graph) -> bool:
    """Reference bipartite-minor decision: breadth-first over operation
    sequences with only the monotone count prunes, taking admissible pairs
    from the cycle-scan oracle."""
    target = canonical_form(h)
    if canonical_form(g) == target:
        return True
    seen = {canonical_form(g)}
    frontier = [g]
    while frontier:
        nxt = []
        for state in frontier:
            children: list[Graph] = []
            for v in state.vertices:
                children.append(delete_vertex(state, v))
            for u, v in sorted(state.edges):
                children.append(delete_edge(state, u, v))
            for u, v in sorted(brute_admissible_pairs(state)):
                children.append(contract_set(state, {u, v}))
            for child in children:
                if (
                    child.vertex_count < h.vertex_count
                    or child.edge_count < h.edge_count
                ):
                    continue
                cf = canonical_form(child)
                if cf in seen:
                    continue
                if cf == target:
                    return True
                seen.add(cf)
                nxt.append(child)
        frontier = nxt
    return False


def trees_by_pruefer(max_vertices: int) -> set[CanonicalForm]:
    """The forms of all trees with 1..max_vertices vertices, from every
    Prüfer sequence of every length."""
    small = [build(1, []), build(2, [(0, 1)])]
    forms = {canonical_form(t) for t in small[:max_vertices]}
    for n in range(3, max_vertices + 1):
        for seq in itertools.product(range(n), repeat=n - 2):
            forms.add(canonical_form(build(n, nx.from_prufer_sequence(seq).edges)))
    return forms


def connected_bipartite_by_edge_subsets(max_vertices: int) -> set[CanonicalForm]:
    """The forms of all connected bipartite graphs with 1..max_vertices
    vertices, from every connected spanning subgraph of every ``K_{a,b}``."""
    forms = {canonical_form(build(1, []))} if max_vertices >= 1 else set()
    for n in range(2, max_vertices + 1):
        for a in range(1, n // 2 + 1):
            cross = [(i, a + j) for i in range(a) for j in range(n - a)]
            for r in range(n - 1, len(cross) + 1):
                for chosen in itertools.combinations(cross, r):
                    g = build(n, chosen)
                    if _components_without(g, set()) == 1:
                        forms.add(canonical_form(g))
    return forms


def to_networkx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edges)
    return out


def kernel_sizes(g: Graph) -> list[int]:
    """For each component of g's 2-core, found by networkx, how many of its
    vertices have three or more neighbours in the 2-core: its kernel."""
    core = nx.k_core(to_networkx(g), 2)
    return [
        sum(core.degree(v) >= 3 for v in part)
        for part in nx.connected_components(core)
    ]


def closure_by_isomorphism_test(g: Graph) -> list[Graph]:
    """Reference bipartite-minor closure: one representative per
    isomorphism class reachable from ``g``, found breadth-first over every
    deletion and every admissible contraction of the cycle-scan oracle, and
    deduplicated with ``networkx.is_isomorphic``."""

    def invariant(x: Graph) -> tuple:
        return x.vertex_count, x.edge_count, tuple(sorted(map(x.degree, x.vertices)))

    buckets: dict[tuple, list[nx.Graph]] = {}
    members: list[Graph] = []

    def add(x: Graph) -> bool:
        bucket = buckets.setdefault(invariant(x), [])
        xg = to_networkx(x)
        if any(nx.is_isomorphic(xg, other) for other in bucket):
            return False
        bucket.append(xg)
        members.append(x)
        return True

    add(g)
    frontier = [g]
    while frontier:
        nxt = []
        for state in frontier:
            children = [delete_vertex(state, v) for v in state.vertices]
            children += [delete_edge(state, u, v) for u, v in sorted(state.edges)]
            children += [
                contract_set(state, {u, v})
                for u, v in sorted(brute_admissible_pairs(state))
            ]
            nxt += [child for child in children if add(child)]
        frontier = nxt
    return members


def minor_by_operations(h: Graph, g: Graph) -> bool:
    """Classical minor decision straight from its operational definition:
    breadth-first search over vertex deletions, edge deletions, and
    single-edge contractions, deduplicated up to isomorphism."""
    target = canonical_form(h)
    seen = {canonical_form(g)}
    frontier = [g]
    if canonical_form(g) == target:
        return True
    while frontier:
        nxt = []
        for state in frontier:
            children: list[Graph] = []
            for v in state.vertices:
                children.append(delete_vertex(state, v))
            for u, v in sorted(state.edges):
                children.append(delete_edge(state, u, v))
                children.append(contract_set(state, {u, v}))
            for child in children:
                if (
                    child.vertex_count < h.vertex_count
                    or child.edge_count < h.edge_count
                ):
                    continue
                cf = canonical_form(child)
                if cf in seen:
                    continue
                if cf == target:
                    return True
                seen.add(cf)
                nxt.append(child)
        frontier = nxt
    return False
