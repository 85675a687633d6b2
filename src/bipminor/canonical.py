"""Exact canonical forms and isomorphism tests for small graphs.

A graph's canonical form is a vertex count and an upper-triangular
adjacency bit sequence, read column by column (the same bit order graph6
uses), of one graph of its isomorphism class, picked in one of two ways.

- A graph each component of whose 2-core has at most ``K`` **kernel**
  vertices (below) has a code, which is complete: two such graphs have
  equal codes iff they are isomorphic.  Its form is the bits of the graph
  its code **spells** (``_spell``), a function of the code alone.
  Pseudoforests, whose kernels are empty, are among them.
- **Any other graph** is labelled: its form is the lexicographically
  minimal bits over the **cell orders**, the vertex orderings that list
  the cells of the graph's stable colouring in colour order, each cell in
  any order.  The stable colouring is what colour refinement (``_stable``)
  gives from the all-equal colouring.  It depends on no labels and not on
  the hash seed, so an isomorphism maps the cell orders of one graph onto
  those of the other.  A graph whose stable colouring has one cell, such
  as a regular graph, is minimised over all orders.

So two graphs have equal forms iff they are isomorphic, provided no form
is of both kinds.  None is: a form's bits determine its graph, which is
isomorphic to the graph the form was made for, and kernel size is an
isomorphism invariant, so of two isomorphic graphs both have a code or
neither has.  Each class is spelled or labelled, never both.

**The form memo.**  ``canonical_form`` looks a graph up in one dict,
the form memo, under two kinds of key.  It keeps the form of every graph
answered under its neighbour masks, a tuple.  A coded graph is also
keyed by its code, a string, which never equals a tuple: a code known
maps to its form, and a new code is spelled.  A coded graph is never
refined or labelled; labelling inside the stable colouring is only for
graphs with no code.  The memo starts again empty once it holds more
than ``STORE_LIMIT`` entries, the limit that also bounds
``relations._store``, and a code is then spelled again.  No result
depends on what it holds.  ``are_isomorphic`` compares two forms.

**Codes.**  A code is a string over ``()[]<>{}`` and the digits, built by
peeling leaves in rounds; each round removes every vertex of degree at
most one in what is left.  What peeling leaves is the **2-core**, where
every vertex has two or more neighbours; each vertex peeled lies in a
tree component or in a tree hanging from one 2-core vertex.  These are
the degree-one and degree-two reductions of Hopcroft and Wong's planar
isomorphism test (STOC 1974).

- *Rooted trees* (Aho, Hopcroft and Ullman, *The Design and Analysis of
  Computer Algorithms*, 1974).  A vertex peeled with one neighbour left
  hangs from it; its code is ``(`` + the sorted codes of the vertices
  that hang from it + ``)``.  These codes are balanced strings, so none
  is a prefix of another, and by induction on height two rooted trees
  have equal codes iff a root-preserving isomorphism maps one onto the
  other: the sorted concatenation gives back the multiset of children's
  codes.  An isomorphism maps each round onto the same round, so it maps
  each vertex's hanging tree onto its image's.  A 2-core vertex's rooted
  code is that of its hanging tree, rooted at it.
- *Trees.*  A tree's last round is its centre: one vertex, or two
  adjacent ones, which every isomorphism maps onto the other tree's.
  The code is the centre's rooted code, or ``[`` + the two centres'
  rooted codes, sorted, + ``]``: the tree is the two rooted trees joined
  at their roots.
- *Cycles.*  A 2-core component whose vertices each have two neighbours
  in it is a cycle, and its graph component is unicyclic.  An isomorphism
  maps the cycle onto the other's by a rotation or reflection, hanging
  trees onto hanging trees, and any rotation or reflection that matches
  the hanging trees' codes gives an isomorphism.  The code is ``<`` + the
  least concatenation, over the rotations and reflections, of the cycle's
  rooted codes + ``>``; the set of concatenations depends only on the
  component, and each decodes to one of them.
- *Kernels.*  In any other 2-core component, the **kernel** is the
  vertices with three or more neighbours in the 2-core.  The other
  vertices lie on **kernel edges**: maximal paths whose inner vertices
  have two neighbours in the 2-core, each between two kernel vertices or
  from one back to itself, a loop; several may join one pair.  An edge's
  **word** is its inner vertices' rooted codes, in order from one end.
  An isomorphism maps kernel onto kernel and kernel edges onto kernel
  edges, with their words, and a bijection of the kernels that keeps
  rooted codes and maps kernel edges onto kernel edges with equal words,
  read in matching directions, extends to an isomorphism.  Given an order
  of the kernel, kernel vertex i is the digit ``i``, and a kernel edge
  between positions a < b is ``a`` + its word read from a + ``b``, a loop
  at a is ``a`` + the lesser of its two readings + ``a``.  The code is
  ``{`` + the kernel's rooted codes in that order + its kernel edges,
  sorted + ``}``, least over the orders that sort the kernel by an
  invariant, its rooted code and then its sorted words read away from it,
  with tied vertices in every order.  An isomorphism maps those orders of
  one component onto those of the other, each to an equal string, so
  isomorphic components have equal codes, and the code gives back the
  component up to isomorphism: spelling builds it.  A kernel of more than
  ``K`` vertices leaves the graph with no code.
- *The graph.*  Its code is its components' codes, sorted and
  concatenated.  Each is self-delimiting: a word holds no digit, so each
  kernel edge ends at its second digit.  So the code gives back the
  multiset of components, and as each vertex is one ``(`` in it, the count
  of vertices too.

So two graphs with codes have equal codes iff they are isomorphic.  The
code is built in one pass over the rounds, with no recursion, so it serves
graphs of any size.

**Spelling** reads a code once and builds the graph it names.  Each
top-level ``()`` part is an isolated vertex, and these are numbered first.
Every other ``(`` is the next vertex, joined to the vertex whose
parentheses enclose it; the two roots inside ``[...]`` are joined, and the
roots inside ``<...>`` are joined in a cycle, in their order.  Inside
``{...}`` the roots before the first digit are the kernel vertices; a
digit opens a kernel edge at its kernel vertex, each root read on the
edge is joined to the vertex before it, and the next digit closes the
edge, joining the last to its kernel vertex.  Reading the construction
above backwards shows that the spelled graph is isomorphic to every graph
with that code.

**Labelling** is an eager branch and bound over vertex orders, kept
inside the stable colouring: individualisation-refinement's first step
(McKay and Piperno 2014), with the lex-min search over what it leaves
open.  Each node places one vertex.  Placing a vertex at position j fixes
column j: its adjacency to the j vertices placed before it, first placed
most significant.

- **Groups.**  The unplaced vertices sit in groups of equal columns so
  far, their adjacency to the placed vertices.  The groups start as the
  cells in colour order, and placing a vertex splits each group into its
  non-neighbours and then its neighbours, whose columns gain a 0 and a 1.
  So the groups stay in cell order and, inside a cell, in increasing
  column, and the first group holds the vertices of least next column in
  the cell that holds the next position.  Only they are candidates, tried
  in increasing vertex order.
- **Twins.**  A candidate is skipped when an unplaced vertex below it is
  its twin: the two have the same neighbours apart from each other.
  Swapping two twins is an automorphism, so they share a colour, and as
  neither is placed they share their placed neighbours and so a group.
  The swap fixes every placed vertex and maps the lower one's subtree
  onto the candidate's.  No vertex has both an adjacent and a
  non-adjacent twin, so twins form classes, and only the least of each
  class is tried.  A node with one candidate left places it in a loop:
  the search recurses only where it branches, not once per vertex.
- **Incumbent.**  A node whose prefix equals the best leaf's prefix is
  cut when its column exceeds the best's column at that depth.  A node
  whose prefix is already smaller is not compared, until a leaf below it
  becomes the new best; from then on its remaining children are compared
  against that best too (the re-tie).
- **Automorphisms.**  A leaf whose bits equal the best leaf's gives the
  automorphism that maps the best's order onto its own, position by
  position.  An automorphism maps the stable colouring onto itself, so it
  maps cell orders onto cell orders and each node's candidates onto its
  image's.  This one fixes the vertices the two orders place before they
  part, at depth k, and maps the best's node at depth k + 1 onto the
  leaf's, whose subtree is then the image of one already searched: the
  search backjumps to the node at depth k.  At every node, a child is
  skipped when an automorphism found so far that fixes every placed
  vertex maps a child already tried onto it.  The search starts with no
  automorphisms.

A leaf is skipped only when its bits exceed the best's or when an
automorphism maps it onto a leaf already searched, so the result is the
exact minimum over cell orders.  The automorphisms found are returned
beside the bits, so that a test can check each of them; they need not
generate the whole group, and nothing else reads them.
"""

from __future__ import annotations

from itertools import groupby, permutations
from typing import NamedTuple, Sequence

from .graph_core import Graph, from_upper_bits
from .structure import reach

# A permutation ``p`` of the vertices maps vertex ``v`` to ``p[v]``.
Perm = tuple[int, ...]

# A graph is coded when each component of its 2-core has at most K kernel
# vertices; a kernel position is one digit, so K is at most 10.
K = 4

# Entries a process-wide cache may hold: the form memo below and the
# closure store in ``relations`` start again empty past it.
STORE_LIMIT = 20_000

# The form memo maps the neighbour masks of each graph answered, and the
# code of each coded graph answered, to its form.
_forms: dict[tuple[int, ...] | str, "CanonicalForm"] = {}


class CanonicalForm(NamedTuple):
    """Isomorphism-invariant fingerprint of a graph: a named pair, so that
    hashing, ``==`` and ``<`` run as a tuple's do, and forms sort by vertex
    count, then by bits.  A form is never compared with a plain tuple,
    which would count as equal to it.

    ``canonical_bits`` is the ``graph_core.upper_bits`` of the graph that a
    coded graph's code spells, or, for a graph with no code, the
    minimal ``upper_bits`` over the vertex orderings that list the cells of
    the graph's stable colouring in colour order.  Two graphs have equal
    forms iff they are isomorphic.
    """

    vertex_count: int
    canonical_bits: int

    def to_graph(self) -> Graph:
        """Rebuild the canonically labelled representative graph."""
        return from_upper_bits(self.vertex_count, self.canonical_bits)


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form of ``g``, of any size: from the form memo by ``g``'s
    neighbour masks, else by its code, spelling a new code, else by
    labelling ``g`` inside its stable colouring.  The searches bound the
    size of the graphs they label by checking their host."""
    masks = g.neighbor_masks
    form = _forms.get(masks)
    if form is None:
        code = _code(g)
        if code is None:
            form = CanonicalForm(g.vertex_count, _minimal_bits(g, _stable(g))[0])
        else:
            form = _forms.get(code)
            if form is None:
                form = _spell(code)
        if len(_forms) > STORE_LIMIT:
            _forms.clear()
        _forms[masks] = form
        if code is not None:
            _forms[code] = form
    return form


def padded(form: CanonicalForm, k: int) -> CanonicalForm:
    """The form of the graph with ``k >= 0`` isolated vertices added;
    nothing is labelled.

    Padding lemma: the form of ``X + kK_1`` is X's form with k zero
    columns in front, for both kinds of form.

    - *Spelled.*  The code of ``X + kK_1`` is X's code with k more ``()``
      parts; its other parts are X's, in the same order.  Spelling numbers
      the ``()`` parts first and the rest in reading order, so the spelled
      graph is X's with k isolated vertices in front: k zero columns, and
      each of X's columns led by k zeros.
    - *Labelled.*  A graph's isolated vertices form the first cell of its
      stable colouring: in every refinement round an isolated vertex's
      signature, colour 0 and no neighbours' colours, is the least.  No
      other signature names an isolated vertex's colour, so the other
      vertices, the core, get the colours they get in the core alone, each
      raised by one, and the later cells are the core's cells in the
      core's order.  So each cell order of a graph lists its isolated
      vertices first, with zero columns, and then its core in one of the
      core's own cell orders, each column led by a zero per isolated
      vertex.  The least is the core's least behind those zero columns, in
      ``X + kK_1`` as in X.

    X has a code iff ``X + kK_1`` has one, so both sides are of one kind.
    With k = 0 the form itself is returned."""
    if not k:
        return form
    n, bits = form.vertex_count, form.canonical_bits
    out = 0
    shift = n * (n - 1) // 2
    for j in range(n):
        # Column j keeps its value and moves to position j + k.
        shift -= j
        out = (out << (j + k)) | ((bits >> shift) & ((1 << j) - 1))
    return CanonicalForm(n + k, out)


def clear_cache() -> None:
    """Empty the form memo."""
    _forms.clear()


def _code(g: Graph) -> str | None:
    """``g``'s code if each component of its 2-core has at most ``K`` kernel
    vertices, else ``None``; two codes are equal iff their graphs are
    isomorphic (see the module docstring).  Leaves are peeled in rounds,
    each round every vertex of degree at most one, and a vertex peeled gets
    the AHU code ``(...)`` of the sorted codes peeled into it, which its
    neighbour left, if any, takes in turn."""
    masks = g.neighbor_masks
    n = len(masks)
    deg = [m.bit_count() for m in masks]
    # Each vertex's children's codes, replaced by its own once peeled.
    code: list = [[] for _ in masks]
    parts = []
    left = (1 << n) - 1
    layer = [v for v, d in enumerate(deg) if d <= 1]
    while layer:
        peeled = 0
        for v in layer:
            peeled |= 1 << v
            kids = code[v]
            kids.sort()
            code[v] = "(" + "".join(kids) + ")"
        left ^= peeled
        up_next = []
        for v in layer:
            up = masks[v] & left
            if up:
                w = up.bit_length() - 1
                code[w].append(code[v])
                deg[w] -= 1
                if deg[w] == 1:
                    up_next.append(w)
            elif not deg[v]:
                # A tree's last round is its centre: one vertex ...
                parts.append(code[v])
            else:
                # ... or two adjacent ones.
                w = (masks[v] & peeled).bit_length() - 1
                if v < w:
                    a, b = sorted((code[v], code[w]))
                    parts.append("[" + a + b + "]")
        layer = up_next
    # What is left is the 2-core: cycles, and components with a kernel.
    core = left
    while left:
        v = left.bit_length() - 1
        ring: list[str] | None = []
        while True:
            m = masks[v] & core
            if m.bit_count() != 2:
                ring = None
                break
            left ^= 1 << v
            kids = code[v]
            kids.sort()
            ring.append("(" + "".join(kids) + ")")
            m &= left
            if not m:
                break
            v = m.bit_length() - 1
        if ring is not None:
            # The least rotation or reflection; as codes are prefix-free, it
            # starts with a least code.
            low = min(ring)
            best = None
            for side in (ring, ring[::-1]):
                joined = "".join(side)
                at = 0
                for c in side:
                    if c == low:
                        turn = joined[at:] + joined[:at]
                        if best is None or turn < best:
                            best = turn
                    at += len(c)
            parts.append("<" + best + ">")
            continue
        # v's component of the 2-core is no cycle.  Its kernel is its
        # vertices with three or more neighbours in the 2-core.
        comp = reach(g, 1 << v, core)
        left &= ~comp
        kernel = []
        heavy = 0
        rest = comp
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            if (masks[u] & core).bit_count() > 2:
                if len(kernel) == K:
                    return None
                kernel.append(u)
                heavy |= low
            kids = code[u]
            kids.sort()
            code[u] = "(" + "".join(kids) + ")"
        # Each kernel edge once: its ends and its word read from each end.
        # A path is walked from the first of its ends met, an edge with no
        # inner vertex from its lesser end.
        edges = []
        words: dict[int, list[str]] = {u: [] for u in kernel}
        inner = 0
        for u in kernel:
            m = masks[u] & core
            while m:
                low = m & -m
                m ^= low
                x = low.bit_length() - 1
                if low & inner or (low & heavy and x < u):
                    continue
                word = []
                prev = u
                while not low & heavy:
                    inner |= low
                    word.append(code[x])
                    low = masks[x] & core & ~(1 << prev)
                    prev, x = x, low.bit_length() - 1
                there, back = "".join(word), "".join(reversed(word))
                edges.append((u, x, there, back))
                words[u].append(there)
                words[x].append(back)
        # The least encoding over the orders that sort the kernel by an
        # invariant, each tie permuted: position i is the digit str(i).
        key = {u: (code[u], sorted(words[u])) for u in kernel}
        kernel.sort(key=key.__getitem__)
        orders: list[tuple[int, ...]] = [()]
        for _, tied in groupby(kernel, key.__getitem__):
            turns = list(permutations(tied))
            orders = [o + p for o in orders for p in turns]
        best = None
        for order in orders:
            at = dict(zip(order, "0123456789"))
            read = []
            for u, x, there, back in edges:
                a, b = at[u], at[x]
                if a < b:
                    read.append(a + there + b)
                elif b < a:
                    read.append(b + back + a)
                else:
                    read.append(a + min(there, back) + a)
            read.sort()
            joined = "".join(read)
            if best is None or joined < best:
                best = joined
        parts.append("{" + "".join(code[u] for u in kernel) + best + "}")
    parts.sort()
    return "".join(parts)


def _spell(code: str) -> CanonicalForm:
    """The form of the graph that ``code`` spells (see the module
    docstring): its isolated vertices first, then every other ``(`` in
    reading order."""
    # A vertex's earlier neighbours are read before it, so its column is
    # known when it is read: bit j - 1 - i of column j is the pair ij.  The
    # vertices not isolated are numbered from 0 here; numbering the
    # isolated ones in front moves each column but keeps its value.
    cols: list[int] = []
    enclosing: list[int] = []  # the vertices whose parentheses are open
    roots = None  # the roots read so far inside the open [...] or <...>
    hubs = None  # the kernel vertices read so far inside the open {...}
    tail = None  # on a kernel edge: the vertex its next inner vertex joins
    isolated = 0
    for c in code:
        if c == "(":
            v = len(cols)
            if enclosing:
                cols.append(1 << (v - 1 - enclosing[-1]))
            elif tail is not None:
                cols.append(1 << (v - 1 - tail))
                tail = v
            elif roots:
                cols.append(1 << (v - 1 - roots[-1]))
                roots.append(v)
            else:
                cols.append(0)
                if roots is not None:
                    roots.append(v)
                elif hubs is not None:
                    hubs.append(v)
            enclosing.append(v)
        elif c == ")":
            v = enclosing.pop()
            if not enclosing and roots is hubs is None and v == len(cols) - 1:
                # A top-level () part: an isolated vertex.
                cols.pop()
                isolated += 1
        elif c.isdigit():
            # A kernel edge opens at one end and closes at the other.
            u = hubs[int(c)]
            if tail is None:
                tail = u
            else:
                lo, hi = sorted((tail, u))
                cols[hi] |= 1 << (hi - 1 - lo)
                tail = None
        elif c in "[<":
            roots = []
        elif c == "{":
            hubs = []
        elif c == "}":
            hubs = None
        else:
            if c == ">":
                # The last root closes the cycle at the first.
                v = roots[-1]
                cols[v] |= 1 << (v - 1 - roots[0])
            roots = None
    bits = 0
    for j, col in enumerate(cols, isolated):
        bits = (bits << j) | col
    return CanonicalForm(isolated + len(cols), bits)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """True iff an edge-preserving vertex bijection exists: iff ``g`` and
    ``h`` have equal canonical forms."""
    return canonical_form(g) == canonical_form(h)


def _stable(g: Graph) -> list[int]:
    """``g``'s stable colouring: colour refinement (1-WL) from the all-equal
    colouring.  Each round gives a vertex the signature (its colour, its
    neighbours' colours sorted) and recolours it by the rank of its
    signature, so colours depend on no labelling; rounds stop when the
    number of colours stops growing."""
    n = g.vertex_count
    nbrs = [[w for w in range(n) if (m >> w) & 1] for m in g.neighbor_masks]
    colours = [0] * n
    count = 1
    while count < n:
        get = colours.__getitem__
        sigs = [(c, *sorted(map(get, nb))) for c, nb in zip(colours, nbrs)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        if len(rank) == count:
            break
        colours = [rank[s] for s in sigs]
        count = len(rank)
    return colours


def _orbit(mask: int, generators: list[Perm]) -> int:
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


def _place(groups: list[tuple[int, int]], bit: int, mu: int) -> list[tuple[int, int]]:
    """The groups after placing the vertex ``bit``, whose neighbour mask is
    ``mu``: it leaves its group, and each group splits into its
    non-neighbours and then its neighbours, whose columns gain a 0 and a 1."""
    out = []
    for col, m in groups:
        m &= ~bit
        hi = m & mu
        if hi != m:
            out.append((col << 1, m ^ hi))
        if hi:
            out.append((col << 1 | 1, hi))
    return out


def _minimal_bits(g: Graph, colours: Sequence[int]) -> tuple[int, tuple[Perm, ...]]:
    """The least bits of ``g`` over the vertex orders that list the cells of
    its stable colouring ``colours`` in colour order (see the module
    docstring), and the automorphisms the search found and pruned with."""
    n = g.vertex_count
    if n <= 1:
        return 0, ()
    masks = g.neighbor_masks
    cells = [0] * (max(colours) + 1)
    for v, c in enumerate(colours):
        cells[c] |= 1 << v

    generators: list[Perm] = []
    best_cols: list[int] = []
    best_order: list[int] = []
    improvements = 0  # how often best has changed
    cols: list[int] = []  # column chosen at each depth of the current path
    order: list[int] = []  # vertex placed at each depth of the current path

    def leaf(tied: bool) -> int:
        """Take the leaf the current path reached; returns the depth to
        resume at, as ``extend`` does."""
        nonlocal improvements
        if not tied:
            best_cols[:] = cols
            best_order[:] = order
            improvements += 1
            return n
        perm = [0] * n
        for b, v in zip(best_order, order):
            perm[b] = v
        generators.append(tuple(perm))
        # perm fixes the common prefix and maps the best's node at depth
        # k + 1 onto ours, so the subtree of ours is the image of one
        # already searched: resume at the node where the two part.
        k = 0
        while best_order[k] == order[k]:
            k += 1
        return k

    def extend(depth: int, groups: list[tuple[int, int]], tied: bool) -> int:
        """Search below the current path; ``tied`` says its columns equal
        the best leaf's so far.  Returns the depth of the node the search
        resumes at: ``n`` to go on normally, less to backjump.  Appends to
        ``cols`` and ``order``, which the caller truncates."""
        while True:
            if not groups:
                return leaf(tied)
            col, candidates = groups[0]
            if tied:
                ref = best_cols[depth]
                if col > ref:
                    return n
                tied = col == ref
            # A candidate with a twin below it is skipped.  Twins form
            # classes, so the least of each class is the one to test against.
            kids = candidates
            if candidates & (candidates - 1):
                kids = 0
                m = candidates
                while m:
                    bit = m & -m
                    m ^= bit
                    mu = masks[bit.bit_length() - 1]
                    k = kids
                    while k:
                        low = k & -k
                        if not (mu ^ masks[low.bit_length() - 1]) & ~(bit | low):
                            break
                        k ^= low
                    else:
                        kids |= bit
            if kids & (kids - 1):
                break
            # A lone child is placed without branching.
            u = kids.bit_length() - 1
            cols.append(col)
            order.append(u)
            groups = _place(groups, kids, masks[u])
            depth += 1

        child_tied = tied
        entry_improvements = improvements
        # tried: the children searched so far.  A child in their orbit under
        # the automorphisms found that fix every placed vertex, the path in
        # ``order``, is skipped; that orbit, pruned, is brought up to date
        # only when a child is about to be searched.
        tried = pruned = orbited = checked = 0
        stabiliser: list[Perm] = []
        while kids:
            bit = kids & -kids
            kids ^= bit
            if tried and len(generators) > checked:
                for p in generators[checked:]:
                    if all(p[v] == v for v in order):
                        stabiliser.append(p)
                        orbited = 0
                checked = len(generators)
            if stabiliser and tried != orbited:
                pruned |= _orbit(tried & ~orbited, stabiliser)
                orbited = tried
            if pruned & bit:
                continue
            u = bit.bit_length() - 1
            cols.append(col)
            order.append(u)
            jump = extend(depth + 1, _place(groups, bit, masks[u]), child_tied)
            del cols[depth:]
            del order[depth:]
            if jump < depth:
                return jump
            if improvements != entry_improvements:
                # A new best lies below this node, so its prefix is ours.
                child_tied = True
            tried |= bit
        return n

    extend(0, [(0, cell) for cell in cells], False)
    bits = 0
    for j, col in enumerate(best_cols):
        bits = (bits << j) | col
    return bits, tuple(generators)
