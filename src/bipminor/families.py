"""Deterministic generators for the graph families used throughout:
cycles, paths, bulls, dogs, and H-trees.

All generators label vertices the same way on every call: body first
(snout or connector), then appendages in the order given.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .graph_core import Edge, Graph, GraphError, build


def cycle(k: int) -> Graph:
    """The cycle on k vertices, k >= 3."""
    if k < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {k}")
    return build(k, [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)])


def path(k: int) -> Graph:
    """The path on k vertices, k >= 1."""
    if k < 1:
        raise GraphError(f"path needs at least 1 vertex, got {k}")
    return build(k, [(i, i + 1) for i in range(k - 1)])


def bull(snout: int, horns: Sequence[int]) -> Graph:
    """A snout cycle of length ``snout`` with pendant paths (horns) hung on
    consecutive snout vertices 0, 1, ....

    Horn i has ``horns[i]`` vertices; its first vertex is joined to snout
    vertex i.  Horn vertices are appended after the snout in order.
    """
    k = len(horns)
    if snout < 3:
        raise GraphError(f"bull snout must have length at least 3, got {snout}")
    if not 1 <= k <= snout:
        raise GraphError(f"bull needs between 1 and {snout} horns, got {k}")
    if any(h < 1 for h in horns):
        raise GraphError(f"horn lengths must be at least 1, got {list(horns)}")

    edges = set(cycle(snout).edges)
    nxt = snout
    for i, h in enumerate(horns):
        edges.add((i, nxt))
        for j in range(h - 1):
            edges.add((nxt + j, nxt + j + 1))
        nxt += h
    return build(nxt, edges)


def dog(snout: int, ears: Sequence[int]) -> Graph:
    """A snout cycle of length ``snout`` with ear cycles glued on.

    Ear i is a cycle of length ``ears[i]`` (at least 3) sharing exactly the
    snout edge (2i, 2i+1); its ``ears[i] - 2`` remaining vertices form a
    path appended after the snout, running from snout vertex 2i+1 back to
    snout vertex 2i.
    """
    k = len(ears)
    if snout < 3:
        raise GraphError(f"dog snout must have length at least 3, got {snout}")
    if not 1 <= k <= snout // 2:
        raise GraphError(
            f"dog with snout {snout} needs between 1 and {snout // 2} ears, got {k}"
        )
    if any(e < 3 for e in ears):
        raise GraphError(f"ear lengths must be greater than two, got {list(ears)}")

    edges = set(cycle(snout).edges)
    nxt = snout
    for i, e in enumerate(ears):
        inner = list(range(nxt, nxt + e - 2))
        chain = [2 * i + 1] + inner + [2 * i]
        edges.update(zip(chain, chain[1:]))
        nxt += e - 2
    return build(nxt, edges)


def h_tree(connector: int, arm_vertices: int = 3) -> Graph:
    """Two short paths joined at their middles by a connector path.

    The connector path has ``connector`` vertices (labelled 0..connector-1);
    each arm is a path on ``arm_vertices`` vertices whose middle vertex is
    identified with a connector endpoint.  With 3-vertex arms this attaches
    two leaves at each end of the connector; the 4-vertex variant attaches
    a leaf and a two-vertex tail instead.
    """
    if connector < 2:
        raise GraphError(
            f"h_tree connector must have at least 2 vertices, got {connector}"
        )
    if arm_vertices not in (3, 4):
        raise GraphError(f"arm_vertices must be 3 or 4, got {arm_vertices}")

    edges: set[Edge] = {(i, i + 1) for i in range(connector - 1)}
    nxt = connector
    for hub in (0, connector - 1):
        edges.add((hub, nxt))
        edges.add((hub, nxt + 1))
        if arm_vertices == 4:
            edges.add((nxt + 1, nxt + 2))
        nxt += arm_vertices - 1
    return build(nxt, edges)


# Each kind's builder, and whether it takes appendage lengths (horns, ears).
FAMILIES: dict[str, tuple[Callable[..., Graph], bool]] = {
    "cycle": (cycle, False),
    "path": (path, False),
    "bull": (bull, True),
    "dog": (dog, True),
    "h_tree": (h_tree, False),
}

