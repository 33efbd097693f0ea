"""Tiles: graphs with ordered left/right boundary tuples of equal width.

Concatenation lays two tiles side by side and joins right boundary to left
boundary position by position; closing a t-fold power additionally joins the
outer boundaries, producing a cyclic graph built from t copies of one tile.
Only simple graphs are supported: a join that would create a parallel edge
is an error, never silently collapsed.  No join makes a loop, as each runs
between two different copies.

The closure of Q^t carries a canonical edge decomposition into t pieces in
cyclic order: piece i is copy i of the tile together with the bundle of join
edges leaving it clockwise (the last bundle wraps back to copy 0).  By
construction consecutive window unions are translates of each other, which
makes this the standard positive example for the transitivity checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .graphs import Graph, read_id, read_int
from .structures import EdgeDecomposition, Piece

__all__ = [
    "Tile",
    "tile_concat",
    "tile_power",
    "tile_close",
    "canonical_periodic_decomposition",
]


@dataclass(frozen=True)
class Tile:
    """A graph with left/right boundary ids, read when built, of equal width
    (repeats allowed)."""

    graph: Graph
    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", tuple(map(read_id, self.left, repeat("left boundary"))))
        object.__setattr__(self, "right", tuple(map(read_id, self.right, repeat("right boundary"))))
        if len(self.left) != len(self.right):
            raise ValueError("left and right boundaries must have equal width")
        for v in (*self.left, *self.right):
            if not 0 <= v < self.graph.n:
                raise ValueError(f"boundary vertex {v} out of range")

    @property
    def width(self) -> int:
        return len(self.left)


def tile_concat(q1: Tile, q2: Tile) -> Tile:
    """Disjoint union with right(q1) joined to left(q2) position by position."""
    if q1.width != q2.width:
        raise ValueError(f"width mismatch: {q1.width} vs {q2.width}")
    shift = q1.graph.n
    edges = q1.graph.edges()
    edges += [(u + shift, v + shift) for u, v in q2.graph.edges()]
    # every join runs from copy 1 to copy 2, so none is a loop; a repeated
    # join is a parallel edge, which `Graph.from_edges` refuses
    edges += [(r, l + shift) for r, l in zip(q1.right, q2.left)]
    graph = Graph.from_edges(shift + q2.graph.n, edges)
    return Tile(
        graph=graph,
        left=q1.left,
        right=tuple(v + shift for v in q2.right),
    )


def tile_power(q: Tile, t: int) -> Tile:
    """t copies of q concatenated in a row, t >= 1."""
    graph, _ = _copies(q, t, closed=False)
    return Tile(graph, q.left, tuple(v + (t - 1) * q.graph.n for v in q.right))


def _copies(
    q: Tile, t: int, closed: bool
) -> tuple[Graph, list[tuple[set[int], list[tuple[int, int]]]]]:
    """Q^t, or its closure when closed, and its pieces as (vertices, edges).

    Piece i is copy i (offset i * |V(q)|) plus the join bundle from copy i to
    copy i+1; the bundle of the last copy joins copy 0 when closed and is
    empty otherwise.  A piece's vertex set is its copy plus the bundle
    endpoints.  A repeated join is a parallel edge, which `Graph.from_edges`
    refuses.
    """
    t = read_int(t, "copy count")
    if t < 1 + closed:
        raise ValueError(f"{'closing' if closed else 'power'} needs t >= {1 + closed} copies")
    n0 = q.graph.n
    inner = q.graph.edges()
    pieces = []
    for i in range(t):
        base = i * n0
        verts, edges = set(range(base, base + n0)), [(u + base, v + base) for u, v in inner]
        if closed or i < t - 1:
            nxt = (i + 1) % t * n0
            verts.update(nxt + l for l in q.left)
            edges += [(base + r, nxt + l) for r, l in zip(q.right, q.left)]
        pieces.append((verts, edges))
    return Graph.from_edges(t * n0, [e for _, edges in pieces for e in edges]), pieces


def tile_close(q: Tile, t: int) -> Graph:
    """Cyclic closure of Q^t: the outer boundaries are joined as well."""
    return _copies(q, t, closed=True)[0]


def canonical_periodic_decomposition(q: Tile, t: int) -> tuple[Graph, EdgeDecomposition]:
    """The closure of Q^t plus its decomposition into copy-plus-bundle pieces."""
    closure, pieces = _copies(q, t, closed=True)
    return closure, EdgeDecomposition(tuple(Piece(verts, edges) for verts, edges in pieces))
