"""Small immutable simple graphs with bitmask adjacency, plus the generators
used throughout: cycles, cliques, bipartite cliques, torus products of two
cycles, and circulants.

Vertices are always 0..n-1.  Loops and parallel edges are rejected at
construction time; every edge is stored normalized as (u, v) with u < v.

Vertex ids and edges a caller or a file hands in are read by one rule:
`read_id` (an int, not a bool) and `read_edge` (two such ids, normalized).
The constructors of partitions, decompositions, shifts, tiles and drawings
apply it when built, and `convex_drawing` to each id of its order;
`Graph.from_edges` trusts the generators and file readers with its edges.
`read_int` applies the same rule to the other integers a caller hands in:
`check_order` reads a vertex count by it, in every generator, in
`Graph.from_edges` and in the star decompositions, `check_torus` the two
factors of a torus, `circulant` each stride, and `circulant14_decomposition`
its k, `find_transitive_partition` its class count t and
`greedy_block_cover` its start, each before any comparison.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

__all__ = [
    "Graph",
    "iter_bits",
    "norm_edge",
    "cycle",
    "complete",
    "complete_bipartite",
    "cartesian_cycles",
    "circulant",
]


def norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def read_int(x: object, what: str) -> int:
    """x by `read_id`'s rule (an int, not a bool), else TypeError naming
    what and x."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{what} {x!r} is not an int")
    return int(x)


def check_order(count: int) -> None:
    """Refuse a vertex count that is not an int, or is a bool, by `read_id`'s
    rule (TypeError), and one past sys.maxsize, as no list can index it."""
    read_int(count, "vertex count")
    if count > sys.maxsize:
        raise ValueError(f"vertex count exceeds sys.maxsize ({sys.maxsize})")


def read_id(x: object, where: object) -> int:
    """x as a vertex id, else TypeError naming `where` (formatted only then)
    and x: a float or a string would be truncated or parsed into an id."""
    if type(x) is int or isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    raise TypeError(f"{where}: vertex id {x!r} is not an int")


def read_edge(x: object, where: object) -> tuple[int, int]:
    """x, two vertex ids, as the edge (u, v) with u <= v, else TypeError."""
    try:
        (u, v) = x
    except (TypeError, ValueError):
        raise TypeError(f"{where}: edge {x!r} is not two vertex ids") from None
    return norm_edge(read_id(u, where), read_id(v, where))


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; adj[v] is the neighbor set of v as a bitmask."""

    n: int
    adj: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        check_order(n)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            if rows[u] >> v & 1:
                raise ValueError(f"parallel edge {norm_edge(u, v)} is not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n=n, adj=tuple(rows))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """The edges (u, v), u < v, in increasing order: a fresh list of the
        same tuples on every call."""
        return list(self._edges)

    @cached_property
    def _edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (u, v) for u, row in enumerate(self.adj) for v in iter_bits(row >> (u + 1) << (u + 1))
        )

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and 0 <= u < self.n and 0 <= v < self.n and bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.adj[v])

    def closed_mask(self, v: int) -> int:
        return self.adj[v] | (1 << v)


def cycle(n: int) -> Graph:
    """The cycle C_n, n >= 3, with edges (i, i+1 mod n)."""
    check_order(n)
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    """The clique K_n, n >= 1."""
    check_order(n)
    if n < 1:
        raise ValueError("a complete graph needs at least 1 vertex")
    return Graph.from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n}: side U is 0..m-1, side W is m..m+n-1."""
    check_order(m)
    check_order(n)
    if m < 1 or n < 1:
        raise ValueError("both sides of a bipartite clique must be nonempty")
    check_order(m + n)
    return Graph.from_edges(m + n, ((u, m + w) for u in range(m) for w in range(n)))


def check_torus(m: int, n: int) -> None:
    """Refuse cycle factors of a C_m x C_n torus that are not ints, or are
    bools (TypeError), are under 3, or give a vertex count past
    sys.maxsize."""
    read_int(m, "cycle factor")
    read_int(n, "cycle factor")
    if m < 3 or n < 3:
        raise ValueError("both cycle factors need at least 3 vertices")
    check_order(m * n)


def cartesian_cycles(m: int, n: int) -> Graph:
    """The torus product of C_m and C_n; vertex (i, j) has id i*n + j.

    Edges join (i, j)-(i, j+1) and (i, j)-(i+1, j), both indices cyclic.
    Requires m, n >= 3 so that the product stays a simple graph.
    """
    check_torus(m, n)
    edges = []
    for i in range(m):
        for j in range(n):
            edges.append((i * n + j, i * n + (j + 1) % n))
            edges.append((i * n + j, ((i + 1) % m) * n + j))
    return Graph.from_edges(m * n, edges)


def circulant(n: int, strides: Iterable[int]) -> Graph:
    """Circulant graph on Z_n with edges {i, i+a mod n} for each stride a.

    Strides must be distinct values in 1..n//2; a stride equal to n/2
    contributes each diameter once.
    """
    ss = sorted(read_int(a, "stride") for a in strides)
    if not ss:
        raise ValueError("at least one stride is required")
    check_order(n)
    if n < 2:
        raise ValueError("a circulant needs at least 2 vertices")
    for i, a in enumerate(ss):
        if not 1 <= a <= n // 2:
            raise ValueError(f"stride {a} out of range 1..{n // 2}")
        if i and ss[i - 1] == a:
            raise ValueError(f"stride {a} is repeated")
    edges = set()
    for a in ss:
        for i in range(n):
            edges.add(norm_edge(i, (i + a) % n))
    return Graph.from_edges(n, sorted(edges))
