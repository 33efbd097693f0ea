"""Exact graph isomorphism by color refinement plus backtracking.

`isomorphic(g1, g2)` is `match(prepare(g1), g2)`: everything that depends
on g1 alone is computed once, so a caller comparing one graph against many
(the window test in `structures` compares each window length's anchor
against every other start) prepares it once and matches the rest.

`prepare` refines g1 by itself: starting from degrees, each round gives
every vertex the color of its signature (own color, sorted neighbor colors),
numbering signatures in order of first appearance, until a round splits no
color class.  It keeps each round's signature-to-color table and color
histogram.  `match` replays the rounds on g2 through the stored tables; a
g2 signature missing from a table, or any histogram that differs, refutes
isomorphism.  Since g1's colors and stopping round never depend on g2, this
is the joint refinement of both graphs with color ids shared, and it gives
the same colors.

Both sides may carry initial vertex colors, which enter round 0 as
(degree, color) pairs in place of the degrees; an isomorphism found then
maps every vertex to one of the same initial color.  `structures.find_shift`
colors one graph by part index on one side and by part index minus one on
the other, so that a match is an automorphism carrying each part onto the
next.

`prepare` also fixes the backtracking order, breadth first in the
connectivity-first manner of VF2++ (Juttner and Madarasi, Discrete Applied
Mathematics 242, 2018): level by level from the rarest-color,
highest-degree root, restarting at the next such root for each further
component.  Within a level it takes first the vertex with the most
neighbours already placed, then the rarest color, the highest degree, the
lowest id.  Each placement is thus pinned by as many mapped neighbours as
the graph allows; sorting by color rarity and degree alone would walk a
vertex-transitive torus row by row with one back-neighbour per step.

Backtracking then maps vertices of g1 in that order, on an explicit stack so
that the depth is not limited by the interpreter's recursion limit; a
candidate image must carry the same color and reproduce the adjacency
pattern against everything already mapped, which one bitmask comparison
checks.  `find_mapping` returns the bijection itself; `match` only says
whether there is one.

The search counts candidate assignments as nodes of the caller's
`SearchBudget`, inline, and settles them with the budget every 4096 nodes
and at the end of the call, which also reads its clock; a single long
search thus stops on time.  Past either cap it raises BudgetExceededError,
so "unknown" is never conflated with "not isomorphic".  Exactness over
speed: no hashing shortcuts decide the positive answer, only an explicit
bijection does.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Optional, Sequence

from .errors import SearchBudget
from .graphs import Graph, iter_bits

__all__ = ["isomorphic", "prepare", "match", "find_mapping", "PreparedGraph"]


def _neighbor_lists(g: Graph) -> list[list[int]]:
    # Lists, not tuples: a tuple built from a generator is allocated large and
    # then shrunk, and over many calls the shrunk ones pile up in CPython's
    # per-size tuple free lists (about 1 MB of peak RSS on a K31 window test).
    return [list(iter_bits(row)) for row in g.adj]


@dataclass(frozen=True)
class PreparedGraph:
    """The g1 side of an isomorphism test, reusable against any number of g2.

    `initial` is the sorted round-0 colors: the degrees, or (degree, color)
    pairs when initial colors are given.  `rounds` holds (signature-to-color
    table, sorted colors) per refinement round, the sorted colors standing
    for the color histogram; `back[d]` lists the vertices before position d
    of `order` that are adjacent to order[d].
    """

    n: int
    edge_count: int
    initial: list
    rounds: tuple[tuple[dict, list[int]], ...]
    colors: list[int]
    order: list[int]
    back: list[list[int]]


def _initial_colors(degrees: list[int], colors: Optional[Sequence[int]]) -> list:
    return degrees if colors is None else list(zip(degrees, colors, strict=True))


def prepare(g: Graph, colors: Optional[Sequence[int]] = None) -> PreparedGraph:
    """Refine g to a fixed point and fix its backtracking order; colors[v],
    if given, is the initial color of vertex v."""
    nbrs = _neighbor_lists(g)
    degrees = [len(nb) for nb in nbrs]
    cols = _initial_colors(degrees, colors)
    initial = sorted(cols)
    classes = len(set(cols))
    rounds = []
    while True:
        table: dict[tuple, int] = {}
        cols = [
            table.setdefault((cols[v], tuple(sorted([cols[u] for u in nb]))), len(table))
            for v, nb in enumerate(nbrs)
        ]
        rounds.append((table, sorted(cols)))
        if len(table) == classes:
            break
        classes = len(table)
    order = _breadth_first_order(nbrs, degrees, cols)
    position = [0] * g.n
    for d, v in enumerate(order):
        position[v] = d
    back = [[u for u in nbrs[v] if position[u] < d] for d, v in enumerate(order)]
    return PreparedGraph(
        n=g.n,
        edge_count=g.edge_count,
        initial=initial,
        rounds=tuple(rounds),
        colors=cols,
        order=order,
        back=back,
    )


def _breadth_first_order(nbrs: list[list[int]], degrees: list[int], cols: list[int]) -> list[int]:
    """Level by level from the rarest-color, highest-degree root, then from
    the next such root for each further component.  Within a level, most
    neighbours already placed first, then rarest color, highest degree,
    lowest id."""
    n = len(nbrs)
    class_size = Counter(cols)
    rarity = [class_size[c] for c in cols]
    level_of = [-1] * n
    placed_nbrs = [0] * n
    placed = [False] * n
    order: list[int] = []
    for root in sorted(range(n), key=lambda v: (rarity[v], -degrees[v], v)):
        if level_of[root] >= 0:
            continue
        level_of[root] = 0
        level = [root]
        depth = 0
        while level:
            # A heap with one entry per change of placed_nbrs: an entry whose
            # count is out of date, or whose vertex is placed, is skipped.
            heap = [(-placed_nbrs[v], rarity[v], -degrees[v], v) for v in level]
            heapify(heap)
            upcoming = []
            while heap:
                count, _, _, v = heappop(heap)
                if placed[v] or -count != placed_nbrs[v]:
                    continue
                placed[v] = True
                order.append(v)
                for u in nbrs[v]:
                    placed_nbrs[u] += 1
                    if level_of[u] < 0:
                        level_of[u] = depth + 1
                        upcoming.append(u)
                    elif level_of[u] == depth and not placed[u]:
                        heappush(heap, (-placed_nbrs[u], rarity[u], -degrees[u], u))
            level = upcoming
            depth += 1
    return order


def match(
    p: PreparedGraph,
    g2: Graph,
    budget: Optional[SearchBudget] = None,
    colors: Optional[Sequence[int]] = None,
) -> bool:
    """Decide whether g2, with initial colors if given, is isomorphic to the
    prepared graph.

    Every candidate placement is one node of budget; raises
    BudgetExceededError when the budget runs out.
    """
    return find_mapping(p, g2, budget, colors) is not None


def find_mapping(
    p: PreparedGraph,
    g2: Graph,
    budget: Optional[SearchBudget] = None,
    colors: Optional[Sequence[int]] = None,
) -> Optional[list[int]]:
    """An isomorphism from the prepared graph onto g2 as a list of images,
    or None when there is none; budget as in `match`."""
    budget = budget or SearchBudget()
    image, nodes = _search(p, g2, colors, budget)
    budget.charge(nodes)
    return image


def _search(
    p: PreparedGraph, g2: Graph, colors: Optional[Sequence[int]], budget: SearchBudget
) -> tuple[Optional[list[int]], int]:
    """The images of a bijection, or None, and the nodes not yet charged.

    Every 4096 nodes, and at the first node past the cap, it charges the
    nodes so far, which reads the clock and raises past either cap."""
    if g2.n != p.n or g2.edge_count != p.edge_count:
        return None, 0
    nbrs = _neighbor_lists(g2)
    cols = _initial_colors([len(nb) for nb in nbrs], colors)
    if sorted(cols) != p.initial:
        return None, 0
    if p.n == 0:
        return [], 0
    for table, histogram in p.rounds:
        cols = [
            table.get((cols[v], tuple(sorted([cols[u] for u in nb]))), -1)
            for v, nb in enumerate(nbrs)
        ]
        # A signature g1 never produced maps to -1, which no g1 color is.
        if sorted(cols) != histogram:
            return None, 0
    by_color: dict[int, list[int]] = {}
    for w, c in enumerate(cols):
        by_color.setdefault(c, []).append(w)

    n, order, back, adj2 = p.n, p.order, p.back, g2.adj
    candidates = [by_color[p.colors[v]] for v in order]
    image = [0] * n
    resume = [0] * n  # per depth: index of the next candidate to try
    used = 0
    nodes = 0
    checkpoint = min(budget.max_nodes - budget.nodes, 4096)
    depth = 0
    start = 0
    while True:
        # Image of the already-mapped neighborhood of order[depth], as a bitmask.
        want = 0
        for u in back[depth]:
            want |= 1 << image[u]
        cands = candidates[depth]
        for k in range(start, len(cands)):
            w = cands[k]
            if used >> w & 1:
                continue
            nodes += 1
            if nodes > checkpoint:
                budget.charge(nodes)
                nodes = 0
                checkpoint = min(budget.max_nodes - budget.nodes, 4096)
            if adj2[w] & used != want:
                continue
            image[order[depth]] = w
            used |= 1 << w
            resume[depth] = k + 1
            depth += 1
            if depth == n:
                return image, nodes
            start = 0
            break
        else:
            depth -= 1
            if depth < 0:
                return None, nodes
            used ^= 1 << image[order[depth]]
            start = resume[depth]


def isomorphic(g1: Graph, g2: Graph, budget: Optional[SearchBudget] = None) -> bool:
    """Decide whether two graphs are isomorphic (declared vertex sets included).

    Isolated vertices count: graphs of unequal order are never isomorphic.
    Raises BudgetExceededError when the budget runs out.
    """
    return match(prepare(g1), g2, budget)
