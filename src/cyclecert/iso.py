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
checks.

The search counts candidate assignments as nodes of the caller's
`SearchBudget`, inline, and settles them with the budget once per call,
which also reads its clock.  Past either cap it raises BudgetExceededError,
so "unknown" is never conflated with "not isomorphic".  Exactness over
speed: no hashing shortcuts decide the positive answer, only an explicit
bijection does.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Optional

from .errors import SearchBudget
from .graphs import Graph, iter_bits

__all__ = ["isomorphic", "prepare", "match", "PreparedGraph"]


def _neighbor_lists(g: Graph) -> list[list[int]]:
    # Lists, not tuples: a tuple built from a generator is allocated large and
    # then shrunk, and over many calls the shrunk ones pile up in CPython's
    # per-size tuple free lists (about 1 MB of peak RSS on a K31 window test).
    return [list(iter_bits(row)) for row in g.adj]


@dataclass(frozen=True)
class PreparedGraph:
    """The g1 side of an isomorphism test, reusable against any number of g2.

    `rounds` holds (signature-to-color table, sorted colors) per refinement
    round, the sorted colors standing for the color histogram; `back[d]` lists the vertices before position d of `order` that are
    adjacent to order[d].
    """

    n: int
    edge_count: int
    degree_sequence: list[int]
    rounds: tuple[tuple[dict, list[int]], ...]
    colors: list[int]
    order: list[int]
    back: list[list[int]]


def prepare(g: Graph) -> PreparedGraph:
    """Refine g to a fixed point and fix its backtracking order."""
    nbrs = _neighbor_lists(g)
    degrees = [len(nb) for nb in nbrs]
    cols = degrees
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
        degree_sequence=sorted(degrees),
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


def match(p: PreparedGraph, g2: Graph, budget: Optional[SearchBudget] = None) -> bool:
    """Decide whether g2 is isomorphic to the prepared graph.

    Every candidate placement is one node of budget; raises
    BudgetExceededError when the budget runs out.
    """
    budget = budget or SearchBudget()
    found, nodes = _search(p, g2, budget.max_nodes - budget.nodes)
    budget.charge(nodes)
    return found


def _search(p: PreparedGraph, g2: Graph, limit: int) -> tuple[bool, int]:
    """The answer and the nodes spent; past limit nodes it stops and reports
    limit + 1, which the budget refuses."""
    if g2.n != p.n or g2.edge_count != p.edge_count:
        return False, 0
    nbrs = _neighbor_lists(g2)
    cols = [len(nb) for nb in nbrs]
    if sorted(cols) != p.degree_sequence:
        return False, 0
    if p.n == 0:
        return True, 0
    for table, histogram in p.rounds:
        cols = [
            table.get((cols[v], tuple(sorted([cols[u] for u in nb]))), -1)
            for v, nb in enumerate(nbrs)
        ]
        # A signature g1 never produced maps to -1, which no g1 color is.
        if sorted(cols) != histogram:
            return False, 0
    by_color: dict[int, list[int]] = {}
    for w, c in enumerate(cols):
        by_color.setdefault(c, []).append(w)

    n, order, back, adj2 = p.n, p.order, p.back, g2.adj
    candidates = [by_color[p.colors[v]] for v in order]
    image = [0] * n
    resume = [0] * n  # per depth: index of the next candidate to try
    used = 0
    nodes = 0
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
            if nodes > limit:
                return False, nodes
            if adj2[w] & used != want:
                continue
            image[order[depth]] = w
            used |= 1 << w
            resume[depth] = k + 1
            depth += 1
            if depth == n:
                return True, nodes
            start = 0
            break
        else:
            depth -= 1
            if depth < 0:
                return False, nodes
            used ^= 1 << image[order[depth]]
            start = resume[depth]


def isomorphic(g1: Graph, g2: Graph, budget: Optional[SearchBudget] = None) -> bool:
    """Decide whether two graphs are isomorphic (declared vertex sets included).

    Isolated vertices count: graphs of unequal order are never isomorphic.
    Raises BudgetExceededError when the budget runs out.
    """
    return match(prepare(g1), g2, budget)
