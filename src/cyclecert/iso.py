"""Exact graph isomorphism by color refinement plus backtracking.

One call, `find_mapping(g1, g2)`, returns an isomorphism or None;
`isomorphic` says only whether there is one.

Both graphs are refined together, in one loop: starting from degrees, each
round gives every vertex the color of its signature (own color, sorted
neighbor colors).  A table shared by both sides numbers g1's signatures in
order of first appearance; a g2 signature missing from it gets -1, which no
g1 color is.  Any round whose sorted colors differ between the sides refutes
isomorphism, and the loop stops once a round splits no color class of g1.
g1's colors and stopping round thus never depend on g2.

Both sides may carry initial vertex colors, which enter round 0 as
(degree, color) pairs in place of the degrees; an isomorphism found then
maps every vertex to one of the same initial color, and a round-0 histogram
that differs refutes before anything is refined.  `structures.find_shift`
matches one graph against itself, each vertex colored by the parts that
hold it on one side and by those parts minus one on the other, so that a
match is an automorphism carrying each part onto the next; g2 is then g1,
and its neighbour lists are built once.

The backtracking order is fixed from g1, breadth first in the
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
`SearchBudget` in a local count.  Each round of refinement reads the clock
with a charge of no nodes, which returns the room; the first round starts
the clock.  The search settles its count with `charge` whenever the count
passes that room, at most every 4096 nodes, and at the end of the call;
each settle reads the clock, so a single long search stops on time.
Past either cap it raises BudgetExceededError, so "unknown" is never
conflated with "not isomorphic".  Exactness over speed: no hashing
shortcuts decide the positive answer, only an explicit bijection does.
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush
from typing import Optional, Sequence

from .errors import SearchBudget
from .graphs import Graph, iter_bits

__all__ = ["isomorphic", "find_mapping"]


def _neighbor_lists(g: Graph) -> list[list[int]]:
    # Lists, not tuples: a tuple built from a generator is allocated large and
    # then shrunk, and over many calls the shrunk ones pile up in CPython's
    # per-size tuple free lists (about 1 MB of peak RSS on a K31 window test).
    return [list(iter_bits(row)) for row in g.adj]


def _initial_colors(degrees: list[int], colors: Optional[Sequence[int]]) -> list:
    return degrees if colors is None else list(zip(degrees, colors, strict=True))


def isomorphic(g1: Graph, g2: Graph, budget: Optional[SearchBudget] = None) -> bool:
    """Decide whether two graphs are isomorphic (declared vertex sets included).

    Isolated vertices count: graphs of unequal order are never isomorphic.
    Every candidate placement is one node of budget; raises
    BudgetExceededError when the budget runs out.
    """
    return find_mapping(g1, g2, budget) is not None


def find_mapping(
    g1: Graph,
    g2: Graph,
    budget: Optional[SearchBudget] = None,
    colors1: Optional[Sequence[int]] = None,
    colors2: Optional[Sequence[int]] = None,
) -> Optional[list[int]]:
    """An isomorphism from g1 onto g2 as a list of images, or None when there
    is none.  colors1[v] and colors2[w], if given, are the initial colors of
    the vertices of g1 and g2, and the isomorphism keeps them; budget as in
    `isomorphic`."""
    budget = budget or SearchBudget()
    image, nodes = _search(g1, g2, colors1, colors2, budget)
    budget.charge(nodes)
    return image


def _breadth_first_order(
    nbrs: list[list[int]], degrees: list[int], cols: list[int]
) -> tuple[list[int], list[list[int]]]:
    """The backtracking order, and per position d the neighbours of order[d]
    placed before it.

    Level by level from the rarest-color, highest-degree root, then from
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
    back: list[list[int]] = []
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
                back.append([u for u in nbrs[v] if placed[u]])
                for u in nbrs[v]:
                    placed_nbrs[u] += 1
                    if level_of[u] < 0:
                        level_of[u] = depth + 1
                        upcoming.append(u)
                    elif level_of[u] == depth and not placed[u]:
                        heappush(heap, (-placed_nbrs[u], rarity[u], -degrees[u], u))
            level = upcoming
            depth += 1
    return order, back


def _search(
    g1: Graph,
    g2: Graph,
    colors1: Optional[Sequence[int]],
    colors2: Optional[Sequence[int]],
    budget: SearchBudget,
) -> tuple[Optional[list[int]], int]:
    """The images of a bijection, or None, and the nodes not yet charged.

    Each round of refinement reads the clock, charging no nodes; the first
    starts it.  Whenever the count passes the budget's room, at most every
    4096 nodes and at the first node past the cap, it charges the nodes so
    far, which reads the clock, raises past either cap and opens the next
    room."""
    if g2.n != g1.n or g2.edge_count != g1.edge_count:
        return None, 0
    degrees = [row.bit_count() for row in g1.adj]
    cols1 = _initial_colors(degrees, colors1)
    cols2 = _initial_colors([row.bit_count() for row in g2.adj], colors2)
    if sorted(cols1) != sorted(cols2):
        return None, 0
    n = g1.n
    if n == 0:
        return [], 0
    nbrs1 = _neighbor_lists(g1)
    nbrs2 = nbrs1 if g2 is g1 else _neighbor_lists(g2)
    classes = len(set(cols1))
    while True:
        room = budget.charge(0)  # each round reads the clock; the first starts it
        table: dict[tuple, int] = {}
        cols1 = [
            table.setdefault((cols1[v], tuple(sorted([cols1[u] for u in nb]))), len(table))
            for v, nb in enumerate(nbrs1)
        ]
        # A signature g1 never produced maps to -1, which no g1 color is.
        cols2 = [
            table.get((cols2[v], tuple(sorted([cols2[u] for u in nb]))), -1)
            for v, nb in enumerate(nbrs2)
        ]
        if sorted(cols1) != sorted(cols2):
            return None, 0
        if len(table) == classes:
            break
        classes = len(table)
    order, back = _breadth_first_order(nbrs1, degrees, cols1)
    by_color: dict[int, list[int]] = {}
    for w, c in enumerate(cols2):
        by_color.setdefault(c, []).append(w)

    adj2 = g2.adj
    candidates = [by_color[cols1[v]] for v in order]
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
            if nodes > room:
                room = budget.charge(nodes)
                nodes = 0
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

