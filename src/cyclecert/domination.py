"""Domination validators and exact solvers at desk scale, bitmask throughout.

Three set families are supported: dominating (every vertex is in the set or
adjacent to it), total dominating (every vertex has a neighbor in the set,
so the host graph must have no isolated vertices), and paired dominating
(dominating, and the induced subgraph on the set has a perfect matching).
Every check reads the rows of the members, closed neighborhoods for
dominating and paired sets and open ones for total: a set covers V when
their OR is V, and a covering set is minimal exactly when every member is
the only member of some row (removing it uncovers just those rows).

Both exact solvers run in one frame (`_solved`): it refuses a bad variant
or an isolated vertex in the caller's ids, relabels the graph in reverse
Cuthill-McKee order (a breadth-first order, reversed), so that a vertex's
neighbors sit close to it in the order whatever ids the caller gave, runs
the solver's search on the relabelled graph, and maps the witness back to
the caller's ids, sorted.  A torus stored row by row keeps a frontier
about two rows wide in id order, and this order narrows it.  Below,
"first" means earliest in the order a search runs in: that order for the
two solvers, the caller's ids for the corollary searches.

Exact minimums come from one item-cover search: iterative deepening over
the number of items, each depth a branch-and-bound on an explicit stack
that branches on the uncovered vertex with the fewest items left, scanning
only the vertices that have lost an item (ties to the first; the first
uncovered vertex while none has), backtracks at once when that vertex has
none left or when more uncovered vertices than items left pairwise share
no item, and tries the items covering it in order.  An item is a vertex
for dominating and total sets and an edge for paired ones, since a paired
set is exactly a disjoint union of edges whose endpoints dominate
everything; choosing an edge rules out every edge that meets it.  Exact
maximums over minimal sets come from one branch-and-bound pass that
decides the vertices in order and keeps the largest minimal set found so
far as a bar that only rises; it prunes on irredundance (a member that has
lost every private neighbor never gets one back), on decided vertices left
undominated, on a count of the undecided vertices that cannot beat the bar,
and on the free bound: each member that a minimal set adds below a node
needs a private vertex of its own, which no member chosen so far watches,
so the chosen members plus the vertices that none of them watches must
beat the bar.  Both are budget-guarded: blowing the node or time budget
raises, it never degrades to a wrong answer.

The corollary searches run on the same item-cover search, with the
prefix inequality of a cyclically ordered partition as a side constraint:
a weight per part, and every prefix of the weights strictly under
j * bound / t for prefix length j.  The rotation is pinned at part 0; this
loses nothing exactly when a verified cyclic shift symmetry maps each part
onto the next, which is why the searches insist on one, and it holds in
any search order.  The slacks of all the prefixes are packed in one
integer, so one subtraction tests an item against every cap, and weights
only rise as items join, so an item that breaks a cap stays forbidden
below that node.  With the weight of a part taken as the number of chosen
vertices in it, a positive search at h + 1/2 and a negative search at
h - 1/2 decide whether the minimum equals h without ever reporting the
minimum itself.  With the weight taken as the redundant domination of its
vertices, the same search plays that game against the target
(k+1) * h - |V| on a k-regular graph.  On integer weights every nudge in
(0, 1) answers alike, so h must be an int (else ValueError) and the nudge
is 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Optional, Sequence

from .cyclic_core import HALF, integer_bound
# BudgetExceededError is re-exported: callers reach it through this module
from .errors import BudgetExceededError, SearchBudget
from .graphs import Graph, iter_bits, read_id
from .structures import CyclicSymmetry, VertexPartition, cyclic_symmetry_violations

__all__ = [
    "Variant",
    "SearchBudget",
    "BudgetExceededError",
    "SolveReport",
    "is_dominating",
    "is_total_dominating",
    "induced_perfect_matching_exists",
    "is_paired_dominating",
    "pn",
    "epn",
    "ipn",
    "is_minimal_total_dominating",
    "is_minimal_dominating",
    "rd_vertex",
    "rd_graph",
    "min_parameter",
    "max_minimal_parameter",
    "prefix_pruned_search",
    "decide_parameter_via_prefix",
    "rd_prefix_pruned_search",
    "paired_lower_bound",
    "paired_value_c5",
]


class Variant(Enum):
    DOMINATING = "dominating"
    TOTAL = "total"
    PAIRED = "paired"


@dataclass(frozen=True)
class SolveReport:
    value: int
    witness: tuple[int, ...]
    nodes_explored: int  # this solve's nodes, also on a budget shared with other searches


def _vertex(g: Graph, x: object, where: str) -> int:
    """x read as a vertex id by `graphs.read_id`, else TypeError naming
    where; ValueError when it is not a vertex of g."""
    v = read_id(x, where)
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return v


def _mask_of(g: Graph, vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << _vertex(g, v, "set")
    return mask


def _reject_isolated(g: Graph) -> None:
    for v in range(g.n):
        if g.adj[v] == 0:
            raise ValueError(f"vertex {v} is isolated; no such set exists")


def _cover_rows(g: Graph, variant: Variant) -> list[int]:
    """The rows a set of the variant covers V with: open neighborhoods for
    total, closed ones otherwise.  Raises ValueError on an isolated vertex
    for total and paired, which no such set can cover, and TypeError on
    anything but a Variant, so that a string such as "paired" is refused
    rather than solved as another variant."""
    if variant is Variant.TOTAL:
        _reject_isolated(g)
        return list(g.adj)
    if variant is Variant.PAIRED:
        _reject_isolated(g)
    elif variant is not Variant.DOMINATING:
        raise TypeError(f"variant must be a Variant, got {variant!r}")
    return [g.closed_mask(v) for v in range(g.n)]


def _rcm(g: Graph) -> tuple[Graph, list[int]]:
    """g relabelled in reverse Cuthill-McKee order, and the old id of each
    new id.

    A breadth-first search runs from the lowest unvisited id of each
    component and visits each vertex's unvisited neighbors by (degree, id);
    the order is then reversed.  Every edge joins one breadth-first layer
    or two consecutive ones, so a search that decides vertices in this
    order keeps few of them decided but not yet settled."""
    degree = g.degrees()
    order: list[int] = []
    seen = 0
    for root in range(g.n):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        i = len(order)
        order.append(root)
        while i < len(order):  # order is the queue, and grows as it is read
            v = order[i]
            i += 1
            fresh = g.adj[v] & ~seen
            seen |= fresh
            # by degree; the sort is stable, so ties stay in id order
            order.extend(sorted(iter_bits(fresh), key=degree.__getitem__))
    order.reverse()
    new = [0] * g.n
    for i, v in enumerate(order):
        new[v] = i
    adj = tuple(sum(1 << new[w] for w in iter_bits(g.adj[v])) for v in order)
    return Graph(g.n, adj), order


def _union(rows: Sequence[int], mask: int) -> int:
    """OR of the rows of the members of mask."""
    covered = 0
    while mask:
        low = mask & -mask
        covered |= rows[low.bit_length() - 1]
        mask ^= low
    return covered


def _matched(adj: Sequence[int], mask: int) -> bool:
    """Does the subgraph that the adjacency rows induce on mask have a
    perfect matching?"""
    if mask.bit_count() % 2 == 1:
        return False
    # depth first over the vertices left to match: the lowest one is matched
    # to each neighbor left, in ascending id (pushed descending, popped
    # ascending); a set of vertices left that was already pushed is skipped
    stack, seen = [mask], {mask}
    while stack:
        rem = stack.pop()
        if rem == 0:
            return True
        low = rem & -rem
        rem ^= low
        cands = adj[low.bit_length() - 1] & rem
        while cands:
            top = 1 << cands.bit_length() - 1
            if rem ^ top not in seen:
                seen.add(rem ^ top)
                stack.append(rem ^ top)
            cands ^= top
    return False


def is_dominating(g: Graph, ds: Iterable[int]) -> bool:
    """Every vertex is in the set or adjacent to a member."""
    return _union(_cover_rows(g, Variant.DOMINATING), _mask_of(g, ds)) == g.full_mask


def is_total_dominating(g: Graph, s: Iterable[int]) -> bool:
    """Every vertex (members included) has a neighbor in the set."""
    return _union(_cover_rows(g, Variant.TOTAL), _mask_of(g, s)) == g.full_mask


def induced_perfect_matching_exists(g: Graph, s: Iterable[int]) -> bool:
    """Does the induced subgraph on s admit a perfect matching?"""
    return _matched(g.adj, _mask_of(g, s))


def is_paired_dominating(g: Graph, s: Iterable[int]) -> bool:
    """Dominating, and the set induces a subgraph with a perfect matching;
    False, not ValueError, when the graph has an isolated vertex."""
    mask = _mask_of(g, s)
    return (
        _union(_cover_rows(g, Variant.DOMINATING), mask) == g.full_mask
        and _matched(g.adj, mask)
    )


def _private(g: Graph, smask: int, v: int) -> frozenset[int]:
    v = _vertex(g, v, "v")
    if not smask >> v & 1:
        raise ValueError(f"vertex {v} is not in the set")
    want = 1 << v
    return frozenset(w for w in range(g.n) if g.adj[w] & smask == want)


def pn(g: Graph, s: Iterable[int], v: int) -> frozenset[int]:
    """Private neighbors of v in s: vertices w with N(w) meeting s only at v."""
    return _private(g, _mask_of(g, s), v)


def epn(g: Graph, s: Iterable[int], v: int) -> frozenset[int]:
    """External private neighbors: pn(v) outside the set."""
    smask = _mask_of(g, s)
    return frozenset(w for w in _private(g, smask, v) if not smask >> w & 1)


def ipn(g: Graph, s: Iterable[int], v: int) -> frozenset[int]:
    """Internal private neighbors: pn(v) inside the set."""
    smask = _mask_of(g, s)
    return frozenset(w for w in _private(g, smask, v) if smask >> w & 1)


def _is_minimal(g: Graph, s: Iterable[int], variant: Variant) -> bool:
    """Private-row test: every member is the only member of some row.

    Rejects a set that does not cover.  Equivalent to the definitional
    check that no single removal still covers."""
    rows = _cover_rows(g, variant)
    smask = _mask_of(g, s)
    if _union(rows, smask) != g.full_mask:
        raise ValueError(f"not a {'total ' if variant is Variant.TOTAL else ''}dominating set")
    have_private = 0
    for row in rows:
        a = row & smask
        if a.bit_count() == 1:
            have_private |= a
    return smask == have_private


def is_minimal_total_dominating(g: Graph, s: Iterable[int]) -> bool:
    """Every member keeps a private neighbor in its open neighborhood.

    Rejects input that is not a total dominating set."""
    return _is_minimal(g, s, Variant.TOTAL)


def is_minimal_dominating(g: Graph, ds: Iterable[int]) -> bool:
    """Every member keeps a private neighbor in its closed neighborhood.

    Rejects input that is not a dominating set."""
    return _is_minimal(g, ds, Variant.DOMINATING)


def rd_vertex(g: Graph, s: Iterable[int], u: int) -> int:
    """Redundant domination at u: |N[u] meet s| - 1 (so -1 when undominated)."""
    smask = _mask_of(g, s)
    return (g.closed_mask(_vertex(g, u, "u")) & smask).bit_count() - 1


def rd_graph(g: Graph, s: Iterable[int]) -> int:
    """Sum of rd_vertex over all vertices."""
    smask = _mask_of(g, s)
    return sum((g.closed_mask(u) & smask).bit_count() - 1 for u in range(g.n))


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def paired_lower_bound(g: Graph) -> int:
    """Smallest even integer at least |V| / max-degree."""
    _reject_isolated(g)
    if g.n == 0:
        return 0
    delta = max(g.degrees())
    value = _ceil_div(g.n, delta)
    return value + (value % 2)


def paired_value_c5(n: int) -> int:
    """Closed form for the paired domination number of the C_5 x C_n torus."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"n must be an int, got {n!r}")
    if n < 3:
        raise ValueError("need n >= 3")
    value = _ceil_div(4 * n, 3)
    return value + 1 if n % 3 == 2 else value


def _min_cover_search(
    full: int,
    items: list[int],
    covers: list[int],
    reach: list[int],
    blocks: list[int],
    cap: int,
    sizes: range,
    budget: SearchBudget,
    prefix: Optional[tuple[list[int], int, int]] = None,
) -> Optional[int]:
    """Vertex mask of the first union of at most k items that covers full,
    for the smallest k in sizes; None when no k in sizes has one.

    Item e adds the vertices items[e] to the set and covers covers[e];
    reach[u] holds the items whose cover holds u, and blocks[e] the items
    that choosing e rules out below it; no item covers more than cap.
    Vertices and items are taken in index order, which is the reverse
    Cuthill-McKee position under min_parameter and the caller's id under
    the prefix searches.  For each k, a depth-first search on per-depth
    arrays tries the items of one uncovered vertex in ascending index and
    forbids each tried item to the siblings after it, so no union is
    visited twice.  The vertex is the one with the fewest items left among
    the uncovered vertices that have lost an item since the root, ties to
    the lowest index, and the lowest uncovered vertex while none has; the
    scan stops at a vertex with at most one item left, and a node whose
    vertex has none is a dead end.  hot[d] holds the vertices that may have
    lost one: refusing item e takes it from the vertices of covers[e], and
    choosing e takes blocks[e] from those of shrink[e].  Nodes are counted
    locally and charged to the budget whenever the count passes its room
    and on every exit.

    A node at depth d is also a dead end when a cover below it needs more
    than k items, by either of two bounds on the vertices left uncovered:
    the cap bound, more of them than (k - d) * cap; and the packing bound,
    more than k - d of them that pairwise share no item (Meir and Moon,
    1975).  share[u] holds u and every vertex that some item covering u
    also covers, the union of covers over reach[u], and is filled on u's
    first use.  The walk takes the lowest vertex left, drops its share, and
    repeats, stopping once it has taken k - d + 1 vertices.  No item covers
    two of the vertices taken, so each needs an item of its own.  Forbidden
    and refused items only narrow the choice, so the bound holds under the
    prefix caps too.  It cuts only subtrees that hold no cover of at most k
    items, and the depth-first order is unchanged: each search visits a
    subset of the nodes it visited without the bound, in the same order, and
    finds the same set.

    prefix, when given, is (rise, start, guards): packed slacks that start
    at start and fall by rise[e] as item e joins, valid while every guard
    bit stays set.  A node refuses the items of its vertex whose rise clears
    a guard, and they stay forbidden below it, where the slacks are only
    lower.
    """
    rise, start, guards = prefix or ([], 0, 0)
    shrink = [_union(covers, b) for b in blocks]
    share = [0] * len(reach)  # filled on each vertex's first use
    many = len(items) + 1  # more than any vertex has left
    nodes = 0
    room = budget.charge(0)
    for k in sizes:
        picked = [0] * k  # the item chosen at each depth above the node
        covered = [0] * (k + 1)
        forbid = [0] * (k + 1)
        hot = [0] * (k + 1)  # the vertices with an item forbidden at each depth
        slack = [start] * (k + 1)
        cands = [0] * k  # the items a node at each depth has left to try
        d = 0
        while True:
            nodes += 1
            if nodes > room:
                room = budget.charge(nodes)
                nodes = 0
            left = full & ~covered[d]
            if not left:
                budget.charge(nodes)
                chosen = 0
                for e in picked[:d]:
                    chosen |= items[e]
                return chosen
            # need counts the items a cover below this node must hold: the
            # cap bound (its room (k - d) * cap is 0 at depth k, so this
            # stops there too), then the packing bound
            spread, need = left, d
            if left.bit_count() > (k - d) * cap:
                need = k + 1
            while spread and need <= k:
                need += 1
                u = (spread & -spread).bit_length() - 1
                if not (w := share[u]):
                    w = share[u] = _union(covers, reach[u]) | 1 << u
                spread &= ~w
            if need > k:
                c = 0
            elif scan := hot[d] & left:
                f = forbid[d]
                fewest = many
                while scan:
                    low = scan & -scan
                    r = reach[low.bit_length() - 1] & ~f
                    if (size := r.bit_count()) < fewest:
                        c, fewest = r, size
                        if size <= 1:
                            break
                    scan ^= low
            else:
                c = reach[(left & -left).bit_length() - 1] & ~forbid[d]
            if guards and c:
                if d:
                    slack[d] = slack[d - 1] - rise[picked[d - 1]]
                refused, s, m = 0, slack[d], c
                while m:
                    low = m & -m
                    e = low.bit_length() - 1
                    if (s - rise[e]) & guards != guards:
                        refused |= low
                        hot[d] |= covers[e]
                    m ^= low
                forbid[d] |= refused
                c ^= refused
            while not c and d:
                d -= 1
                c = cands[d]
            if not c:
                break  # no union of k items covers
            bit = c & -c
            e = bit.bit_length() - 1
            cands[d] = c ^ bit
            f = forbid[d] | bit
            forbid[d] = f
            h = hot[d] | covers[e]
            hot[d] = h
            picked[d] = e
            d += 1
            covered[d] = covered[d - 1] | covers[e]
            forbid[d] = f | blocks[e]
            hot[d] = h | shrink[e]
    budget.charge(nodes)
    return None


def _cover_items(
    g: Graph, variant: Variant
) -> tuple[list[int], list[int], list[int], list[int], int]:
    """The items of the variant's cover search as (items, covers, reach,
    blocks, cap), the arguments of _min_cover_search: vertices for dominating
    and total, covering their closed or open rows, and edges for paired,
    covering both closed rows and ruling out every edge that meets them; cap
    is the most vertices any item covers (0 when there is no item)."""
    rows = _cover_rows(g, variant)
    if variant is not Variant.PAIRED:
        # rows are symmetric, so the vertices whose row holds u are rows[u]
        items = [1 << v for v in range(g.n)]
        covers, reach, blocks = rows, rows, items
    else:
        edges = g.edges()
        at = [0] * g.n  # the edges at each vertex
        for e, (u, v) in enumerate(edges):
            at[u] |= 1 << e
            at[v] |= 1 << e
        items = [(1 << u) | (1 << v) for u, v in edges]
        covers = [rows[u] | rows[v] for u, v in edges]
        # rows are symmetric: edge uv covers w exactly when w's row meets uv
        reach = [_union(at, row) for row in rows]
        blocks = [at[u] | at[v] for u, v in edges]
    return items, covers, reach, blocks, max((c.bit_count() for c in covers), default=0)


def _solved(
    g: Graph, variant: Variant, budget: Optional[SearchBudget],
    search: Callable[[Graph, SearchBudget], int],
) -> SolveReport:
    """The frame of both exact solvers.  It refuses the variant or an
    isolated vertex in the caller's ids, relabels g in reverse Cuthill-McKee
    order, runs search on the relabelled graph and the budget (a fresh one
    when none is given) for a vertex mask, and reports that mask's size, its
    vertices in g's ids, sorted, and the nodes this solve charged."""
    budget = budget or SearchBudget()
    start = budget.nodes
    _cover_rows(g, variant)
    relabelled, old = _rcm(g)
    mask = search(relabelled, budget)
    witness = tuple(sorted(old[v] for v in iter_bits(mask)))
    return SolveReport(mask.bit_count(), witness, budget.nodes - start)


def min_parameter(
    g: Graph, variant: Variant, budget: Optional[SearchBudget] = None
) -> SolveReport:
    """Exact minimum size of a set of the given variant, with witness.

    One item-cover search serves all three variants.  An item is a vertex
    for dominating and total, covering its closed or open neighborhood, and
    an edge for paired, covering both closed neighborhoods and ruling out
    every edge that meets it.  Item counts are tried in ascending order, so
    the first witness found is optimal.  The search runs on g relabelled in
    reverse Cuthill-McKee order; the witness is in g's ids, sorted.  Raises
    BudgetExceededError when the budget runs out, and ValueError on an
    isolated vertex for total and paired, where no set of the variant exists.

    Otherwise the size range always holds a set, so the search always finds
    one.  The sizes run up to n, and all n vertices are dominating, and total
    once no vertex is isolated.  For paired, the edge counts run up to n//2,
    and the endpoints of a maximal matching, at most n//2 disjoint edges,
    dominate, as an undominated vertex would extend it; the counts start at
    half of `paired_lower_bound`, which the paired number, even and at least
    n over the largest degree, never falls below.
    """

    def search(g: Graph, budget: SearchBudget) -> int:
        if g.n == 0:
            return 0  # the empty set, found without a node
        items, covers, reach, blocks, cap = _cover_items(g, variant)
        if variant is Variant.PAIRED:
            sizes = range(paired_lower_bound(g) // 2, g.n // 2 + 1)
        else:
            sizes = range(_ceil_div(g.n, cap), g.n + 1)
        return _min_cover_search(g.full_mask, items, covers, reach, blocks, cap, sizes, budget)

    return _solved(g, variant, budget, search)


def _max_minimal_search(rows: list[int], budget: SearchBudget) -> int:
    """Vertex mask of a largest minimal set, in one pass.

    One in/out branch-and-bound over the vertices in index order, which
    max_minimal_parameter makes the reverse Cuthill-McKee order, "in"
    before "out", depth first on an explicit stack.  Nodes are counted
    locally and charged to the budget whenever the count passes its room
    and on every exit.  The bar is the size of the largest minimal set found so far; it
    only rises, and a leaf replaces the witness only when it beats the bar,
    which may have risen since the leaf was pushed.  Each node carries the
    chosen mask and the vertices dominated exactly once and at least twice.
    rows is symmetric (w watches v exactly when v watches w), so member u
    keeps a private neighbor exactly while rows[u] meets the once-dominated
    mask, and the free mask, full & ~(once | more), holds the vertices that
    no member watches.  Four prunes, all sound:

    * irredundance: adding v can only take private neighbors from members
      that share a watcher with v; one left without any kills the branch,
      since adding vertices never gives a private neighbor back;
    * sealed vertices: a vertex whose whole row is decided and meets no
      member can never be dominated;
    * count: the chosen members plus the undecided vertices must beat the
      bar;
    * free bound: the chosen members plus the free vertices must beat the
      bar.  A minimal set S below the node gives each member x it adds a
      private vertex p(x), one that no other member of S watches; no
      chosen member watches p(x), so p(x) is free, and distinct members
      have distinct ones, so |S| <= size + |free|.  A node is cut at pop
      when size + |free| <= best, and the "in" child of v is pushed only
      when size + 1 + |free & ~rows[v]|, its own bound, beats the bar.
      It is never weaker than n - |more| <= best: irredundance gives each
      chosen member a once-watched vertex of its own, so size + |free| <=
      |once| + |free| = n - |more|.

    Each prune cuts only subtrees that hold no minimal set larger than the
    bar, so the witness is the first largest set in depth-first order:
    every leaf before it is smaller, so the bar never cuts the path to it.
    """
    n = len(rows)
    near = [_union(rows, row) for row in rows]  # members that share a watcher with v
    sealed = [0] * n  # vertices whose row is wholly decided once v is
    for w in range(n):
        sealed[rows[w].bit_length() - 1] |= 1 << w

    full = (1 << n) - 1
    best, witness = 0, None
    stack = [(0, 0, 0, 0, 0)]  # next vertex, chosen, size, once, more
    nodes = 0
    room = budget.charge(0)
    while stack:
        v, chosen, size, once, more = stack.pop()
        nodes += 1
        if nodes > room:
            room = budget.charge(nodes)
            nodes = 0
        if v == n:
            if size > best:
                best, witness = size, chosen
            continue
        free = full & ~(once | more)  # watched by no member
        if size + free.bit_count() <= best:
            continue
        # "out" is pushed first so that "in" is explored first; every
        # vertex sealed at v has v in its row, so only "out" can leave
        # one undominated.
        if size + n - v - 1 > best and not sealed[v] & free:
            stack.append((v + 1, chosen, size, once, more))
        row = rows[v]
        if size + n - v > best and size + 1 + (free & ~row).bit_count() > best:
            more_in = more | (once & row)
            once_in = (once | row) & ~more_in
            chosen_in = chosen | 1 << v
            m = chosen_in & near[v]
            while m:
                low = m & -m
                if not rows[low.bit_length() - 1] & once_in:
                    break
                m ^= low
            else:
                stack.append((v + 1, chosen_in, size + 1, once_in, more_in))
    budget.charge(nodes)
    if witness is None:
        raise ValueError("no valid set of any size exists")
    return witness


def max_minimal_parameter(
    g: Graph, variant: Variant, budget: Optional[SearchBudget] = None
) -> SolveReport:
    """Exact maximum size of a minimal (total) dominating set, with witness.

    A set is minimal exactly when it dominates and every member has a
    private neighbor.  One exact branch-and-bound pass prunes on
    irredundance, undominated sealed vertices, and two counts that cannot
    beat the largest minimal set found so far: the undecided vertices, and
    the vertices no chosen member watches, each of which can be the private
    vertex of at most one member still to come.  It decides the vertices in
    reverse Cuthill-McKee order, and the witness, the first largest set in
    its depth-first order, is given in g's ids, sorted.  The search is
    iterative, so large graphs exhaust the budget instead of the recursion
    limit.  Raises ValueError when no minimal set exists (the empty graph,
    or an isolated vertex for total).
    """
    if variant is Variant.PAIRED:
        raise ValueError("upper parameters are defined for dominating/total only")

    def search(g: Graph, budget: SearchBudget) -> int:
        return _max_minimal_search(_cover_rows(g, variant), budget)

    return _solved(g, variant, budget, search)


def _part_index(g: Graph, partition: VertexPartition, symmetry: CyclicSymmetry) -> list[int]:
    """Each vertex's part index, once the partition and its cyclic shift
    symmetry verify (the symmetry check validates the partition first)."""
    problems = cyclic_symmetry_violations(g, partition, symmetry)
    if problems:
        raise ValueError(f"cyclic symmetry does not verify: {problems[0]}")
    part_of = [0] * g.n
    for j, part in enumerate(partition.parts):
        for v in part:
            part_of[v] = j
    return part_of


def _prefix_cover(
    g: Graph,
    variant: Variant,
    lifts: list[list[int]],
    base: list[int],
    bound: Fraction,
    most: int,
    budget: SearchBudget,
) -> Optional[frozenset[int]]:
    """First set of the variant whose part-weight prefixes P_q stay strictly
    under q * bound / t for q = 1..t, rotation pinned at part 0, given that
    no set under the caps has more than `most` vertices.

    Weights start at base, and v joining raises each part listed in
    lifts[v] by one (a part listed twice rises by two).  The set comes from
    one pass of the cover search at the most items such a set can have, with
    the prefixes as a side constraint: weights only rise, so an item that
    takes a prefix past its cap is dead in every branch below, and a set
    under the caps holds a cover the search reaches, itself under the caps.
    """
    items, covers, reach, blocks, cap = _cover_items(g, variant)
    t = len(base)
    # P_q * t < q * bound exactly when P_q is at most the cap
    slacks = [
        _ceil_div(q * bound.numerator, t * bound.denominator) - 1 - p
        for q, p in enumerate(accumulate(base), start=1)
    ]
    if min(slacks, default=0) < 0:
        return None  # the empty set already breaks a cap
    # The slack of P_q lives in field q - 1 of one integer, `width` bits
    # each, over a guard bit that no slack or single rise reaches: taking a
    # rise from every field at once borrows across none, and leaves every
    # guard set exactly when no slack went negative.
    lift = [sum(len(lifts[v]) for v in iter_bits(item)) for item in items]
    width = max(max(slacks, default=0), max(lift, default=0)).bit_length() + 1
    ones = sum(1 << q * width for q in range(t))
    holding = [ones >> p * width << p * width for p in range(t)]  # the prefixes holding part p
    vertex_rise = [sum(holding[p] for p in ps) for ps in lifts]
    rise = [sum(vertex_rise[v] for v in iter_bits(item)) for item in items]
    guards = ones << width - 1
    start = guards + sum(s << q * width for q, s in enumerate(slacks))
    depth = min(most, g.n) // (2 if variant is Variant.PAIRED else 1)
    got = _min_cover_search(
        g.full_mask, items, covers, reach, blocks, cap, range(depth, depth + 1), budget,
        (rise, start, guards),
    )
    return frozenset(iter_bits(got)) if got is not None else None


def _decided(search: Callable[[int], Optional[frozenset[int]]], h: int) -> bool:
    """Does the minimum equal h?  A hit of search(h), under h + 1/2, shows it
    is at most h; no hit of search(h - 1), under (h - 1) + 1/2, shows it
    exceeds h - 1."""
    return search(h) is not None and search(h - 1) is None


def prefix_pruned_search(
    g: Graph,
    partition: VertexPartition,
    symmetry: CyclicSymmetry,
    variant: Variant,
    h: int,
    budget: Optional[SearchBudget] = None,
) -> Optional[frozenset[int]]:
    """A valid set with all part-count prefixes strictly under j*(h+1/2)/t.

    By the rotation theorem (applied through the verified shift symmetry)
    such a set exists exactly when some valid set has size at most h.
    """
    h = integer_bound(h)
    part_of = _part_index(g, partition, symmetry)
    return _prefix_cover(
        g,
        variant,
        [[p] for p in part_of],
        [0] * len(partition.parts),
        h + HALF,
        h,
        budget or SearchBudget(),
    )


def decide_parameter_via_prefix(
    g: Graph,
    partition: VertexPartition,
    symmetry: CyclicSymmetry,
    variant: Variant,
    h: int,
    budget: Optional[SearchBudget] = None,
) -> bool:
    """Decide min-parameter == h from two prefix searches, values never computed.

    A hit under h + 1/2 shows the minimum is at most h; no hit under
    (h - 1) + 1/2 shows it exceeds h - 1.
    """
    h = integer_bound(h)
    budget = budget or SearchBudget()
    return _decided(lambda j: prefix_pruned_search(g, partition, symmetry, variant, j, budget), h)


def rd_prefix_pruned_search(
    g: Graph,
    partition: VertexPartition,
    symmetry: CyclicSymmetry,
    h: int,
    budget: Optional[SearchBudget] = None,
) -> Optional[frozenset[int]]:
    """Dominating set whose redundant-domination prefixes stay strictly under
    j * (target + 1/2) / t, where target = (k+1) * h - |V| on a k-regular graph.

    Such a set exists exactly when some dominating set has size at most h,
    because total redundancy on a k-regular graph is (k+1)|D| - |V|.  Part p
    weighs the redundancy of its vertices, -|part p| plus one for each
    chosen closed neighbor of each of them.  So a set under the last cap has
    at most h vertices.
    """
    h = integer_bound(h)
    budget = budget or SearchBudget()
    part_of = _part_index(g, partition, symmetry)
    degs = set(g.degrees())
    if len(degs) != 1:
        raise ValueError("the redundancy search needs a regular graph")
    k = degs.pop()
    return _prefix_cover(
        g,
        Variant.DOMINATING,
        [[part_of[u] for u in iter_bits(g.closed_mask(v))] for v in range(g.n)],
        [-len(p) for p in partition.parts],
        (k + 1) * h - g.n + HALF,
        h,
        budget,
    )
