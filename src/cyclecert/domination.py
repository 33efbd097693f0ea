"""Domination validators and exact solvers at desk scale, bitmask throughout.

Three set families are supported: dominating (every vertex is in the set or
adjacent to it), total dominating (every vertex has a neighbor in the set,
so the host graph must have no isolated vertices), and paired dominating
(dominating, and the induced subgraph on the set has a perfect matching).

Exact minimums come from iterative size deepening over a branch-and-bound
that always branches on the lowest-id uncovered vertex with candidates in
ascending id; the paired variant branches on dominating vertex pairs (edges
of the graph) instead, since a paired set is exactly a disjoint union of
edges whose endpoints dominate everything.  Exact maximums over minimal
sets try sizes in descending order, each by a branch-and-bound that decides
the vertices in id order and prunes on irredundance (a member that has lost
every private neighbor never gets one back), on decided vertices left
undominated, and on the count; the first size that admits a minimal set is
the answer.  Both are budget-guarded: blowing the node or time budget
raises, it never degrades to a wrong answer.

The corollary searches share one part-by-part prefix engine.  It decides
the parts of a cyclically ordered partition in order, keeps a weight per
part, and requires every prefix of the weights to stay strictly under
j * bound / t for prefix length j.  The rotation is pinned at part 0; this
loses nothing exactly when a verified cyclic shift symmetry maps each part
onto the next, which is why the searches insist on one.  With the weight of
a part taken as the number of chosen vertices in it, a positive search at
h + eps and a negative search at h - eps decide whether the minimum equals
h without ever reporting the minimum itself.  With the weight taken as the
redundant domination of its vertices, the same engine plays that game
against the target (k+1) * h - |V| on a k-regular graph.  Weights only
rise as vertices join, so each step re-checks just the prefixes that
changed, and the search runs on an explicit stack.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Optional

from .cyclic_core import RationalLike, as_fraction
from .errors import BudgetExceededError
from .graphs import Graph, cartesian_cycles, iter_bits
from .structures import (
    CyclicSymmetry,
    VertexPartition,
    cyclic_symmetry_violations,
    validate_partition,
)

__all__ = [
    "Variant",
    "SearchBudget",
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
    "verify_paired_c5",
    "verify_upper_total_c4",
]


class Variant(Enum):
    DOMINATING = "dominating"
    TOTAL = "total"
    PAIRED = "paired"


@dataclass
class SearchBudget:
    """Node and wall-clock caps shared by the exact searches."""

    max_nodes: int = 10_000_000
    max_seconds: float = 60.0
    nodes: int = 0
    _deadline: Optional[float] = field(default=None, repr=False)

    def tick(self) -> None:
        if self._deadline is None:
            self._deadline = time.monotonic() + self.max_seconds
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BudgetExceededError(f"node budget {self.max_nodes} exceeded")
        if self.nodes % 4096 == 0 and time.monotonic() > self._deadline:
            raise BudgetExceededError(f"time budget {self.max_seconds}s exceeded")


@dataclass(frozen=True)
class SolveReport:
    value: int
    witness: tuple[int, ...]
    nodes_explored: int
    pruned_by_prefix: int = 0


def _mask_of(g: Graph, vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        mask |= 1 << v
    return mask


def _reject_isolated(g: Graph) -> None:
    for v in range(g.n):
        if g.adj[v] == 0:
            raise ValueError(f"vertex {v} is isolated; no such set exists")


def is_dominating(g: Graph, ds: Iterable[int]) -> bool:
    """Every vertex is in the set or adjacent to a member."""
    mask = _mask_of(g, ds)
    covered = 0
    for v in iter_bits(mask):
        covered |= g.closed_mask(v)
    return covered == g.full_mask


def is_total_dominating(g: Graph, s: Iterable[int]) -> bool:
    """Every vertex (members included) has a neighbor in the set."""
    _reject_isolated(g)
    mask = _mask_of(g, s)
    covered = 0
    for v in iter_bits(mask):
        covered |= g.adj[v]
    return covered == g.full_mask


def induced_perfect_matching_exists(g: Graph, s: Iterable[int]) -> bool:
    """Does the induced subgraph on s admit a perfect matching?"""
    smask = _mask_of(g, s)
    if smask.bit_count() % 2 == 1:
        return False

    def rec(rem: int) -> bool:
        if rem == 0:
            return True
        low = rem & -rem
        v = low.bit_length() - 1
        cands = g.adj[v] & rem
        while cands:
            wbit = cands & -cands
            if rec(rem & ~low & ~wbit):
                return True
            cands ^= wbit
        return False

    return rec(smask)


def is_paired_dominating(g: Graph, s: Iterable[int]) -> bool:
    """Dominating, and the set induces a subgraph with a perfect matching."""
    s = list(s)
    return is_dominating(g, s) and induced_perfect_matching_exists(g, s)


def pn(g: Graph, s: Iterable[int], v: int) -> frozenset[int]:
    """Private neighbors of v in s: vertices w with N(w) meeting s only at v."""
    smask = _mask_of(g, s)
    if not smask >> v & 1:
        raise ValueError(f"vertex {v} is not in the set")
    want = 1 << v
    return frozenset(w for w in range(g.n) if g.adj[w] & smask == want)


def epn(g: Graph, s: Iterable[int], v: int) -> frozenset[int]:
    """External private neighbors: pn(v) outside the set."""
    smask = _mask_of(g, s)
    return frozenset(w for w in pn(g, s, v) if not smask >> w & 1)


def ipn(g: Graph, s: Iterable[int], v: int) -> frozenset[int]:
    """Internal private neighbors: pn(v) inside the set."""
    smask = _mask_of(g, s)
    return frozenset(w for w in pn(g, s, v) if smask >> w & 1)


def is_minimal_total_dominating(g: Graph, s: Iterable[int]) -> bool:
    """Private-neighbor criterion: every member keeps some private neighbor.

    Rejects input that is not a total dominating set.  Equivalent to the
    definitional check that no single removal stays total dominating.
    """
    s = list(s)
    if not is_total_dominating(g, s):
        raise ValueError("not a total dominating set")
    smask = _mask_of(g, s)
    have_private = 0
    for w in range(g.n):
        a = g.adj[w] & smask
        if a.bit_count() == 1:
            have_private |= a
    return smask & ~have_private == 0


def is_minimal_dominating(g: Graph, ds: Iterable[int]) -> bool:
    """Definitional minimality: no single removal is still dominating."""
    ds = list(ds)
    if not is_dominating(g, ds):
        raise ValueError("not a dominating set")
    dset = set(ds)
    for v in dset:
        if is_dominating(g, dset - {v}):
            return False
    return True


def rd_vertex(g: Graph, s: Iterable[int], u: int) -> int:
    """Redundant domination at u: |N[u] meet s| - 1 (so -1 when undominated)."""
    smask = _mask_of(g, s)
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} out of range")
    return (g.closed_mask(u) & smask).bit_count() - 1


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
    if n < 3:
        raise ValueError("need n >= 3")
    value = _ceil_div(4 * n, 3)
    return value + 1 if n % 3 == 2 else value


def _cover_min_search(
    g: Graph, variant: Variant, budget: SearchBudget
) -> tuple[int, int]:
    """Iterative deepening cover search for dominating/total variants.

    Returns (witness_mask, size).  Branches on the lowest uncovered vertex;
    candidate dominators ascend; tried candidates are excluded from later
    siblings so no set is visited twice.
    """
    full = g.full_mask
    if variant is Variant.DOMINATING:
        cover = [g.closed_mask(v) for v in range(g.n)]
    else:
        cover = list(g.adj)
    cap = max(m.bit_count() for m in cover) if g.n else 1
    lb = _ceil_div(g.n, cap) if g.n else 0

    def rec(k: int, chosen: int, covered: int, excluded: int, size: int) -> Optional[int]:
        budget.tick()
        if covered == full:
            return chosen
        if size == k:
            return None
        uncovered = full & ~covered
        if uncovered.bit_count() > (k - size) * cap:
            return None
        u = (uncovered & -uncovered).bit_length() - 1
        cands = cover[u] & ~excluded
        exc = excluded
        while cands:
            cbit = cands & -cands
            c = cbit.bit_length() - 1
            got = rec(k, chosen | cbit, covered | cover[c], exc, size + 1)
            if got is not None:
                return got
            exc |= cbit
            cands ^= cbit
        return None

    for k in range(lb, g.n + 1):
        got = rec(k, 0, 0, 0, 0)
        if got is not None:
            return got, got.bit_count()
    raise ValueError("no valid set of any size exists")


def _paired_min_search(g: Graph, budget: SearchBudget) -> tuple[int, int]:
    """Iterative deepening over disjoint dominating edge unions."""
    full = g.full_mask
    edges = g.edges()
    pair_mask = [(1 << u) | (1 << v) for u, v in edges]
    pair_cover = [g.closed_mask(u) | g.closed_mask(v) for u, v in edges]
    # reach[u]: ascending ids of the edges whose pair dominates u
    reach: list[list[int]] = [[] for _ in range(g.n)]
    for e, cover in enumerate(pair_cover):
        for u in iter_bits(cover):
            reach[u].append(e)
    delta = max(g.degrees())
    cap = 2 * delta
    lb_pairs = paired_lower_bound(g) // 2

    def rec(k2: int, chosen: int, covered: int, excluded: int, used: int) -> Optional[int]:
        budget.tick()
        if covered == full:
            return chosen
        if used == k2:
            return None
        uncovered = full & ~covered
        if uncovered.bit_count() > (k2 - used) * cap:
            return None
        u = (uncovered & -uncovered).bit_length() - 1
        exc = excluded
        for e in reach[u]:
            if exc >> e & 1:
                continue
            if pair_mask[e] & chosen:
                continue
            got = rec(k2, chosen | pair_mask[e], covered | pair_cover[e], exc, used + 1)
            if got is not None:
                return got
            exc |= 1 << e
        return None

    for k2 in range(lb_pairs, g.n // 2 + 1):
        got = rec(k2, 0, 0, 0, 0)
        if got is not None:
            return got, got.bit_count()
    raise ValueError("no paired dominating set exists")


def min_parameter(
    g: Graph, variant: Variant, budget: Optional[SearchBudget] = None
) -> SolveReport:
    """Exact minimum size of a set of the given variant, with witness.

    Deterministic branch-and-bound; sizes are tried in ascending order (even
    only, for paired), so the first witness found is optimal.  Raises
    BudgetExceededError when the budget runs out and ValueError when no set
    of the variant exists at all.
    """
    budget = budget or SearchBudget()
    if g.n == 0:
        return SolveReport(value=0, witness=(), nodes_explored=0)
    if variant in (Variant.TOTAL, Variant.PAIRED):
        _reject_isolated(g)
    if variant is Variant.PAIRED:
        mask, size = _paired_min_search(g, budget)
    else:
        mask, size = _cover_min_search(g, variant, budget)
    return SolveReport(
        value=size, witness=tuple(iter_bits(mask)), nodes_explored=budget.nodes
    )


def _max_minimal_search(rows: list[int], budget: SearchBudget) -> tuple[int, int]:
    """Largest minimal set as (witness_mask, size), sizes tried from |V| down.

    Each size is an in/out branch-and-bound over the vertices in id order,
    "in" before "out", on an explicit stack.  Each node carries the chosen
    mask and the vertices dominated exactly once and at least twice.  rows
    is symmetric (w watches v exactly when v watches w), so member u keeps a
    private neighbor exactly while rows[u] meets the once-dominated mask.
    Three prunes, all sound:

    * irredundance: adding v can only take private neighbors from members
      that share a watcher with v; one left without any kills the branch,
      since adding vertices never gives a private neighbor back;
    * sealed vertices: a vertex whose whole row is decided and meets no
      member can never be dominated;
    * count: the chosen members plus the undecided vertices must reach k.
    """
    n = len(rows)
    near = []  # members that share a watcher with v
    for v in range(n):
        m = 0
        for w in iter_bits(rows[v]):
            m |= rows[w]
        near.append(m)
    sealed = [0] * n  # vertices whose row is wholly decided once v is
    for w in range(n):
        sealed[rows[w].bit_length() - 1] |= 1 << w

    for k in range(n, 0, -1):
        stack = [(0, 0, 0, 0, 0)]  # next vertex, chosen, size, once, more
        while stack:
            v, chosen, size, once, more = stack.pop()
            budget.tick()
            if v == n:
                return chosen, k
            # "out" is pushed first so that "in" is explored first; every
            # vertex sealed at v has v in its row, so only "out" can leave
            # one undominated.
            if size + n - v - 1 >= k and not sealed[v] & ~(once | more):
                stack.append((v + 1, chosen, size, once, more))
            if size < k:
                row = rows[v]
                more_in = more | (once & row)
                once_in = (once | row) & ~more_in
                chosen_in = chosen | 1 << v
                for u in iter_bits(chosen_in & near[v]):
                    if not rows[u] & once_in:
                        break
                else:
                    stack.append((v + 1, chosen_in, size + 1, once_in, more_in))
    raise ValueError("no valid set of any size exists")


def max_minimal_parameter(
    g: Graph, variant: Variant, budget: Optional[SearchBudget] = None
) -> SolveReport:
    """Exact maximum size of a minimal (total) dominating set, with witness.

    A set is minimal exactly when it dominates and every member has a
    private neighbor.  Sizes are tried from |V| down, each by an exact
    branch-and-bound that prunes on irredundance, undominated sealed
    vertices and the count; the first size that admits a minimal set is the
    answer, since smaller sizes cannot beat it.  The search is iterative, so
    large graphs exhaust the budget instead of the recursion limit.
    """
    if variant not in (Variant.DOMINATING, Variant.TOTAL):
        raise ValueError("upper parameters are defined for dominating/total only")
    budget = budget or SearchBudget()
    if variant is Variant.TOTAL:
        _reject_isolated(g)
        rows = list(g.adj)
    else:
        rows = [g.closed_mask(v) for v in range(g.n)]
    mask, size = _max_minimal_search(rows, budget)
    return SolveReport(
        value=size, witness=tuple(iter_bits(mask)), nodes_explored=budget.nodes
    )


_VALIDATORS = {
    Variant.DOMINATING: is_dominating,
    Variant.TOTAL: is_total_dominating,
    Variant.PAIRED: is_paired_dominating,
}


def _epsilon(epsilon: RationalLike) -> Fraction:
    eps = as_fraction(epsilon)
    if not Fraction(0) < eps < Fraction(1):
        raise ValueError("epsilon must satisfy 0 < eps < 1")
    return eps


def _checked_parts(
    g: Graph, partition: VertexPartition, symmetry: CyclicSymmetry
) -> tuple[list[list[int]], list[int]]:
    """The parts as ascending vertex lists and each vertex's part index,
    once the partition and its cyclic shift symmetry verify."""
    validate_partition(g, partition)
    problems = cyclic_symmetry_violations(g, partition, symmetry)
    if problems:
        raise ValueError(f"cyclic symmetry does not verify: {problems[0]}")
    parts = [sorted(p) for p in partition.parts]
    part_of = [0] * g.n
    for j, verts in enumerate(parts):
        for v in verts:
            part_of[v] = j
    return parts, part_of


def _part_prefix_search(
    parts: list[list[int]],
    part_of: list[int],
    rows: list[int],
    lifts: list[list[int]],
    base: list[int],
    bound: Fraction,
    members: Optional[list[int]],
    valid: Callable[[int], bool],
    budget: SearchBudget,
) -> Optional[int]:
    """First chosen mask whose part-weight prefixes stay strictly under
    q * bound / t for every prefix length q, rotation pinned at part 0.

    Parts are decided in order, each by its subsets in ascending order with
    one budget tick per subset, depth first on an explicit stack.  Weights
    start at base, and choosing v raises each part listed in lifts[v] by one
    (a part listed twice rises by two).  Weights only rise, so a prefix at
    the bound kills the branch, and after a subset of part j only the
    prefixes up to j + 1 that contain a raised part, plus prefix j + 1 itself,
    need a look.  A vertex whose cover row is wholly decided must be
    covered; with member rows given, a member whose member row is wholly
    decided must have a chosen neighbor.  valid has the last word on a leaf.
    """
    t = len(parts)

    def sealed_at(rows: list[int]) -> list[int]:
        # a vertex is sealed at the last part its row reaches
        sealed = [0] * t
        for u, row in enumerate(rows):
            sealed[max(part_of[v] for v in iter_bits(row))] |= 1 << u
        return sealed

    sealed = sealed_at(rows)
    sealed_members = sealed_at(members) if members is not None else None
    # The prefix sums P_0..P_t live in one integer, a field of `width` bits
    # each, offset by `off` so that no field goes negative or carries into
    # the next; choosing v adds rise[v], which raises every prefix that
    # contains a part in lifts[v].
    off = -sum(b for b in base if b < 0)
    width = (off + sum(b for b in base if b > 0) + sum(map(len, lifts))).bit_length()
    field_mask = (1 << width) - 1
    ones = sum(1 << q * width for q in range(t + 1))
    above = [ones >> (p + 1) * width << (p + 1) * width for p in range(t)]
    rise = [sum(above[p] for p in lift) for lift in lifts]
    lowest = [min(lift, default=t) for lift in lifts]
    start = sum(off + s << q * width for q, s in enumerate(accumulate(base, initial=0)))
    # P_q * t < q * bound exactly when field q is at most cap[q]
    cap = [
        off + _ceil_div(q * bound.numerator, t * bound.denominator) - 1
        for q in range(t + 1)
    ]
    stack = [(0, iter(range(1 << len(parts[0]))), 0, 0, start)]
    while stack:
        j, subs, chosen, covered, prefixes = stack[-1]
        verts = parts[j]
        for sub in subs:
            budget.tick()
            add, sums, lo = 0, prefixes, j
            while sub:
                low = sub & -sub
                v = verts[low.bit_length() - 1]
                add |= 1 << v
                sums += rise[v]
                if lowest[v] < lo:
                    lo = lowest[v]
                sub ^= low
            q = lo + 1
            while q <= j + 1 and sums >> q * width & field_mask <= cap[q]:
                q += 1
            if q <= j + 1:
                continue
            new_covered = covered
            for v in iter_bits(add):
                new_covered |= rows[v]
            if sealed[j] & ~new_covered:
                continue
            new_chosen = chosen | add
            if sealed_members is not None and any(
                not members[u] & new_chosen
                for u in iter_bits(sealed_members[j] & new_chosen)
            ):
                continue
            if j + 1 < t:
                stack.append(
                    (j + 1, iter(range(1 << len(parts[j + 1]))), new_chosen, new_covered, sums)
                )
                break
            if valid(new_chosen):
                return new_chosen
        else:
            stack.pop()
    return None


def _size_search(
    g: Graph,
    partition: VertexPartition,
    symmetry: CyclicSymmetry,
    variant: Variant,
    bound: Fraction,
    budget: SearchBudget,
) -> Optional[frozenset[int]]:
    """First valid set whose part-count prefixes stay strictly under
    j * bound / t, rotation pinned at part 0."""
    parts, part_of = _checked_parts(g, partition, symmetry)
    if variant in (Variant.TOTAL, Variant.PAIRED):
        _reject_isolated(g)
    if variant is Variant.TOTAL:
        rows = list(g.adj)
    else:
        rows = [g.closed_mask(v) for v in range(g.n)]
    validator = _VALIDATORS[variant]
    got = _part_prefix_search(
        parts,
        part_of,
        rows,
        [[j] for j in part_of],
        [0] * len(parts),
        bound,
        list(g.adj) if variant is Variant.PAIRED else None,
        lambda chosen: validator(g, iter_bits(chosen)),
        budget,
    )
    return frozenset(iter_bits(got)) if got is not None else None


def prefix_pruned_search(
    g: Graph,
    partition: VertexPartition,
    symmetry: CyclicSymmetry,
    variant: Variant,
    h: int,
    epsilon: RationalLike = Fraction(1, 2),
    budget: Optional[SearchBudget] = None,
) -> Optional[frozenset[int]]:
    """A valid set with all part-count prefixes strictly under j*(h+eps)/t.

    By the rotation theorem (applied through the verified shift symmetry)
    such a set exists exactly when some valid set has size at most h.
    """
    eps = _epsilon(epsilon)
    return _size_search(
        g, partition, symmetry, variant, as_fraction(h) + eps, budget or SearchBudget()
    )


def decide_parameter_via_prefix(
    g: Graph,
    partition: VertexPartition,
    symmetry: CyclicSymmetry,
    variant: Variant,
    h: int,
    epsilon: RationalLike = Fraction(1, 2),
    budget: Optional[SearchBudget] = None,
) -> bool:
    """Decide min-parameter == h from two prefix searches, values never computed.

    A hit under h + eps shows the minimum is at most h; no hit under h - eps
    shows it exceeds h - 1.
    """
    eps = _epsilon(epsilon)
    budget = budget or SearchBudget()
    hf = as_fraction(h)
    upper = _size_search(g, partition, symmetry, variant, hf + eps, budget)
    if upper is None:
        return False
    lower = _size_search(g, partition, symmetry, variant, hf - eps, budget)
    return lower is None


def rd_prefix_pruned_search(
    g: Graph,
    partition: VertexPartition,
    symmetry: CyclicSymmetry,
    h: int,
    epsilon: RationalLike = Fraction(1, 2),
    budget: Optional[SearchBudget] = None,
) -> Optional[frozenset[int]]:
    """Dominating set whose redundant-domination prefixes stay strictly under
    j * (target + eps) / t, where target = (k+1) * h - |V| on a k-regular graph.

    Such a set exists exactly when some dominating set has size at most h,
    because total redundancy on a k-regular graph is (k+1)|D| - |V|.  Part p
    weighs the redundancy of its vertices, -|part p| plus one for each
    chosen closed neighbor of each of them.
    """
    eps = _epsilon(epsilon)
    budget = budget or SearchBudget()
    parts, part_of = _checked_parts(g, partition, symmetry)
    degs = set(g.degrees())
    if len(degs) != 1:
        raise ValueError("the redundancy search needs a regular graph")
    k = degs.pop()
    closed = [g.closed_mask(v) for v in range(g.n)]
    got = _part_prefix_search(
        parts,
        part_of,
        closed,
        [[part_of[u] for u in iter_bits(row)] for row in closed],
        [-len(p) for p in parts],
        as_fraction((k + 1) * h - g.n) + eps,
        None,
        lambda chosen: is_dominating(g, iter_bits(chosen)),
        budget,
    )
    return frozenset(iter_bits(got)) if got is not None else None


@dataclass(frozen=True)
class _PaperValue:
    """A headline value of the paper: the solver's answer on C_rows x C_n."""

    rows: int
    variant: Variant
    solver: str  # "min" or "max-minimal", as the CLI's --mode
    expected: Callable[[int], int]
    columns: tuple[int, ...]
    quick: tuple[int, ...]


# By suite name: t1 is the paired closed form on C5 x Cn, n4 the upper total
# value 2n on C4 x Cn.
_PAPER_VALUES = {
    "t1": _PaperValue(5, Variant.PAIRED, "min", paired_value_c5, (3, 4, 5, 6), (3, 4)),
    "n4": _PaperValue(4, Variant.TOTAL, "max-minimal", lambda n: 2 * n, (3, 4, 5), (3,)),
}


def _solve_paper_value(
    suite: str, n: int, budget: Optional[SearchBudget]
) -> tuple[SolveReport, int]:
    """Solve the suite's torus with n columns; return the report and the
    paper's value."""
    row = _PAPER_VALUES[suite]
    # the solver is looked up by name at call time, so wrappers of the
    # module's solvers see these calls too
    solve = min_parameter if row.solver == "min" else max_minimal_parameter
    report = solve(cartesian_cycles(row.rows, n), row.variant, budget)
    return report, row.expected(n)


def verify_paired_c5(n: int, budget: Optional[SearchBudget] = None) -> bool:
    """Solve paired domination on the C_5 x C_n torus and compare to the
    closed form."""
    report, expected = _solve_paper_value("t1", n, budget)
    return report.value == expected


def verify_upper_total_c4(n: int, budget: Optional[SearchBudget] = None) -> bool:
    """Solve the upper total domination number of C_4 x C_n and compare to 2n."""
    report, expected = _solve_paper_value("n4", n, budget)
    return report.value == expected
