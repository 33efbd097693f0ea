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

The prefix-pruned searches look for a valid set whose per-part counts,
accumulated part by part around a cyclically ordered partition, stay
strictly under j * bound / t for every prefix length j.  The rotation is
pinned at part 0; this loses nothing exactly when a verified cyclic shift
symmetry maps each part onto the next, which is why the searches insist on
one.  Combining a positive search at h + eps with a negative search at
h - eps decides whether the minimum equals h without ever reporting the
minimum itself; the re-domination variant plays the same game with
redundant-domination counts against the target (k+1) * h - |V| on a
k-regular graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional

from .cyclic_core import RationalLike, as_fraction
from .errors import BudgetExceededError
from .graphs import Graph, iter_bits
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


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _reject_isolated(g: Graph) -> None:
    for v in range(g.n):
        if g.adj[v] == 0:
            raise ValueError(f"vertex {v} is isolated; no such set exists")


def is_dominating(g: Graph, ds: Iterable[int]) -> bool:
    """Every vertex is in the set or adjacent to a member."""
    mask = _mask_of(g, ds)
    covered = 0
    for v in _bits(mask):
        covered |= g.closed_mask(v)
    return covered == g.full_mask


def is_total_dominating(g: Graph, s: Iterable[int]) -> bool:
    """Every vertex (members included) has a neighbor in the set."""
    _reject_isolated(g)
    mask = _mask_of(g, s)
    covered = 0
    for v in _bits(mask):
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
        value=size, witness=tuple(_bits(mask)), nodes_explored=budget.nodes
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
        value=size, witness=tuple(_bits(mask)), nodes_explored=budget.nodes
    )


def _variant_final_check(g: Graph, variant: Variant, chosen: int) -> bool:
    members = _bits(chosen)
    if variant is Variant.DOMINATING:
        return is_dominating(g, members)
    if variant is Variant.TOTAL:
        return is_total_dominating(g, members)
    return is_paired_dominating(g, members)


@dataclass
class _PrefixStats:
    nodes: int = 0
    prefix_prunes: int = 0


def _prefix_search(
    g: Graph,
    partition: VertexPartition,
    symmetry: CyclicSymmetry,
    variant: Variant,
    bound: Fraction,
    budget: SearchBudget,
    stats: Optional[_PrefixStats] = None,
) -> Optional[frozenset[int]]:
    """First valid set whose part-count prefixes stay strictly under
    j * bound / t, rotation pinned at part 0."""
    validate_partition(g, partition)
    problems = cyclic_symmetry_violations(g, partition, symmetry)
    if problems:
        raise ValueError(f"cyclic symmetry does not verify: {problems[0]}")
    if variant in (Variant.TOTAL, Variant.PAIRED):
        _reject_isolated(g)
    stats = stats if stats is not None else _PrefixStats()
    parts = [sorted(p) for p in partition.parts]
    t = len(parts)
    # count * t < (j + 1) * bound, cross-multiplied by bound's denominator
    t_den = t * bound.denominator
    if variant is Variant.TOTAL:
        cover = list(g.adj)
    else:
        cover = [g.closed_mask(v) for v in range(g.n)]

    decided = 0
    decided_prefix = []
    for p in parts:
        decided |= _mask_of(g, p)
        decided_prefix.append(decided)
    # Vertices whose whole relevant neighborhood is decided once part j is.
    sealed_cover: list[list[int]] = []
    sealed_member: list[list[int]] = []
    for j in range(t):
        sealed_cover.append(
            [u for u in range(g.n)
             if cover[u] & ~decided_prefix[j] == 0
             and (j == 0 or cover[u] & ~decided_prefix[j - 1] != 0)]
        )
        sealed_member.append(
            [u for u in range(g.n)
             if g.adj[u] & ~decided_prefix[j] == 0
             and (j == 0 or g.adj[u] & ~decided_prefix[j - 1] != 0)]
        )

    def rec(j: int, chosen: int, covered: int, count: int) -> Optional[int]:
        if j == t:
            if _variant_final_check(g, variant, chosen):
                return chosen
            return None
        verts = parts[j]
        for sub in range(1 << len(verts)):
            budget.tick()
            stats.nodes += 1
            add = 0
            picked = sub
            while picked:
                low = picked & -picked
                add |= 1 << verts[low.bit_length() - 1]
                picked ^= low
            new_count = count + sub.bit_count()
            if not new_count * t_den < (j + 1) * bound.numerator:
                stats.prefix_prunes += 1
                continue
            new_chosen = chosen | add
            new_covered = covered
            for v in _bits(add):
                new_covered |= cover[v]
            dead = False
            for u in sealed_cover[j]:
                if not new_covered >> u & 1:
                    dead = True
                    break
            if not dead and variant is Variant.PAIRED:
                for u in sealed_member[j]:
                    if new_chosen >> u & 1 and g.adj[u] & new_chosen == 0:
                        dead = True
                        break
            if dead:
                continue
            got = rec(j + 1, new_chosen, new_covered, new_count)
            if got is not None:
                return got
        return None

    got = rec(0, 0, 0, 0)
    return frozenset(_bits(got)) if got is not None else None


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
    eps = as_fraction(epsilon)
    if not Fraction(0) < eps < Fraction(1):
        raise ValueError("epsilon must satisfy 0 < eps < 1")
    return _prefix_search(
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
    eps = as_fraction(epsilon)
    if not Fraction(0) < eps < Fraction(1):
        raise ValueError("epsilon must satisfy 0 < eps < 1")
    budget = budget or SearchBudget()
    hf = as_fraction(h)
    upper = _prefix_search(g, partition, symmetry, variant, hf + eps, budget)
    if upper is None:
        return False
    lower = _prefix_search(g, partition, symmetry, variant, hf - eps, budget)
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
    because total redundancy on a k-regular graph is (k+1)|D| - |V|.
    """
    eps = as_fraction(epsilon)
    if not Fraction(0) < eps < Fraction(1):
        raise ValueError("epsilon must satisfy 0 < eps < 1")
    budget = budget or SearchBudget()
    validate_partition(g, partition)
    problems = cyclic_symmetry_violations(g, partition, symmetry)
    if problems:
        raise ValueError(f"cyclic symmetry does not verify: {problems[0]}")
    degs = set(g.degrees())
    if len(degs) != 1:
        raise ValueError("the redundancy search needs a regular graph")
    k = degs.pop()
    target = as_fraction((k + 1) * h - g.n)
    bound = target + eps
    parts = [sorted(p) for p in partition.parts]
    t = len(parts)
    t_den = t * bound.denominator
    full = g.full_mask
    closed = [g.closed_mask(v) for v in range(g.n)]

    decided = 0
    decided_prefix = []
    for p in parts:
        decided |= _mask_of(g, p)
        decided_prefix.append(decided)
    sealed_cover = []
    for j in range(t):
        sealed_cover.append(
            [u for u in range(g.n)
             if closed[u] & ~decided_prefix[j] == 0
             and (j == 0 or closed[u] & ~decided_prefix[j - 1] != 0)]
        )
    part_prefix_vertices = []
    acc: list[int] = []
    for p in parts:
        acc = acc + p
        part_prefix_vertices.append(list(acc))

    def rd_lower_bounds_ok(chosen: int, upto: int) -> bool:
        # Redundancy only grows as the set grows, so a partial sum already
        # at the bound kills the branch.
        for p in range(1, upto + 1):
            lb = sum((closed[u] & chosen).bit_count() - 1 for u in part_prefix_vertices[p - 1])
            if not lb * t_den < p * bound.numerator:
                return False
        return True

    def rec(j: int, chosen: int, covered: int) -> Optional[int]:
        if j == t:
            if covered != full:
                return None
            if is_dominating(g, _bits(chosen)) and rd_lower_bounds_ok(chosen, t):
                return chosen
            return None
        verts = parts[j]
        for sub in range(1 << len(verts)):
            budget.tick()
            add = 0
            picked = sub
            while picked:
                low = picked & -picked
                add |= 1 << verts[low.bit_length() - 1]
                picked ^= low
            new_chosen = chosen | add
            new_covered = covered
            for v in _bits(add):
                new_covered |= closed[v]
            dead = False
            for u in sealed_cover[j]:
                if not new_covered >> u & 1:
                    dead = True
                    break
            if dead:
                continue
            if not rd_lower_bounds_ok(new_chosen, j + 1):
                continue
            got = rec(j + 1, new_chosen, new_covered)
            if got is not None:
                return got
        return None

    got = rec(0, 0, 0)
    return frozenset(_bits(got)) if got is not None else None


def verify_paired_c5(n: int, budget: Optional[SearchBudget] = None) -> bool:
    """Solve paired domination on the C_5 x C_n torus and compare to the
    closed form."""
    from .graphs import cartesian_cycles

    report = min_parameter(cartesian_cycles(5, n), Variant.PAIRED, budget)
    return report.value == paired_value_c5(n)


def verify_upper_total_c4(n: int, budget: Optional[SearchBudget] = None) -> bool:
    """Solve the upper total domination number of C_4 x C_n and compare to 2n."""
    from .graphs import cartesian_cycles

    report = max_minimal_parameter(cartesian_cycles(4, n), Variant.TOTAL, budget)
    return report.value == 2 * n
