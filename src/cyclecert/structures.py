"""Cyclically ordered vertex partitions and edge decompositions, and their
transitivity: one verified shift automorphism, or else the window test.

A decomposition (or partition) carries its parts in a fixed cyclic order.
The window w(i, len) is the union of `len` consecutive parts starting at
part i, wrapping modulo the part count t.  The structure is transitive when
for every window length 1..t all t windows are pairwise isomorphic: for
edge decompositions a window is the graph (union of piece vertex sets,
union of piece edge sets); for vertex partitions it is the subgraph induced
on the union of the parts.  Single-part windows are compared too, so a
partition into parts of unequal size can never be transitive, and the
window test skips length t, whose windows are all the whole structure.

Ids are read once, when a structure is built: each constructor reads them
by `graphs.read_id` and `read_edge` and stores parts and pieces as
frozensets, so a repeat inside one is one member, and the validators check
graph facts only: range, graph edges, disjointness, cover and endpoints.

The shift path comes first.  An automorphism sigma of g with
sigma(V_i) = V_{i+1} for every part i (for a decomposition: carrying the
vertex and edge sets of piece i onto those of piece i+1) maps window (i, len)
onto window (j, len) through sigma^(j-i), so one sigma proves all t^2 window
isomorphisms at once.  `find_shift` looks for one with a single colored
`iso` search of the structure against itself.  It reads a structure as a
list of vertex sets (the parts, or the pieces' declared vertices), plus a
list of edge sets for a decomposition.  Each vertex is colored by the sets
that hold it on one side and by those sets minus one (mod t) on the other,
so a color-keeping match carries every vertex set onto the next.  A
decomposition's edges become nodes between their ends, colored by piece, so
the edge sets follow too.  `iso` compares the round-0 (degree, color)
histograms of both sides before anything is refined, so a structure that
cannot have a shift costs O(|V|) there.  The sigma found counts only after the
checks of `cyclic_symmetry_violations` pass on it, so a positive answer
rests on an explicit, checked bijection.

The window test runs only when no shift exists: on every negative, and on a
transitive structure without a cyclic automorphism (a triangle with a
pendant edge, split into two edges, is one).  `transitive_by_windows` runs
it alone.  Windows are grown, not rebuilt, and labelled in part order: each
start keeps a labelling (original id to window label) and the window's
adjacency rows in those labels, and takes in one more part per length.  A
new part labels its not-yet-seen vertices in increasing id order after the
labels already given, then ORs in its edges, each once both ends have
labels.  A piece brings its own edges; a partition part brings (v, u) for
every neighbour u of each of its vertices v, so each edge of the induced
subgraph arrives from whichever side comes second.

Pairwise isomorphism of each length class is established by comparing every
window against the first (isomorphism is an equivalence relation).  Within a
length the checker keeps the adjacency tuples already shown isomorphic to
that anchor: the anchor itself and every window matched to it.  A window
whose labelled adjacency equals one of them is isomorphic to it through the
explicit bijection phi_j^-1 o phi_i, where phi is the part-order labelling,
and needs no search.  The others go to `iso.isomorphic` against the anchor,
which refutes a different order, edge count or degree histogram before it
refines anything, and otherwise refines the anchor afresh for each such
window.

The transitivity checks and the partition search take one optional
`SearchBudget`, shared by the shift search, all the isomorphism nodes of the
window test and, in the partition search, one node per class tried.  The
budget's clock is read at every window built, as well as in each search, so
a check whose windows all come out equal still stops on time.  Running out
of it raises BudgetExceededError.

`find_transitive_partition` searches cyclically ordered partitions of the
vertex set into t classes up to rotation and reflection, and tries each
complete candidate as above: shift first, windows when there is none.
Since single-part windows force equal class sizes, only t dividing |V| can
ever succeed, and the enumeration walks equal-size classes only.  Two
screens run as classes are placed, both on the sorted degrees inside a
vertex set: each class must match class 0 (its windows of length 1), and
each pair of consecutive classes, the closing pair (t-1, 0) at a complete
candidate, must match classes 0 and 1 together (its windows of length 2).
Both are sound, as windows of one length are isomorphic in a transitive
partition, so they refuse no witness and only prune.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, repeat
from typing import Optional, Union

from .errors import SearchBudget
from .graphs import (
    Graph, check_order, check_torus, iter_bits, norm_edge, read_edge, read_id, read_int
)
from .iso import find_mapping, isomorphic

__all__ = [
    "VertexPartition",
    "Piece",
    "EdgeDecomposition",
    "CyclicSymmetry",
    "validate_partition",
    "validate_decomposition",
    "columns_partition",
    "star_decomposition_bipartite",
    "star_decomposition_complete",
    "circulant14_decomposition",
    "is_transitive_partition",
    "is_transitive_decomposition",
    "find_shift",
    "transitive_by_windows",
    "find_transitive_partition",
    "column_shift_symmetry",
    "cyclic_symmetry_violations",
]


@dataclass(frozen=True)
class VertexPartition:
    """Vertex classes in cyclic order, each read into a frozenset of ids
    when built (TypeError naming `part i`); must cover 0..n-1 disjointly."""

    parts: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("a partition needs at least one part")
        parts = tuple(frozenset(map(read_id, p, repeat(f"part {i}"))) for i, p in enumerate(self.parts))
        if not all(parts):
            raise ValueError("empty parts are not allowed")
        object.__setattr__(self, "parts", parts)


@dataclass(frozen=True)
class Piece:
    """One piece of an edge decomposition: declared vertices plus edges."""

    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def _read(self, where: str) -> Piece:
        w = repeat(where)
        return Piece(frozenset(map(read_id, self.vertices, w)), frozenset(map(read_edge, self.edges, w)))


@dataclass(frozen=True)
class EdgeDecomposition:
    """Pieces in cyclic order, each read into frozensets of ids and of edges
    (u, v), u <= v, when built (TypeError naming `piece i`); their edge sets
    must partition E(G)."""

    pieces: tuple[Piece, ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValueError("a decomposition needs at least one piece")
        object.__setattr__(self, "pieces", tuple(p._read(f"piece {i}") for i, p in enumerate(self.pieces)))


@dataclass(frozen=True)
class CyclicSymmetry:
    """A vertex permutation, read as ids when built, intended to shift every
    part onto the next one."""

    sigma: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", tuple(map(read_id, self.sigma, repeat("sigma"))))
        if sorted(self.sigma) != list(range(len(self.sigma))):
            raise ValueError("sigma must be a permutation of 0..n-1")


Structure = Union[VertexPartition, EdgeDecomposition]


def validate_partition(g: Graph, partition: VertexPartition) -> None:
    """Raise ValueError unless the parts cover V(g) disjointly."""
    seen: set[int] = set()
    for part in partition.parts:
        for v in part:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range")
            if v in seen:
                raise ValueError(f"vertex {v} appears in two parts")
            seen.add(v)
    if len(seen) != g.n:
        raise ValueError("parts do not cover every vertex")


def validate_decomposition(g: Graph, decomposition: EdgeDecomposition) -> None:
    """Raise ValueError unless the piece edge sets partition E(g)."""
    seen: set[tuple[int, int]] = set()
    for i, piece in enumerate(decomposition.pieces):
        for v in piece.vertices:
            if not 0 <= v < g.n:
                raise ValueError(f"piece {i}: vertex {v} out of range")
        for e in piece.edges:
            if not g.has_edge(*e):
                raise ValueError(f"piece {i}: edge {e} is not in the graph")
            if e in seen:
                raise ValueError(f"edge {e} appears in two pieces")
            if not piece.vertices.issuperset(e):
                raise ValueError(f"piece {i}: edge {e} leaves the declared vertex set")
            seen.add(e)
    if len(seen) != g.edge_count:
        raise ValueError("piece edges do not cover every edge")


def _validate(g: Graph, structure: Structure) -> None:
    if isinstance(structure, VertexPartition):
        validate_partition(g, structure)
    else:
        validate_decomposition(g, structure)


def columns_partition(m: int, n: int) -> VertexPartition:
    """Columns of the C_m x C_n torus (ids i*n + j): part j holds column j."""
    check_torus(m, n)
    return VertexPartition(tuple(range(j, m * n, n) for j in range(n)))


def star_decomposition_bipartite(m: int, n: int) -> EdgeDecomposition:
    """K_{m,n} as m stars: piece i is vertex i joined to the whole right side."""
    check_order(m)
    check_order(n)
    if m < 1 or n < 1:
        raise ValueError("both sides must be nonempty")
    right = range(m, m + n)
    return EdgeDecomposition(tuple(Piece((i, *right), [(i, w) for w in right]) for i in range(m)))


def star_decomposition_complete(n: int) -> EdgeDecomposition:
    """K_n (odd n >= 3) as n half-stars: piece i joins v_i to the next (n-1)/2.

    Piece i declares vertices v_i..v_{i+(n-1)/2} (mod n) and the edges from
    v_i to each of them.  Even n would cover every edge twice and is
    rejected.
    """
    check_order(n)
    if n < 3 or n % 2 == 0:
        raise ValueError("this star decomposition needs an odd n >= 3")
    half = (n - 1) // 2
    pieces = []
    for i in range(n):
        verts = [(i + j) % n for j in range(half + 1)]
        pieces.append(Piece(verts, [(i, v) for v in verts[1:]]))
    return EdgeDecomposition(tuple(pieces))


def circulant14_decomposition(k: int) -> EdgeDecomposition:
    """The stride-{1,4} circulant on 4k vertices as 4k two-edge fans.

    Piece i declares vertices {v_i, v_{i+1}, v_{i+4}} and edges
    {v_i v_{i+1}, v_i v_{i+4}} (mod 4k); needs k >= 3 so both stride orbits
    are full and the pieces stay edge-disjoint.
    """
    read_int(k, "k")
    if k < 3:
        raise ValueError("need k >= 3")
    n = 4 * k
    return EdgeDecomposition(tuple(
        Piece((i, (i + 1) % n, (i + 4) % n), [(i, (i + 1) % n), (i, (i + 4) % n)]) for i in range(n)
    ))


def _sets(structure: Structure) -> tuple[list[frozenset[int]], Optional[list]]:
    """The vertex sets of a structure (its parts, or its pieces' declared
    vertices) and, for a decomposition, its pieces' edge sets."""
    if isinstance(structure, VertexPartition):
        return list(structure.parts), None
    return [p.vertices for p in structure.pieces], [p.edges for p in structure.pieces]


def _windows_all_isomorphic(g: Graph, structure: Structure, budget: SearchBudget) -> bool:
    # each part as its vertices in increasing id order and the (a, b) pairs
    # it offers as edges, a one of its own vertices: a partition part offers
    # (v, u) for every neighbour u of each of its vertices v.  A pair enters
    # a window once b has a label there too.
    vertex_sets, edge_sets = _sets(structure)
    if edge_sets is None:
        edge_sets = [[(v, u) for v in vs for u in iter_bits(g.adj[v])] for vs in vertex_sets]
    parts = [(sorted(vs), es) for vs, es in zip(vertex_sets, edge_sets)]
    t = len(parts)
    labels = [[-1] * g.n for _ in range(t)]
    rows: list[list[int]] = [[] for _ in range(t)]
    # length t is left out: every window of all t parts is the whole structure
    for length in range(t - 1):
        # the adjacency tuples of length + 1 known to be isomorphic to the
        # anchor (the start-0 window): the anchor and every window matched
        known: set[tuple[int, ...]] = set()
        for i in range(t):
            vertices, edges = parts[(i + length) % t]
            label, acc = labels[i], rows[i]
            for v in vertices:
                if label[v] < 0:
                    label[v] = len(acc)
                    acc.append(0)
            for a, b in edges:
                lb = label[b]
                if lb >= 0:
                    la = label[a]
                    acc[la] |= 1 << lb
                    acc[lb] |= 1 << la
            budget.charge(0)
            window = tuple(acc)
            if not known:
                anchor = window
            elif window not in known:
                if not isomorphic(Graph(len(anchor), anchor), Graph(len(window), window), budget):
                    return False
            known.add(window)
    return True


def find_shift(
    g: Graph, structure: Structure, budget: Optional[SearchBudget] = None
) -> Optional[CyclicSymmetry]:
    """An automorphism of g carrying part i onto part i+1 (for a
    decomposition: the vertices and edges of piece i onto those of piece
    i+1) for every i, or None when there is none.

    One colored isomorphism search of the structure against itself: each
    vertex is colored by the parts that hold it on one side, and by those
    parts minus one on the other.  A partition is searched on g; in a
    decomposition each edge becomes a node between its ends, colored by its
    piece.  The sigma it returns has passed `cyclic_symmetry_violations`.
    Raises BudgetExceededError when the budget runs out.
    """
    _validate(g, structure)
    return _find_shift(g, structure, budget or SearchBudget())


def _find_shift(g: Graph, structure: Structure, budget: SearchBudget) -> Optional[CyclicSymmetry]:
    vertex_sets, edge_sets = _sets(structure)
    t = len(vertex_sets)
    # the sets that hold v as a bitmask, numbered in order of first
    # appearance; minus one (mod t) rotates it by one bit, and a rotated
    # mask that no vertex has gets -1
    holders = [0] * g.n
    for i, vs in enumerate(vertex_sets):
        bit = 1 << i
        for v in vs:
            holders[v] |= bit
    table: dict[int, int] = {}
    colors = [table.setdefault(m, len(table)) for m in holders]
    shifted = [table.get(m >> 1 | (m & 1) << (t - 1), -1) for m in holders]
    h = g
    if edge_sets is not None:
        # edge nodes after the vertices, colored past the vertex codes
        codes = len(table)
        rows = [0] * g.n
        for i, edges in enumerate(edge_sets):
            for u, v in edges:
                bit = 1 << len(rows)
                rows[u] |= bit
                rows[v] |= bit
                rows.append(1 << u | 1 << v)
            colors += [codes + i] * len(edges)
            shifted += [codes + (i - 1) % t] * len(edges)
        h = Graph(len(rows), tuple(rows))
    image = find_mapping(h, h, budget, colors, shifted)
    if image is None:
        return None
    shift = CyclicSymmetry(tuple(image[: g.n]))
    return None if _symmetry_violations(g, structure, shift.sigma) else shift


def transitive_by_windows(
    g: Graph, structure: Structure, budget: Optional[SearchBudget] = None
) -> bool:
    """The window test alone: for every length 1..t-1, all t windows are
    pairwise isomorphic (the t windows of length t are the whole structure)."""
    _validate(g, structure)
    return _windows_all_isomorphic(g, structure, budget or SearchBudget())


def _is_transitive(g: Graph, structure: Structure, budget: SearchBudget) -> bool:
    """A shift, or else the window test, on a structure already validated."""
    return _find_shift(g, structure, budget) is not None or _windows_all_isomorphic(
        g, structure, budget
    )


def is_transitive_partition(
    g: Graph, partition: VertexPartition, budget: Optional[SearchBudget] = None
) -> bool:
    """A verified shift, or else the window test over induced subgraphs."""
    validate_partition(g, partition)
    return _is_transitive(g, partition, budget or SearchBudget())


def is_transitive_decomposition(
    g: Graph, decomposition: EdgeDecomposition, budget: Optional[SearchBudget] = None
) -> bool:
    """A verified shift, or else the window test over piece unions."""
    validate_decomposition(g, decomposition)
    return _is_transitive(g, decomposition, budget or SearchBudget())


def find_transitive_partition(
    g: Graph, t: int, budget: Optional[SearchBudget] = None
) -> Optional[VertexPartition]:
    """Exhaustive search for a transitive partition into t cyclic classes.

    Candidates are deduplicated up to rotation (vertex 0 pinned to class 0)
    and reflection (class 1 anchored below class t-1).  Meant for small
    graphs; each class tried is one node of budget, and each complete
    candidate is checked for a shift, then by the window test if it has
    none, on the same budget.  Equal class sizes are forced by single-part
    windows, so t must divide |V| for any witness to exist.

    A class is refused unless its sorted inside degrees match class 0's
    and, for t >= 3, unless its union with the class before it matches
    classes 0 and 1 together; a complete candidate also needs its closing
    pair (t-1, 0) to match.  In a transitive partition every window of two
    consecutive classes is isomorphic to window (0, 1), so the screen drops
    no witness.  It refutes K3,4 into 7 classes in 245 nodes, where the
    class screen alone takes 1,957.
    """
    read_int(t, "t")
    if not 2 <= t <= g.n:
        raise ValueError(f"t must be in 2..{g.n}")
    if g.n % t != 0:
        return None
    size = g.n // t
    budget = budget or SearchBudget()

    def class_key(vs: frozenset[int]) -> list[int]:
        # the sorted degrees inside the class: with the class size fixed,
        # this is the order, edge count and degree screen of a window
        mask = sum(1 << v for v in vs)
        return sorted((g.adj[v] & mask).bit_count() for v in vs)

    # Depth first on an explicit stack: stack[d] yields the candidates for
    # class d, and chosen holds the classes picked above it.
    chosen: list[frozenset[int]] = []
    remaining = set(range(g.n))
    stack = [(frozenset((0,) + rest) for rest in combinations(range(1, g.n), size - 1))]
    while stack:
        for cls in stack[-1]:
            budget.charge(1)
            if not chosen:
                key0 = class_key(cls)  # every class must match class 0
            elif class_key(cls) != key0:
                continue
            elif t >= 3:
                # every window of two consecutive classes must match classes
                # 0 and 1 together (for t = 2 both windows are the graph)
                if len(chosen) == 1:
                    key01 = class_key(chosen[0] | cls)
                elif class_key(chosen[-1] | cls) != key01:
                    continue
            if len(chosen) < t - 1:
                chosen.append(cls)
                remaining -= cls
                stack.append(frozenset(c) for c in combinations(sorted(remaining), size))
                break
            if t >= 3 and (min(chosen[1]) > min(cls) or class_key(cls | chosen[0]) != key01):
                continue  # a reflection, or the closing pair (t - 1, 0) fails
            # the classes are disjoint and cover V by construction, so the
            # candidate is valid without validate_partition
            candidate = VertexPartition((*chosen, cls))
            if _is_transitive(g, candidate, budget):
                return candidate
        else:
            stack.pop()
            if chosen:
                remaining |= chosen.pop()
    return None


def column_shift_symmetry(m: int, n: int) -> CyclicSymmetry:
    """The torus automorphism (i, j) -> (i, j+1 mod n) on ids i*n + j."""
    check_torus(m, n)
    return CyclicSymmetry(
        tuple(i * n + (j + 1) % n for i in range(m) for j in range(n))
    )


def cyclic_symmetry_violations(
    g: Graph, structure: Structure, symmetry: CyclicSymmetry
) -> list[str]:
    """All of sigma's failures: non-automorphism edges, then parts not
    carried onto the next part (for a decomposition: pieces whose vertex
    set, then pieces whose edge set, is not carried onto the next piece's)."""
    _validate(g, structure)
    return _symmetry_violations(g, structure, symmetry.sigma)


def _symmetry_violations(g: Graph, structure: Structure, sigma: tuple[int, ...]) -> list[str]:
    """`cyclic_symmetry_violations` on a structure already validated."""
    if len(sigma) != g.n:
        return [f"permutation length {len(sigma)} does not match {g.n} vertices"]
    out = []
    for u, v in g.edges():
        if not g.has_edge(sigma[u], sigma[v]):
            out.append(
                f"automorphism: edge ({u}, {v}) maps to non-edge ({sigma[u]}, {sigma[v]})"
            )
    vertex_sets, edge_sets = _sets(structure)
    t = len(vertex_sets)
    for i, vs in enumerate(vertex_sets):
        j = (i + 1) % t
        if {sigma[v] for v in vs} != vertex_sets[j]:
            out.append(f"shift: part {i} does not map onto part {j}")
    for i, edges in enumerate(edge_sets or ()):
        j = (i + 1) % t
        if {norm_edge(sigma[u], sigma[v]) for u, v in edges} != edge_sets[j]:
            out.append(f"shift: the edges of piece {i} do not map onto piece {j}")
    return out
