"""Crossing bookkeeping for abstract drawings, and prefix certificates on it.

A drawing here is combinatorial: a graph plus the multiset of edge pairs
that cross.  Good-drawing rules are enforced by the validator, not the
constructor, so a bad drawing can be built and then reported on: no
crossing may involve an edge outside the graph, pair an edge with itself,
pair edges sharing an endpoint, or repeat (two edges cross at most once).

Each object is checked once.  A drawing given as pairs is read by its
constructor's one pass, which unpacks each pair once: a tuple of the graph's
own edge tuples is kept, any other pair's edges are read by
`graphs.read_edge`, and a pair is noted only when an edge is off the graph
or the two share a vertex; after the sort a neighbour comparison finds
repeats.  The validator's scan runs, once per drawing, only when something
was noted, so a clean drawing, given as the graph's tuples or as JSON lists,
costs no scan.  A convex drawing skips that pass: it is built from its
sweep's masks by a private constructor, whose one loop writes the pairs and
tests no rule, as the sweep breaks none (see `_from_later`).  The weights
of a decomposition are kept on the drawing, so the decomposition is
validated once per drawing and equal decompositions share one
DoubledWeightList, whose halves are one tuple: repeated certificates on it
reuse one scaled list.

Each drawing keeps one crossing index over the graph's edges, in
`graph.edges()` order: each edge's position, how many crossings it is in,
and a mask of the later edges it crosses (bit j - i - 1 of edge i's mask for
edge j > i).  A convex drawing fills it as it is built.  A drawing given as
pairs counts with one Counter over them on its first weights call, and reads
the masks in one pass over them on its first between-count.  A between-count
ANDs each edge's mask with the other set's mask shifted down past it, read
only as wide as the edge's own mask: O(|A| + |B|) mask operations, with no
scan of the crossings.

Splitting the edges into pieces spreads each crossing over the pieces that
own its two edges: 2 to the piece owning both, else 1 and 1.  That is the
same as giving each piece the sum, over its edges, of how many crossings
each edge is in, which the index holds, so each weights call is linear in
the edges.  The doubled weights always sum to twice the crossing count,
so their halves sum to the crossing count exactly, and running the rotation
machinery on the halves turns a global crossing bound into a per-piece
prefix certificate.  The bound is an int h (else ValueError) nudged by 1/2
toward the side it certifies; for an integer count every nudge in (0, 1)
answers alike.  For graphs closed up from t copies of a tile, the canonical
period decomposition makes those halves one number per copy.

A convex drawing puts the vertices on a circle and finds the chords each
chord crosses later in one sweep over bitmasks: O(E) operations on masks of
at most E bits.  Those masks are the index's masks, so one loop over them
writes the pairs and the counts, one step per crossing.

The parity screen is the classical closed-curve obstruction: two
vertex-disjoint cycles drawn in the plane must cross an even number of
times, so an odd count between them refutes planarity of the drawing data.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from operator import eq, lt
from typing import Iterable, Optional, Sequence

from .cyclic_core import HALF, Direction, RotationCertificate, find_rotation, integer_bound
from .graphs import Graph, read_edge
from .structures import EdgeDecomposition, validate_decomposition
from .tiles import Tile, canonical_periodic_decomposition

__all__ = [
    "Parity",
    "Violation",
    "AbstractDrawing",
    "validate_drawing",
    "cr_total",
    "cr_between",
    "DoubledWeightList",
    "decomposition_weights",
    "convex_drawing",
    "prefix_cr_certificate",
    "periodic_prefix_certificate",
    "jordan_parity_screen",
]

Edge = tuple[int, int]
CrossingPair = tuple[Edge, Edge]


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


class _PairName(tuple):
    # (pair, its two edges) naming the pair in a reader's error, formatted only
    # then: as given when a list or tuple shows it, else as the two edges
    def __str__(self) -> str:
        pair, edges = self
        return f"crossing pair {pair if isinstance(pair, (tuple, list)) else edges!r}"


@dataclass(frozen=True)
class AbstractDrawing:
    """A graph and the (normalized, sorted) multiset of crossing edge pairs.

    A pair that is not two edges, an edge that is not two vertex ids, or an
    id that is not an int raises TypeError naming the pair.
    """

    graph: Graph
    crossings: tuple[CrossingPair, ...]

    def __init__(self, graph: Graph, crossings: Iterable[Sequence[Sequence[int]]]):
        # The one pass over the pairs (see the module docstring).  Each graph
        # edge (u, v), u < v, maps to the graph's own tuple for it.  Any pair
        # but a tuple of two such tuples (a list, a reversed or fresh edge, an
        # id that is not a plain int, an edge off the graph) has its edges
        # read by read_edge, which puts u <= v, and mapped onto those tuples.
        canon = {e: e for e in graph.edges()}
        pairs = []
        append = pairs.append
        noted = False
        for pair in crossings:
            try:
                (e, f) = pair
            except (TypeError, ValueError):
                raise TypeError(f"crossing pair {pair!r} is not two edges") from None
            try:
                # (0.0, 2) finds (0, 2) in the map, so identity is asked for
                kept = type(pair) is tuple and canon[e] is e and canon[f] is f
            except (KeyError, TypeError):  # off the map, or unhashable
                kept = False
            if not kept:
                where = _PairName((pair, (e, f)))
                e, f = read_edge(e, where), read_edge(f, where)
                if e in canon and f in canon:
                    e, f = canon[e], canon[f]
                else:
                    noted = True
                pair = (e, f)
            if f < e:
                pair = (f, e)
            if e[0] in f or e[1] in f:
                noted = True
            append(pair)
        # pairs in strictly increasing order are sorted and have no repeat
        if not all(map(lt, pairs, islice(pairs, 1, None))):
            pairs.sort()
            noted = noted or any(map(eq, pairs, islice(pairs, 1, None)))
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "crossings", tuple(pairs))
        object.__setattr__(self, "_noted", noted)

    @classmethod
    def _from_later(cls, graph: Graph, later: Sequence[int]) -> AbstractDrawing:
        """The drawing whose crossings are given as masks over the edges in
        `graph.edges()` order: bit j - i - 1 of later[i] is set when edge i
        crosses edge j > i.

        One loop over the masks writes the pairs from the graph's own edge
        tuples and tallies each edge's crossing count.  It tests no rule:
        the masks of its one caller, convex_drawing, keep them all by
        construction.  There later[i] is
        ((odd >> (i+1)) ^ inside) & ~(left | at >> (i+1)).  left and at hold
        every chord ending at either end of chord i, so no chord left in the
        mask shares a vertex with it.  odd and inside are XORs of at masks,
        whose bits are all chord indices below E, so no bit names an edge
        past the last.  The other rules hold by the layout.  A bit names a
        pair (i, j) with j > i, so no edge pairs with itself.  Pairs come out
        with i ascending and, for one i, j ascending; the graph's edges are
        in increasing order, so the pairs are sorted, and each bit is written
        once, so none repeats.  The drawing notes nothing, so the validator
        reports nothing; its scan of a drawing given as pairs is the one
        place the rules are tested.
        """
        edges = graph.edges()
        counts = [0] * len(edges)
        pairs: list[CrossingPair] = []
        append = pairs.append
        for i, mask in enumerate(later):
            if not mask:
                continue
            e = edges[i]
            counts[i] += mask.bit_count()
            while mask:
                low = mask & -mask
                j = i + low.bit_length()
                append((e, edges[j]))
                counts[j] += 1
                mask ^= low
        drawing = cls.__new__(cls)
        object.__setattr__(drawing, "graph", graph)
        object.__setattr__(drawing, "crossings", tuple(pairs))
        object.__setattr__(drawing, "_noted", False)
        object.__setattr__(drawing, "_counts", counts)
        object.__setattr__(drawing, "_later", later)
        return drawing

    @cached_property
    def _position(self) -> dict[Edge, int]:
        # each graph edge's index in graph.edges() order
        return {e: i for i, e in enumerate(self.graph.edges())}

    @cached_property
    def _counts(self) -> list[int]:
        # how many crossings each edge is in, by index; a drawing given as
        # pairs counts them here once, a convex drawing as it is built
        tally = Counter(chain.from_iterable(self.crossings))
        return [tally[e] for e in self.graph.edges()]

    @cached_property
    def _later(self) -> Sequence[int]:
        # bit j - i - 1 of _later[i]: edge i crosses edge j > i.  A drawing
        # given as pairs reads them here in one pass, on its first
        # between-count; it is clean by then, so j > i on every pair.
        position = self._position
        later = [0] * len(position)
        for e, f in self.crossings:
            i = position[e]
            later[i] |= 1 << (position[f] - i - 1)
        return later

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        # graph and crossings are frozen, so one scan serves every caller,
        # and only a drawing whose constructor noted a pair needs it (a
        # convex drawing is clean by construction and notes none)
        if not self._noted:
            return ()
        out = []
        previous = None
        for pair in self.crossings:
            e, f = pair
            for edge in pair:
                if not self.graph.has_edge(*edge):
                    out.append(Violation("unknown-edge", f"edge {edge} is not in the graph"))
            if e == f:
                out.append(Violation("self-pair", f"edge {e} paired with itself"))
            elif e[0] in f or e[1] in f:
                shared = e[0] if e[0] in f else e[1]
                out.append(
                    Violation("adjacent-pair", f"edges {e} and {f} share vertex {shared}")
                )
            # The crossings are sorted, so repeats of a pair are adjacent.
            if pair == previous:
                out.append(
                    Violation("duplicate-pair", f"edges {e} and {f} cross more than once")
                )
            previous = pair
        return tuple(out)

    @cached_property
    def _weights(self) -> dict[EdgeDecomposition, DoubledWeightList]:
        # decomposition_weights' answers for this drawing, by decomposition
        return {}


def validate_drawing(d: AbstractDrawing) -> list[Violation]:
    """All good-drawing rule violations, empty when the drawing is clean.

    They are computed once per drawing; each call returns a fresh list.
    """
    return list(d._violations)


def _require_clean(d: AbstractDrawing) -> None:
    if d._violations:
        raise ValueError(f"invalid drawing: {d._violations[0]}")


def cr_total(d: AbstractDrawing) -> int:
    """Number of crossings in the drawing."""
    return len(d.crossings)


def cr_between(
    d: AbstractDrawing, a_edges: Iterable[Sequence[int]], b_edges: Iterable[Sequence[int]]
) -> int:
    """Crossings with one edge in a_edges and the other in b_edges.

    The two edge sets must be disjoint, otherwise a shared edge would have
    no well-defined side; an id that is not an int raises TypeError.  An
    edge off the graph is in no crossing, so it counts 0.  A drawing with
    violations raises ValueError, as in the other counting calls: the count
    reads each edge's crossings as one bit per crossing edge, which a
    repeated pair or an edge off the graph does not fit.
    """
    _require_clean(d)
    a = {read_edge(x, "a_edges") for x in a_edges}
    b = {read_edge(x, "b_edges") for x in b_edges}
    if a & b:
        raise ValueError(f"edge sets overlap at {sorted(a & b)[0]}")
    return _count_between(d, a, b)


def _count_between(d: AbstractDrawing, a: set[Edge], b: set[Edge]) -> int:
    # crossings between a and b, two disjoint sets of read edges, on a clean
    # drawing; an edge off the graph is in no crossing
    position, later = d._position, d._later
    ia = [position[e] for e in a if e in position]
    ib = [position[e] for e in b if e in position]
    return _count_later(later, ia, ib) + _count_later(later, ib, ia)


def _count_later(later: Sequence[int], mine: list[int], other: list[int]) -> int:
    # crossings of the edges mine with later edges in other: each edge's mask
    # ANDed with other's mask shifted down past it.  Other's mask is kept as
    # bytes and only the window the edge's mask spans is read, so an edge
    # costs the width of its own mask, not E bits.
    buf = bytearray(len(later) // 8 + 1)
    for j in other:
        buf[j >> 3] |= 1 << (j & 7)
    total = 0
    for i in mine:
        mask, lo = later[i], i + 1
        window = int.from_bytes(buf[lo >> 3:((lo + mask.bit_length()) >> 3) + 1], "little")
        total += (mask & (window >> (lo & 7))).bit_count()
    return total


@dataclass(frozen=True)
class DoubledWeightList:
    """Per-piece doubled crossing weights; they sum to twice the crossing count."""

    weights: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.weights)

    def total(self) -> int:
        return sum(self.weights)

    def halves(self) -> tuple[Fraction, ...]:
        """The weights halved: one tuple, the same object on every call."""
        return self._halves

    @cached_property
    def _halves(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, 2) for w in self.weights)


def decomposition_weights(
    d: AbstractDrawing, decomposition: EdgeDecomposition
) -> DoubledWeightList:
    """Spread each crossing over the owning pieces: 2 if one piece owns both
    edges, else 1 and 1.

    That is each piece's sum, over its edges, of how many crossings each
    edge is in: a crossing inside one piece counts 1 + 1 there.  Those
    counts are the drawing's crossing index, filled once per drawing (a
    convex drawing fills it as it is built), so a call costs O(E) after the
    checks.
    The answer is kept on the drawing for the decomposition (or any equal
    one), so the decomposition is validated and summed once per drawing:
    later calls return the same DoubledWeightList.  A bad drawing or an
    invalid decomposition raises on every call.
    """
    _require_clean(d)
    weights = d._weights.get(decomposition)
    if weights is None:
        weights = d._weights[decomposition] = _piece_weights(d, decomposition)
    return weights


def _piece_weights(d: AbstractDrawing, decomposition: EdgeDecomposition) -> DoubledWeightList:
    validate_decomposition(d.graph, decomposition)
    position, counts = d._position, d._counts
    return DoubledWeightList(tuple(
        sum(counts[position[e]] for e in piece.edges)
        for piece in decomposition.pieces
    ))


def convex_drawing(g: Graph, order: Optional[Sequence[int]] = None) -> AbstractDrawing:
    """Drawing with vertices on a circle in the given order, edges as chords.

    Two chords cross exactly when they share no endpoint and exactly one end
    of one lies strictly inside the arc of the other.  Chords are bits in
    edge order: at[p] holds the chords ending at circle position p, and
    odd[p] the XOR of at[0..p-1], the chords with exactly one end before p.
    For chord i on positions pa < pb, odd[pb] ^ odd[pa + 1] holds the chords
    with exactly one end strictly between them (both ends inside cancel),
    and masking out at[pa] | at[pb] drops the chords that share an end.
    Its bits past i, shifted down by i + 1, are the later chords crossing
    i: the drawing's crossing index keeps them as they are, and one loop
    over them writes the normalized, sorted pairs and each chord's count.
    One sweep around the circle keeps odd[p] as it goes, and each chord
    that is open keeps only the bits past it of odd[pa + 1] and at[pa].
    Cost: O(E) operations on masks of at most E bits, plus one step per
    crossing.
    """
    order = tuple(order) if order is not None else tuple(range(g.n))
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    edges = g.edges()
    ends: list[list[int]] = [[] for _ in range(g.n)]
    right = []
    for i, (a, b) in enumerate(edges):
        pa, pb = (pos[a], pos[b]) if pos[a] < pos[b] else (pos[b], pos[a])
        ends[pa].append(i)
        ends[pb].append(i)
        right.append(pb)
    odd = 0
    opened: dict[int, tuple[int, int]] = {}
    later = [0] * len(edges)  # bit j - i - 1 of later[i]: chord j > i crosses chord i
    for p, chords in enumerate(ends):
        at = sum(1 << i for i in chords)
        for i in chords:
            if right[i] == p:
                inside, left = opened.pop(i)
                later[i] = ((odd >> (i + 1)) ^ inside) & ~(left | at >> (i + 1))
        odd ^= at
        for i in chords:
            if right[i] > p:
                opened[i] = (odd >> (i + 1), at >> (i + 1))
    return AbstractDrawing._from_later(g, later)


def prefix_cr_certificate(
    d: AbstractDrawing,
    decomposition: EdgeDecomposition,
    h: int,
    direction: Direction = Direction.BELOW,
) -> Optional[RotationCertificate]:
    """Rotation certificate on the half-weights against h nudged by 1/2.

    BELOW certifies crossing count <= h (strict against h + 1/2), ABOVE
    certifies crossing count >= h (strict against h - 1/2).  For an int h
    the nudged bound is never attained, so existence is equivalent to the
    non-strict bound on the total.
    """
    h = integer_bound(h)
    halves = decomposition_weights(d, decomposition).halves()
    return find_rotation(halves, h + HALF if direction is Direction.BELOW else h - HALF, direction)


def periodic_prefix_certificate(
    d: AbstractDrawing,
    tile: Tile,
    t: int,
    h: int,
) -> Optional[RotationCertificate]:
    """Certify cr <= h for a drawing of the closed t-fold tiling, one piece
    per copy.

    The drawing's graph must equal the closure of the tile exactly; the
    canonical period decomposition supplies the pieces.
    """
    closed, decomposition = canonical_periodic_decomposition(tile, t)
    if d.graph != closed:
        raise ValueError("drawing graph is not the closure of the tile")
    return prefix_cr_certificate(d, decomposition, h, Direction.BELOW)


def _check_cycle(g: Graph, edges: Iterable[Sequence[int]], label: str) -> tuple[set[Edge], set[int]]:
    es = {read_edge(x, label) for x in edges}
    if len(es) < 3:
        raise ValueError(f"{label} needs at least 3 edges to be a cycle")
    nbrs: dict[int, list[int]] = {}
    for u, v in es:
        if not g.has_edge(u, v):
            raise ValueError(f"{label} uses edge {(u, v)} not in the graph")
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    for v, ws in nbrs.items():
        if len(ws) != 2:
            raise ValueError(f"{label} is not a cycle: vertex {v} has degree {len(ws)}")
    # Every vertex has two distinct neighbors, so the edges are disjoint
    # cycles: one cycle exactly when the walk from the first vertex visits
    # every vertex before it returns.
    start = prev = next(iter(nbrs))
    v, visited = nbrs[start][0], 1
    while v != start:
        a, b = nbrs[v]
        prev, v = v, b if a == prev else a
        visited += 1
    if visited != len(nbrs):
        raise ValueError(f"{label} is not connected")
    return es, set(nbrs)


def jordan_parity_screen(
    d: AbstractDrawing,
    cycle_a: Iterable[Sequence[int]],
    cycle_b: Iterable[Sequence[int]],
) -> Parity:
    """Parity of crossings between two vertex-disjoint cycles.

    In any drawing in the plane the count is even; ODD certifies the
    crossing data is not realizable.
    """
    _require_clean(d)
    ea, va = _check_cycle(d.graph, cycle_a, "first cycle")
    eb, vb = _check_cycle(d.graph, cycle_b, "second cycle")
    if va & vb:
        raise ValueError(f"cycles share vertex {sorted(va & vb)[0]}")
    between = _count_between(d, ea, eb)
    return Parity.EVEN if between % 2 == 0 else Parity.ODD
