import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecert.crossing import (
    AbstractDrawing,
    DoubledWeightList,
    Parity,
    Violation,
    convex_drawing,
    cr_between,
    cr_total,
    decomposition_weights,
    jordan_parity_screen,
    periodic_prefix_certificate,
    prefix_cr_certificate,
    validate_drawing,
)
from cyclecert.cyclic_core import Direction, verify_certificate
from cyclecert.graphs import Graph, circulant, complete, complete_bipartite, cycle
from cyclecert.structures import EdgeDecomposition, Piece, circulant14_decomposition
from cyclecert.tiles import Tile
from conftest import geometry_convex_crossings, random_graph, simple_cycles_upto


def two_triangles() -> Graph:
    return Graph.from_edges(6, [(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)])


# --- drawing validation --------------------------------------------------------


def test_crossings_are_normalized_and_sorted():
    g = two_triangles()
    d1 = AbstractDrawing(g, [((4, 0), (3, 1)), ((0, 2), (1, 3))])
    d2 = AbstractDrawing(g, [((1, 3), (0, 2)), ((0, 4), (1, 3))])
    assert d1.crossings == d2.crossings
    assert d1.crossings[0] == ((0, 2), (1, 3))


@pytest.mark.parametrize("pair", [
    ((0.9, 2), (1, 3.7)),  # int() truncates these to (0, 2) and (1, 3)
    ((0.0, 2), (1, 3)),  # equal and hashing alike to the graph edge (0, 2)
    ((0, 2), (1, "3")),  # int() parses "3"
    ((True, 2), (1, 3)),
    [(0, 2.0), [1, 3]],  # a list misses the map of graph edges
])
def test_a_vertex_id_that_is_not_an_int_is_refused(pair):
    with pytest.raises(TypeError, match=r"crossing pair .* is not an int"):
        AbstractDrawing(complete(4), [pair])


@pytest.mark.parametrize("pair", [
    ((0, 1, 5), (2, 3)),  # would be cut to (0, 1)
    ((0,), (2, 3)),
    ((0, 1), 3),
    ([0, 1], [2, 3, 1]),
])
def test_an_edge_that_is_not_two_ids_is_refused(pair):
    with pytest.raises(TypeError, match=r"crossing pair .* is not two vertex ids") as caught:
        AbstractDrawing(complete(4), [pair])
    assert repr(pair) in str(caught.value)


@pytest.mark.parametrize("pair", [
    ((0, 1), (2, 3), (0, 2)),  # three edges, each in the graph
    ((0, 1),),
    (),
    5,
])
def test_a_pair_that_is_not_two_edges_is_refused(pair):
    with pytest.raises(TypeError, match=r"crossing pair .* is not two edges") as caught:
        AbstractDrawing(complete(4), [((0, 2), (1, 3)), pair])
    assert repr(pair) in str(caught.value)


def test_a_pair_given_as_a_one_shot_iterator_is_unpacked_once():
    d = AbstractDrawing(cycle(4), [iter([(0, 2), (1, 3)])])
    assert d == AbstractDrawing(cycle(4), [((0, 2), (1, 3))])
    assert [v.kind for v in validate_drawing(d)] == ["unknown-edge", "unknown-edge"]
    clean = AbstractDrawing(two_triangles(), [iter([(1, 3), (0, 2)])])
    assert clean.crossings == (((0, 2), (1, 3)),) and validate_drawing(clean) == []


def test_a_clean_drawing_of_fresh_or_listed_edges_notes_nothing():
    g = complete(5)
    pairs = convex_drawing(g).crossings
    for form in (lambda e: list(e), lambda e: e[::-1], lambda e: (e[0] + 0, e[1] + 0)):
        d = AbstractDrawing(g, [[form(e), form(f)] for e, f in pairs])
        assert d.crossings == pairs and not d._noted


def test_int_ids_in_lists_or_reversed_normalize_alike():
    g = complete(4)
    want = (((0, 2), (1, 3)),)
    for pair in [((0, 2), (1, 3)), ((3, 1), (2, 0)), [[2, 0], [1, 3]], ([1, 3], (0, 2))]:
        assert AbstractDrawing(g, [pair]).crossings == want


def test_validate_reports_unknown_edge():
    d = AbstractDrawing(cycle(4), [((0, 2), (1, 3))])
    kinds = {v.kind for v in validate_drawing(d)}
    assert "unknown-edge" in kinds


def test_validate_reports_self_pair():
    d = AbstractDrawing(cycle(4), [((0, 1), (0, 1))])
    kinds = {v.kind for v in validate_drawing(d)}
    assert kinds == {"self-pair"}


def test_validate_reports_adjacent_pair():
    d = AbstractDrawing(cycle(4), [((0, 1), (1, 2))])
    kinds = {v.kind for v in validate_drawing(d)}
    assert kinds == {"adjacent-pair"}


def test_validate_reports_duplicate_pair():
    g = two_triangles()
    d = AbstractDrawing(g, [((0, 2), (1, 3)), ((1, 3), (0, 2))])
    kinds = {v.kind for v in validate_drawing(d)}
    assert kinds == {"duplicate-pair"}


def test_validate_clean_drawing():
    d = AbstractDrawing(two_triangles(), [((0, 2), (1, 3))])
    assert validate_drawing(d) == []


def reference_scan(g: Graph, pairs: list) -> list[Violation]:
    """Each pair normalized on its own, the list sorted, then every rule
    checked on every pair; TypeError when some vertex id is not an int."""

    def edge(x):
        if any(type(v) is not int for v in x):
            raise TypeError(x)
        return tuple(sorted(x))

    crossings = sorted(tuple(sorted((edge(a), edge(b)))) for a, b in pairs)
    out = []
    for i, (e, f) in enumerate(crossings):
        for x in (e, f):
            if not g.has_edge(*x):
                out.append(Violation("unknown-edge", f"edge {x} is not in the graph"))
        if e == f:
            out.append(Violation("self-pair", f"edge {e} paired with itself"))
        elif set(e) & set(f):
            shared = min(set(e) & set(f), key=e.index)
            out.append(Violation("adjacent-pair", f"edges {e} and {f} share vertex {shared}"))
        if (e, f) in crossings[:i]:
            out.append(Violation("duplicate-pair", f"edges {e} and {f} cross more than once"))
    return out


def test_validate_matches_reference_on_random_bad_drawings():
    # graph edges as the graph's own tuples, fresh, reversed or as lists;
    # foreign edges; floats and bools for ids; self, adjacent and repeated pairs
    rng = random.Random(29)
    kinds, refused = set(), 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.3, 0.9))
        edges = g.edges()
        ids = range(-1, g.n + 1)

        def some_edge():
            roll = rng.random()
            if not edges or roll < 0.1:
                return (rng.choice(ids), rng.choice(ids))
            e = rng.choice(edges)
            if roll < 0.5:
                return e
            if roll < 0.7:
                return e[::-1]
            if roll < 0.85:
                return list(e)
            if roll < 0.99:
                return (e[0] + 0, e[1] + 0)
            return (float(e[0]), e[1]) if rng.random() < 0.5 else (e[0], e[1] == 1 or e[1])

        pairs = []
        for _ in range(rng.randint(0, 12)):
            e = some_edge()
            roll = rng.random()
            if roll < 0.1:
                pairs.append((e, e))
            elif roll < 0.2 and pairs:
                pairs.append(rng.choice(pairs))
            else:
                pairs.append((e, some_edge()) if rng.random() < 0.8 else [e, some_edge()])
        try:
            want = reference_scan(g, pairs)
        except TypeError:
            with pytest.raises(TypeError, match="is not an int"):
                AbstractDrawing(g, pairs)
            refused += 1
            continue
        got = validate_drawing(AbstractDrawing(g, pairs))
        assert got == want
        kinds.update(v.kind for v in got)
    assert kinds == {"unknown-edge", "self-pair", "adjacent-pair", "duplicate-pair"}
    assert refused > 10


def test_a_drawing_reuses_crossing_pairs_made_of_the_graph_edges():
    g = complete(5)
    pairs = list(convex_drawing(g).crossings)
    d = AbstractDrawing(g, pairs)
    assert d.crossings == tuple(pairs)
    own = {id(e) for e in g.edges()}
    assert all(id(e) in own and id(f) in own for e, f in d.crossings)
    assert validate_drawing(d) == []


# --- counting -------------------------------------------------------------------


def test_cr_total_counts_multiset():
    d = AbstractDrawing(two_triangles(), [((0, 2), (1, 3)), ((0, 2), (3, 5))])
    assert cr_total(d) == 2


@pytest.mark.parametrize("bad", [True, 1.0])
def test_cr_between_refuses_an_id_that_is_not_an_int(bad):
    d = convex_drawing(complete(4))
    with pytest.raises(TypeError, match=rf"a_edges: vertex id {bad!r} is not an int"):
        cr_between(d, [(bad, 3)], [(0, 2)])
    with pytest.raises(TypeError, match=rf"b_edges: vertex id {bad!r} is not an int"):
        cr_between(d, [(0, 2)], [(bad, 3)])


def test_cr_between_requires_disjoint_sets():
    d = AbstractDrawing(two_triangles(), [((0, 2), (1, 3))])
    with pytest.raises(ValueError):
        cr_between(d, [(0, 2)], [(0, 2), (1, 3)])


def test_cr_between_refuses_a_drawing_with_violations():
    g = two_triangles()
    a, b = [(0, 2), (2, 4), (0, 4)], [(1, 3), (3, 5), (1, 5)]
    for pairs, kind in [
        ([((0, 2), (1, 3)), ((0, 2), (1, 3))], "duplicate-pair"),
        ([((0, 2), (2, 4))], "adjacent-pair"),
        ([((0, 2), (1, 4))], "unknown-edge"),
    ]:
        with pytest.raises(ValueError, match=kind):
            cr_between(AbstractDrawing(g, pairs), a, b)


def test_cr_between_counts_an_edge_off_the_graph_as_zero():
    g = two_triangles()
    d = AbstractDrawing(g, [((0, 2), (1, 3)), ((0, 4), (1, 3))])
    assert cr_between(d, [(0, 2), (0, 4), (0, 1)], [(1, 3), (2, 5)]) == 2
    assert cr_between(d, [(0, 1), (4, 5)], [(1, 3)]) == 0
    assert cr_between(d, [], [(1, 3)]) == 0


def test_cr_between_counts_across_only():
    g = complete(5)
    d = convex_drawing(g)
    a = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]  # the rim
    b = [(0, 2), (1, 3), (2, 4), (0, 3), (1, 4)]  # the chords
    assert cr_between(d, a, b) == 0  # rim edges cross nothing in convex position
    assert cr_total(d) == 5  # all five crossings are chord-chord


# --- convex drawings vs geometry -------------------------------------------------


def test_convex_complete_graphs_count_four_subsets():
    # in convex position every 4 vertices contribute exactly one crossing
    for n, want in [(4, 1), (5, 5), (6, 15), (7, 35)]:
        assert cr_total(convex_drawing(complete(n))) == want


def test_convex_matches_float_geometry_on_families():
    for g in [circulant(8, [1, 4]), complete(6), complete_bipartite(3, 3), cycle(7)]:
        order = list(range(g.n))
        d = convex_drawing(g)
        assert set(d.crossings) == geometry_convex_crossings(g, order)
        assert len(d.crossings) == len(set(d.crossings))


def test_convex_matches_float_geometry_random():
    rng = random.Random(301)
    for _ in range(25):
        n = rng.randint(4, 9)
        g = random_graph(rng, n, 0.5)
        order = list(range(n))
        rng.shuffle(order)
        d = convex_drawing(g, order)
        assert set(d.crossings) == geometry_convex_crossings(g, order)


def set_rule_convex_crossings(g: Graph, order: list[int]) -> list:
    """Chord pairs with no shared endpoint whose ends strictly interleave,
    found by intersecting endpoint sets, in edge-pair order."""
    pos = {v: i for i, v in enumerate(order)}
    edges = g.edges()
    out = []
    for i, (a, b) in enumerate(edges):
        pa, pb = sorted((pos[a], pos[b]))
        for c, dd in edges[i + 1 :]:
            if {a, b} & {c, dd}:
                continue
            if (pa < pos[c] < pb) != (pa < pos[dd] < pb):
                out.append(((a, b), (c, dd)))
    return out


def test_convex_matches_set_rule_random():
    rng = random.Random(302)
    for _ in range(200):
        n = rng.randint(0, 12)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.9]))
        order = list(range(n))
        rng.shuffle(order)
        want = AbstractDrawing(g, set_rule_convex_crossings(g, order)).crossings
        assert convex_drawing(g, order).crossings == want


@pytest.mark.parametrize("k, arrange, count", [(50, "shuffled", 25537), (100, "rotated", 1200)])
def test_convex_matches_set_rule_at_the_benchmark_sizes(k, arrange, count):
    # circulant(200) in a shuffled order and circulant(400) in a rotated one,
    # as the structures-crossing workload draws them
    n = 4 * k
    g = circulant(n, [1, 4])
    rng = random.Random(1)
    order = list(range(n))
    if arrange == "shuffled":
        rng.shuffle(order)
    else:
        turn = rng.randrange(n)
        order = order[turn:] + order[:turn]
    d = convex_drawing(g, order)
    assert d.crossings == AbstractDrawing(g, set_rule_convex_crossings(g, order)).crossings
    assert len(d.crossings) == count


def scanned_between(d: AbstractDrawing, a: set, b: set) -> int:
    """Crossings between a and b, two disjoint edge sets, by a scan of
    every pair."""
    return sum((e in a and f in b) or (e in b and f in a) for e, f in d.crossings)


def check_convex_against_pairs(g: Graph, order: list[int], rng: random.Random) -> None:
    # a convex drawing and the same pairs handed to the constructor agree on
    # every count, and both match the chord rule
    d = convex_drawing(g, order)
    p = AbstractDrawing(g, list(d.crossings))
    assert d.crossings == p.crossings == AbstractDrawing(g, set_rule_convex_crossings(g, order)).crossings
    assert all(x is y for dp, pp in zip(d.crossings, p.crossings) for x, y in zip(dp, pp))
    assert validate_drawing(d) == validate_drawing(p) == []
    edges = g.edges()
    if edges:
        t = rng.randint(1, 4)
        buckets = [[] for _ in range(t)]
        for e in edges:
            buckets[rng.randrange(t)].append(e)
        dec = EdgeDecomposition(tuple(Piece(frozenset(range(g.n)), frozenset(x)) for x in buckets if x))
        assert decomposition_weights(d, dec) == decomposition_weights(p, dec)
        assert list(decomposition_weights(d, dec).weights) == reference_weights(d, dec)
    for _ in range(3):
        side = {e: rng.randrange(3) for e in edges}
        a = {e for e in edges if side[e] == 0}
        b = {e for e in edges if side[e] == 1}
        want = scanned_between(d, a, b)
        assert cr_between(d, a, b) == cr_between(p, a, b) == want


def test_convex_and_pair_built_drawings_agree_random():
    rng = random.Random(37)
    for _ in range(120):
        n = rng.randint(0, 11)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.9]))
        order = list(range(n))
        rng.shuffle(order)
        check_convex_against_pairs(g, order, rng)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 10), st.data())
def test_convex_and_pair_built_drawings_agree(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    order = data.draw(st.permutations(range(n)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    check_convex_against_pairs(Graph.from_edges(n, chosen), list(order), random.Random(seed))


def test_convex_order_must_be_permutation():
    with pytest.raises(ValueError):
        convex_drawing(cycle(4), [0, 1, 2, 2])


def test_convex_drawing_passes_validation():
    assert validate_drawing(convex_drawing(complete(6))) == []


# --- decomposition weights --------------------------------------------------------


def test_weights_on_circulant_pieces_are_uniform():
    k = 4
    g = circulant(4 * k, [1, 4])
    d = convex_drawing(g)
    w = decomposition_weights(d, circulant14_decomposition(k))
    assert w.weights == (6,) * (4 * k)
    assert w.total() == 2 * cr_total(d)
    assert w.halves() == (F(3),) * (4 * k)


def test_weights_split_two_to_home_piece():
    # both crossing edges in piece 0: weight 2 lands there alone
    g = two_triangles()
    d = AbstractDrawing(g, [((0, 2), (1, 3))])
    dec = EdgeDecomposition((
        Piece(frozenset({0, 1, 2, 3}), frozenset({(0, 2), (1, 3)})),
        Piece(frozenset(range(6)), frozenset({(2, 4), (0, 4), (3, 5), (1, 5)})),
    ))
    w = decomposition_weights(d, dec)
    assert w.weights == (2, 0)


def test_weights_split_one_and_one_across_pieces():
    g = two_triangles()
    d = AbstractDrawing(g, [((0, 2), (1, 3))])
    dec = EdgeDecomposition((
        Piece(frozenset(range(6)), frozenset({(0, 2), (2, 4), (0, 4)})),
        Piece(frozenset(range(6)), frozenset({(1, 3), (3, 5), (1, 5)})),
    ))
    w = decomposition_weights(d, dec)
    assert w.weights == (1, 1)


def test_weights_total_identity_random():
    rng = random.Random(404)
    for _ in range(60):
        n = rng.randint(4, 9)
        g = random_graph(rng, n, 0.6)
        if g.edge_count < 2:
            continue
        order = list(range(n))
        rng.shuffle(order)
        d = convex_drawing(g, order)
        # random split of the edges into 1..4 pieces
        t = rng.randint(1, 4)
        buckets = [[] for _ in range(t)]
        for e in g.edges():
            buckets[rng.randrange(t)].append(e)
        pieces = tuple(
            Piece(frozenset(range(n)), frozenset(b)) for b in buckets if b
        )
        if not pieces:
            continue
        w = decomposition_weights(d, EdgeDecomposition(pieces))
        assert w.total() == 2 * cr_total(d)
        assert sum(w.halves()) == cr_total(d)


def reference_weights(d: AbstractDrawing, dec: EdgeDecomposition) -> list[int]:
    """2 to the piece owning both edges of a crossing, else 1 and 1."""
    owner = {tuple(sorted(e)): i for i, piece in enumerate(dec.pieces) for e in piece.edges}
    weights = [0] * len(dec.pieces)
    for e, f in d.crossings:
        if owner[e] == owner[f]:
            weights[owner[e]] += 2
        else:
            weights[owner[e]] += 1
            weights[owner[f]] += 1
    return weights


def test_weights_match_the_pair_rule_piece_by_piece():
    rng = random.Random(405)
    same_piece = set()
    for _ in range(150):
        n = rng.randint(4, 9)
        g = random_graph(rng, n, 0.6)
        edges = g.edges()
        if not edges:
            continue
        if rng.random() < 0.5:
            order = list(range(n))
            rng.shuffle(order)
            d = convex_drawing(g, order)
        else:
            # any clean drawing: distinct disjoint edge pairs, each at most once
            candidates = [(e, f) for i, e in enumerate(edges) for f in edges[i + 1 :] if not set(e) & set(f)]
            chosen = rng.sample(candidates, rng.randint(0, len(candidates)))
            d = AbstractDrawing(g, [(f[::-1], e) if rng.random() < 0.5 else (e, f) for e, f in chosen])
            assert validate_drawing(d) == []
        t = rng.randint(1, 5)
        buckets = [[] for _ in range(t)]
        for u, v in edges:
            buckets[rng.randrange(t)].append((v, u) if rng.random() < 0.5 else (u, v))
        dec = EdgeDecomposition(tuple(Piece(frozenset(range(n)), frozenset(b)) for b in buckets if b))
        want = reference_weights(d, dec)
        for _ in range(3):  # the per-edge counts are kept between calls
            assert list(decomposition_weights(d, dec).weights) == want
        owner = {tuple(sorted(e)): i for i, piece in enumerate(dec.pieces) for e in piece.edges}
        same_piece.update(owner[e] == owner[f] for e, f in d.crossings)
    assert same_piece == {True, False}


def test_equal_decompositions_share_the_weights_of_one_validation(monkeypatch):
    import cyclecert.crossing as crossing

    calls = []
    validate = crossing.validate_decomposition
    monkeypatch.setattr(crossing, "validate_decomposition", lambda *a: calls.append(a) or validate(*a))
    k = 4
    d = convex_drawing(circulant(4 * k, [1, 4]))
    first = decomposition_weights(d, circulant14_decomposition(k))
    again = circulant14_decomposition(k)  # equal, not the same object
    assert decomposition_weights(d, again) is first
    for h in (12 * k - 1, 12 * k):
        prefix_cr_certificate(d, again, h)
    assert len(calls) == 1
    assert first.halves() is first.halves()
    # another drawing of the same graph keeps its own weights
    other = AbstractDrawing(d.graph, d.crossings[1:])
    assert decomposition_weights(other, again).total() == first.total() - 2
    assert len(calls) == 2
    # pieces given as lists are read into frozensets, so they are equal too
    listed = EdgeDecomposition(tuple(Piece(p.vertices, list(p.edges)) for p in again.pieces))
    for _ in range(2):
        assert decomposition_weights(d, listed) is first
    assert len(calls) == 2


def test_an_invalid_decomposition_raises_on_every_call():
    g = cycle(4)
    d = convex_drawing(g)
    missing = EdgeDecomposition((Piece(frozenset(range(4)), frozenset(g.edges()[1:])),))
    for _ in range(3):
        with pytest.raises(ValueError, match="do not cover every edge"):
            decomposition_weights(d, missing)
        with pytest.raises(ValueError, match="do not cover every edge"):
            prefix_cr_certificate(d, missing, 0)
    whole = EdgeDecomposition((Piece(frozenset(range(4)), frozenset(g.edges())),))
    assert decomposition_weights(d, whole).weights == (0,)


def test_weights_reject_invalid_drawing():
    d = AbstractDrawing(cycle(4), [((0, 1), (1, 2))])
    dec = EdgeDecomposition((Piece(frozenset(range(4)), frozenset(cycle(4).edges())),))
    with pytest.raises(ValueError):
        decomposition_weights(d, dec)


def test_validate_returns_a_fresh_list_each_call():
    d = AbstractDrawing(cycle(4), [((0, 1), (1, 2))])
    first = validate_drawing(d)
    assert [v.kind for v in first] == ["adjacent-pair"]
    first.clear()
    assert [v.kind for v in validate_drawing(d)] == ["adjacent-pair"]
    clean = AbstractDrawing(two_triangles(), [((0, 2), (1, 3))])
    validate_drawing(clean).append(first)
    assert validate_drawing(clean) == []


def test_every_caller_refuses_a_bad_drawing_after_validation():
    g = two_triangles()
    d = AbstractDrawing(g, [((0, 2), (1, 3)), ((0, 2), (1, 3))])
    assert validate_drawing(d)  # computed once here, refused below as well
    dec = EdgeDecomposition((Piece(frozenset(range(6)), frozenset(g.edges())),))
    a = [(0, 2), (2, 4), (0, 4)]
    b = [(1, 3), (3, 5), (1, 5)]
    with pytest.raises(ValueError, match="duplicate-pair"):
        decomposition_weights(d, dec)
    with pytest.raises(ValueError, match="duplicate-pair"):
        prefix_cr_certificate(d, dec, 2)
    with pytest.raises(ValueError, match="duplicate-pair"):
        jordan_parity_screen(d, a, b)


def test_doubled_weight_list_len():
    w = DoubledWeightList((2, 0, 4))
    assert len(w) == 3 and w.total() == 6


# --- prefix certificates -----------------------------------------------------------


def test_prefix_certificate_below_at_crossing_number():
    k = 4
    g = circulant(4 * k, [1, 4])
    d = convex_drawing(g)
    dec = circulant14_decomposition(k)
    cert = prefix_cr_certificate(d, dec, 12 * k, Direction.BELOW)
    assert cert is not None
    halves = decomposition_weights(d, dec).halves()
    assert verify_certificate(halves, F(12 * k) + F(1, 2), cert)


def test_prefix_certificate_below_refuted_under_crossing_number():
    k = 4
    g = circulant(4 * k, [1, 4])
    d = convex_drawing(g)
    assert prefix_cr_certificate(d, circulant14_decomposition(k), 12 * k - 1) is None


def test_prefix_certificate_above_direction():
    k = 4
    g = circulant(4 * k, [1, 4])
    d = convex_drawing(g)
    dec = circulant14_decomposition(k)
    assert prefix_cr_certificate(d, dec, 12 * k, Direction.ABOVE) is not None
    assert prefix_cr_certificate(d, dec, 12 * k + 1, Direction.ABOVE) is None


@pytest.mark.parametrize("h", [F(5, 2), F(2), True])
@pytest.mark.parametrize("direction", [Direction.BELOW, Direction.ABOVE])
def test_prefix_certificate_takes_an_integer_h_only(h, direction):
    # the crossing count is 0 here; a nudged non-integer h would certify
    # a bound that is not the one asked for
    d = convex_drawing(cycle(4))
    dec = EdgeDecomposition((Piece(frozenset(range(4)), frozenset(cycle(4).edges())),))
    with pytest.raises(ValueError, match="h must be an integer"):
        prefix_cr_certificate(d, dec, h, direction)


def test_crossing_certificates_take_no_epsilon_and_no_fractional_h():
    d = convex_drawing(cycle(4))
    dec = EdgeDecomposition((Piece(frozenset(range(4)), frozenset(cycle(4).edges())),))
    with pytest.raises(TypeError):
        prefix_cr_certificate(d, dec, 1, Direction.BELOW, epsilon=F(1, 2))
    tile = Tile(Graph.from_edges(2, [(0, 1)]), (0,), (1,))
    d8 = AbstractDrawing(cycle(8), [])
    with pytest.raises(TypeError):
        periodic_prefix_certificate(d8, tile, 4, 0, epsilon=F(1, 2))
    with pytest.raises(ValueError, match="h must be an integer"):
        periodic_prefix_certificate(d8, tile, 4, F(1, 2))


def test_embedding_certificate_at_zero():
    # a crossing-free drawing of C_8 built from four edge tiles
    tile = Tile(Graph.from_edges(2, [(0, 1)]), (0,), (1,))
    g = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
    d = AbstractDrawing(g, [])
    cert = periodic_prefix_certificate(d, tile, 4, 0)
    assert cert is not None


def test_periodic_certificate_rejects_wrong_graph():
    tile = Tile(Graph.from_edges(2, [(0, 1)]), (0,), (1,))
    d = AbstractDrawing(cycle(6), [])
    with pytest.raises(ValueError):
        periodic_prefix_certificate(d, tile, 4, 0)


# --- parity screen ------------------------------------------------------------------


def test_parity_even_for_disjoint_triangles_in_convex_position():
    g = two_triangles()
    d = convex_drawing(g)
    a = [(0, 2), (2, 4), (0, 4)]
    b = [(1, 3), (3, 5), (1, 5)]
    assert cr_between(d, a, b) == 6
    assert jordan_parity_screen(d, a, b) is Parity.EVEN


def test_parity_odd_flags_unrealizable_data():
    g = two_triangles()
    d = AbstractDrawing(g, [((0, 2), (1, 3))])
    a = [(0, 2), (2, 4), (0, 4)]
    b = [(1, 3), (3, 5), (1, 5)]
    assert jordan_parity_screen(d, a, b) is Parity.ODD


def test_parity_screen_validates_cycles():
    g = two_triangles()
    d = convex_drawing(g)
    with pytest.raises(ValueError, match="at least 3"):
        jordan_parity_screen(d, [(0, 2), (2, 4)], [(1, 3), (3, 5), (1, 5)])
    with pytest.raises(ValueError, match="share"):
        jordan_parity_screen(d, [(0, 2), (2, 4), (0, 4)], [(0, 2), (2, 4), (0, 4)])
    with pytest.raises(ValueError, match="not in the graph"):
        jordan_parity_screen(d, [(0, 1), (1, 2), (0, 2)], [(1, 3), (3, 5), (1, 5)])
    with pytest.raises(ValueError, match="vertex 0 has degree 3"):
        jordan_parity_screen(convex_drawing(complete(7)), [(0, 1), (0, 2), (0, 3)],
                             [(4, 5), (5, 6), (4, 6)])
    # two disjoint triangles: every vertex has degree 2, yet no one cycle
    with pytest.raises(ValueError, match="first cycle is not connected"):
        jordan_parity_screen(convex_drawing(complete(7)), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
                             [(4, 5), (5, 6), (4, 6)])


@pytest.mark.parametrize("bad", [True, 1.0])
def test_parity_screen_refuses_an_id_that_is_not_an_int(bad):
    d = convex_drawing(circulant(12, [1, 4]))
    a, b = [(0, 4), (4, 8), (8, 0)], [(1, 5), (5, 9), (9, 1)]
    assert jordan_parity_screen(d, a, b) is Parity.EVEN
    with pytest.raises(TypeError, match=rf"second cycle: vertex id {bad!r} is not an int"):
        jordan_parity_screen(d, a, [(bad, 5), (5, 9), (9, 1)])
    with pytest.raises(TypeError, match=rf"first cycle: vertex id {bad!r} is not an int"):
        jordan_parity_screen(d, [(bad, 5), (5, 9), (9, 1)], a)


def test_parity_screen_reads_cycles_given_as_generators():
    d = convex_drawing(circulant(12, [1, 4]))
    a = ((4 * i, (4 * i + 4) % 12) for i in range(3))
    b = ([4 * i + 1, (4 * i + 5) % 12] for i in range(3))
    assert jordan_parity_screen(d, a, b) is Parity.EVEN


def test_parity_screen_rejects_disconnected_edge_set():
    # two triangles form a degree-2 edge set that is not one cycle
    g = Graph.from_edges(9, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7), (7, 8), (6, 8)])
    d = AbstractDrawing(g, [])
    both = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    with pytest.raises(ValueError, match="connected"):
        jordan_parity_screen(d, both, [(6, 7), (7, 8), (6, 8)])


def test_parity_even_on_sparse_convex_cycles():
    rng = random.Random(77)
    done = 0
    while done < 30:
        n = rng.randint(6, 10)
        g = random_graph(rng, n, 0.3)
        cycles = simple_cycles_upto(g, 5)
        pairs = [
            (a, b)
            for i, a in enumerate(cycles)
            for b in cycles[i + 1 :]
            if not ({v for e in a for v in e} & {v for e in b for v in e})
        ]
        if not pairs:
            continue
        d = convex_drawing(g)
        a, b = pairs[rng.randrange(len(pairs))]
        assert jordan_parity_screen(d, a, b) is Parity.EVEN
        done += 1
