import pytest

from cyclecert.domination import Variant, prefix_pruned_search
from cyclecert.errors import BudgetExceededError, SearchBudget
from cyclecert.graphs import (
    Graph,
    cartesian_cycles,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    norm_edge,
)
from cyclecert.iso import _breadth_first_order, find_mapping, isomorphic
from cyclecert.structures import (
    CyclicSymmetry,
    EdgeDecomposition,
    Piece,
    VertexPartition,
    circulant14_decomposition,
    column_shift_symmetry,
    columns_partition,
    cyclic_symmetry_violations,
    find_shift,
    find_transitive_partition,
    is_transitive_decomposition,
    is_transitive_partition,
    star_decomposition_bipartite,
    star_decomposition_complete,
    transitive_by_windows,
    validate_decomposition,
    validate_partition,
)
from cyclecert import structures
from cyclecert.tiles import Tile, canonical_periodic_decomposition, tile_close, tile_concat, tile_power
from conftest import perm_isomorphic, random_graph

import random
import time
from itertools import combinations


# --- isomorphism backend ------------------------------------------------------


def test_isomorphic_agrees_with_permutation_oracle():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 6)
        g1 = random_graph(rng, n, 0.5)
        g2 = random_graph(rng, n, 0.5)
        assert isomorphic(g1, g2) == perm_isomorphic(g1, g2)


def test_isomorphic_on_relabelled_graph():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 9)
        g1 = random_graph(rng, n, 0.4)
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g1.edges()])
        assert isomorphic(g1, g2)


def test_isomorphic_distinguishes_cycle_pair_from_hexagon():
    # C_3 + C_3 vs C_6: same degrees, different structure
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not isomorphic(two_triangles, cycle(6))


def test_isomorphic_budget_raises():
    with pytest.raises(BudgetExceededError):
        isomorphic(cycle(12), cycle(12), SearchBudget(max_nodes=2))


def test_one_long_match_reads_the_clock():
    # both graphs are 2-regular, so refinement leaves one color class and the
    # search backtracks over far more than 10^9 placements
    halves = Graph.from_edges(1200, [(i, i + 1 if i % 600 != 599 else i - 599) for i in range(1200)])
    start = time.monotonic()
    with pytest.raises(BudgetExceededError, match="time budget"):
        isomorphic(cycle(1200), halves, SearchBudget(max_nodes=10**9, max_seconds=0.2))
    assert time.monotonic() - start < 5


def test_initial_colors_restrict_the_mapping():
    # a path 0-1-2: colored ends may not swap, so only the identity is left
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert find_mapping(path, path, None, [0, 1, 2], [0, 1, 2]) == [0, 1, 2]
    assert find_mapping(path, path, None, [0, 1, 2], [2, 1, 0]) == [2, 1, 0]
    assert find_mapping(path, path, None, [0, 1, 2], [1, 0, 2]) is None
    assert find_mapping(path, path) is not None
    empty = Graph.from_edges(0, [])
    assert find_mapping(empty, empty) == []


# --- partition and decomposition validation ------------------------------------


def test_validate_partition_rejects_gaps_overlaps_and_strays():
    g = cycle(4)
    with pytest.raises(ValueError):
        validate_partition(g, VertexPartition((frozenset({0, 1}),)))
    with pytest.raises(ValueError):
        validate_partition(g, VertexPartition((frozenset({0, 1, 2}), frozenset({2, 3}))))
    with pytest.raises(ValueError):
        validate_partition(g, VertexPartition((frozenset({0, 1}), frozenset({2, 3, 4}))))
    with pytest.raises(ValueError):
        VertexPartition((frozenset({0, 1}), frozenset()))
    with pytest.raises(ValueError, match="at least one part"):
        VertexPartition(())
    validate_partition(g, VertexPartition((frozenset({0, 1}), frozenset({2, 3}))))


def test_validate_decomposition_rules():
    g = cycle(4)
    all_v = frozenset(range(4))
    with pytest.raises(ValueError):  # edge not in graph
        validate_decomposition(g, EdgeDecomposition((Piece(all_v, frozenset({(0, 2)})),)))
    with pytest.raises(ValueError):  # duplicated edge across pieces
        validate_decomposition(g, EdgeDecomposition((
            Piece(all_v, frozenset({(0, 1)})),
            Piece(all_v, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})),
        )))
    with pytest.raises(ValueError):  # edge endpoint outside declared vertices
        validate_decomposition(g, EdgeDecomposition((
            Piece(frozenset({0, 1}), frozenset({(0, 1), (1, 2)})),
            Piece(all_v, frozenset({(2, 3), (0, 3)})),
        )))
    with pytest.raises(ValueError):  # edges not covered
        validate_decomposition(g, EdgeDecomposition((Piece(all_v, frozenset({(0, 1)})),)))
    with pytest.raises(ValueError, match="vertex 4 out of range"):
        validate_decomposition(g, EdgeDecomposition((Piece(all_v | {4}, frozenset(g.edges())),)))
    with pytest.raises(ValueError, match="at least one piece"):
        EdgeDecomposition(())


def test_a_part_vertex_that_is_not_an_int_is_refused_naming_its_part():
    parts = list(columns_partition(3, 4).parts)
    parts[0] = frozenset({0.0, 4, 8})  # equal and hashing alike to {0, 4, 8}
    with pytest.raises(TypeError, match=r"part 0: vertex id 0\.0 is not an int"):
        VertexPartition(tuple(parts))


def test_a_piece_edge_or_vertex_that_is_not_read_is_refused_naming_its_piece():
    g = circulant(12, [1, 4])
    pieces = list(circulant14_decomposition(3).pieces)
    first = pieces[0]
    pieces[0] = Piece(first.vertices, frozenset({(0, 1, 2), (0, 4)}))
    with pytest.raises(TypeError, match=r"piece 0: edge \(0, 1, 2\) is not two vertex ids"):
        validate_decomposition(g, EdgeDecomposition(tuple(pieces)))
    pieces[0] = Piece(first.vertices, frozenset({(0, True), (0, 4)}))
    with pytest.raises(TypeError, match="piece 0: vertex id True is not an int"):
        validate_decomposition(g, EdgeDecomposition(tuple(pieces)))
    pieces[0] = Piece(frozenset({"0", 1, 4}), first.edges)
    with pytest.raises(TypeError, match="piece 0: vertex id '0' is not an int"):
        is_transitive_decomposition(g, EdgeDecomposition(tuple(pieces)))


def test_list_valued_parts_answer_as_frozenset_parts():
    g = cartesian_cycles(3, 4)
    sets = columns_partition(3, 4)
    lists = VertexPartition(tuple(sorted(part) for part in sets.parts))
    sigma = column_shift_symmetry(3, 4)
    assert cyclic_symmetry_violations(g, lists, sigma) == []
    shift = find_shift(g, sets)
    assert shift is not None and find_shift(g, lists) == shift
    assert is_transitive_partition(g, lists)
    want = prefix_pruned_search(g, sets, sigma, Variant.DOMINATING, 4)
    assert prefix_pruned_search(g, lists, sigma, Variant.DOMINATING, 4) == want


def test_a_shift_entry_that_is_not_an_int_is_refused_when_built():
    start = time.monotonic()
    for sigma in ((1.0, 2, 0), (1, 2, 0.0), (True, False), ("1", "0")):
        with pytest.raises(TypeError, match="sigma: vertex id .* is not an int"):
            CyclicSymmetry(sigma)
    assert CyclicSymmetry([1, 2, 0]).sigma == (1, 2, 0)
    assert time.monotonic() - start < 2


def test_a_tile_boundary_that_is_not_an_int_is_refused_when_built():
    start = time.monotonic()
    with pytest.raises(TypeError, match=r"left boundary: vertex id 0\.0 is not an int"):
        Tile(complete(4), left=(0.0, 1), right=(2, 3))
    with pytest.raises(TypeError, match="right boundary: vertex id True is not an int"):
        Tile(complete(4), left=(0, 1), right=(2, True))
    assert Tile(complete(4), left=[0, 1], right=[2, 3]) == Tile(complete(4), (0, 1), (2, 3))
    assert time.monotonic() - start < 2


def test_an_id_repeated_inside_one_part_is_one_member():
    start = time.monotonic()
    g = cartesian_cycles(3, 4)
    parts = [sorted(part) for part in columns_partition(3, 4).parts]
    parts[0] = [0, 0, 4, 8]
    p = VertexPartition(tuple(parts))
    validate_partition(g, p)
    assert is_transitive_partition(g, p)
    assert p == columns_partition(3, 4)
    assert time.monotonic() - start < 2


def test_an_edge_given_in_both_orientations_inside_one_piece_is_one_member():
    start = time.monotonic()
    g = cycle(4)
    d = EdgeDecomposition((Piece(range(4), [(0, 1), (1, 0), (1, 2), (2, 3), (0, 3)]),))
    validate_decomposition(g, d)
    assert is_transitive_decomposition(g, d)
    assert d.pieces[0].edges == frozenset(g.edges())
    assert time.monotonic() - start < 2


def _forms(pieces):
    """One structure's (vertices, edges) pieces as frozensets, sorted lists,
    tuples with a repeated id and edge, and edges in reversed orientation."""
    return {
        "frozensets": [(frozenset(vs), frozenset(es)) for vs, es in pieces],
        "lists": [(sorted(vs), sorted(es)) for vs, es in pieces],
        "repeats": [((*vs, min(vs)), (*es, *es[:1])) for vs, es in pieces],
        "reversed": [(vs, [(v, u) for u, v in es]) for vs, es in pieces],
    }


def test_every_form_of_a_structure_builds_one_object_with_one_set_of_answers():
    from cyclecert.crossing import convex_drawing, decomposition_weights, prefix_cr_certificate

    g = cartesian_cycles(3, 4)
    sigma = column_shift_symmetry(3, 4)
    columns = columns_partition(3, 4)
    for name, form in _forms([(sorted(p), []) for p in columns.parts]).items():
        for order, transitive in (([0, 1, 2, 3], True), ([1, 0, 2, 3], False)):
            p = VertexPartition(tuple(form[i][0] for i in order))
            assert p == VertexPartition(tuple(columns.parts[i] for i in order)), name
            validate_partition(g, p)
            assert is_transitive_partition(g, p) is transitive, name
            assert (find_shift(g, p) is not None) is transitive, name
        p = VertexPartition(tuple(vs for vs, _ in form))
        assert find_shift(g, p) == find_shift(g, columns), name
        for h in (3, 4):
            assert prefix_pruned_search(g, p, sigma, Variant.DOMINATING, h) == prefix_pruned_search(
                g, columns, sigma, Variant.DOMINATING, h
            ), name

    g = circulant(12, [1, 4])
    fans = circulant14_decomposition(3)
    drawing = convex_drawing(g)
    swapped = EdgeDecomposition((fans.pieces[1], fans.pieces[0], *fans.pieces[2:]))
    pieces = [(sorted(p.vertices), sorted(p.edges)) for p in fans.pieces]
    for name, form in _forms(pieces).items():
        d = EdgeDecomposition(tuple(Piece(vs, es) for vs, es in form))
        assert d == fans, name
        validate_decomposition(g, d)
        assert is_transitive_decomposition(g, d), name
        assert find_shift(g, d) == find_shift(g, fans) is not None, name
        assert decomposition_weights(drawing, d) is decomposition_weights(drawing, fans), name
        assert prefix_cr_certificate(drawing, d, 36) == prefix_cr_certificate(drawing, fans, 36)
        out = EdgeDecomposition((Piece(*form[1]), Piece(*form[0]), *(Piece(*f) for f in form[2:])))
        assert out == swapped, name
        assert not is_transitive_decomposition(g, out), name
        assert find_shift(g, out) is None, name


# --- transitivity checks --------------------------------------------------------


def test_cycle_singleton_classes_are_transitive():
    g = cycle(6)
    singles = VertexPartition(tuple(frozenset({i}) for i in range(6)))
    assert is_transitive_partition(g, singles)


def test_bipartition_of_k23_is_not_transitive():
    # the two sides have sizes 2 and 3, so already the one-part windows differ
    g = complete_bipartite(2, 3)
    sides = VertexPartition((frozenset({0, 1}), frozenset({2, 3, 4})))
    assert not is_transitive_partition(g, sides)


def test_torus_columns_are_transitive():
    for m, n in [(3, 3), (3, 4), (4, 3), (4, 4)]:
        g = cartesian_cycles(m, n)
        assert is_transitive_partition(g, columns_partition(m, n))


def test_alternating_partition_of_even_cycle_is_transitive():
    g = cycle(6)
    p = VertexPartition((frozenset({0, 2, 4}), frozenset({1, 3, 5})))
    assert is_transitive_partition(g, p)


def test_path_decomposition_into_single_edges_is_not_transitive():
    # a path on 4 vertices split into its 3 edges: the wrapped two-piece
    # window is a disjoint pair of edges, the straight ones are paths
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    dec = EdgeDecomposition((
        Piece(frozenset({0, 1}), frozenset({(0, 1)})),
        Piece(frozenset({1, 2}), frozenset({(1, 2)})),
        Piece(frozenset({2, 3}), frozenset({(2, 3)})),
    ))
    assert not is_transitive_decomposition(g, dec)


def test_star_decompositions_are_transitive():
    for m, n in [(2, 2), (2, 3), (3, 3), (3, 4)]:
        g = complete_bipartite(m, n)
        assert is_transitive_decomposition(g, star_decomposition_bipartite(m, n))
    assert is_transitive_decomposition(complete(7), star_decomposition_complete(7))


def test_star_decomposition_complete_rejects_even():
    with pytest.raises(ValueError):
        star_decomposition_complete(6)


def test_star_decomposition_bipartite_needs_two_nonempty_sides():
    with pytest.raises(ValueError, match="nonempty"):
        star_decomposition_bipartite(0, 2)


def _k4_matchings() -> EdgeDecomposition:
    all_v = frozenset(range(4))
    return EdgeDecomposition((
        Piece(all_v, frozenset({(0, 1), (2, 3)})),
        Piece(all_v, frozenset({(0, 2), (1, 3)})),
        Piece(all_v, frozenset({(0, 3), (1, 2)})),
    ))


def test_k4_perfect_matchings_are_transitive():
    assert is_transitive_decomposition(complete(4), _k4_matchings())


def test_circulant14_decomposition_is_valid_and_transitive():
    k = 3
    g = circulant(4 * k, [1, 4])
    dec = circulant14_decomposition(k)
    validate_decomposition(g, dec)
    with pytest.raises(ValueError, match="k >= 3"):
        circulant14_decomposition(2)
    assert len(dec.pieces) == 4 * k
    assert is_transitive_decomposition(g, dec)


# --- searching for transitive partitions ----------------------------------------


def test_find_transitive_partition_on_even_cycle():
    g = cycle(6)
    for t in (2, 3, 6):
        found = find_transitive_partition(g, t)
        assert found is not None
        assert len(found.parts) == t
        assert is_transitive_partition(g, found)
    assert 0 in found.parts[0] or any(0 in p for p in found.parts)


def test_find_transitive_partition_k23_has_none():
    g = complete_bipartite(2, 3)
    for t in (2, 3, 4, 5):
        assert find_transitive_partition(g, t) is None


def test_find_transitive_partition_requires_divisor():
    assert find_transitive_partition(cycle(7), 2) is None


def test_find_transitive_partition_t_range():
    with pytest.raises(ValueError):
        find_transitive_partition(cycle(4), 1)
    with pytest.raises(ValueError):
        find_transitive_partition(cycle(4), 5)


def test_find_transitive_partition_budget():
    # singleton classes on K_2,3 never verify, so the search must burn
    # through many candidates before concluding; a budget of 1 trips first
    with pytest.raises(BudgetExceededError):
        find_transitive_partition(complete_bipartite(2, 3), 5, SearchBudget(max_nodes=1))


def _k13_minus_an_edge() -> Graph:
    return Graph.from_edges(13, [e for e in complete(13).edges() if e != (0, 12)])


@pytest.mark.parametrize(
    "g, t",
    [
        # 13 singleton classes: every order that never puts 0 next to 12
        # passes the pair screen, about 2 * 10^8 candidates; none has a shift,
        # as the degrees differ, and the window test refutes each one
        (_k13_minus_an_edge(), 13),
        # no half of the star passes the class screen against its complement,
        # so the search tries about 7 * 10^10 classes and never a candidate
        (complete_bipartite(1, 39), 2),
    ],
)
def test_find_transitive_partition_honours_the_clock(g, t):
    start = time.monotonic()
    with pytest.raises(BudgetExceededError, match="time budget"):
        find_transitive_partition(g, t, SearchBudget(max_seconds=0.5))
    assert time.monotonic() - start < 5


def test_transitive_decomposition_spends_the_shared_node_budget():
    g = complete(31)
    with pytest.raises(BudgetExceededError, match="node budget 100 exceeded"):
        is_transitive_decomposition(g, star_decomposition_complete(31), SearchBudget(max_nodes=100))


def test_one_budget_accumulates_over_two_window_tests():
    # each check spends the same nodes, those of its shift search
    g = complete(13)
    dec = star_decomposition_complete(13)
    budget = SearchBudget()
    assert is_transitive_decomposition(g, dec, budget)
    once = budget.nodes
    assert once > 0
    assert is_transitive_decomposition(g, dec, budget)
    assert budget.nodes == 2 * once


def test_equal_windows_need_no_search():
    # columns of a torus and singletons of a cycle, labelled in part order,
    # give the same adjacency at every start, so no window reaches match
    start = time.monotonic()
    budget = SearchBudget()
    assert transitive_by_windows(cartesian_cycles(4, 4), columns_partition(4, 4), budget)
    singletons = VertexPartition(tuple(frozenset({v}) for v in range(100)))
    assert transitive_by_windows(cycle(100), singletons, budget)
    assert budget.nodes == 0
    assert time.monotonic() - start < 2


def test_equal_windows_still_read_the_clock():
    singletons = VertexPartition(tuple(frozenset({v}) for v in range(100)))
    with pytest.raises(BudgetExceededError, match="time budget"):
        transitive_by_windows(cycle(100), singletons, SearchBudget(max_seconds=0))


# --- cyclic shift symmetries -----------------------------------------------------


def test_column_shift_verifies_on_torus():
    g = cartesian_cycles(3, 4)
    p = columns_partition(3, 4)
    sigma = column_shift_symmetry(3, 4)
    assert cyclic_symmetry_violations(g, p, sigma) == []
    for make in (columns_partition, column_shift_symmetry):
        with pytest.raises(ValueError, match="at least 3"):
            make(2, 4)


def test_shift_violations_report_non_automorphism():
    g = cycle(4)
    p = VertexPartition((frozenset({0, 1}), frozenset({2, 3})))
    swapped = CyclicSymmetry((1, 0, 2, 3))  # fixes the partition? no: check edges
    problems = cyclic_symmetry_violations(g, p, swapped)
    assert problems and any("non-edge" in msg or "does not map" in msg for msg in problems)


def test_shift_violations_report_part_mismatch():
    g = cycle(4)
    p = VertexPartition((frozenset({0, 1}), frozenset({2, 3})))
    identity = CyclicSymmetry((0, 1, 2, 3))  # an automorphism, but no shift
    problems = cyclic_symmetry_violations(g, p, identity)
    assert problems and all("does not map onto" in msg for msg in problems)


def test_shift_length_mismatch():
    g = cycle(4)
    p = VertexPartition((frozenset({0, 1}), frozenset({2, 3})))
    problems = cyclic_symmetry_violations(g, p, CyclicSymmetry((0, 1, 2)))
    assert problems and "length" in problems[0]


def test_cyclic_symmetry_rejects_non_permutation():
    with pytest.raises(ValueError):
        CyclicSymmetry((0, 0, 1))


# --- shift search ------------------------------------------------------------------


def test_recheck_refuses_a_shift_one_part_off():
    g = cartesian_cycles(3, 5)
    sigma = column_shift_symmetry(3, 5).sigma
    by_two = CyclicSymmetry(tuple(sigma[v] for v in sigma))  # an automorphism
    problems = cyclic_symmetry_violations(g, columns_partition(3, 5), by_two)
    assert problems == [f"shift: part {i} does not map onto part {(i + 1) % 5}" for i in range(5)]
    g, dec = complete(7), star_decomposition_complete(7)
    assert cyclic_symmetry_violations(g, dec, CyclicSymmetry(tuple((v + 1) % 7 for v in range(7)))) == []
    problems = cyclic_symmetry_violations(g, dec, CyclicSymmetry(tuple((v + 2) % 7 for v in range(7))))
    # a piece's vertex set is checked as a part, then come the edge sets
    assert problems == [f"shift: part {i} does not map onto part {(i + 1) % 7}" for i in range(7)] + [
        f"shift: the edges of piece {i} do not map onto piece {(i + 1) % 7}" for i in range(7)
    ]


def test_recheck_refuses_a_map_that_moves_a_pieces_edges_wrongly():
    # every piece declares all four vertices, so any permutation carries the
    # vertex sets correctly; the identity keeps each matching where it is
    g, dec = complete(4), _k4_matchings()
    problems = cyclic_symmetry_violations(g, dec, CyclicSymmetry((0, 1, 2, 3)))
    assert problems == [
        f"shift: the edges of piece {i} do not map onto piece {(i + 1) % 3}" for i in range(3)
    ]
    shift = find_shift(g, dec)
    assert shift is not None and not cyclic_symmetry_violations(g, dec, shift)


def test_a_positive_check_validates_its_structure_once(monkeypatch):
    # the shift's re-check runs on the structure the check already validated
    calls = []
    validate = structures.validate_decomposition
    monkeypatch.setattr(structures, "validate_decomposition", lambda *a: calls.append(a) or validate(*a))
    assert is_transitive_decomposition(complete(13), star_decomposition_complete(13))
    assert len(calls) == 1


def test_cycle_singletons_answer_through_the_rotation():
    singletons = VertexPartition(tuple(frozenset({v}) for v in range(1000)))
    start = time.monotonic()
    assert is_transitive_partition(cycle(1000), singletons)
    assert time.monotonic() - start < 2
    shift = find_shift(cycle(1000), singletons)
    assert shift is not None and shift.sigma == tuple((v + 1) % 1000 for v in range(1000))


def test_one_part_is_transitive_through_an_automorphism():
    g = complete_bipartite(2, 3)
    whole = VertexPartition((frozenset(range(5)),))
    assert find_shift(g, whole) is not None
    assert is_transitive_partition(g, whole)
    dec = EdgeDecomposition((Piece(frozenset(range(5)), frozenset(g.edges())),))
    assert find_shift(g, dec) is not None
    assert is_transitive_decomposition(g, dec)


def test_negatives_have_no_shift_and_stay_negative():
    g = complete_bipartite(2, 3)
    sides = VertexPartition((frozenset({0, 1}), frozenset({2, 3, 4})))
    assert find_shift(g, sides) is None
    assert not is_transitive_partition(g, sides)
    assert find_transitive_partition(complete_bipartite(3, 4), 7) is None


def test_transitive_without_a_shift_falls_back_to_the_windows():
    # a triangle 0-1-2 with a pendant edge 0-3, split into the edges {1, 2}
    # and {0, 3}: both one-part windows are an edge, but no automorphism
    # swaps the parts, as their degrees in g differ
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    parts = VertexPartition((frozenset({1, 2}), frozenset({0, 3})))
    assert find_shift(g, parts) is None
    assert is_transitive_partition(g, parts)


# --- tiles -----------------------------------------------------------------------


def edge_tile() -> Tile:
    return Tile(Graph.from_edges(2, [(0, 1)]), (0,), (1,))


def test_tile_width_must_match():
    with pytest.raises(ValueError):
        Tile(Graph.from_edges(2, [(0, 1)]), (0,), (0, 1))
    with pytest.raises(ValueError):
        Tile(Graph.from_edges(2, [(0, 1)]), (0,), (5,))


def test_tile_concat_shifts_and_joins():
    q = tile_concat(edge_tile(), edge_tile())
    assert q.graph.n == 4
    assert q.graph.edges() == [(0, 1), (1, 2), (2, 3)]
    assert q.left == (0,) and q.right == (3,)


def test_tile_concat_width_mismatch():
    wide = Tile(Graph.from_edges(2, []), (0, 1), (0, 1))
    with pytest.raises(ValueError):
        tile_concat(edge_tile(), wide)


def test_tile_concat_rejects_parallel_join():
    # a boundary that repeats a vertex forces the same rung twice
    doubled = Tile(Graph.from_edges(2, [(0, 1)]), (0, 0), (1, 1))
    with pytest.raises(ValueError, match="parallel"):
        tile_concat(doubled, doubled)


def test_tile_close_gives_cycle():
    assert tile_close(edge_tile(), 4) == Graph.from_edges(
        8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7)]
    )


def test_tile_close_needs_two_copies():
    with pytest.raises(ValueError):
        tile_close(edge_tile(), 1)


def test_tile_close_rejects_parallel_closure():
    point = Tile(Graph.from_edges(1, []), (0,), (0,))
    with pytest.raises(ValueError, match="parallel"):
        tile_close(point, 2)


def test_tile_power_one_is_identity():
    q = tile_power(edge_tile(), 1)
    assert q.graph == edge_tile().graph
    with pytest.raises(ValueError, match="t >= 1"):
        tile_power(edge_tile(), 0)


@pytest.mark.parametrize("t", range(1, 7))
def test_tile_power_is_the_row_of_concatenations(t):
    for q in _CLOSABLE_TILES.values():
        row = q
        for _ in range(t - 1):
            row = tile_concat(row, q)
        assert tile_power(q, t) == row


def test_a_copy_count_that_is_not_an_int_is_refused():
    # True would read as one copy, and 2.0 fail inside range()
    q = Tile(complete(4), (0, 1), (2, 3))
    for build, t in [(tile_power, True), (tile_close, 2.0), (canonical_periodic_decomposition, 2.0)]:
        with pytest.raises(TypeError, match=f"copy count {t} is not an int"):
            build(q, t)


def test_column_tile_closes_to_torus():
    m, t = 4, 5
    col = Tile(cycle(m), tuple(range(m)), tuple(range(m)))
    closed = tile_close(col, t)
    # closure ids are copy*m + row; the torus uses row*t + copy
    relabel = {copy * m + row: row * t + copy for copy in range(t) for row in range(m)}
    expected = cartesian_cycles(m, t)
    mapped = Graph.from_edges(closed.n, [(relabel[u], relabel[v]) for u, v in closed.edges()])
    assert mapped == expected


_CLOSABLE_TILES = {
    "edge": Tile(Graph.from_edges(2, [(0, 1)]), (0,), (1,)),
    "triangle column": Tile(cycle(3), (0, 1, 2), (0, 1, 2)),
    "twisted path": Tile(Graph.from_edges(3, [(0, 1), (1, 2)]), (0, 2), (2, 0)),
    "square rung": Tile(cycle(4), (0, 1), (3, 2)),
    "point": Tile(Graph.from_edges(1, []), (0,), (0,)),
}


@pytest.mark.parametrize("t", range(2, 7))
@pytest.mark.parametrize("name", list(_CLOSABLE_TILES))
def test_tile_close_is_the_power_plus_the_outer_joins(name, t):
    q = _CLOSABLE_TILES[name]
    row = tile_power(q, t)
    outer = [(row.right[j], row.left[j]) for j in range(q.width)]
    try:
        expected = Graph.from_edges(row.graph.n, row.graph.edges() + outer)
    except ValueError:
        # with two copies an outer join can repeat an inner one
        with pytest.raises(ValueError, match="parallel"):
            tile_close(q, t)
        return
    assert tile_close(q, t) == expected
    g, dec = canonical_periodic_decomposition(q, t)
    assert g == tile_close(q, t)
    validate_decomposition(g, dec)


def test_canonical_periodic_decomposition_matches_closure():
    g, dec = canonical_periodic_decomposition(edge_tile(), 4)
    assert g == tile_close(edge_tile(), 4)
    validate_decomposition(g, dec)
    assert len(dec.pieces) == 4
    assert is_transitive_decomposition(g, dec)


def test_canonical_periodic_decomposition_on_column_tile():
    col = Tile(cycle(3), (0, 1, 2), (0, 1, 2))
    g, dec = canonical_periodic_decomposition(col, 3)
    assert g == tile_close(col, 3)
    validate_decomposition(g, dec)
    # every piece holds one copy's triangle plus its forward rungs
    assert all(len(p.edges) == 6 for p in dec.pieces)
    assert is_transitive_decomposition(g, dec)


# --- deep searches ----------------------------------------------------------------


def test_isomorphic_on_relabelled_long_cycle():
    # 1,200 vertices is deeper than the interpreter's recursion limit
    rng = random.Random(1200)
    perm = list(range(1200))
    rng.shuffle(perm)
    relabelled = Graph.from_edges(1200, [(perm[u], perm[v]) for u, v in cycle(1200).edges()])
    assert isomorphic(cycle(1200), relabelled)


def test_find_transitive_partition_into_1200_classes_exhausts_the_budget_not_the_stack():
    # singleton classes nest 1,200 deep, one node each down to the first
    # candidate; the perfect matching is not transitive, so every candidate
    # is refused and the budget runs out a few candidates later
    g = Graph.from_edges(1200, [(2 * i, 2 * i + 1) for i in range(600)])
    budget = SearchBudget(max_nodes=1205)
    with pytest.raises(BudgetExceededError):
        find_transitive_partition(g, 1200, budget)
    assert budget.nodes > 1200


def _k4_tile_closure(t: int):
    return canonical_periodic_decomposition(Tile(complete(4), (0, 1), (2, 3)), t)


def _singletons(n: int) -> VertexPartition:
    return VertexPartition(tuple(frozenset({v}) for v in range(n)))


@pytest.mark.parametrize(
    "check, make, nodes",
    [
        (find_shift, lambda: (complete(13), star_decomposition_complete(13)), 91),
        (find_shift, lambda: (complete(31), star_decomposition_complete(31)), 496),
        (find_shift, lambda: _k4_tile_closure(8), 158),
        (find_shift, lambda: _k4_tile_closure(16), 298),
        (find_shift, lambda: (cycle(400), _singletons(400)), 400),
        (transitive_by_windows, lambda: (complete(13), star_decomposition_complete(13)), 810),
        (transitive_by_windows, lambda: (complete(31), star_decomposition_complete(31)), 12_150),
        (transitive_by_windows, lambda: (circulant(32, [1, 4]), circulant14_decomposition(8)), 3_624),
        (find_transitive_partition, lambda: (complete_bipartite(3, 4), 7), 245),
        (find_transitive_partition, lambda: (cycle(12), 4), 16),
    ],
    ids=[
        "shift-K13", "shift-K31", "shift-K4-tiles-8", "shift-K4-tiles-16", "shift-C400",
        "windows-K13", "windows-K31", "windows-circulant32", "partition-K34-7", "partition-C12-4",
    ],
)
def test_search_order_is_pinned_by_exact_node_counts(check, make, nodes):
    # node counts are deterministic: a change here is a change of search order
    budget = SearchBudget()
    check(*make(), budget)
    assert budget.nodes == nodes


def test_relabelled_torus_takes_few_nodes_in_breadth_first_order():
    g = cartesian_cycles(12, 12)
    for seed in range(20):
        rng = random.Random(seed)
        perm = list(range(g.n))
        rng.shuffle(perm)
        budget = SearchBudget()
        assert isomorphic(g, _relabel_graph(g, perm), budget)
        assert budget.nodes < 20_000


def test_breadth_first_order_places_every_vertex_of_every_component_once():
    rng = random.Random(47)
    # a triangle, a path, a star, two isolated vertices, and random graphs
    g = Graph.from_edges(
        13, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (6, 7), (6, 8), (6, 9), (6, 10)]
    )
    graphs = [g, Graph(0, ())] + [random_graph(rng, rng.randint(1, 12), 0.15) for _ in range(40)]
    for h in graphs:
        nbrs = [[u for u in range(h.n) if h.has_edge(u, v)] for v in range(h.n)]
        degrees = [len(nb) for nb in nbrs]
        # the order holds for any coloring: the degrees, or random colors
        for cols in (degrees, [rng.randint(0, 2) for _ in range(h.n)]):
            order, back = _breadth_first_order(nbrs, degrees, cols)
            assert sorted(order) == list(range(h.n))
            placed = set()
            for d, v in enumerate(order):
                assert sorted(back[d]) == sorted(u for u in placed if h.has_edge(u, v))
                placed.add(v)


def test_isomorphic_on_long_cycle_against_two_halves_never_recurses():
    # both graphs are 2-regular, so refinement cannot tell them apart
    halves = Graph.from_edges(1200, [(i, i + 1 if i % 600 != 599 else i - 599) for i in range(1200)])
    try:
        assert not isomorphic(cycle(1200), halves)
    except BudgetExceededError:
        pass


# --- grown windows against a reference from the definition ----------------------


def _relabelled_window(vertices, edges) -> Graph:
    ids = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(ids)}
    return Graph.from_edges(len(ids), sorted(norm_edge(pos[u], pos[v]) for u, v in edges))


def reference_partition_window(g: Graph, parts, start: int, length: int) -> Graph:
    verts: set[int] = set()
    for off in range(length):
        verts |= parts[(start + off) % len(parts)]
    return _relabelled_window(verts, [e for e in g.edges() if e[0] in verts and e[1] in verts])


def reference_decomposition_window(pieces, start: int, length: int) -> Graph:
    verts: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for off in range(length):
        piece = pieces[(start + off) % len(pieces)]
        verts |= piece.vertices
        edges |= {norm_edge(u, v) for u, v in piece.edges}
    return _relabelled_window(verts, edges)


def reference_isomorphic(g1: Graph, g2: Graph) -> bool:
    return sorted(g1.degrees()) == sorted(g2.degrees()) and perm_isomorphic(g1, g2)


def reference_transitive(window_at, t: int) -> bool:
    for length in range(1, t + 1):
        windows = [window_at(i, length) for i in range(t)]
        if not all(reference_isomorphic(windows[0], w) for w in windows[1:]):
            return False
    return True


def _relabel_graph(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _move_edge(rng: random.Random, g: Graph) -> Graph:
    edges = g.edges()
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    if not edges or not non_edges:
        return g
    gone = rng.choice(edges)
    return Graph.from_edges(g.n, [e for e in edges if e != gone] + [rng.choice(non_edges)])


def _swap_two(rng: random.Random, items: tuple) -> tuple:
    out = list(items)
    i, j = rng.sample(range(len(out)), 2)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def _random_partition_case(rng: random.Random):
    """A rotation-invariant partition of a relabelled circulant, its parts
    rotated, then maybe two parts swapped or one edge moved."""
    n = rng.randint(4, 8)
    t = rng.choice([d for d in range(2, n + 1) if n % d == 0])
    strides = rng.sample(range(1, n // 2 + 1), rng.randint(1, n // 2))
    g = circulant(n, strides)
    if rng.random() < 0.5:
        parts = [frozenset(v for v in range(n) if v % t == j) for j in range(t)]
    else:
        size = n // t
        parts = [frozenset(range(j * size, (j + 1) * size)) for j in range(t)]
    perm = list(range(n))
    rng.shuffle(perm)
    g = _relabel_graph(g, perm)
    parts = [frozenset(perm[v] for v in p) for p in parts]
    shift = rng.randrange(t)
    parts = tuple(parts[shift:] + parts[:shift])
    kind = rng.randrange(3)
    if kind == 1:
        parts = _swap_two(rng, parts)
    elif kind == 2:
        g = _move_edge(rng, g)
    return g, VertexPartition(parts)


def _random_decomposition_case(rng: random.Random):
    """Stride fans of a circulant (piece i holds the edges from v_i forward),
    relabelled and rotated, then maybe two pieces swapped or one edge moved
    to another piece."""
    n = rng.randint(5, 7)
    strides = rng.sample(range(1, (n - 1) // 2 + 1), rng.randint(1, (n - 1) // 2))
    perm = list(range(n))
    rng.shuffle(perm)
    g = _relabel_graph(circulant(n, strides), perm)
    pieces = []
    for i in range(n):
        edges = {norm_edge(perm[i], perm[(i + a) % n]) for a in strides}
        pieces.append((set().union(*edges), edges))
    shift = rng.randrange(n)
    pieces = pieces[shift:] + pieces[:shift]
    kind = rng.randrange(3)
    if kind == 1:
        pieces = list(_swap_two(rng, tuple(pieces)))
    elif kind == 2:
        src, dst = rng.sample(range(n), 2)
        e = rng.choice(sorted(pieces[src][1]))
        pieces[src][1].discard(e)
        pieces[dst][0].update(e)
        pieces[dst][1].add(e)
    return g, EdgeDecomposition(tuple(Piece(frozenset(vs), frozenset(es)) for vs, es in pieces))


def test_transitive_partition_agrees_with_reference():
    rng = random.Random(31)
    answers = []
    for _ in range(120):
        g, part = _random_partition_case(rng)
        expected = reference_transitive(
            lambda i, length: reference_partition_window(g, part.parts, i, length), len(part.parts)
        )
        assert is_transitive_partition(g, part) == expected
        answers.append(expected)
    assert any(answers) and not all(answers)


def test_transitive_decomposition_agrees_with_reference():
    rng = random.Random(37)
    answers = []
    for _ in range(80):
        g, dec = _random_decomposition_case(rng)
        expected = reference_transitive(
            lambda i, length: reference_decomposition_window(dec.pieces, i, length), len(dec.pieces)
        )
        assert is_transitive_decomposition(g, dec) == expected
        answers.append(expected)
    assert any(answers) and not all(answers)


def test_shift_partition_agrees_with_reference():
    # the cases of test_transitive_partition_agrees_with_reference
    rng = random.Random(31)
    shifts = 0
    for _ in range(120):
        g, part = _random_partition_case(rng)
        expected = reference_transitive(
            lambda i, length: reference_partition_window(g, part.parts, i, length), len(part.parts)
        )
        shift = find_shift(g, part)
        if shift is not None:
            shifts += 1
            assert expected and not cyclic_symmetry_violations(g, part, shift)
        assert transitive_by_windows(g, part) == expected
    assert shifts > 0


def test_shift_decomposition_agrees_with_reference():
    # the cases of test_transitive_decomposition_agrees_with_reference
    rng = random.Random(37)
    shifts = 0
    for _ in range(80):
        g, dec = _random_decomposition_case(rng)
        expected = reference_transitive(
            lambda i, length: reference_decomposition_window(dec.pieces, i, length), len(dec.pieces)
        )
        shift = find_shift(g, dec)
        if shift is not None:
            shifts += 1
            assert expected and not cyclic_symmetry_violations(g, dec, shift)
        assert transitive_by_windows(g, dec) == expected
    assert shifts > 0


def _some_permutation_has_no_violations(g: Graph, structure) -> bool:
    """Is there a permutation sigma with no `cyclic_symmetry_violations`?
    Extends sigma vertex by vertex, refusing an image that breaks adjacency
    with the vertices already placed or is not in exactly the vertex sets
    after those that hold v, and checks each complete sigma."""
    if isinstance(structure, VertexPartition):
        vertex_sets = structure.parts
    else:
        vertex_sets = tuple(piece.vertices for piece in structure.pieces)
    t = len(vertex_sets)
    held = [{i for i, vs in enumerate(vertex_sets) if v in vs} for v in range(g.n)]
    sigma: list[int] = []

    def extend(used: int) -> bool:
        v = len(sigma)
        if v == g.n:
            return not cyclic_symmetry_violations(g, structure, CyclicSymmetry(tuple(sigma)))
        # the images of v's neighbours among the vertices already placed
        want = sum(1 << sigma[u] for u in range(v) if g.adj[v] >> u & 1)
        after = {(i + 1) % t for i in held[v]}
        for w in range(g.n):
            if used >> w & 1 or g.adj[w] & used != want or held[w] != after:
                continue
            sigma.append(w)
            if extend(used | 1 << w):
                return True
            sigma.pop()
        return False

    return extend(0)


def test_a_shift_is_found_exactly_when_some_permutation_passes_the_recheck():
    # the cases of the two reference tests above
    answers = []
    for seed, count, make in ((31, 120, _random_partition_case), (37, 80, _random_decomposition_case)):
        rng = random.Random(seed)
        for _ in range(count):
            g, structure = make(rng)
            exists = _some_permutation_has_no_violations(g, structure)
            assert (find_shift(g, structure) is not None) == exists
            answers.append(exists)
    assert any(answers) and not all(answers)


def _degree_preserving_swap(rng: random.Random, g: Graph) -> Graph:
    edges = g.edges()
    for _ in range(30):
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) == 4 and not g.has_edge(a, d) and not g.has_edge(c, b):
            kept = [e for e in edges if e not in ((a, b), (c, d))]
            return Graph.from_edges(g.n, kept + [(a, d), (c, b)])
    return g


def test_isomorphic_on_degree_preserving_swaps_agrees_with_permutation_oracle():
    rng = random.Random(41)
    answers = []
    for _ in range(50):
        n = rng.randint(4, 7)
        g1 = random_graph(rng, n, rng.uniform(0.3, 0.7))
        for _ in range(3):
            g2 = g1
            if g1.edge_count >= 2:
                for _ in range(rng.randint(0, 2)):
                    g2 = _degree_preserving_swap(rng, g2)
            perm = list(range(n))
            rng.shuffle(perm)
            g2 = _relabel_graph(g2, perm)
            assert sorted(g2.degrees()) == sorted(g1.degrees())
            expected = perm_isomorphic(g1, g2)
            image = find_mapping(g1, g2)
            assert isomorphic(g1, g2) == expected == (image is not None)
            if image is not None:
                assert sorted(g2.edges()) == sorted(norm_edge(image[u], image[v]) for u, v in g1.edges())
            answers.append(expected)
    assert any(answers) and not all(answers)


def reference_find_transitive_partition(g, t, budget, screen=True):
    """The partition search with one recursive call per class.  With screen,
    each window of two consecutive classes, the closing one too, must match
    classes 0 and 1 together."""
    if g.n % t != 0:
        return None
    size = g.n // t

    def class_fingerprint(vs):
        degs = sorted((g.adj[v] & sum(1 << u for u in vs)).bit_count() for v in vs)
        return (len(vs), sum(degs) // 2, tuple(degs))

    def pair_refused(chosen, a, b):
        return screen and t >= 3 and class_fingerprint(a | b) != class_fingerprint(chosen[0] | chosen[1])

    def extend(chosen, remaining):
        if len(chosen) == t:
            if t >= 3 and min(chosen[1]) > min(chosen[-1]):
                return None
            if pair_refused(chosen, chosen[-1], chosen[0]):
                return None
            candidate = VertexPartition(tuple(chosen))
            return candidate if structures.is_transitive_partition(g, candidate, budget) else None
        fp0 = class_fingerprint(chosen[0])
        for picked in combinations(sorted(remaining), size):
            budget.charge(1)
            cls = frozenset(picked)
            if class_fingerprint(cls) != fp0:
                continue
            if len(chosen) >= 2 and pair_refused(chosen, chosen[-1], cls):
                continue
            found = extend(chosen + [cls], remaining - cls)
            if found is not None:
                return found
        return None

    for rest in combinations(range(1, g.n), size - 1):
        budget.charge(1)
        cls0 = frozenset((0,) + rest)
        found = extend([cls0], set(range(g.n)) - cls0)
        if found is not None:
            return found
    return None


def _search_outcome(search, g, t, max_nodes):
    try:
        found = search(g, t, SearchBudget(max_nodes=max_nodes))
    except BudgetExceededError:
        return "over budget"
    return None if found is None else found.parts


def _unscreened(g, t, budget):
    return reference_find_transitive_partition(g, t, budget, screen=False)


def test_find_transitive_partition_agrees_with_the_recursive_search(monkeypatch):
    rng = random.Random(43)
    cases = [(cycle(6), 3), (cycle(8), 4), (cartesian_cycles(3, 3), 3), (complete_bipartite(2, 3), 5)]
    cases += [(cycle(n), n) for n in range(3, 9)]  # singleton classes: the pair screen decides
    cases.append((complete_bipartite(3, 4), 7))
    for _ in range(150):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        cases.append((g, rng.choice([d for d in range(2, n + 1) if n % d == 0])))
    outcomes = []
    for g, t in cases:
        max_nodes = rng.choice([1, 3, 10, 100, 1_000, 1_000_000])
        want = _search_outcome(reference_find_transitive_partition, g, t, max_nodes)
        got = _search_outcome(find_transitive_partition, g, t, max_nodes)
        assert got == want
        outcomes.append("found" if isinstance(want, tuple) else want)
        # the screen refuses no witness: without it the first one is the same
        got = _search_outcome(find_transitive_partition, g, t, 1_000_000)
        assert got == _search_outcome(_unscreened, g, t, 1_000_000)
    # K13 minus an edge is far past any cap here: both searches must try the
    # same candidates, in the same order, before the cap stops them
    # (the reference's is_transitive_partition reaches _is_transitive too)
    tried = []
    real = structures._is_transitive

    def recorded(g, partition, budget):
        tried[-1].append(partition.parts)
        return real(g, partition, budget)

    monkeypatch.setattr(structures, "_is_transitive", recorded)
    for max_nodes in (1, 300, 3_000):
        for search in (reference_find_transitive_partition, find_transitive_partition):
            tried.append([])
            assert _search_outcome(search, _k13_minus_an_edge(), 13, max_nodes) == "over budget"
        assert tried[-2] == tried[-1]
    assert len(tried[-1]) > 10
    assert {"found", None, "over budget"} <= set(outcomes)
