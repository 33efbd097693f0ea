import re
from enum import IntEnum

import pytest

from cyclecert.graphs import (
    Graph,
    cartesian_cycles,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    norm_edge,
    read_edge,
    read_id,
)
from cyclecert.structures import column_shift_symmetry, columns_partition


def test_norm_edge_orders():
    assert norm_edge(3, 1) == (1, 3)
    assert norm_edge(1, 3) == (1, 3)


def test_the_readers_take_ints_and_pairs_of_ints_only():
    class Id(IntEnum):
        TWO = 2

    assert type(read_id(Id.TWO, "here")) is int and read_id(7, "here") == 7
    assert read_edge([Id.TWO, 0], "here") == (0, 2) and read_edge(iter((5, 1)), "here") == (1, 5)
    for bad in (True, 1.0, "1", None):
        message = re.escape(f"here: vertex id {bad!r} is not an int")
        with pytest.raises(TypeError, match=message):
            read_id(bad, "here")
        with pytest.raises(TypeError, match=message):
            read_edge((0, bad), "here")
    for bad in ((0, 1, 2), (0,), 5, None):
        with pytest.raises(TypeError, match=re.escape(f"here: edge {bad!r} is not two vertex ids")):
            read_edge(bad, "here")


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError, match=r"^edge \(0, 3\) out of range for 3 vertices$"):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError, match=r"^loop at vertex 1 is not allowed$"):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match=r"^parallel edge \(0, 1\) is not allowed$"):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match=r"^parallel edge \(1, 2\) is not allowed$"):
        Graph.from_edges(3, [(2, 1), (1, 2)])
    with pytest.raises(ValueError, match=r"^vertex count must be nonnegative$"):
        Graph.from_edges(-1, [])


@pytest.mark.parametrize("build, count", [
    (lambda: complete(True), True),
    (lambda: Graph.from_edges(True, []), True),
    (lambda: cycle(5.0), 5.0),
    (lambda: complete_bipartite(True, 2), True),
], ids=["complete", "from_edges", "cycle", "complete_bipartite"])
def test_a_vertex_count_is_an_int_and_not_a_bool(build, count):
    with pytest.raises(TypeError, match=re.escape(f"vertex count {count!r} is not an int")):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: circulant(12, [1.0, 4]), "stride 1.0 is not an int"),
    (lambda: circulant(12, [True, 4]), "stride True is not an int"),
    (lambda: cartesian_cycles(3.5, 3), "cycle factor 3.5 is not an int"),
    (lambda: cartesian_cycles("3", 3), "cycle factor '3' is not an int"),
    (lambda: columns_partition(3, 4.0), "cycle factor 4.0 is not an int"),
    (lambda: column_shift_symmetry(True, 3), "cycle factor True is not an int"),
], ids=["float stride", "bool stride", "float factor", "str factor", "columns_partition",
        "column_shift_symmetry"])
def test_a_stride_and_a_cycle_factor_are_ints_and_not_bools(build, message):
    # read before any comparison: a float stride failed at `>>`, a bool one
    # was stride 1, and a float factor was read as a vertex count of 10.5
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        build()


def test_edges_sorted_and_counted():
    g = Graph.from_edges(4, [(2, 3), (0, 1), (1, 3)])
    assert g.edges() == [(0, 1), (1, 3), (2, 3)]
    assert g.edge_count == 3
    assert g.degree(3) == 2
    assert sorted(g.neighbors(3)) == [1, 2]
    assert g.has_edge(3, 1) and not g.has_edge(0, 2)
    assert g.closed_mask(0) == 0b0011


def test_cycle_structure():
    g = cycle(5)
    assert g.edge_count == 5
    assert set(g.degrees()) == {2}
    assert g.has_edge(4, 0)
    with pytest.raises(ValueError):
        cycle(2)


def test_complete_structure():
    g = complete(5)
    assert g.edge_count == 10
    assert set(g.degrees()) == {4}
    assert complete(1).edge_count == 0
    with pytest.raises(ValueError):
        complete(0)


def test_complete_bipartite_structure():
    g = complete_bipartite(2, 3)
    assert g.edge_count == 6
    assert sorted(g.degrees()) == [2, 2, 2, 3, 3]
    # left side is 0..m-1, right side m..m+n-1, no edges within a side
    assert not g.has_edge(0, 1) and not g.has_edge(2, 4)
    assert g.has_edge(0, 2) and g.has_edge(1, 4)
    with pytest.raises(ValueError, match="nonempty"):
        complete_bipartite(0, 3)


def test_torus_structure():
    g = cartesian_cycles(3, 4)
    assert g.n == 12
    assert set(g.degrees()) == {4}
    assert g.edge_count == 24
    # vertex (i, j) sits at i*n + j: row and column neighbors only
    assert sorted(g.neighbors(0)) == [1, 3, 4, 8]
    with pytest.raises(ValueError):
        cartesian_cycles(2, 4)


def test_circulant_structure():
    g = circulant(8, [1, 4])
    assert g.n == 8
    # stride 4 on 8 vertices is a diameter: counted once, degree 3
    assert set(g.degrees()) == {3}
    assert g.edge_count == 12
    g2 = circulant(12, [1, 4])
    assert set(g2.degrees()) == {4}
    assert g2.edge_count == 24
    with pytest.raises(ValueError):
        circulant(8, [])
    with pytest.raises(ValueError):
        circulant(8, [5])
    with pytest.raises(ValueError):
        circulant(8, [0])
    with pytest.raises(ValueError, match="at least 2 vertices"):
        circulant(1, [1])
    with pytest.raises(ValueError, match="^stride 4 is repeated$"):
        circulant(12, [1, 4, 4])


def test_graph_equality_is_labeled():
    assert cycle(4) == Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert cycle(4) != Graph.from_edges(4, [(0, 2), (2, 1), (1, 3), (0, 3)])
