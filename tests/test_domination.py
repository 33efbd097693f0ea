import random
import re
import time
from fractions import Fraction as F
from itertools import accumulate
from types import SimpleNamespace

import pytest

from cyclecert.domination import (
    SearchBudget,
    SolveReport,
    Variant,
    decide_parameter_via_prefix,
    epn,
    induced_perfect_matching_exists,
    ipn,
    is_dominating,
    is_minimal_dominating,
    is_minimal_total_dominating,
    is_paired_dominating,
    is_total_dominating,
    max_minimal_parameter,
    min_parameter,
    paired_lower_bound,
    paired_value_c5,
    pn,
    prefix_pruned_search,
    rd_graph,
    rd_prefix_pruned_search,
    rd_vertex,
)
from cyclecert import domination, errors
from cyclecert.errors import BudgetExceededError
from cyclecert.graphs import (
    Graph,
    cartesian_cycles,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    iter_bits,
    norm_edge,
)
from cyclecert.iso import find_mapping
from cyclecert.structures import (
    CyclicSymmetry,
    VertexPartition,
    column_shift_symmetry,
    columns_partition,
    find_shift,
)
from conftest import (
    brute_has_perfect_matching,
    brute_is_dominating,
    brute_is_paired_dominating,
    brute_is_total_dominating,
    brute_max_minimal_parameter,
    brute_min_parameter,
    random_graph,
    random_regular_graph,
)


SMALL_GRAPHS = [
    cycle(3),
    cycle(4),
    cycle(5),
    cycle(6),
    cycle(7),
    cycle(8),
    complete(2),
    complete(3),
    complete(5),
    complete_bipartite(2, 2),
    complete_bipartite(2, 3),
    complete_bipartite(3, 3),
    cartesian_cycles(3, 3),
]

VALIDATORS = {
    Variant.DOMINATING: is_dominating,
    Variant.TOTAL: is_total_dominating,
    Variant.PAIRED: is_paired_dominating,
}


# --- validators against set-arithmetic oracles --------------------------------


def test_validators_agree_with_definitions_on_random_sets():
    rng = random.Random(71)
    isolated = 0
    for _ in range(250):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, 0.45)
        s = {v for v in range(n) if rng.random() < 0.5}
        assert is_dominating(g, s) == brute_is_dominating(g, s)
        # an isolated vertex makes a paired set impossible: False, not ValueError
        assert is_paired_dominating(g, s) == brute_is_paired_dominating(g, s)
        if all(g.adj[v] for v in range(n)):
            assert is_total_dominating(g, s) == brute_is_total_dominating(g, s)
        else:
            isolated += 1
        assert induced_perfect_matching_exists(g, s) == brute_has_perfect_matching(g, s)
    assert isolated >= 25


def test_total_domination_rejects_isolated_vertices():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        is_total_dominating(g, {0, 1})
    # the solvers check before they relabel, so they name the caller's id
    for solve in (min_parameter, max_minimal_parameter):
        with pytest.raises(ValueError, match="vertex 2 is isolated"):
            solve(g, Variant.TOTAL)


def test_empty_set_dominates_nothing():
    assert not is_dominating(cycle(3), set())
    assert induced_perfect_matching_exists(cycle(3), set())


def test_paired_validator_on_a_long_cycle_does_not_recurse():
    assert is_paired_dominating(cycle(4000), range(4000))


def test_matching_search_skips_the_vertex_sets_it_has_explored():
    # two disjoint K17 have no perfect matching but very many partial ones
    k = 17
    g = Graph.from_edges(2 * k, [(u + o, v + o) for o in (0, k) for u in range(k) for v in range(u + 1, k)])
    start = time.monotonic()
    assert not induced_perfect_matching_exists(g, range(2 * k))
    assert not is_paired_dominating(g, range(2 * k))
    assert time.monotonic() - start < 0.5


def test_vertex_out_of_range_rejected():
    with pytest.raises(ValueError):
        is_dominating(cycle(3), {5})


@pytest.mark.parametrize("call, error, message", [
    # a bool is not read as vertex 1, and a float or a string is refused by
    # name rather than by a failed shift
    (lambda g: is_dominating(g, [True]), TypeError, "set: vertex id True is not an int"),
    (lambda g: is_total_dominating(g, [1.0]), TypeError, "set: vertex id 1.0 is not an int"),
    (lambda g: is_minimal_dominating(g, ["1"]), TypeError, "set: vertex id '1' is not an int"),
    (lambda g: pn(g, [0], True), TypeError, "v: vertex id True is not an int"),
    (lambda g: epn(g, [0], 1.0), TypeError, "v: vertex id 1.0 is not an int"),
    (lambda g: ipn(g, [0], "0"), TypeError, "v: vertex id '0' is not an int"),
    (lambda g: pn(g, [0], -1), ValueError, "vertex -1 out of range"),
    (lambda g: rd_vertex(g, [0], True), TypeError, "u: vertex id True is not an int"),
    (lambda g: rd_vertex(g, [0], -1), ValueError, "vertex -1 out of range"),
], ids=["set-bool", "set-float", "set-str", "pn-bool", "epn-float", "ipn-str", "pn-negative",
        "rd-bool", "rd-negative"])
def test_validators_read_ids_by_the_one_rule(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(cycle(3))


# --- private neighborhoods ----------------------------------------------------


def test_private_neighbors_on_star():
    # center 0 with leaves 1..3, set {0, 1}: each leaf sees S only at 0,
    # and that includes the member leaf 1 itself (open neighborhoods)
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    # a one-shot generator of the set answers alike: each call reads s once
    for make in (lambda: {0, 1}, lambda: (v for v in (0, 1))):
        assert pn(g, make(), 0) == frozenset({1, 2, 3})
        assert pn(g, make(), 1) == frozenset({0})
        assert epn(g, make(), 0) == frozenset({2, 3})
        assert ipn(g, make(), 0) == frozenset({1})
        assert ipn(g, make(), 1) == frozenset({0})
        assert epn(g, make(), 1) == frozenset()


def test_pn_requires_membership():
    with pytest.raises(ValueError):
        pn(cycle(4), {0}, 1)


def test_minimal_total_dominating_criterion_matches_removal_test():
    rng = random.Random(37)
    checked = 0
    while checked < 150:
        n = rng.randint(3, 9)
        g = random_graph(rng, n, 0.5)
        if not all(g.adj[v] for v in range(n)):
            continue
        s = {v for v in range(n) if rng.random() < 0.6}
        if not brute_is_total_dominating(g, s):
            continue
        checked += 1
        removal = all(
            not brute_is_total_dominating(g, s - {v}) for v in s
        )
        assert is_minimal_total_dominating(g, s) == removal


def test_minimal_total_dominating_rejects_non_td():
    with pytest.raises(ValueError, match="not a total dominating set"):
        is_minimal_total_dominating(cycle(4), {0})


def test_minimal_dominating_definitional():
    g = cycle(6)
    assert is_minimal_dominating(g, {0, 3})
    assert not is_minimal_dominating(g, {0, 1, 3})
    with pytest.raises(ValueError, match="not a dominating set"):
        is_minimal_dominating(g, {0})
    rng = random.Random(41)
    answers = []
    while len(answers) < 150:
        n = rng.randint(2, 9)
        g = random_graph(rng, n, 0.4)
        s = {v for v in range(n) if rng.random() < 0.6}
        if not brute_is_dominating(g, s):
            with pytest.raises(ValueError, match="not a dominating set"):
                is_minimal_dominating(g, s)
            continue
        removal = all(not brute_is_dominating(g, s - {v}) for v in s)
        assert is_minimal_dominating(g, s) == removal
        answers.append(removal)
    assert 25 <= sum(answers) <= 125


# --- redundancy counts ----------------------------------------------------------


def test_rd_vertex_values_on_cycle():
    g = cycle(5)
    s = {0, 1}
    # closed neighborhoods: 0 sees {4,0,1}, 1 sees {0,1,2}, 2 sees {1}, ...
    assert rd_vertex(g, s, 0) == 1
    assert rd_vertex(g, s, 1) == 1
    assert rd_vertex(g, s, 2) == 0
    assert rd_vertex(g, s, 3) == -1  # undominated
    with pytest.raises(ValueError, match="out of range"):
        rd_vertex(g, s, 5)
    assert rd_graph(g, s) == sum(rd_vertex(g, s, u) for u in range(5))


def test_rd_identity_on_regular_graphs():
    # on a k-regular graph the total redundancy of any set S is
    # (k+1)|S| - |V| plus one for each undominated vertex... no: it is
    # exactly (k+1)|S| - |V| always, domination not required
    rng = random.Random(99)
    for _ in range(60):
        n, d = rng.choice([(8, 3), (10, 3), (8, 4), (12, 4)])
        g = random_regular_graph(rng, n, d)
        s = {v for v in range(n) if rng.random() < 0.5}
        assert rd_graph(g, s) == (d + 1) * len(s) - n


# --- exact solvers vs exhaustive oracles -----------------------------------------


@pytest.mark.parametrize("variant", ["dominating", "total", "paired"])
def test_min_parameter_matches_brute_on_small_graphs(variant):
    for g in SMALL_GRAPHS:
        want = brute_min_parameter(g, variant)
        report = min_parameter(g, Variant(variant))
        assert report.value == want, f"{variant} on {g.n}-vertex graph"
        witness = set(report.witness)
        assert len(witness) == report.value
        if variant == "dominating":
            assert is_dominating(g, witness)
        elif variant == "total":
            assert is_total_dominating(g, witness)
        else:
            assert is_paired_dominating(g, witness)


def test_min_parameter_matches_brute_on_random_graphs():
    rng = random.Random(13)
    tried = 0
    while tried < 40:
        n = rng.randint(3, 9)
        g = random_graph(rng, n, 0.5)
        if not all(g.adj[v] for v in range(n)):
            continue
        tried += 1
        for variant in ("dominating", "total", "paired"):
            want = brute_min_parameter(g, variant)
            if want is None:
                with pytest.raises(ValueError):
                    min_parameter(g, Variant(variant))
            else:
                assert min_parameter(g, Variant(variant)).value == want


def _connected_random_graph(rng, n):
    """A random spanning tree, each vertex joined to an earlier one, plus
    each other pair with probability 0.3."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3}
    return Graph.from_edges(n, sorted(edges))


AGREEMENT_GRAPHS = [cartesian_cycles(3, n) for n in (3, 4, 5)] + [
    _connected_random_graph(random.Random(35 + i), 5 + i % 5) for i in range(30)
]


@pytest.mark.parametrize("variant", list(Variant))
def test_min_parameter_agrees_with_the_exhaustive_minimum(variant):
    # the packing bound cuts only subtrees that hold no cover of at most k
    # items, so the minimum and a valid witness of it survive the cut
    for g in AGREEMENT_GRAPHS:
        report = min_parameter(g, variant)
        assert report.value == brute_min_parameter(g, variant.value) == len(report.witness)
        assert VALIDATORS[variant](g, report.witness)


def test_paired_witness_is_a_disjoint_edge_union():
    report = min_parameter(cartesian_cycles(5, 3), Variant.PAIRED)
    witness = set(report.witness)
    assert report.value == len(witness) == 4
    assert is_paired_dominating(cartesian_cycles(5, 3), witness)


def test_paired_requires_an_edge_somewhere():
    # a triangle with a pendant path: paired sets exist; but an edgeless
    # graph has none and the solver must say so, not loop
    g = Graph.from_edges(2, [(0, 1)])
    assert min_parameter(g, Variant.PAIRED).value == 2


@pytest.mark.parametrize("variant", ["dominating", "total"])
def test_max_minimal_matches_brute_on_small_graphs(variant):
    for g in SMALL_GRAPHS:
        want = brute_max_minimal_parameter(g, variant)
        report = max_minimal_parameter(g, Variant(variant))
        assert report.value == want
        witness = set(report.witness)
        if variant == "dominating":
            assert is_minimal_dominating(g, witness)
        else:
            assert is_minimal_total_dominating(g, witness)


def test_max_minimal_matches_brute_on_random_graphs():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        for variant in ("dominating", "total"):
            want = brute_max_minimal_parameter(g, variant)
            if want is None:
                with pytest.raises(ValueError):
                    max_minimal_parameter(g, Variant(variant))
                continue
            report = max_minimal_parameter(g, Variant(variant))
            assert report.value == want == len(report.witness)
            if variant == "dominating":
                assert is_minimal_dominating(g, report.witness)
            else:
                assert is_minimal_total_dominating(g, report.witness)


def test_upper_total_c4xc6_within_two_million_nodes():
    g = cartesian_cycles(4, 6)
    report = max_minimal_parameter(g, Variant.TOTAL, SearchBudget(max_nodes=2_000_000))
    assert report.value == 12
    assert is_minimal_total_dominating(g, report.witness)


def test_upper_total_c4xc10_is_solved_within_1_5_million_nodes():
    # 4,887,112 nodes without the free bound
    g = cartesian_cycles(4, 10)
    report = max_minimal_parameter(g, Variant.TOTAL, SearchBudget(max_nodes=1_500_000))
    assert report.value == 20
    assert is_minimal_total_dominating(g, report.witness)


def test_max_minimal_on_a_long_cycle_exhausts_the_budget_not_the_stack():
    with pytest.raises(BudgetExceededError):
        max_minimal_parameter(cycle(3300), Variant.TOTAL, SearchBudget(max_nodes=1000))


def test_paired_c5xc10_node_count_and_witness_are_pinned():
    budget = SearchBudget()
    report = min_parameter(cartesian_cycles(5, 10), Variant.PAIRED, budget)
    assert report.value == 14
    assert budget.nodes == report.nodes_explored == 187
    assert report.witness == (0, 1, 3, 4, 7, 8, 22, 25, 26, 29, 32, 35, 36, 39)
    assert is_paired_dominating(cartesian_cycles(5, 10), report.witness)


# ids name the variant and the graph alone, so a re-pinned count keeps the test's name
@pytest.mark.parametrize("rows, n, variant, value, nodes, witness", [
    pytest.param(6, 8, Variant.DOMINATING, 12, 18_600, (0, 11, 13, 17, 23, 27, 28, 29, 32, 42, 44, 46),
                 id="dominating-C6xC8"),
    pytest.param(5, 8, Variant.TOTAL, 11, 332, (2, 3, 8, 15, 19, 20, 21, 24, 25, 37, 38), id="total-C5xC8"),
    # 153,353 nodes without the packing bound, to the same witness
    pytest.param(7, 8, Variant.TOTAL, 16, 11_020,
                 (1, 3, 5, 6, 9, 20, 23, 26, 28, 31, 34, 36, 37, 40, 47, 51), id="total-C7xC8"),
])
def test_min_parameter_node_counts_and_witnesses_are_pinned(rows, n, variant, value, nodes, witness):
    budget = SearchBudget()
    report = min_parameter(cartesian_cycles(rows, n), variant, budget)
    assert report.value == value
    assert budget.nodes == report.nodes_explored == nodes
    assert report.witness == witness
    assert VALIDATORS[variant](cartesian_cycles(rows, n), witness)


def test_paired_c5xc19_is_solved_within_half_a_million_nodes():
    # 126,680 nodes when the search branches on the most constrained vertex,
    # 14,255 in reverse Cuthill-McKee order
    g = cartesian_cycles(5, 19)
    report = min_parameter(g, Variant.PAIRED, SearchBudget(max_nodes=500_000))
    assert report.value == paired_value_c5(19) == 26
    assert is_paired_dominating(g, report.witness)


@pytest.mark.parametrize("m, n", [(6, 7), (7, 6)])
@pytest.mark.parametrize("variant, value", [
    (Variant.DOMINATING, 10),
    (Variant.TOTAL, 12),
    (Variant.PAIRED, 12),
])
def test_min_parameter_does_not_depend_on_vertex_ids(m, n, variant, value):
    assert min_parameter(cartesian_cycles(m, n), variant).value == value
    for seed in range(3):
        perm = list(range(m * n))
        random.Random(seed).shuffle(perm)
        g = Graph.from_edges(m * n, [(perm[u], perm[v]) for u, v in cartesian_cycles(m, n).edges()])
        report = min_parameter(g, variant)
        assert report.value == value == len(report.witness)
        assert VALIDATORS[variant](g, report.witness)


@pytest.mark.parametrize("n, variant, value", [
    (3300, Variant.DOMINATING, 1100),
    (3300, Variant.TOTAL, 1650),
    (4400, Variant.PAIRED, 2200),
])
def test_min_parameter_on_a_long_cycle_does_not_recurse(n, variant, value):
    g = cycle(n)
    report = min_parameter(g, variant)
    assert report.value == value == len(report.witness)
    if variant is Variant.PAIRED:
        assert is_paired_dominating(g, report.witness)


@pytest.mark.parametrize("m, n", [(4, 5), (5, 4)])
@pytest.mark.parametrize("variant, value, validator", [
    (Variant.DOMINATING, 10, is_minimal_dominating),
    (Variant.TOTAL, 10, is_minimal_total_dominating),
])
def test_max_minimal_parameter_does_not_depend_on_vertex_ids(m, n, variant, value, validator):
    assert max_minimal_parameter(cartesian_cycles(m, n), variant).value == value
    for seed in range(3):
        perm = list(range(m * n))
        random.Random(seed).shuffle(perm)
        g = Graph.from_edges(m * n, [(perm[u], perm[v]) for u, v in cartesian_cycles(m, n).edges()])
        report = max_minimal_parameter(g, variant)
        assert report.value == value == len(report.witness)
        assert validator(g, report.witness)


@pytest.mark.parametrize("g", [
    Graph.from_edges(0, []),
    Graph.from_edges(1, []),
    # a path, an isolated vertex and a triangle, ids interleaved
    Graph.from_edges(8, [(0, 5), (5, 3), (1, 6), (6, 7), (7, 1)]),
    cartesian_cycles(4, 6),
])
def test_the_reverse_cuthill_mckee_relabelling_is_a_permutation(g):
    relabelled, old = domination._rcm(g)
    assert sorted(old) == list(range(g.n))
    assert relabelled.n == g.n
    assert sorted(relabelled.edges()) == sorted(
        norm_edge(old.index(u), old.index(v)) for u, v in g.edges()
    )


def test_the_reverse_cuthill_mckee_order_narrows_a_torus_band():
    # C4xC6 stored row by row joins ids 18 apart.  In breadth-first order an
    # edge stays within one layer or two consecutive ones, and no two
    # consecutive layers of C4xC6 hold more than 14 vertices.
    def band(g):
        return max(v - u for u, v in g.edges())

    g = cartesian_cycles(4, 6)
    assert band(g) == 18
    assert band(domination._rcm(g)[0]) < 14


def test_paired_c5xc26_is_solved_within_a_million_nodes():
    # 3,563,894 nodes in id order, 568,231 in reverse Cuthill-McKee order
    g = cartesian_cycles(5, 26)
    report = min_parameter(g, Variant.PAIRED, SearchBudget(max_nodes=10**6))
    assert report.value == paired_value_c5(26) == 36
    assert is_paired_dominating(g, report.witness)


def test_upper_total_c4xc8_is_solved_within_half_a_million_nodes():
    # 2,596,058 nodes in id order, 448,726 in reverse Cuthill-McKee order,
    # 142,729 with the free bound
    g = cartesian_cycles(4, 8)
    report = max_minimal_parameter(g, Variant.TOTAL, SearchBudget(max_nodes=500_000))
    assert report.value == 16
    assert is_minimal_total_dominating(g, report.witness)


def test_min_parameter_on_a_long_cycle_exhausts_the_budget_not_the_stack():
    with pytest.raises(BudgetExceededError):
        min_parameter(cycle(3300), Variant.DOMINATING, SearchBudget(max_nodes=1000))


@pytest.mark.parametrize("rows, n, variant, value, nodes, witness", [
    # 8,726, 32,735 and 75,265 nodes without the free bound, to the same witnesses
    pytest.param(4, 5, Variant.TOTAL, 10, 2_897, tuple(range(10, 20)), id="total-C4xC5"),
    pytest.param(4, 6, Variant.TOTAL, 12, 13_539, tuple(range(12, 24)), id="total-C4xC6"),
    pytest.param(5, 5, Variant.DOMINATING, 10, 40_339, (1, 3, 6, 8, 11, 13, 16, 18, 21, 23),
                 id="dominating-C5xC5"),
])
def test_max_minimal_node_counts_and_witnesses_are_pinned(rows, n, variant, value, nodes, witness):
    budget = SearchBudget()
    report = max_minimal_parameter(cartesian_cycles(rows, n), variant, budget)
    assert report.value == value
    assert budget.nodes == report.nodes_explored == nodes
    assert report.witness == witness


def reference_max_minimal_search(rows, budget):
    """The search with one branch-and-bound per size, tried from |V| down."""
    n = len(rows)
    near = []
    for v in range(n):
        m = 0
        for w in range(n):
            if rows[v] >> w & 1:
                m |= rows[w]
        near.append(m)
    sealed = [0] * n
    for w in range(n):
        sealed[rows[w].bit_length() - 1] |= 1 << w
    for k in range(n, 0, -1):
        stack = [(0, 0, 0, 0, 0)]
        while stack:
            v, chosen, size, once, more = stack.pop()
            budget.charge(1)
            if v == n:
                return chosen, k
            if size + n - v - 1 >= k and not sealed[v] & ~(once | more):
                stack.append((v + 1, chosen, size, once, more))
            if size < k:
                more_in = more | (once & rows[v])
                once_in = (once | rows[v]) & ~more_in
                chosen_in = chosen | 1 << v
                if all(rows[u] & once_in for u in range(n) if (chosen_in & near[v]) >> u & 1):
                    stack.append((v + 1, chosen_in, size + 1, once_in, more_in))
    raise ValueError("no valid set of any size exists")


def test_max_minimal_matches_the_per_size_search_on_random_graphs():
    rng = random.Random(29)
    refused = 0
    for _ in range(1000):
        n = rng.randint(0, 12)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.7, 0.9]))
        for variant in (Variant.DOMINATING, Variant.TOTAL):
            if variant is Variant.TOTAL and 0 in g.adj or n == 0:
                refused += 1
                with pytest.raises(ValueError):
                    max_minimal_parameter(g, variant)
                continue
            if variant is Variant.TOTAL:
                rows = list(g.adj)
            else:
                rows = [g.closed_mask(v) for v in range(n)]
            _, size = reference_max_minimal_search(rows, SearchBudget())
            report = max_minimal_parameter(g, variant)
            # the solver decides in its own order, so its witness may be
            # another largest minimal set than the reference's first
            assert report.value == size == len(report.witness)
            if variant is Variant.TOTAL:
                assert is_minimal_total_dominating(g, report.witness)
            else:
                assert is_minimal_dominating(g, report.witness)
    assert refused > 0


def reference_rising_bar_search(rows):
    """The one-pass search with a rising bar but without the free bound, as
    (witness_mask, size, nodes)."""
    n = len(rows)
    near = [domination._union(rows, row) for row in rows]
    sealed = [0] * n
    for w in range(n):
        sealed[rows[w].bit_length() - 1] |= 1 << w
    best, witness, nodes = 0, None, 0
    stack = [(0, 0, 0, 0, 0)]
    while stack:
        v, chosen, size, once, more = stack.pop()
        nodes += 1
        if v == n:
            if size > best:
                best, witness = size, chosen
            continue
        if size + n - v - 1 > best and not sealed[v] & ~(once | more):
            stack.append((v + 1, chosen, size, once, more))
        if size + n - v > best:
            more_in = more | (once & rows[v])
            once_in = (once | rows[v]) & ~more_in
            chosen_in = chosen | 1 << v
            if all(rows[u] & once_in for u in iter_bits(chosen_in & near[v])):
                stack.append((v + 1, chosen_in, size + 1, once_in, more_in))
    if witness is None:
        raise ValueError("no valid set of any size exists")
    return witness, best, nodes


def _rising_bar_graphs():
    rng = random.Random(43)
    for _ in range(150):
        yield random_graph(rng, rng.randint(1, 12), rng.choice([0.15, 0.3, 0.5, 0.7, 0.9]))
    for m in range(3, 6):
        for n in range(3, 7):
            yield cartesian_cycles(m, n)


def test_the_free_bound_keeps_every_value_and_witness_and_adds_no_node():
    compared = cut = 0
    for g in _rising_bar_graphs():
        for variant in (Variant.DOMINATING, Variant.TOTAL):
            if variant is Variant.TOTAL and 0 in g.adj:
                continue
            relabelled, old = domination._rcm(g)
            mask, size, nodes = reference_rising_bar_search(domination._cover_rows(relabelled, variant))
            report = max_minimal_parameter(g, variant)
            assert report.value == size
            assert report.witness == tuple(sorted(old[v] for v in iter_bits(mask)))
            assert report.nodes_explored <= nodes
            compared += 1
            cut += report.nodes_explored < nodes
    assert compared > 250 and cut > compared // 2


def test_paired_capacity_is_the_largest_pair_cover():
    # adjacent vertices of circulant(16; 1,2) share neighbours, so no pair
    # covers more than 6 vertices, below 2 * max degree = 8
    budget = SearchBudget()
    report = min_parameter(circulant(16, [1, 2]), Variant.PAIRED, budget)
    assert report.value == 6
    assert budget.nodes == report.nodes_explored == 15
    assert report.witness == (0, 5, 7, 8, 9, 14)


@pytest.mark.parametrize("solve, variant", [
    (min_parameter, Variant.TOTAL),
    (min_parameter, Variant.PAIRED),
    (max_minimal_parameter, Variant.TOTAL),
])
def test_a_solve_on_a_shared_budget_reports_only_its_own_nodes(solve, variant):
    g = cartesian_cycles(4, 4)
    fresh = solve(g, variant, SearchBudget()).nodes_explored
    shared = SearchBudget()
    first = solve(g, variant, shared)
    second = solve(g, variant, shared)
    assert first.nodes_explored == second.nodes_explored == fresh > 0
    assert shared.nodes == 2 * fresh


def test_max_minimal_rejects_paired():
    with pytest.raises(ValueError):
        max_minimal_parameter(cycle(4), Variant.PAIRED)


def test_node_budget_trips():
    with pytest.raises(BudgetExceededError):
        min_parameter(cartesian_cycles(4, 4), Variant.TOTAL, SearchBudget(max_nodes=1))


def test_time_budget_trips():
    with pytest.raises(BudgetExceededError):
        max_minimal_parameter(
            cartesian_cycles(4, 5), Variant.TOTAL,
            SearchBudget(max_nodes=10**9, max_seconds=0.0),
        )


@pytest.mark.parametrize("caps", [
    {"max_nodes": -3},
    {"max_nodes": True},
    {"max_nodes": 10.0},
    {"max_nodes": "10"},
    {"max_seconds": float("nan")},
    {"max_seconds": -1},
    {"max_seconds": -0.5},
    {"max_seconds": True},
    {"max_seconds": "1"},
])
def test_library_budgets_refuse_what_the_cli_refuses(caps):
    # a NaN deadline never passes, a negative one lets a short search answer,
    # and a negative node cap would read as a search that ran out
    with pytest.raises(ValueError, match=next(iter(caps))):
        SearchBudget(**caps)


@pytest.mark.parametrize("caps", [
    {"max_nodes": 0},
    {"max_seconds": 0},
    {"max_seconds": F(1, 2)},
    {"max_seconds": float("inf")},
])
def test_library_budgets_take_zero_fractions_and_no_time_limit(caps):
    SearchBudget(**caps)


def test_room_starts_the_clock_and_stops_at_the_node_cap():
    # charge returns the room, the nodes a loop may count before it settles
    budget = SearchBudget(max_nodes=5000)
    assert budget.charge(0) == 4096
    assert budget._deadline is not None
    assert budget.charge(4096) == 904


# Each search counts its own nodes and settles with its budget; the second
# field is its pinned node count.  Each cap below it is tested: a search past
# 4097 nodes reaches the caps around its first settle, and one that answers
# before it settles only on exit.
BUDGETED_SEARCHES = {
    "min paired C5xC13": (
        lambda b: min_parameter(cartesian_cycles(5, 13), Variant.PAIRED, b), 802),
    "min paired C5xC17": (
        lambda b: min_parameter(cartesian_cycles(5, 17), Variant.PAIRED, b), 22_909),
    "min total C7xC6": (
        lambda b: min_parameter(cartesian_cycles(7, 6), Variant.TOTAL, b), 621),
    "max-minimal total C4xC5": (
        lambda b: max_minimal_parameter(cartesian_cycles(4, 5), Variant.TOTAL, b), 2_897),
    "max-minimal total C4xC6": (
        lambda b: max_minimal_parameter(cartesian_cycles(4, 6), Variant.TOTAL, b), 13_539),
    "decide dominating C5xC5": (
        lambda b: decide_parameter_via_prefix(
            *torus_setup(5, 5), Variant.DOMINATING, 5, budget=b), 13),
    "rd C5xC5": (lambda b: rd_prefix_pruned_search(*torus_setup(5, 5), 5, budget=b), 12),
    "decide paired C5xC7": (
        lambda b: decide_parameter_via_prefix(
            *torus_setup(5, 7), Variant.PAIRED, 10, budget=b), 48),
    "decide dominating C5xC8": (
        lambda b: decide_parameter_via_prefix(
            *torus_setup(5, 8), Variant.DOMINATING, 10, budget=b), 4_094),
    "decide dominating C7xC7": (
        lambda b: decide_parameter_via_prefix(
            *torus_setup(7, 7), Variant.DOMINATING, 12, budget=b), 8_473),
    "rd C7xC7": (lambda b: rd_prefix_pruned_search(*torus_setup(7, 7), 12, budget=b), 8_543),
    "decide paired C5xC20": (
        lambda b: decide_parameter_via_prefix(
            *torus_setup(5, 20), Variant.PAIRED, 28, budget=b), 6_959),
    "iso C200": (lambda b: find_mapping(cycle(200), cycle(200), b), 10_001),
}


@pytest.mark.parametrize("name, cap", [
    (name, cap)
    for name, (_, pinned) in BUDGETED_SEARCHES.items()
    for cap in (0, 1, 4095, 4096, 4097, pinned - 1)
    if cap < pinned
])
def test_a_node_cap_raises_at_exactly_the_next_node(name, cap):
    search, _ = BUDGETED_SEARCHES[name]
    budget = SearchBudget(max_nodes=cap)
    with pytest.raises(BudgetExceededError, match=f"node budget {cap} exceeded"):
        search(budget)
    assert budget.nodes == cap + 1


@pytest.mark.parametrize("name", BUDGETED_SEARCHES)
def test_a_node_cap_of_the_pinned_count_answers(name):
    search, pinned = BUDGETED_SEARCHES[name]
    capped = SearchBudget(max_nodes=pinned)
    got = search(capped)
    assert capped.nodes == pinned
    if isinstance(got, SolveReport):
        assert got.nodes_explored == pinned
    assert got == search(SearchBudget())


@pytest.mark.parametrize("name", BUDGETED_SEARCHES)
def test_no_seconds_stop_a_search_past_4096_nodes(name):
    search, _ = BUDGETED_SEARCHES[name]
    budget = SearchBudget(max_nodes=10**9, max_seconds=0)
    with pytest.raises(BudgetExceededError, match="time budget"):
        search(budget)
    assert budget.nodes <= 4097


@pytest.mark.parametrize("name", BUDGETED_SEARCHES)
def test_the_clock_starts_before_the_first_node(name, monkeypatch):
    # the first reading is 0 and every later one 100: a deadline of 50 fixed
    # before the first node is past at the first settle, by node 4097, while
    # one fixed at the first settle would be past only at the second
    readings = iter([0.0])
    monkeypatch.setattr(errors, "time", SimpleNamespace(monotonic=lambda: next(readings, 100.0)))
    search, _ = BUDGETED_SEARCHES[name]
    budget = SearchBudget(max_seconds=50)
    with pytest.raises(BudgetExceededError, match="time budget"):
        search(budget)
    assert budget.nodes <= 4097


def test_colour_refinement_reads_the_clock():
    # colours that single out vertex 0 on one side and vertex 5 on the other
    # take about 500 rounds of refinement on a 1000-cycle, about a second,
    # before the first node
    c1 = [int(v == 0) for v in range(1000)]
    c2 = [int(v == 5) for v in range(1000)]
    budget = SearchBudget(max_seconds=0.05)
    started = time.monotonic()
    with pytest.raises(BudgetExceededError, match="time budget"):
        find_mapping(cycle(1000), cycle(1000), budget, c1, c2)
    assert budget.nodes == 0
    assert time.monotonic() - started < 0.5


# --- closed form and its verification --------------------------------------------


def test_paired_closed_form_values():
    assert [paired_value_c5(n) for n in range(3, 9)] == [4, 6, 8, 8, 10, 12]
    with pytest.raises(ValueError):
        paired_value_c5(2)
    for bad in (4.5, 4.0, True):
        with pytest.raises(TypeError, match=re.escape(f"n must be an int, got {bad!r}")):
            paired_value_c5(bad)


def test_paired_closed_form_is_even():
    assert all(paired_value_c5(n) % 2 == 0 for n in range(3, 40))


def test_paired_lower_bound_even_and_sound():
    g = cartesian_cycles(5, 3)
    lb = paired_lower_bound(g)
    assert lb % 2 == 0
    assert lb <= min_parameter(g, Variant.PAIRED).value
    assert paired_lower_bound(Graph(0, ())) == 0


# --- prefix-pruned searches -------------------------------------------------------


def torus_setup(m, n):
    g = cartesian_cycles(m, n)
    return g, columns_partition(m, n), column_shift_symmetry(m, n)


def test_prefix_search_finds_valid_set_with_bounded_prefixes():
    g, p, sigma = torus_setup(3, 3)
    h = 3
    found = prefix_pruned_search(g, p, sigma, Variant.DOMINATING, h)
    assert found is not None
    assert is_dominating(g, found)
    assert len(found) <= h
    counts = [len(found & part) for part in p.parts]
    t = len(p.parts)
    acc = 0
    for j, cnt in enumerate(counts, start=1):
        acc += cnt
        assert F(acc) < F(j) * (F(h) + F(1, 2)) / t


def test_prefix_search_refutes_below_minimum():
    g, p, sigma = torus_setup(3, 3)
    # gamma of the 3x3 torus is 3; at bound 2 + eps nothing fits
    assert prefix_pruned_search(g, p, sigma, Variant.DOMINATING, 2) is None


@pytest.mark.parametrize("m,n,variant", [(3, 3, "dominating"), (3, 3, "total"), (4, 3, "dominating")])
def test_decide_agrees_with_solver_for_every_h(m, n, variant):
    g, p, sigma = torus_setup(m, n)
    true_value = min_parameter(g, Variant(variant)).value
    for h in range(1, g.n + 1):
        decided = decide_parameter_via_prefix(g, p, sigma, Variant(variant), h)
        assert decided == (h == true_value), f"h={h}"


def test_decide_paired_on_torus():
    g, p, sigma = torus_setup(5, 3)
    assert decide_parameter_via_prefix(g, p, sigma, Variant.PAIRED, 4)
    assert not decide_parameter_via_prefix(g, p, sigma, Variant.PAIRED, 6)


def test_prefix_search_requires_verified_shift():
    g, p, _ = torus_setup(3, 3)
    broken = CyclicSymmetry((0, 1, 2, 3, 4, 5, 6, 7, 8))  # identity: no shift
    with pytest.raises(ValueError):
        prefix_pruned_search(g, p, broken, Variant.DOMINATING, 3)


def test_rd_prefix_search_decides_gamma():
    g, p, sigma = torus_setup(3, 3)
    # gamma = 3: redundancy target (4+1)*3 - 9 = 6 is reachable...
    assert rd_prefix_pruned_search(g, p, sigma, 3) is not None
    assert rd_prefix_pruned_search(g, p, sigma, 2) is None
    found = rd_prefix_pruned_search(g, p, sigma, 3)
    assert is_dominating(g, found)


def test_rd_prefix_search_needs_regular_graph():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    p = VertexPartition((frozenset({0, 1}), frozenset({2, 3})))
    sigma = CyclicSymmetry((2, 3, 0, 1))
    with pytest.raises(ValueError):
        rd_prefix_pruned_search(g, p, sigma, 2)


@pytest.mark.parametrize("h", [F(27, 10), F(3), True])
@pytest.mark.parametrize("search", ["prefix", "decide", "rd"])
def test_prefix_searches_take_an_integer_h_only(search, h):
    # gamma of the 3x3 torus is 3; a set under 27/10 + 1/2 has at most 3
    # members, so a nudged non-integer h would answer for h = 3
    g, p, sigma = torus_setup(3, 3)
    call = {
        "prefix": lambda: prefix_pruned_search(g, p, sigma, Variant.DOMINATING, h),
        "decide": lambda: decide_parameter_via_prefix(g, p, sigma, Variant.DOMINATING, h),
        "rd": lambda: rd_prefix_pruned_search(g, p, sigma, h),
    }[search]
    with pytest.raises(ValueError, match="h must be an integer"):
        call()


def test_prefix_searches_have_no_epsilon():
    g, p, sigma = torus_setup(3, 3)
    with pytest.raises(TypeError):
        prefix_pruned_search(g, p, sigma, Variant.DOMINATING, 3, epsilon=F(1, 2))
    with pytest.raises(TypeError):
        decide_parameter_via_prefix(g, p, sigma, Variant.DOMINATING, 3, epsilon=F(1, 2))
    with pytest.raises(TypeError):
        rd_prefix_pruned_search(g, p, sigma, 3, epsilon=F(1, 2))


def test_prefix_search_on_singleton_parts_of_a_long_cycle_does_not_recurse():
    n = 1500
    g = cycle(n)
    parts = VertexPartition(tuple(frozenset({v}) for v in range(n)))
    shift = CyclicSymmetry(tuple((v + 1) % n for v in range(n)))
    start = time.monotonic()
    try:
        found = prefix_pruned_search(
            g, parts, shift, Variant.DOMINATING, 500, budget=SearchBudget(max_nodes=5000)
        )
    except BudgetExceededError:
        pass
    else:
        assert found is not None and len(found) <= 500 and is_dominating(g, found)
    assert time.monotonic() - start < 5.0


# Each case carries the node count of the part-by-part engine that the cover
# search replaced; the cover search stays under it, at the count pinned here.
DECIDE_NODES = {(5, "dominating", 5): 13, (6, "dominating", 7): 241, (5, "paired", 8): 12,
                (6, "paired", 8): 50}
PREFIX_NODES = {(5, "dominating", 5): 12, (6, "dominating", 7): 167, (5, "paired", 8): 11,
                (6, "paired", 8): 49}
RD_NODES = {(5, 5): 12, (5, 4): 1, (6, 7): 199, (6, 6): 74}


@pytest.mark.parametrize(
    "n,variant,h,part_by_part",
    [
        (5, "dominating", 5, 4_772),
        (6, "dominating", 7, 23_182),
        (5, "paired", 8, 9_841),
        (6, "paired", 8, 24_770),
    ],
)
def test_decide_via_prefix_node_counts_are_pinned(n, variant, h, part_by_part):
    g, p, sigma = torus_setup(5, n)
    budget = SearchBudget()
    assert decide_parameter_via_prefix(g, p, sigma, Variant(variant), h, budget=budget)
    assert budget.nodes == DECIDE_NODES[n, variant, h] < part_by_part


@pytest.mark.parametrize(
    "n,variant,h,part_by_part,witness",
    [
        (5, "dominating", 5, 4_516, [0, 7, 14, 16, 23]),
        (6, "dominating", 7, 14_446, [0, 5, 8, 16, 17, 19, 27]),
        (5, "paired", 8, 305, [0, 1, 3, 4, 12, 14, 17, 19]),
        (6, "paired", 8, 22_594, [0, 1, 3, 4, 14, 17, 20, 23]),
    ],
)
def test_prefix_search_node_counts_and_witnesses_are_pinned(n, variant, h, part_by_part, witness):
    g, p, sigma = torus_setup(5, n)
    budget = SearchBudget()
    found = prefix_pruned_search(g, p, sigma, Variant(variant), h, budget=budget)
    assert sorted(found) == witness
    assert budget.nodes == PREFIX_NODES[n, variant, h] < part_by_part


@pytest.mark.parametrize(
    "n,h,part_by_part,witness",
    [
        (5, 5, 4_516, [0, 7, 14, 16, 23]),
        (5, 4, 1_856, None),
        (6, 7, 27_279, [0, 8, 16, 17, 19, 27, 28]),
        (6, 6, 8_736, None),
    ],
)
def test_rd_prefix_search_node_counts_and_witnesses_are_pinned(n, h, part_by_part, witness):
    g, p, sigma = torus_setup(5, n)
    budget = SearchBudget()
    found = rd_prefix_pruned_search(g, p, sigma, h, budget=budget)
    assert (sorted(found) if found is not None else None) == witness
    assert budget.nodes == RD_NODES[n, h] < part_by_part


@pytest.mark.parametrize("search", [
    lambda g, p, sigma, b: prefix_pruned_search(g, p, sigma, Variant.DOMINATING, -1, budget=b),
    lambda g, p, sigma, b: prefix_pruned_search(g, p, sigma, Variant.PAIRED, -1, budget=b),
    lambda g, p, sigma, b: rd_prefix_pruned_search(g, p, sigma, -1, budget=b),
], ids=["dominating", "paired", "rd"])
def test_a_prefix_search_whose_empty_set_breaks_a_cap_answers_before_its_first_node(search):
    # at h = -1 the first cap is under the weight of part 0 before any
    # vertex joins, and weights only rise
    budget = SearchBudget()
    assert search(*torus_setup(5, 5), budget) is None
    assert budget.nodes == 0


def _circulant_blocks(k):
    """C(4k; {1, 4}) in k blocks of 4 consecutive vertices, with its shift."""
    g = circulant(4 * k, [1, 4])
    p = VertexPartition(tuple(frozenset(range(4 * j, 4 * j + 4)) for j in range(k)))
    return g, p, find_shift(g, p)


THEOREM_CASES = {
    **{f"C{m}xC{n}": (lambda m=m, n=n: torus_setup(m, n)) for m in range(3, 6) for n in range(3, 7)},
    **{f"C({4 * k};1,4)": (lambda k=k: _circulant_blocks(k)) for k in range(3, 6)},
}


def _prefixes_under(weights, bound):
    t = len(weights)
    return all(acc * t < q * bound for q, acc in enumerate(accumulate(weights), start=1))


@pytest.mark.parametrize("case", THEOREM_CASES)
def test_prefix_searches_find_a_set_exactly_when_the_minimum_is_at_most_h(case):
    # the rotation theorem, through the verified shift: a set whose prefixes
    # stay under the caps exists exactly when some valid set has at most h
    # members, and the redundancy search answers for the domination number
    g, p, sigma = THEOREM_CASES[case]()
    assert sigma is not None
    k = g.degrees()[0]
    for variant, valid in VALIDATORS.items():
        value = min_parameter(g, variant).value
        for h in range(value - 1, value + 2):
            found = prefix_pruned_search(g, p, sigma, variant, h)
            assert (found is not None) == (value <= h), (variant, h)
            if found is not None:
                assert valid(g, found) and len(found) <= h, (variant, h)
                counts = [len(found & part) for part in p.parts]
                assert _prefixes_under(counts, h + F(1, 2)), (variant, h)
            if variant is Variant.DOMINATING:
                found = rd_prefix_pruned_search(g, p, sigma, h)
                assert (found is not None) == (value <= h), ("rd", h)
                if found is not None:
                    assert is_dominating(g, found) and len(found) <= h, ("rd", h)
                    rd = [sum(rd_vertex(g, found, u) for u in part) for part in p.parts]
                    assert _prefixes_under(rd, (k + 1) * h - g.n + F(1, 2)), ("rd", h)


# --- reports ---------------------------------------------------------------------


def test_solve_report_fields():
    report = min_parameter(cycle(5), Variant.DOMINATING)
    assert report.value == 2
    assert report.nodes_explored > 0
    assert report.witness == tuple(sorted(report.witness))
