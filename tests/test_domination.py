import random
import time
from fractions import Fraction as F
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
    verify_paired_c5,
    verify_upper_total_c4,
)
from cyclecert import errors
from cyclecert.errors import BudgetExceededError
from cyclecert.graphs import (
    Graph,
    cartesian_cycles,
    circulant,
    complete,
    complete_bipartite,
    cycle,
)
from cyclecert.iso import find_mapping
from cyclecert.structures import (
    CyclicSymmetry,
    VertexPartition,
    column_shift_symmetry,
    columns_partition,
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


# --- validators against set-arithmetic oracles --------------------------------


def test_validators_agree_with_definitions_on_random_sets():
    rng = random.Random(71)
    for _ in range(250):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, 0.45)
        s = {v for v in range(n) if rng.random() < 0.5}
        assert is_dominating(g, s) == brute_is_dominating(g, s)
        if all(g.adj[v] for v in range(n)):
            assert is_total_dominating(g, s) == brute_is_total_dominating(g, s)
            assert is_paired_dominating(g, s) == brute_is_paired_dominating(g, s)
        assert induced_perfect_matching_exists(g, s) == brute_has_perfect_matching(g, s)


def test_total_domination_rejects_isolated_vertices():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        is_total_dominating(g, {0, 1})
    with pytest.raises(ValueError):
        min_parameter(g, Variant.TOTAL)


def test_empty_set_dominates_nothing():
    assert not is_dominating(cycle(3), set())
    assert induced_perfect_matching_exists(cycle(3), set())


def test_paired_validator_on_a_long_cycle_does_not_recurse():
    assert is_paired_dominating(cycle(4000), range(4000))


def test_vertex_out_of_range_rejected():
    with pytest.raises(ValueError):
        is_dominating(cycle(3), {5})


# --- private neighborhoods ----------------------------------------------------


def test_private_neighbors_on_star():
    # center 0 with leaves 1..3, set {0, 1}: each leaf sees S only at 0,
    # and that includes the member leaf 1 itself (open neighborhoods)
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    s = {0, 1}
    assert pn(g, s, 0) == frozenset({1, 2, 3})
    assert pn(g, s, 1) == frozenset({0})
    assert epn(g, s, 0) == frozenset({2, 3})
    assert ipn(g, s, 0) == frozenset({1})
    assert ipn(g, s, 1) == frozenset({0})
    assert epn(g, s, 1) == frozenset()


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
    with pytest.raises(ValueError):
        is_minimal_total_dominating(cycle(4), {0})


def test_minimal_dominating_definitional():
    g = cycle(6)
    assert is_minimal_dominating(g, {0, 3})
    assert not is_minimal_dominating(g, {0, 1, 3})
    with pytest.raises(ValueError):
        is_minimal_dominating(g, {0})


# --- redundancy counts ----------------------------------------------------------


def test_rd_vertex_values_on_cycle():
    g = cycle(5)
    s = {0, 1}
    # closed neighborhoods: 0 sees {4,0,1}, 1 sees {0,1,2}, 2 sees {1}, ...
    assert rd_vertex(g, s, 0) == 1
    assert rd_vertex(g, s, 1) == 1
    assert rd_vertex(g, s, 2) == 0
    assert rd_vertex(g, s, 3) == -1  # undominated
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


def test_max_minimal_on_a_long_cycle_exhausts_the_budget_not_the_stack():
    with pytest.raises(BudgetExceededError):
        max_minimal_parameter(cycle(3300), Variant.TOTAL, SearchBudget(max_nodes=1000))


def test_paired_c5xc10_node_count_and_witness_are_pinned():
    budget = SearchBudget()
    report = min_parameter(cartesian_cycles(5, 10), Variant.PAIRED, budget)
    assert report.value == 14
    assert budget.nodes == report.nodes_explored == 20_684
    assert report.witness == (0, 1, 3, 4, 6, 7, 22, 25, 28, 29, 32, 35, 38, 39)


@pytest.mark.parametrize("rows, n, variant, value, nodes, witness", [
    (6, 8, Variant.DOMINATING, 12, 87_236, (0, 1, 2, 3, 13, 18, 23, 28, 31, 33, 36, 46)),
    (5, 8, Variant.TOTAL, 11, 2_770, (0, 1, 2, 12, 13, 16, 23, 26, 27, 37, 38)),
])
def test_min_parameter_node_counts_and_witnesses_are_pinned(rows, n, variant, value, nodes, witness):
    budget = SearchBudget()
    report = min_parameter(cartesian_cycles(rows, n), variant, budget)
    assert report.value == value
    assert budget.nodes == report.nodes_explored == nodes
    assert report.witness == witness


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


def test_min_parameter_on_a_long_cycle_exhausts_the_budget_not_the_stack():
    with pytest.raises(BudgetExceededError):
        min_parameter(cycle(3300), Variant.DOMINATING, SearchBudget(max_nodes=1000))


@pytest.mark.parametrize("rows, n, variant, value, nodes, witness", [
    (4, 5, Variant.TOTAL, 10, 14_274, tuple(range(10))),
    (4, 6, Variant.TOTAL, 12, 76_987, tuple(range(12))),
    (5, 5, Variant.DOMINATING, 10, 91_907, (0, 1, 2, 3, 4, 10, 11, 12, 13, 14)),
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
            budget.tick()
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
            mask, size = reference_max_minimal_search(rows, SearchBudget())
            report = max_minimal_parameter(g, variant)
            assert report.value == size
            assert report.witness == tuple(v for v in range(n) if mask >> v & 1)
    assert refused > 0


def test_paired_capacity_is_the_largest_pair_cover():
    # adjacent vertices of circulant(16; 1,2) share neighbours, so no pair
    # covers more than 6 vertices, below 2 * max degree = 8
    budget = SearchBudget()
    report = min_parameter(circulant(16, [1, 2]), Variant.PAIRED, budget)
    assert report.value == 6
    assert budget.nodes == report.nodes_explored == 16
    assert report.witness == (0, 1, 2, 4, 9, 11)


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
    budget = SearchBudget(max_nodes=5000)
    assert budget.room() == 4096
    assert budget._deadline is not None
    budget.charge(4096)
    assert budget.room() == 904


# Each search counts its own nodes and settles with its budget; the second
# field is its pinned node count, past 4097 so every cap below is reached.
BUDGETED_SEARCHES = {
    "min paired C5xC10": (
        lambda b: min_parameter(cartesian_cycles(5, 10), Variant.PAIRED, b), 20_684),
    "min total C7xC6": (
        lambda b: min_parameter(cartesian_cycles(7, 6), Variant.TOTAL, b), 6_224),
    "max-minimal total C4xC5": (
        lambda b: max_minimal_parameter(cartesian_cycles(4, 5), Variant.TOTAL, b), 14_274),
    "decide dominating C5xC5": (
        lambda b: decide_parameter_via_prefix(
            *torus_setup(5, 5), Variant.DOMINATING, 5, budget=b), 4_772),
    "rd C5xC5": (lambda b: rd_prefix_pruned_search(*torus_setup(5, 5), 5, budget=b), 4_516),
    "iso C200": (lambda b: find_mapping(cycle(200), cycle(200), b), 10_001),
}


@pytest.mark.parametrize("name, cap", [
    (name, cap)
    for name, (_, pinned) in BUDGETED_SEARCHES.items()
    for cap in (0, 1, 4095, 4096, 4097, pinned - 1)
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


def test_paired_closed_form_is_even():
    assert all(paired_value_c5(n) % 2 == 0 for n in range(3, 40))


def test_paired_lower_bound_even_and_sound():
    g = cartesian_cycles(5, 3)
    lb = paired_lower_bound(g)
    assert lb % 2 == 0
    assert lb <= min_parameter(g, Variant.PAIRED).value


def test_verify_paired_c5_small():
    assert verify_paired_c5(3)
    assert verify_paired_c5(4)


def test_verify_upper_total_c4_small():
    assert verify_upper_total_c4(3)


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


@pytest.mark.parametrize(
    "n,variant,h,nodes",
    [
        (5, "dominating", 5, 4_772),
        (6, "dominating", 7, 23_182),
        (5, "paired", 8, 9_841),
        (6, "paired", 8, 24_770),
    ],
)
def test_decide_via_prefix_node_counts_are_pinned(n, variant, h, nodes):
    g, p, sigma = torus_setup(5, n)
    budget = SearchBudget()
    assert decide_parameter_via_prefix(g, p, sigma, Variant(variant), h, budget=budget)
    assert budget.nodes == nodes


@pytest.mark.parametrize(
    "n,variant,h,nodes,witness",
    [
        (5, "dominating", 5, 4_516, [0, 8, 11, 19, 22]),
        (6, "dominating", 7, 14_446, [0, 5, 9, 13, 22, 23, 26]),
        (5, "paired", 8, 305, [1, 2, 9, 12, 14, 17, 19, 24]),
        (6, "paired", 8, 22_594, [0, 1, 3, 4, 14, 17, 20, 23]),
    ],
)
def test_prefix_search_node_counts_and_witnesses_are_pinned(n, variant, h, nodes, witness):
    g, p, sigma = torus_setup(5, n)
    budget = SearchBudget()
    found = prefix_pruned_search(g, p, sigma, Variant(variant), h, budget=budget)
    assert sorted(found) == witness
    assert budget.nodes == nodes


@pytest.mark.parametrize(
    "n,h,nodes,witness",
    [
        (5, 5, 4_516, [0, 8, 11, 19, 22]),
        (5, 4, 1_856, None),
        (6, 7, 27_279, [0, 9, 10, 13, 22, 23, 26]),
        (6, 6, 8_736, None),
    ],
)
def test_rd_prefix_search_node_counts_and_witnesses_are_pinned(n, h, nodes, witness):
    g, p, sigma = torus_setup(5, n)
    budget = SearchBudget()
    found = rd_prefix_pruned_search(g, p, sigma, h, budget=budget)
    assert (sorted(found) if found is not None else None) == witness
    assert budget.nodes == nodes


def reference_rd_search(g, partition, h, budget):
    """The redundancy search with every prefix rescanned at every node."""
    k = g.degrees()[0]
    bound = F((k + 1) * h - g.n) + F(1, 2)
    parts = [sorted(p) for p in partition.parts]
    t = len(parts)
    closed = [g.closed_mask(v) for v in range(g.n)]
    sealed = []
    decided = 0
    for part in parts:
        before = decided
        decided |= sum(1 << v for v in part)
        sealed.append([u for u in range(g.n) if not closed[u] & ~decided and closed[u] & ~before])

    def prefixes_ok(chosen, upto):
        acc = 0
        for q in range(upto):
            acc += sum((closed[u] & chosen).bit_count() - 1 for u in parts[q])
            if not acc * t < (q + 1) * bound:
                return False
        return True

    def rec(j, chosen, covered):
        if j == t:
            members = [v for v in range(g.n) if chosen >> v & 1]
            if covered == g.full_mask and is_dominating(g, members) and prefixes_ok(chosen, t):
                return chosen
            return None
        for sub in range(1 << len(parts[j])):
            budget.tick()
            add = sum(1 << v for i, v in enumerate(parts[j]) if sub >> i & 1)
            new_covered = covered
            for v in parts[j]:
                if add >> v & 1:
                    new_covered |= closed[v]
            if any(not new_covered >> u & 1 for u in sealed[j]):
                continue
            if not prefixes_ok(chosen | add, j + 1):
                continue
            got = rec(j + 1, chosen | add, new_covered)
            if got is not None:
                return got
        return None

    got = rec(0, 0, 0)
    return None if got is None else [v for v in range(g.n) if got >> v & 1]


def test_rd_prefix_search_matches_the_full_rescan_on_random_instances():
    rng = random.Random(2024)
    for _ in range(60):
        if rng.random() < 0.4:
            m, n = rng.randint(3, 4), rng.randint(3, 5)
            g, p, sigma = torus_setup(m, n)
        else:
            n = rng.choice([8, 9, 10, 12])
            strides = rng.sample(range(1, n // 2 + 1), rng.randint(1, 2))
            g = circulant(n, strides)
            t = rng.choice([d for d in range(2, n + 1) if n % d == 0 and n // d <= 5])
            if rng.random() < 0.5:  # residues mod t, shifted by one
                p = VertexPartition(tuple(frozenset(range(j, n, t)) for j in range(t)))
                sigma = CyclicSymmetry(tuple((v + 1) % n for v in range(n)))
            else:  # consecutive blocks, shifted by a block
                size = n // t
                p = VertexPartition(tuple(frozenset(range(j * size, (j + 1) * size)) for j in range(t)))
                sigma = CyclicSymmetry(tuple((v + size) % n for v in range(n)))
        # the searches turn from refuting to finding at the domination number
        h = min_parameter(g, Variant.DOMINATING).value + rng.choice([-1, 0, 1])
        rng.randrange(3)  # keeps seed 2024's sequence of instances
        want_budget, got_budget = SearchBudget(), SearchBudget()
        want = reference_rd_search(g, p, h, want_budget)
        found = rd_prefix_pruned_search(g, p, sigma, h, got_budget)
        assert (sorted(found) if found is not None else None) == want
        assert got_budget.nodes == want_budget.nodes


# --- reports ---------------------------------------------------------------------


def test_solve_report_fields():
    report = min_parameter(cycle(5), Variant.DOMINATING)
    assert report.value == 2
    assert report.nodes_explored > 0
    assert report.witness == tuple(sorted(report.witness))
