"""Acceptance gate: ten end-to-end checks, one test each, with the measured
instance printed per line.  Run with -s to see the summaries."""

import itertools
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from cyclecert.crossing import (
    convex_drawing,
    cr_total,
    decomposition_weights,
    jordan_parity_screen,
    prefix_cr_certificate,
    Parity,
)
from cyclecert.cyclic_core import (
    BoundSpec,
    Direction,
    equality_certificate,
    find_rotation,
    total,
    verify_certificate,
)
from cyclecert.domination import (
    SearchBudget,
    Variant,
    is_minimal_total_dominating,
    is_paired_dominating,
    is_total_dominating,
    max_minimal_parameter,
    min_parameter,
    rd_graph,
)
from cyclecert.graphs import Graph, cartesian_cycles, circulant, complete, complete_bipartite
from cyclecert.structures import (
    EdgeDecomposition,
    Piece,
    circulant14_decomposition,
    columns_partition,
    find_transitive_partition,
    is_transitive_decomposition,
    is_transitive_partition,
    star_decomposition_bipartite,
    star_decomposition_complete,
)
from conftest import (
    brute_is_dominating,
    random_graph,
    random_rational_list,
    random_regular_graph,
    simple_cycles_upto,
)


def test_criterion_01_rotation_existence_tracks_the_sign_of_the_margin():
    t0 = time.monotonic()
    rng = random.Random(101)
    checked = 0
    for _ in range(10_000):
        n = rng.randint(1, 12)
        xs = random_rational_list(rng, n)
        s = total(xs)
        for h in (s - 1, s - F(1, 2), s, s + F(1, 2), s + 1,
                  F(rng.randint(-12, 12), rng.choice([1, 2, 3]))):
            below = find_rotation(xs, h, Direction.BELOW)
            above = find_rotation(xs, h, Direction.ABOVE)
            assert (below is not None) == (s < h)
            assert (above is not None) == (s > h)
            if below is not None:
                assert verify_certificate(xs, h, below)
            if above is not None:
                assert verify_certificate(xs, h, above)
            checked += 1
    # exhaustive small corpus: every list over {-2..2} up to length 5
    for n in range(1, 6):
        for entries in itertools.product(range(-2, 3), repeat=n):
            xs = [F(e) for e in entries]
            s = total(xs)
            for h in (s, s + 1, s - 1):
                below = find_rotation(xs, h, Direction.BELOW)
                above = find_rotation(xs, h, Direction.ABOVE)
                assert (below is not None) == (s < h)
                assert (above is not None) == (s > h)
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"PASS criterion 1: {checked} (list, bound) pairs, both directions, {elapsed:.1f}s")


def test_criterion_02_equality_certificates_exist_exactly_at_the_total():
    t0 = time.monotonic()
    rng = random.Random(202)
    hits = misses = 0
    for _ in range(10_000):
        n = rng.randint(1, 12)
        xs = random_rational_list(rng, n)
        s = total(xs)
        for eps in (F(1, 4), F(1, 2), F(3, 4)):
            eq = equality_certificate(xs, BoundSpec(h=s, epsilon=eps))
            assert eq is not None
            assert verify_certificate(xs, s + eps, eq.below)
            assert verify_certificate(xs, s - eps, eq.above)
            hits += 1
        off = s + rng.choice([F(1), F(-1), F(1, 2), F(-1, 2), F(2)])
        assert equality_certificate(xs, BoundSpec(h=off)) is None
        misses += 1
    elapsed = time.monotonic() - t0
    print(f"PASS criterion 2: {hits} equality certificates verified, "
          f"{misses} off-total bounds refused, {elapsed:.1f}s")


def test_criterion_03_paired_domination_on_the_five_row_torus():
    t0 = time.monotonic()
    values = []
    for n in (3, 4, 5, 6):
        budget = SearchBudget(max_nodes=10**9, max_seconds=600.0)
        g = cartesian_cycles(5, n)
        report = min_parameter(g, Variant.PAIRED, budget)
        assert is_paired_dominating(g, report.witness)
        values.append(report.value)
    assert values == [4, 6, 8, 8]
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print(f"PASS criterion 3: paired minimums on 5xN tori {values}, {elapsed:.1f}s")


def test_criterion_04_largest_minimal_total_sets_on_the_four_row_torus():
    t0 = time.monotonic()
    values = []
    for n in (3, 4, 5):
        budget = SearchBudget(max_nodes=10**9, max_seconds=120.0)
        g = cartesian_cycles(4, n)
        report = max_minimal_parameter(g, Variant.TOTAL, budget)
        assert is_minimal_total_dominating(g, set(report.witness))
        values.append(report.value)
    assert values == [6, 8, 10]
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"PASS criterion 4: largest minimal total sets on 4xN tori {values}, {elapsed:.1f}s")


def test_criterion_05_private_neighbor_criterion_vs_removal_on_all_small_graphs():
    t0 = time.monotonic()
    disagreements = 0
    pairs = 0
    samples = []
    for n in range(2, 8):
        pair_bits = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graph_ids = np.arange(1 << len(pair_bits), dtype=np.uint32)
        # rows[w][g] is the neighbourhood of w in graph g, as a bitmask
        rows = np.zeros((n, len(graph_ids)), dtype=np.uint16)
        for b, (u, v) in enumerate(pair_bits):
            has = ((graph_ids >> b) & 1).astype(np.uint16)
            rows[u] |= has << v
            rows[v] |= has << u
        # rows w and w + 1 packed into one 2n-bit key per graph (a lone last
        # row pairs with itself), so each lookup below reads two rows
        keys = [rows[w] | rows[min(w + 1, n - 1)] << n for w in range(0, n, 2)]
        nbhd = np.arange(1 << n)
        for mask in range(1, 1 << n):
            # what one row with neighbourhood r says about the set `mask`:
            # bit v if it is a private neighbour of member v, bit n + v if
            # removing v leaves it undominated, bit 2n if it is undominated
            a = nbhd & mask
            row_bits = (a == 0).astype(np.uint16) << 2 * n
            for v in range(n):
                if not (mask >> v) & 1:
                    continue
                bitv = 1 << v
                row_bits |= ((a == bitv) * bitv).astype(np.uint16)
                row_bits |= (((a & ~bitv) == 0) * (bitv << n)).astype(np.uint16)
            pair_table = (row_bits[:, None] | row_bits[None, :]).ravel()
            # OR over all rows of each graph
            seen = pair_table[keys[0]]
            for key in keys[1:]:
                seen |= pair_table[key]
            td = seen >> 2 * n == 0
            if not td.any():
                continue
            all_private = seen & mask == mask
            all_removal = seen >> n & mask == mask
            bad = td & (all_private != all_removal)
            disagreements += int(bad.sum())
            pairs += int(td.sum())
            if n >= 5 and len(samples) < 400:
                idx = np.flatnonzero(td)
                if len(idx):
                    samples.append((n, int(idx[len(idx) // 2]), mask, bool(all_private[idx[len(idx) // 2]])))
    assert disagreements == 0
    # cross-check a sample against the production validator
    rechecked = 0
    for n, gid, mask, expect in samples[:200]:
        pair_bits = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for b, e in enumerate(pair_bits) if (gid >> b) & 1]
        g = Graph.from_edges(n, edges)
        s = {v for v in range(n) if (mask >> v) & 1}
        assert is_total_dominating(g, s)
        assert is_minimal_total_dominating(g, s) == expect
        rechecked += 1
    elapsed = time.monotonic() - t0
    assert pairs == 111_228_266 and rechecked == 200
    print(f"PASS criterion 5: {pairs} (graph, total set) pairs on up to 7 vertices, "
          f"0 disagreements, {rechecked} production rechecks, {elapsed:.1f}s")


def test_criterion_06_redundancy_identity_on_regular_graphs():
    t0 = time.monotonic()
    rng = random.Random(606)
    done = 0
    while done < 1000:
        n = rng.choice([8, 10, 12, 14, 16, 18, 20, 24])
        d = rng.choice([3, 4])
        if n * d % 2:
            continue
        g = random_regular_graph(rng, n, d)
        s = {v for v in range(n) if rng.random() < 0.55}
        if not brute_is_dominating(g, s):
            continue
        assert rd_graph(g, s) == (d + 1) * len(s) - n
        done += 1
    elapsed = time.monotonic() - t0
    print(f"PASS criterion 6: redundancy identity on {done} dominating sets, {elapsed:.1f}s")


def test_criterion_07_doubled_weights_sum_to_twice_the_crossing_count():
    t0 = time.monotonic()
    rng = random.Random(707)
    done = 0
    while done < 1000:
        n = rng.randint(4, 10)
        g = random_graph(rng, n, 0.55)
        if g.edge_count < 2:
            continue
        order = list(range(n))
        rng.shuffle(order)
        d = convex_drawing(g, order)
        t = rng.randint(1, 5)
        buckets = [[] for _ in range(t)]
        for e in g.edges():
            buckets[rng.randrange(t)].append(e)
        pieces = tuple(Piece(frozenset(range(n)), frozenset(b)) for b in buckets if b)
        if not pieces:
            continue
        w = decomposition_weights(d, EdgeDecomposition(pieces))
        assert w.total() == 2 * cr_total(d)
        assert sum(w.halves()) == cr_total(d)
        done += 1
    elapsed = time.monotonic() - t0
    print(f"PASS criterion 7: weight identity on {done} drawing/decomposition pairs, {elapsed:.1f}s")


def test_criterion_08_disjoint_cycles_cross_evenly_in_convex_drawings():
    t0 = time.monotonic()
    rng = random.Random(808)
    done = 0
    while done < 200:
        n = rng.randint(6, 12)
        g = random_graph(rng, n, 0.28)
        cycles = simple_cycles_upto(g, 6)
        pairs = [
            (a, b)
            for i, a in enumerate(cycles)
            for b in cycles[i + 1 :]
            if not ({v for e in a for v in e} & {v for e in b for v in e})
        ]
        if not pairs:
            continue
        order = list(range(n))
        rng.shuffle(order)
        d = convex_drawing(g, order)
        a, b = pairs[rng.randrange(len(pairs))]
        assert jordan_parity_screen(d, a, b) is Parity.EVEN
        done += 1
    elapsed = time.monotonic() - t0
    print(f"PASS criterion 8: even parity on {done} disjoint cycle pairs, {elapsed:.1f}s")


def test_criterion_09_transitive_structures_where_promised_and_nowhere_else():
    t0 = time.monotonic()
    for m, n in [(m, n) for m in (2, 3, 4) for n in (2, 3, 4)]:
        g = complete_bipartite(m, n)
        assert is_transitive_decomposition(g, star_decomposition_bipartite(m, n))
    t_k13 = time.monotonic()
    assert is_transitive_decomposition(complete(13), star_decomposition_complete(13))
    k13_elapsed = time.monotonic() - t_k13
    assert k13_elapsed < 60.0
    for m in range(3, 7):
        for n in range(3, 7):
            g = cartesian_cycles(m, n)
            assert is_transitive_partition(g, columns_partition(m, n))
    g23 = complete_bipartite(2, 3)
    for t in (2, 3, 4, 5):
        assert find_transitive_partition(g23, t) is None
    elapsed = time.monotonic() - t0
    print(f"PASS criterion 9: 9 star decompositions + complete graph on 13 "
          f"({k13_elapsed:.1f}s) + 16 torus column partitions transitive; "
          f"no 5-vertex bipartite partition exists, {elapsed:.1f}s")


def test_criterion_10_crossing_certificates_for_the_convex_circulants():
    t0 = time.monotonic()
    for k in range(4, 9):
        g = circulant(4 * k, [1, 4])
        d = convex_drawing(g)
        dec = circulant14_decomposition(k)
        crn = cr_total(d)
        assert crn == 12 * k
        halves = decomposition_weights(d, dec).halves()
        below = prefix_cr_certificate(d, dec, crn, Direction.BELOW)
        above = prefix_cr_certificate(d, dec, crn, Direction.ABOVE)
        assert below is not None and above is not None
        assert verify_certificate(halves, F(crn) + F(1, 2), below)
        assert verify_certificate(halves, F(crn) - F(1, 2), above)
        assert prefix_cr_certificate(d, dec, crn - 1, Direction.BELOW) is None
    elapsed = time.monotonic() - t0
    print(f"PASS criterion 10: equality certificates at 12k crossings for k=4..8, "
          f"refuted one below, {elapsed:.1f}s")
