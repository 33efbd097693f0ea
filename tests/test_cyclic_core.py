import dataclasses
import math
import random
import re
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclecert import cyclic_core
from cyclecert.cyclic_core import (
    BoundSpec,
    CyclicList,
    Direction,
    EqualityCertificate,
    PrefixGoal,
    PrefixTable,
    RotationCertificate,
    as_fraction,
    common_denominator,
    cyclic_list,
    equality_certificate,
    find_rotation,
    greedy_block_cover,
    prefix_condition_all_starts,
    scan_rotation,
    total,
    verify_certificate,
)
from conftest import brute_rotation_exists, random_rational_list

rationals = st.builds(F, st.integers(-8, 8), st.integers(1, 4))
rational_lists = st.lists(rationals, min_size=1, max_size=10)
# mixed denominators, so the common denominator D is rarely any one of them
mixed_rationals = st.builds(F, st.integers(-30, 30), st.sampled_from([1, 2, 3, 5, 6, 7, 9, 12]))
mixed_lists = st.lists(mixed_rationals, min_size=1, max_size=40)


# --- plumbing ----------------------------------------------------------------


def test_as_fraction_accepts_int_str_fraction():
    assert as_fraction(3) == F(3)
    assert as_fraction("5/2") == F(5, 2)
    assert as_fraction(F(1, 3)) == F(1, 3)


def test_as_fraction_rejects_zero_denominator_and_junk():
    for bad in ("1/0", " -3/0 ", "x", "1/2/3", ""):
        with pytest.raises(ValueError):
            as_fraction(bad)
    # Fraction alone would spend minutes building 10^999999999
    for bad in ("1e4301", "1E-4301", "-2.5e999999999", " 1e+9999 "):
        with pytest.raises(ValueError, match="exponent past 4300"):
            as_fraction(bad)
    # read in a millisecond, but past what int-to-str can write back; -2e-4300
    # is -1/(5 * 10^4299), whose denominator has 4300 digits, and is kept
    for bad in ("1e4300", "-1e-4300", "1" * 4000 + "e4300", "-1.5e-4300"):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            as_fraction(bad)


def test_as_fraction_refuses_underscores_and_other_scripts_digits():
    # Fraction alone reads 1_3 as 13 and the Arabic-Indic digits as 13
    for bad in ("1_3", "1/3_0", "1_0.5", "\u0661\u0663", "1/\u0663", "\uff15"):
        with pytest.raises(ValueError, match="ASCII without underscores"):
            as_fraction(bad)


def test_as_fraction_keeps_the_rest_of_the_fraction_grammar():
    cases = {"-7/3": F(-7, 3), "+4": F(4), " 5/2 ": F(5, 2), "0.25": F(1, 4), "-1.5e2": F(-150),
             "3E-1": F(3, 10), ".5": F(1, 2), "12/8": F(3, 2), "9e4299": F(9 * 10**4299),
             "-2e-4299": F(-2, 10**4299), "-2e-4300": F(-2, 10**4300)}
    for text, value in cases.items():
        assert as_fraction(text) == value


plain_parts = st.text(alphabet="0123456789", min_size=1, max_size=4300)


@given(st.sampled_from(["", "+", "-"]), plain_parts, st.none() | plain_parts.filter(lambda q: q.strip("0")))
@example("-", "9" * 4300, "1" + "0" * 4299)
@example("+", "0" * 4300, "0" * 4299 + "7")
@example("", "007", None)
@settings(max_examples=200, deadline=None)
def test_a_plain_rational_reads_as_fraction_reads_it(sign, num, den):
    # p or p/q with a nonzero q and up to 4300 digits a part: the one-match path
    text = sign + num + ("" if den is None else "/" + den)
    got = as_fraction(text)
    assert type(got) is F and got == F(text)


def test_the_plain_reader_leaves_every_refusal_to_the_full_grammar():
    for text in ("1/0", "0/00", "-3/0"):
        with pytest.raises(ValueError, match=re.escape(f"zero denominator in {text!r}")):
            as_fraction(text)
    # a part past 4300 digits is refused by int(), as it was before the plain path
    for text in ("1" * 4301, "-" + "1" * 4301 + "/3", "1/" + "2" * 4301):
        with pytest.raises(ValueError, match="4300 digits"):
            as_fraction(text)
    for text in ("1_0/3", "\u0663/4"):
        with pytest.raises(ValueError, match=re.escape(f"ASCII without underscores, got {text!r}")):
            as_fraction(text)
    for text in ("3/ 4", "3/-4", "+-3", "3/+4"):
        with pytest.raises(ValueError, match=re.escape(f"Invalid literal for Fraction: {text!r}")):
            as_fraction(text)


def test_as_fraction_rejects_bool_and_float():
    with pytest.raises(TypeError):
        as_fraction(True)
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_cyclic_list_one_based_wrapping():
    cl = cyclic_list([1, 2, 3])
    assert cl.n == 3
    assert cl.at(1) == 1
    assert cl.at(3) == 3
    assert cl.at(4) == 1
    assert cl.at(7) == 1


def test_cyclic_list_rejects_empty():
    with pytest.raises(ValueError):
        cyclic_list([])
    with pytest.raises(ValueError):
        cyclic_list(())


def test_cyclic_list_takes_fraction_tuples_and_coerces_mixed_ones():
    xs = (F(1, 2), F(-3))
    assert cyclic_list(xs).values is xs
    mixed = cyclic_list((F(1, 2), 3, "1/3"))
    assert mixed.values == (F(1, 2), F(3), F(1, 3))
    assert all(type(v) is F for v in mixed.values)
    with pytest.raises(TypeError):
        cyclic_list((F(1), 1.5))


def test_cyclic_list_constructor_rejects_non_fractions():
    with pytest.raises(TypeError):
        CyclicList((1,))
    with pytest.raises(TypeError):
        CyclicList((F(1), 2))


def test_bound_spec_epsilon_range():
    BoundSpec(h=4, epsilon=F(1, 4))
    with pytest.raises(ValueError):
        BoundSpec(h=4, epsilon=F(0))
    with pytest.raises(ValueError):
        BoundSpec(h=4, epsilon=F(1))


# --- rotation certificates ---------------------------------------------------


def test_below_certificate_on_worked_example():
    cert = find_rotation([0, 0, 4, 0], 5, Direction.BELOW)
    assert cert is not None
    assert verify_certificate([0, 0, 4, 0], 5, cert)


def test_no_below_certificate_at_the_total():
    assert find_rotation([0, 0, 4, 0], 4, Direction.BELOW) is None
    assert scan_rotation([0, 0, 4, 0], 4, Direction.BELOW) is None


def test_above_certificate_needs_total_above():
    assert find_rotation([0, 0, 4, 0], 4, Direction.ABOVE) is None
    cert = find_rotation([0, 0, 4, 0], 3, Direction.ABOVE)
    assert cert is not None
    assert verify_certificate([0, 0, 4, 0], 3, cert)


def test_scan_returns_smallest_start():
    # total 4 < 5; starts 1..4 checked in order, the earliest valid one wins
    cert = scan_rotation([0, 0, 4, 0], 5, Direction.BELOW)
    oracle = brute_rotation_exists([F(0), F(0), F(4), F(0)], F(5), below=True)
    assert cert is not None and cert.k == oracle


def test_single_entry_list():
    cert = find_rotation([F(3, 2)], 2, Direction.BELOW)
    assert cert is not None and cert.k == 1 and cert.prefix_sums == (F(3, 2),)
    assert find_rotation([F(3, 2)], 1, Direction.BELOW) is None


def test_the_start_follows_the_last_of_tied_maxima():
    # the running sums of 4*x_i + 4 are 0, -4, -8, 0: tied at their maximum
    # at indices 0 and 3, and only the slot after the last one is a start
    xs = (-2, -2, 1, -2)
    cert = find_rotation(xs, -4, Direction.BELOW)
    assert cert.k == 4 and verify_certificate(xs, -4, cert)
    # from slot 1 the true prefix sums are -2, -4, -3, -5, and -3 is not below 3*(-4)/4
    first = RotationCertificate(direction=Direction.BELOW, k=1, prefix_sums=(-2, -4, -3, -5))
    assert not verify_certificate(xs, -4, first)


def test_verify_rejects_out_of_range_start():
    cert = find_rotation([1, 1], 3, Direction.BELOW)
    bad = RotationCertificate(direction=cert.direction, k=5, prefix_sums=cert.prefix_sums)
    with pytest.raises(ValueError):
        verify_certificate([1, 1], 3, bad)


@pytest.mark.parametrize("k", [True, 2.0, F(2)], ids=repr)
def test_verify_refuses_a_start_that_is_not_an_int(k):
    cert = find_rotation([1, 1, 1], 4, Direction.BELOW)
    bad = RotationCertificate(direction=cert.direction, k=k, prefix_sums=cert.prefix_sums)
    with pytest.raises(ValueError, match="k must be an integer"):
        verify_certificate([1, 1, 1], 4, bad)


def test_verify_rejects_tampered_table():
    cert = find_rotation([1, 1], 3, Direction.BELOW)
    doctored = RotationCertificate(
        direction=cert.direction, k=cert.k,
        prefix_sums=(cert.prefix_sums[0], cert.prefix_sums[1] + 1),
    )
    assert not verify_certificate([1, 1], 3, doctored)


def test_verify_rejects_wrong_length():
    cert = find_rotation([1, 1], 3, Direction.BELOW)
    short = RotationCertificate(direction=cert.direction, k=1, prefix_sums=cert.prefix_sums[:1])
    assert not verify_certificate([1, 1], 3, short)


def test_verify_rejects_failed_inequality():
    # a correct prefix table for a bound the list does not actually beat
    cert = RotationCertificate(direction=Direction.BELOW, k=1, prefix_sums=(F(1), F(2)))
    assert not verify_certificate([1, 1], 2, cert)


@settings(max_examples=400, deadline=None)
@given(rational_lists, rationals)
def test_below_exists_iff_total_under_bound(xs, h):
    cert = find_rotation(xs, h, Direction.BELOW)
    assert (cert is not None) == (total(xs) < h)
    if cert is not None:
        assert verify_certificate(xs, h, cert)


@settings(max_examples=400, deadline=None)
@given(rational_lists, rationals)
def test_above_exists_iff_total_over_bound(xs, h):
    cert = find_rotation(xs, h, Direction.ABOVE)
    assert (cert is not None) == (total(xs) > h)
    if cert is not None:
        assert verify_certificate(xs, h, cert)


@settings(max_examples=300, deadline=None)
@given(mixed_lists, mixed_rationals, st.integers(-2, 2))
def test_fast_path_agrees_with_scan(xs, h, shift):
    # most bounds sit at or next to the total, where the sign is delicate
    h = total(xs) + F(shift, 2) if shift else h
    s = total(xs)
    for direction, want in ((Direction.BELOW, s < h), (Direction.ABOVE, s > h)):
        fast = find_rotation(xs, h, direction)
        slow = scan_rotation(xs, h, direction)
        assert (fast is not None) == (slow is not None) == want
        if fast is not None:
            assert fast.direction is direction and fast.n == len(xs)
            assert all(type(p) is F for p in fast.prefix_sums)
            assert verify_certificate(xs, h, fast)
            assert verify_certificate(xs, h, slow)


@settings(max_examples=200, deadline=None)
@given(mixed_lists, st.sampled_from([Direction.BELOW, Direction.ABOVE]), st.data())
def test_prefix_entry_off_by_one_over_d_fails(xs, direction, data):
    s = total(xs)
    h = s + 1 if direction is Direction.BELOW else s - 1
    cert = find_rotation(xs, h, direction)
    d = math.lcm(h.denominator, *(x.denominator for x in xs))
    j = data.draw(st.integers(0, len(xs) - 1))
    delta = data.draw(st.sampled_from([F(1, d), F(-1, d)]))
    table = list(cert.prefix_sums)
    table[j] += delta
    doctored = RotationCertificate(direction=direction, k=cert.k, prefix_sums=tuple(table))
    assert not verify_certificate(xs, h, doctored)


def test_verify_accepts_int_entries_in_the_table():
    cert = find_rotation([1, 1], 3, Direction.BELOW)
    as_ints = RotationCertificate(direction=cert.direction, k=cert.k, prefix_sums=(1, 2))
    assert verify_certificate([1, 1], 3, as_ints)
    assert not verify_certificate([1, 1], 3, RotationCertificate(cert.direction, cert.k, (1, 3)))


# --- the prefix table ----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(mixed_lists, st.sampled_from([Direction.BELOW, Direction.ABOVE]))
def test_table_den_is_the_lcm_of_the_reduced_entry_denominators(xs, direction):
    s = total(xs)
    h = s + F(1, 11) if direction is Direction.BELOW else s - F(1, 11)
    table = find_rotation(xs, h, direction).prefix_sums
    assert table.den == math.lcm(*(p.denominator for p in table))
    assert tuple(table) == tuple(F(p, table.den) for p in table.scaled)


def test_table_takes_any_exact_sequence_and_keeps_one_canonical_form():
    table = PrefixTable.of([F(1, 2), F(2, 3), 3])
    assert (table.scaled, table.den) == ((3, 4, 18), 6)
    reduced = PrefixTable((2, 4, 6), 4)
    assert (reduced.scaled, reduced.den) == ((1, 2, 3), 2)
    with pytest.raises(ValueError, match="positive"):
        PrefixTable((), 0)
    # h's denominator 3 enters D = 12, and drops out of the table
    cert = find_rotation([F(1, 4), F(1, 4)], F(5, 3), Direction.BELOW)
    assert (cert.prefix_sums.scaled, cert.prefix_sums.den) == ((1, 2), 4)
    assert cert.prefix_sums == (F(1, 4), F(1, 2))
    assert cert.prefix_sums == [F(1, 4), F(1, 2)]
    assert hash(cert.prefix_sums) == hash((F(1, 4), F(1, 2)))
    assert cert.prefix_sums != (F(1, 4),) and cert.prefix_sums != (F(1, 4), F(1, 3))


def test_table_slices_index_like_a_tuple():
    xs = [F(1, 2), -3, 2, F(1, 3), F(-5, 6), 4]
    cert = find_rotation(xs, total(xs) + 1, Direction.BELOW)
    rotated = xs[cert.k - 1:] + xs[:cert.k - 1]
    want = tuple(sum(rotated[:j], F(0)) for j in range(1, len(xs) + 1))
    for index in (slice(1, 4), slice(None, None, -1), slice(-2, None), slice(0, 6, 2), slice(4, 2)):
        assert cert.prefix_sums[index] == want[index]
    assert cert.prefix_sums[-1] == want[-1] == total(xs)
    with pytest.raises(IndexError):
        cert.prefix_sums[6]


@pytest.mark.parametrize("bad", [0.5, True, "1/2"], ids=repr)
def test_table_refuses_entries_that_are_not_exact(bad):
    with pytest.raises(TypeError):
        RotationCertificate(Direction.BELOW, 1, (F(1), bad))
    with pytest.raises(TypeError):
        PrefixTable.of([bad])


def test_verify_rejects_a_replaced_table_of_fractions():
    # dataclasses.replace with one entry off, as a doctored certificate would be built
    xs = [F(1, 2), -3, 2, F(1, 3)]
    h = total(xs) + 1
    cert = find_rotation(xs, h, Direction.BELOW)
    sums = list(cert.prefix_sums)
    assert verify_certificate(xs, h, dataclasses.replace(cert, prefix_sums=tuple(sums)))
    sums[-1] += 1
    doctored = dataclasses.replace(cert, prefix_sums=tuple(sums))
    assert isinstance(doctored.prefix_sums, PrefixTable) and doctored != cert
    assert not verify_certificate(xs, h, doctored)


def test_verify_rejects_a_table_whose_den_does_not_divide_d():
    # every true prefix sum of [1/2, 1/3] against h = 1 is a multiple of 1/6
    cert = find_rotation([F(1, 2), F(1, 3)], 1, Direction.BELOW)
    assert cert.prefix_sums.den == 6 and verify_certificate([F(1, 2), F(1, 3)], 1, cert)
    off = RotationCertificate(Direction.BELOW, cert.k, (cert.prefix_sums[0], cert.prefix_sums[1] + F(1, 7)))
    assert off.prefix_sums.den == 42
    assert not verify_certificate([F(1, 2), F(1, 3)], 1, off)
    # D = 1 here, and 1/7 scaled down to D would round to the true sum 0
    assert not verify_certificate([0, 0], 1, RotationCertificate(Direction.BELOW, 1, (F(1, 7), 0)))


def test_randomized_agreement_with_definition():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(1, 12)
        xs = random_rational_list(rng, n)
        h = F(rng.randint(-10, 10), rng.choice([1, 2, 3]))
        got = scan_rotation(xs, h, Direction.BELOW)
        want = brute_rotation_exists(xs, h, below=True)
        assert (got.k if got else None) == want


# --- per-start witnesses and block covers ------------------------------------


def test_witness_vector_on_worked_example():
    ok, gs = prefix_condition_all_starts([0, 0, 4, 0], 4, PrefixGoal.GEQ_SOMEWHERE)
    assert ok and gs == (3, 2, 1, 4)


def test_witness_vector_absent_when_total_short():
    ok, gs = prefix_condition_all_starts([0, 0, 1, 0], 4, PrefixGoal.GEQ_SOMEWHERE)
    assert not ok and gs is None


def test_witness_vector_dual_goal():
    ok, gs = prefix_condition_all_starts([0, 0, 4, 0], 4, PrefixGoal.LEQ_SOMEWHERE)
    assert ok and gs[0] == 1  # start 1 opens with 0 <= 1


def _all_starts_reference(xs, h, goal):
    """Direct O(n^2) witness vector in Fractions, one start at a time."""
    n = len(xs)
    c = F(h) / n
    witnesses = []
    for i in range(n):
        acc = F(0)
        for j in range(1, n + 1):
            acc += xs[(i + j - 1) % n]
            if (acc >= c * j) if goal is PrefixGoal.GEQ_SOMEWHERE else (acc <= c * j):
                witnesses.append(j)
                break
        else:
            return False, None
    return True, tuple(witnesses)


@settings(max_examples=300, deadline=None)
@given(mixed_lists, mixed_rationals, st.integers(-2, 2),
       st.sampled_from([PrefixGoal.GEQ_SOMEWHERE, PrefixGoal.LEQ_SOMEWHERE]))
def test_all_starts_matches_quadratic_reference(xs, h, shift, goal):
    h = total(xs) + F(shift, 3) if shift else h
    assert prefix_condition_all_starts(xs, h, goal) == _all_starts_reference(xs, h, goal)


def test_block_cover_worked_example_non_peak_start():
    cover = greedy_block_cover([0, 0, 4, 0], 1, 1)
    assert [(b.start, b.length, b.total) for b in cover.blocks] == [
        (1, 3, F(4)),
        (4, 4, F(4)),
    ]
    assert cover.covered_length == 7  # overshoot is allowed off the peak


def test_block_cover_worked_example_exact():
    cover = greedy_block_cover([0, 2, 0, 2], 1, 1)
    assert [(b.start, b.length, b.total) for b in cover.blocks] == [
        (1, 2, F(2)),
        (3, 2, F(2)),
    ]
    assert cover.covered_length == 4


def test_block_cover_requires_reachable_average():
    with pytest.raises(ValueError):
        greedy_block_cover([0, 0, 1, 0], 1, 1)


def test_block_cover_start_range():
    with pytest.raises(ValueError):
        greedy_block_cover([1, 1], 1, 0)
    with pytest.raises(ValueError):
        greedy_block_cover([1, 1], 1, 3)


def test_block_cover_structure_random():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(1, 9)
        xs = random_rational_list(rng, n)
        c = F(rng.randint(-3, 3), rng.choice([1, 2]))
        if total(xs) < c * n:
            continue
        ok, gs = prefix_condition_all_starts(xs, c * n, PrefixGoal.GEQ_SOMEWHERE)
        assert ok
        exact_starts = []
        for start in range(1, n + 1):
            cover = greedy_block_cover(xs, c, start)
            pos = start
            for blk in cover.blocks:
                assert blk.start == pos
                assert blk.total >= c * blk.length
                assert blk.length == gs[pos - 1]
                pos = (pos - 1 + blk.length) % n + 1
            assert cover.covered_length >= n
            if cover.covered_length == n:
                exact_starts.append(start)
        # the peak of the witness vector always tiles the wrap exactly
        assert exact_starts
        gmax = max(gs)
        for start in range(1, n + 1):
            if gs[start - 1] == gmax:
                assert start in exact_starts


# --- equality certificates ---------------------------------------------------


def test_equality_certificate_on_worked_example():
    eq = equality_certificate([0, 0, 4, 0], BoundSpec(h=4))
    assert eq is not None
    assert verify_certificate([0, 0, 4, 0], F(9, 2), eq.below)
    assert verify_certificate([0, 0, 4, 0], F(7, 2), eq.above)
    assert eq.k1 == eq.below.k and eq.k2 == eq.above.k


def test_equality_certificate_none_off_total():
    assert equality_certificate([0, 0, 4, 0], BoundSpec(h=5)) is None
    assert equality_certificate([0, 0, 4, 0], BoundSpec(h=3)) is None


def test_equality_certificate_none_inside_the_window():
    # both nudged certificates exist, since |1/4 - 0| < 1/2, but 1/4 != 0
    assert equality_certificate(["1/4"], BoundSpec(h=0)) is None
    assert equality_certificate([F(1, 3), F(1, 3)], BoundSpec(h=1, epsilon=F(3, 4))) is None


@settings(max_examples=200, deadline=None)
@given(rational_lists, st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]))
def test_equality_certificate_roundtrip(xs, eps):
    h = total(xs)
    eq = equality_certificate(xs, BoundSpec(h=h, epsilon=eps))
    assert eq is not None
    assert verify_certificate(xs, h + eps, eq.below)
    assert verify_certificate(xs, h - eps, eq.above)


def _fields(cert):
    return cert.direction, cert.k, cert.prefix_sums.scaled, cert.prefix_sums.den


def _check_equality_is_the_rotation_pair(xs, bound):
    """equality_certificate is None exactly off the total, and otherwise the
    two find_rotation answers at h + eps and h - eps, field for field."""
    got = equality_certificate(xs, bound)
    if total(xs) != bound.h:
        assert got is None
        return None
    below = find_rotation(xs, bound.h + bound.epsilon, Direction.BELOW)
    above = find_rotation(xs, bound.h - bound.epsilon, Direction.ABOVE)
    assert got == EqualityCertificate(below, above)
    assert (_fields(got.below), _fields(got.above)) == (_fields(below), _fields(above))
    return got


# eps with a denominator from 2 to 12, some of which divide no D0 of mixed_rationals
epsilons = st.integers(2, 12).flatmap(lambda q: st.builds(F, st.integers(1, q - 1), st.just(q)))


@settings(max_examples=400, deadline=None)
@given(st.lists(mixed_rationals, min_size=1, max_size=12),
       st.sampled_from([F(0), F(0), F(0), F(1, 8), F(-1, 3), F(1), F(-5, 11)]), epsilons)
def test_equality_certificate_is_the_pair_find_rotation_gives(values, offset, eps):
    for xs in (tuple(values), values):
        _check_equality_is_the_rotation_pair(xs, BoundSpec(h=total(values) + offset, epsilon=eps))


def _kernel_calls(monkeypatch):
    calls = []
    kernel = cyclic_core._rotation_certificate

    def spy(a, big_h, d, direction):
        calls.append((a, big_h, d, direction))
        return kernel(a, big_h, d, direction)

    monkeypatch.setattr(cyclic_core, "_rotation_certificate", spy)
    return calls


def test_equality_on_an_integer_list_scales_it_once_to_the_half(monkeypatch):
    # D0 = 1 and eps = 1/2, so D = 2 != D0: the list is doubled, once
    xs = (3, -1, 4, 0, -2)
    calls = _kernel_calls(monkeypatch)
    eq = _check_equality_is_the_rotation_pair(xs, BoundSpec(h=4))
    assert [c[1:] for c in calls[:2]] == [(9, 2, Direction.BELOW), (7, 2, Direction.ABOVE)]
    assert calls[0][0] == [6, -2, 8, 0, -4] and calls[0][0] is calls[1][0]
    assert (eq.k1, eq.k2) == (4, 1)
    assert eq.below.prefix_sums == [0, -2, 1, 0, 4] and eq.above.prefix_sums == [3, 2, 6, 6, 4]
    assert eq.below.prefix_sums.den == eq.above.prefix_sums.den == 1
    assert verify_certificate(xs, F(9, 2), eq.below) and verify_certificate(xs, F(7, 2), eq.above)


def test_equality_at_an_h_over_a_denominator_the_list_lacks():
    # entries over 6 and 2 with total 1/3: h is over 3, which no entry is
    xs = (F(1, 6), F(1, 2), F(-1, 3), F(1, 6), F(-1, 6))
    assert total(xs) == F(1, 3)
    for eps in (F(1, 2), F(1, 5), F(3, 4)):
        assert _check_equality_is_the_rotation_pair(xs, BoundSpec(h=F(1, 3), epsilon=eps)) is not None
        # an h one 7th off, or a 7th apart in its denominator: never the total
        for h in (F(1, 3) + F(1, 7), F(1, 3) - F(1, 21), F(2, 7)):
            assert _check_equality_is_the_rotation_pair(xs, BoundSpec(h=h, epsilon=eps)) is None


def test_equality_where_d0_covers_h_and_eps_uses_the_lists_own_integers(monkeypatch):
    xs = (F(1, 4), F(3, 4), F(-1, 2), F(5, 4), F(-3, 2))
    a, d0 = cyclic_list(xs).integer_form
    assert d0 == 4
    calls = _kernel_calls(monkeypatch)
    for eps in (F(1, 4), F(1, 2), F(3, 4)):
        calls.clear()
        eq = _check_equality_is_the_rotation_pair(xs, BoundSpec(h=F(1, 4), epsilon=eps))
        assert calls[0][0] is a and calls[1][0] is a
        assert [c[1:] for c in calls[:2]] == [
            (1 + 4 * eps, 4, Direction.BELOW), (1 - 4 * eps, 4, Direction.ABOVE)]
        assert verify_certificate(xs, F(1, 4) + eps, eq.below)
        assert verify_certificate(xs, F(1, 4) - eps, eq.above)


# --- one integer form per list -------------------------------------------------


def test_cyclic_list_memoises_tuples_and_never_lists():
    xs = (F(1, 2), F(-3), F(2, 3))
    assert cyclic_list(xs) is cyclic_list(xs)
    assert cyclic_list(xs).values is xs
    ys = list(xs)
    assert cyclic_list(ys) is not cyclic_list(ys)
    assert cyclic_list(ys) == cyclic_list(xs)


def test_one_tuple_is_converted_once_across_find_verify_and_equality(monkeypatch):
    calls = []
    convert = cyclic_core._integer_form
    monkeypatch.setattr(cyclic_core, "_integer_form", lambda values: calls.append(values) or convert(values))
    xs = (F(1, 2), F(-3), F(2), F(1, 3))
    s = total(xs)
    cert = find_rotation(xs, s + 1, Direction.BELOW)
    assert verify_certificate(xs, s + 1, cert)
    # eps = 1/4: h +- eps is over 12, which D0 = 6 does not divide
    bound = BoundSpec(h=s, epsilon=F(1, 4))
    eq = equality_certificate(xs, bound)
    assert verify_certificate(xs, s + bound.epsilon, eq.below)
    assert verify_certificate(xs, s - bound.epsilon, eq.above)
    assert len(calls) == 1 and calls[0] is xs


@settings(max_examples=100, deadline=None)
@given(st.lists(mixed_lists, min_size=1, max_size=12), mixed_rationals,
       st.sampled_from([Direction.BELOW, Direction.ABOVE]))
def test_the_memo_stays_right_as_tuples_come_and_go(lists, h, direction):
    # each tuple is dropped before the next is built, so once the memo has
    # let it go its id is free for a later tuple
    for values in lists:
        xs = tuple(values)
        assert cyclic_list(xs).values is xs
        got = find_rotation(xs, h, direction)
        want = scan_rotation(values, h, direction)
        assert (got is None) == (want is None)
        if got is not None:
            assert verify_certificate(xs, h, got)
            assert verify_certificate(values, h, got)
        del xs


def test_a_reused_id_never_hands_back_another_tuples_list():
    # a list of Fractions keeps its tuple alive, one of ints only a copy of it
    seen = set()
    reused = 0
    for i in range(200):
        xs = (F(i, 1 + i % 5), F(1), F(-i)) if i % 2 else (i, 1, -i)
        assert cyclic_list(xs).values == tuple(map(F, xs))
        assert total(xs) == sum(xs)
        reused += id(xs) in seen
        seen.add(id(xs))
        del xs
    # a freed tuple's memory goes to the next tuple of its size, so ids
    # recur once the memo has let their tuples go
    assert reused


def test_an_h_over_a_denominator_the_list_lacks():
    xs = (F(1, 3), F(-2, 3), F(4, 3))
    assert cyclic_list(xs).integer_form == ((1, -2, 4), 3)
    assert common_denominator(xs, F(1, 7)) == 21
    for h, direction in [(F(1, 7), Direction.ABOVE), (F(22, 7), Direction.BELOW)]:
        cert = find_rotation(xs, h, direction)
        assert cert is not None and scan_rotation(xs, h, direction) is not None
        assert verify_certificate(xs, h, cert) and verify_certificate(list(xs), h, cert)
        assert find_rotation(xs, h, Direction.ABOVE if direction is Direction.BELOW else Direction.BELOW) is None
    # the list's own form is left as it was
    assert cyclic_list(xs).integer_form == ((1, -2, 4), 3)
    assert total(xs) == 1


@pytest.mark.parametrize("xs", [(3, -1, 2, -2), ("3", "-1/2", "2", "-2")], ids=["ints", "strings"])
def test_tuples_of_ints_and_of_strings_are_memoised_as_fractions(xs):
    cl = cyclic_list(xs)
    assert cl is cyclic_list(xs)
    assert cl.values == tuple(as_fraction(v) for v in xs)
    assert all(type(v) is F for v in cl.values)
    h = total(xs) + 1
    cert = find_rotation(xs, h, Direction.BELOW)
    assert verify_certificate(xs, h, cert) and verify_certificate(list(xs), h, cert)


def test_the_memo_holds_the_last_four_tuples():
    kept = [tuple([F(i)] * (i % 7 + 1)) for i in range(12)]
    lists = [cyclic_list(xs) for xs in kept]
    assert len(cyclic_core._recent) == 4
    held = [entry[0] for entry in cyclic_core._recent]
    assert all(any(h is xs for h in held) for xs in kept[-4:])
    assert all(cyclic_list(xs) is cl for xs, cl in zip(kept[-4:], lists[-4:]))
    # an older tuple gets a new list
    assert cyclic_list(kept[0]) is not lists[0]


def test_the_memo_is_safe_under_threads():
    errors = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(1500):
                xs = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 5)))
                if cyclic_list(xs).values is not xs or cyclic_list(xs).integer_form[1] != math.lcm(
                        *(v.denominator for v in xs)):
                    errors.append(xs)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(cyclic_core._recent) == 4


def test_a_table_tampered_after_a_find_on_the_same_tuple_is_refused():
    xs = (F(1, 2), F(-3), F(2), F(1, 3))
    h = total(xs) + 1
    cert = find_rotation(xs, h, Direction.BELOW)
    table = cert.prefix_sums
    for j in range(len(table)):
        scaled = list(table.scaled)
        scaled[j] -= 1
        doctored = RotationCertificate(cert.direction, cert.k, PrefixTable(tuple(scaled), table.den))
        assert not verify_certificate(xs, h, doctored)
    assert verify_certificate(xs, h, cert)
