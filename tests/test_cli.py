import argparse
import json
import time
from pathlib import Path

import pytest

from cyclecert import cli
from cyclecert.cli import main
from cyclecert.domination import (
    Variant,
    is_dominating,
    is_minimal_total_dominating,
    is_paired_dominating,
    max_minimal_parameter,
    min_parameter,
    prefix_pruned_search,
    rd_prefix_pruned_search,
)
from cyclecert.formats import decomposition_to_json, dump_json, graph_to_json, parse_graph_spec
from cyclecert.graphs import Graph, cartesian_cycles, cycle
from cyclecert.structures import circulant14_decomposition, column_shift_symmetry, columns_partition


def run(capsys, *argv):
    """The exit code and the one JSON line that main prints on stdout."""
    code = main(list(argv))
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n"), out
    return code, json.loads(out)


def test_certify_sum_found(capsys):
    code, doc = run(capsys, "certify", "sum", "--list", "0,0,4,0", "--h", "5")
    assert code == 0 and doc["found"]
    assert doc["certificate"]["direction"] == "below"
    assert doc["certificate"]["h"] == {"num": 5, "den": 1}


def test_certify_sum_refuted(capsys):
    code, doc = run(capsys, "certify", "sum", "--list", "0,0,4,0", "--h", "4")
    assert code == 1 and not doc["found"]


def test_certify_sum_above(capsys):
    code, doc = run(capsys, "certify", "sum", "--list", "1,2", "--h", "5/2",
                    "--direction", "above")
    assert code == 0 and doc["certificate"]["direction"] == "above"


def test_certify_sum_equality(capsys):
    code, doc = run(capsys, "certify", "sum", "--list", "0,0,4,0", "--h", "4",
                    "--direction", "equality", "--epsilon", "1/4")
    assert code == 0
    assert doc["equality"]["epsilon"] == {"num": 1, "den": 4}


def test_certify_sum_equality_takes_half_when_epsilon_is_omitted(capsys):
    code, doc = run(capsys, "certify", "sum", "--list", "0,0,4,0", "--h", "4",
                    "--direction", "equality")
    assert code == 0 and doc["equality"]["epsilon"] == {"num": 1, "den": 2}


@pytest.mark.parametrize("direction", ["below", "above"])
@pytest.mark.parametrize("epsilon", ["x", "1/4", "1/2"])
def test_certify_sum_epsilon_belongs_to_equality_alone(capsys, direction, epsilon):
    # a valid value is refused too: a rotation certificate records no nudge
    argv = ["certify", "sum", "--list", "1,2", "--h", "5", "--epsilon", epsilon]
    calls = [[*argv, "--direction", direction]]
    if direction == "below":
        calls.append(argv)  # the direction when none is given
    for call in calls:
        assert "--epsilon" in _refused(capsys, *call)["detail"]


def test_certify_sum_bad_rational_is_input_error(capsys):
    code, doc = run(capsys, "certify", "sum", "--list", "1,2", "--h", "x")
    assert code == 2 and doc["error"] == "invalid input"


def test_certify_sum_zero_denominator_is_input_error(capsys):
    code, doc = run(capsys, "certify", "sum", "--list=1/0,2", "--h=1", "--direction=below")
    assert code == 2 and doc["error"] == "invalid input"
    code, doc = run(capsys, "certify", "sum", "--list=1,2", "--h=3/0", "--direction=below")
    assert code == 2 and doc["error"] == "invalid input"


def test_certificate_too_large_to_encode_is_input_error(capsys):
    # each entry has 4300 digits, the most the rational grammar reads, but
    # the second prefix sum has one digit more than Python converts from int
    # to str, so the certificate is found but cannot be written as JSON
    code, doc = run(capsys, "certify", "sum", "--list", "9e4299,9e4299", "--direction", "above",
                    "--h", "1")
    assert code == 2 and doc["error"] == "invalid input" and "4300 digits" in doc["detail"]


def test_certify_sum_equality_refused_off_total(capsys):
    # |1/4 - 0| < eps, but the total is not 0
    code, doc = run(capsys, "certify", "sum", "--list=1/4", "--h=0", "--direction=equality")
    assert code == 1 and not doc["found"]
    assert doc["total"] == "1/4"


def test_certify_verify_accepts_unedited_sum_output(capsys, tmp_path):
    # the whole stdout of `certify sum` must pipe back into `certify verify`
    code, doc = run(capsys, "certify", "sum", "--list", "0,0,4,0", "--h", "5")
    path = tmp_path / "found.json"
    path.write_text(dump_json(doc), encoding="utf-8")
    code, doc = run(capsys, "certify", "verify", "--list", "0,0,4,0",
                    "--certificate", str(path))
    assert code == 0 and doc["verified"]
    code, doc = run(capsys, "certify", "sum", "--list", "0,0,4,0", "--h", "4",
                    "--direction", "equality")
    path.write_text(dump_json(doc), encoding="utf-8")
    code, doc = run(capsys, "certify", "verify", "--list", "0,0,4,0",
                    "--certificate", str(path))
    assert code == 0 and doc["verified"]


@pytest.mark.parametrize("direction, h", [("below", "1"), ("above", "-3"), ("equality", "-3/4")])
def test_every_spelling_of_a_list_gets_the_same_certificate(capsys, tmp_path, direction, h):
    # the first spelling is read by the plain p/q reader alone; the others
    # send their decimals and exponents through the full Fraction grammar
    spellings = ["1/4,-3,2", "0.25,-3e0,+2", "1/4, -3, 2", "+1/4, -3.0, 2E0"]
    paths = []
    for i, listing in enumerate(spellings):
        assert main(["certify", "sum", f"--list={listing}", f"--h={h}", f"--direction={direction}"]) == 0
        paths.append(tmp_path / f"spelling{i}.json")
        paths[-1].write_text(capsys.readouterr().out, encoding="utf-8")
    assert len({path.read_bytes() for path in paths}) == 1
    for listing in spellings:
        for path in paths:
            code, doc = run(capsys, "certify", "verify", f"--list={listing}", "--certificate", str(path))
            assert code == 0 and doc["verified"]


def test_certify_verify_roundtrip(capsys, tmp_path):
    code, doc = run(capsys, "certify", "sum", "--list", "0,0,4,0", "--h", "5")
    path = tmp_path / "cert.json"
    path.write_text(dump_json(doc["certificate"]), encoding="utf-8")
    code, doc = run(capsys, "certify", "verify", "--list", "0,0,4,0",
                    "--certificate", str(path))
    assert code == 0 and doc["verified"]
    # tampering flips the verdict
    bad = json.loads(path.read_text())
    bad["k"] = bad["k"] % 4 + 1
    path.write_text(dump_json(bad), encoding="utf-8")
    code, doc = run(capsys, "certify", "verify", "--list", "0,0,4,0",
                    "--certificate", str(path))
    assert code == 1


def test_certify_verify_accepts_an_indented_certificate(capsys, tmp_path):
    # files written when dump_json still indented by two must keep verifying
    code, doc = run(capsys, "certify", "sum", "--list", "0,1/2,4,-3/7", "--h", "5")
    path = tmp_path / "indented.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    code, doc = run(capsys, "certify", "verify", "--list", "0,1/2,4,-3/7",
                    "--certificate", str(path))
    assert code == 0 and doc["verified"]


_CERT = {"direction": "below", "k": 1, "n": 1, "h": {"num": 5, "den": 1}, "prefix": 5}
_EQUALITY = {
    "h": {"num": 4, "den": 1},
    "epsilon": {"num": 1, "den": 2},
    "below": {"direction": "below", "k": 1, "n": 1, "h": {"num": 9, "den": 2}, "prefix": None},
    "above": {"direction": "above", "k": 1, "n": 1, "h": {"num": 7, "den": 2}, "prefix": None},
}
_MALFORMED = {
    "certificate prefix is a number": (
        _CERT, ["certify", "verify", "--list", "4", "--certificate"]),
    "equality prefix is null": (
        _EQUALITY, ["certify", "verify", "--list", "4", "--certificate"]),
    "partition part holds a list": (
        {"parts": [[0, [1]], [2, 3]]}, ["partition", "check", "--graph", "cycle:4", "--partition"]),
    "decomposition pieces is a number": (
        {"pieces": 5}, ["decomposition", "check", "--graph", "cycle:4", "--decomposition"]),
    "inline graph edge is a number": (
        {"graph": {"n": 4, "edges": [5]}, "crossings": []}, ["drawing", "check", "--drawing"]),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_json_files_are_input_errors(capsys, tmp_path, case):
    content, argv = _MALFORMED[case]
    path = tmp_path / "input.json"
    path.write_text(dump_json(content), encoding="utf-8")
    code, doc = run(capsys, *argv, str(path))
    assert code == 2 and doc["error"] == "invalid input"


def test_usage_errors_are_input_errors(capsys):
    code, doc = run(capsys, "certify", "sum", "--list", "1,2")
    assert code == 2 and doc["error"] == "invalid input" and "--h" in doc["detail"]
    code, doc = run(capsys, "reproduce", "--suite", "t1", "--n", "x")
    assert code == 2 and doc["error"] == "invalid input"
    code, doc = run(capsys, "sideways")
    assert code == 2 and doc["error"] == "invalid input"


def _refused(capsys, *argv):
    """The JSON error of a call refused as invalid input, within 10 s."""
    start = time.monotonic()
    code, doc = run(capsys, *argv)
    assert time.monotonic() - start < 10
    assert code == 2 and doc["error"] == "invalid input"
    return doc


@pytest.mark.parametrize("argv", [
    ["--list", "1,2", "--h", "1_3"],
    ["--list", "1_0,2", "--h", "3"],
    ["--list", "1,2", "--h", "\u0661\u0663"],
    ["--list", "1,2", "--h", "3", "--direction", "equality", "--epsilon", "1_0"],
])
def test_rationals_refuse_underscores_and_other_scripts_digits(capsys, argv):
    # Fraction alone would answer for h = 13
    assert "ASCII" in _refused(capsys, "certify", "sum", *argv)["detail"]


@pytest.mark.parametrize("argv", [
    ["--list=1", "--h=1e999999999"],
    ["--list=1", "--h=1e-999999999"],
    ["--list=1", "--h=1E4301"],
    ["--list=1", "--h=-1e-4301"],
    ["--list=1e100000,1", "--h=1"],
])
def test_rationals_refuse_an_exponent_past_4300(capsys, argv):
    # Fraction alone would build 10^|exponent|, for minutes at these sizes
    start = time.monotonic()
    assert "exponent" in _refused(capsys, "certify", "sum", *argv)["detail"]
    assert time.monotonic() - start < 1


@pytest.mark.parametrize("argv", [
    ["--list=1,2", "--h=1e4300"],
    ["--list=" + "1" * 4000 + "e4300", "--h=1"],
])
def test_rationals_refuse_more_than_4300_digits_on_reading(capsys, argv):
    # the certificate would be found, and only its JSON refused
    assert "more than 4300 digits" in _refused(capsys, "certify", "sum", *argv)["detail"]


def test_integers_inside_strings_take_plain_decimal_digits(capsys, tmp_path):
    drawing = tmp_path / "d.json"
    drawing.write_text(dump_json({"graph": graph_to_json(cycle(12)), "crossings": []}),
                       encoding="utf-8")
    order = ",".join(["0", "1_0"] + [str(v) for v in range(1, 10)])
    cases = [
        ["generate", "--graph", "cycle:1_0"],
        ["partition", "check", "--graph", "torus:3:10", "--partition", "columns:3:1_0"],
        ["domination", "corollary", "--graph", "torus:3:3", "--partition", "columns:3:\u0663",
         "--h", "3"],
        ["drawing", "convex", "--graph", "cycle:11", "--order", order],
        ["drawing", "parity", "--drawing", str(drawing), "--cycle-a", "0-1,1-2,2-0",
         "--cycle-b", "3-4,4-1_0,1_0-3"],
    ]
    for argv in cases:
        assert "decimal digits" in _refused(capsys, *argv)["detail"]


def test_comma_lists_refuse_an_empty_item(capsys, tmp_path):
    drawing = tmp_path / "d.json"
    drawing.write_text(dump_json({"graph": graph_to_json(cycle(6)), "crossings": []}),
                       encoding="utf-8")
    parity = ["drawing", "parity", "--drawing", str(drawing)]
    cases = [
        ["certify", "sum", "--list=1,,2", "--h=5"],
        ["certify", "sum", "--list", "1,2,", "--h", "5"],
        ["certify", "sum", "--list", " , 1", "--h", "5"],
        ["certify", "verify", "--list", "1,,2", "--certificate", str(drawing)],
        ["drawing", "convex", "--graph", "cycle:3", "--order", "0,,1,2"],
        [*parity, "--cycle-a", "0-1,,1-2,2-0", "--cycle-b", "3-4,4-5,5-3"],
        [*parity, "--cycle-a", "0-1,1-2,2-0", "--cycle-b", "3-4,4-5,5-3,"],
        ["generate", "--graph", "circulant:12:1,,4,"],
    ]
    for argv in cases:
        assert "empty item" in _refused(capsys, *argv)["detail"]


def test_certify_verify_refuses_an_entry_no_prefix_sum_of_the_list_has(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, doc = run(capsys, "certify", "sum", "--list", "3,-1/2,2,-2", "--h", "4")
    assert code == 0
    path.write_text(dump_json(doc), encoding="utf-8")
    verify = ["certify", "verify", "--list", "3,-1/2,2,-2", "--certificate", str(path)]
    assert run(capsys, *verify) == (0, {"verified": True})
    doc["certificate"]["prefix"][1] = {"num": 3, "den": 4}
    path.write_text(dump_json(doc), encoding="utf-8")
    assert "prefix entry 2 is 3/4" in _refused(capsys, *verify)["detail"]
    # an entry over the list's D that is wrong is read, and fails to verify
    doc["certificate"]["prefix"][1] = {"num": 1, "den": 2}
    path.write_text(dump_json(doc), encoding="utf-8")
    assert run(capsys, *verify) == (1, {"verified": False})


def test_comma_list_items_are_still_stripped_of_spaces(capsys):
    code, doc = run(capsys, "certify", "sum", "--list", " 1, 2 ", "--h", "5")
    assert code == 0 and doc["certificate"]["n"] == 2


def test_certify_verify_deeply_nested_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, doc = run(capsys, "certify", "verify", "--list", "1", "--certificate", str(path))
    assert code == 2 and doc["error"] == "invalid input"


def test_certify_verify_equality_doc(capsys, tmp_path):
    code, doc = run(capsys, "certify", "sum", "--list", "0,0,4,0", "--h", "4",
                    "--direction", "equality")
    path = tmp_path / "eq.json"
    path.write_text(dump_json(doc["equality"]), encoding="utf-8")
    code, doc = run(capsys, "certify", "verify", "--list", "0,0,4,0",
                    "--certificate", str(path))
    assert code == 0 and doc["verified"] and doc["total_equals_h"]


def test_domination_solve(capsys):
    code, doc = run(capsys, "domination", "solve", "--graph", "torus:5:3",
                    "--variant", "paired")
    assert code == 0 and doc["value"] == 4
    assert len(doc["witness"]) == 4


def test_domination_solve_max_minimal(capsys):
    code, doc = run(capsys, "domination", "solve", "--graph", "torus:4:3",
                    "--variant", "total", "--mode", "max-minimal")
    assert code == 0 and doc["value"] == 6


def test_domination_solve_budget_exceeded(capsys):
    code, doc = run(capsys, "domination", "solve", "--graph", "torus:4:4",
                    "--variant", "total", "--budget-nodes", "1")
    assert code == 3 and doc["error"] == "budget exceeded"


def test_domination_solve_long_cycle_answers(capsys):
    # the minimum search keeps its 1100 chosen vertices on a stack of its
    # own, not on Python's
    code, doc = run(capsys, "domination", "solve", "--graph", "cycle:3300")
    assert code == 0 and doc["value"] == 1100


def test_domination_solve_max_minimal_long_cycle_is_budget_exceeded(capsys):
    code, doc = run(capsys, "domination", "solve", "--graph", "cycle:3300",
                    "--mode", "max-minimal", "--budget-nodes", "1000")
    assert code == 3 and doc == {"error": "budget exceeded",
                                 "detail": "node budget 1000 exceeded"}


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--budget-seconds", "nan"),
        ("--budget-seconds", "inf"),
        ("--budget-seconds", "-1"),
        ("--budget-seconds", "1_0"),
        ("--budget-seconds", "1e1"),
        ("--budget-nodes", "-5"),
    ],
)
def test_bad_budget_caps_are_input_errors(capsys, flag, value):
    # a NaN deadline is never reached, so it would switch the clock off;
    # float() would read 1_0 and 1e1 as 10
    for graph, t in [("kmn:3:10", "13"), ("cycle:6", "3")]:
        start = time.monotonic()
        code, doc = run(capsys, "partition", "find", "--graph", graph, "--t", t, flag, value)
        assert time.monotonic() - start < 5
        assert code == 2 and doc["error"] == "invalid input" and flag in doc["detail"]


@pytest.mark.parametrize("value", ["3_0", "\u0663", " 3"])
@pytest.mark.parametrize("argv, flag", [
    (["domination", "corollary", "--graph", "torus:3:3", "--partition", "columns:3:3",
      "--mode", "search"], "--h"),
    (["reproduce", "--suite", "t1"], "--n"),
    (["reproduce", "--suite", "n4"], "--n"),
    (["partition", "find", "--graph", "cycle:6"], "--t"),
    (["domination", "solve", "--graph", "torus:3:3"], "--budget-nodes"),
])
def test_integer_flags_take_plain_decimal_digits(capsys, argv, flag, value):
    # int() would read 3_0 as 30 and the Arabic-Indic digit as 3
    assert flag in _refused(capsys, *argv, flag, value)["detail"]


@pytest.mark.parametrize("argv, solve, variant", [
    (["--graph", "torus:5:13", "--variant", "paired"], min_parameter, Variant.PAIRED),
    (["--graph", "torus:4:5", "--variant", "total", "--mode", "max-minimal"],
     max_minimal_parameter, Variant.TOTAL),
], ids=["paired C5xC13", "upper total C4xC5"])
def test_domination_solve_prints_the_pinned_node_count_and_a_cap_one_short_exits_3(
        capsys, argv, solve, variant):
    # the counts are pinned in test_domination.BUDGETED_SEARCHES
    g = parse_graph_spec(argv[1])
    nodes = solve(g, variant).nodes_explored
    code, doc = run(capsys, "domination", "solve", *argv)
    assert code == 0 and doc["nodes_explored"] == nodes
    code, doc = run(capsys, "domination", "solve", *argv, "--budget-nodes", str(nodes - 1))
    assert code == 3 and doc == {"error": "budget exceeded",
                                 "detail": f"node budget {nodes - 1} exceeded"}


def test_budget_flag_overrides_the_default(capsys):
    code, doc = run(capsys, "domination", "solve", "--graph", "torus:4:4",
                    "--variant", "total", "--budget-nodes", "1")
    assert code == 3
    code, doc = run(capsys, "domination", "solve", "--graph", "torus:4:4",
                    "--variant", "total", "--budget-nodes", "1000000")
    assert code == 0 and doc["value"] == 4


def _one_row(capsys, suite, n):
    code, doc = run(capsys, "reproduce", "--suite", suite, "--n", str(n))
    assert doc["suite"] == suite and doc["ok"] is (code == 0)
    [row] = doc["results"]
    assert set(row) == {"n", "value", "expected", "match", "witness"} and row["n"] == n
    return code, row


def test_reproduce_t1_at_one_n(capsys):
    for n, value in [(3, 4), (7, 10)]:
        code, row = _one_row(capsys, "t1", n)
        assert code == 0 and row["value"] == row["expected"] == value and row["match"] is True
        assert len(row["witness"]) == value
        assert is_paired_dominating(cartesian_cycles(5, n), row["witness"])


def test_reproduce_n4_at_one_n(capsys):
    for n, value in [(3, 6), (6, 12)]:
        code, row = _one_row(capsys, "n4", n)
        assert code == 0 and row["value"] == row["expected"] == value and row["match"] is True


def test_reproduce_n4_at_four_columns_prints_a_minimal_total_witness(capsys):
    code, row = _one_row(capsys, "n4", 4)
    assert code == 0 and row["value"] == 8 and len(row["witness"]) == 8
    assert is_minimal_total_dominating(cartesian_cycles(4, 4), row["witness"])


def test_reproduce_at_one_n_exits_1_on_a_mismatch(capsys, monkeypatch):
    rows, variant, mode, _, full, quick = cli._PAPER_VALUES["t1"]
    monkeypatch.setitem(cli._PAPER_VALUES, "t1", (rows, variant, mode, lambda n: 5, full, quick))
    code, row = _one_row(capsys, "t1", 3)
    assert code == 1 and row["value"] == 4 and row["expected"] == 5 and row["match"] is False


@pytest.mark.parametrize("argv", [
    ["--suite", "structures", "--n", "3"],
    ["--suite", "t1", "--n", "3", "--quick"],
    ["--suite", "n4", "--quick", "--n", "3"],
    ["--suite", "t1", "--n", "2"],
    ["--suite", "n4", "--n", "-4"],
])
def test_reproduce_n_refuses_other_suites_quick_and_small_n(capsys, argv):
    _refused(capsys, "reproduce", *argv)


def test_domination_corollary_decide(capsys):
    code, doc = run(capsys, "domination", "corollary", "--graph", "torus:3:3",
                    "--partition", "columns:3:3", "--h", "3")
    assert code == 0 and doc["equals"]
    code, doc = run(capsys, "domination", "corollary", "--graph", "torus:3:3",
                    "--partition", "columns:3:3", "--h", "4")
    assert code == 1 and not doc["equals"]


def test_domination_corollary_search_witness(capsys):
    code, doc = run(capsys, "domination", "corollary", "--graph", "torus:3:3",
                    "--partition", "columns:3:3", "--h", "3", "--mode", "search")
    assert code == 0 and doc["found"] and len(doc["witness"]) <= 3


def test_domination_corollary_rd(capsys):
    code, doc = run(capsys, "domination", "corollary", "--graph", "torus:3:3",
                    "--partition", "columns:3:3", "--h", "3", "--rd")
    assert code == 0 and doc["equals"]


def test_domination_corollary_rd_search_prints_what_it_finds(capsys):
    code, doc = run(capsys, "domination", "corollary", "--graph", "torus:3:3",
                    "--partition", "columns:3:3", "--h", "3", "--rd", "--mode", "search")
    assert code == 0 and doc["h"] == 3 and doc["found"] is True
    assert len(doc["witness"]) <= 3
    assert is_dominating(cartesian_cycles(3, 3), doc["witness"])
    code, doc = run(capsys, "domination", "corollary", "--graph", "torus:3:3",
                    "--partition", "columns:3:3", "--h", "2", "--rd", "--mode", "search")
    assert code == 1 and doc == {"h": 2, "found": False}


@pytest.mark.parametrize("extra", [["--h", "4"], ["--h", "3", "--mode", "search"]])
def test_domination_corollary_rd_refuses_variants_other_than_dominating(capsys, extra):
    # the redundancy search weighs dominating sets only; gamma_pr(C3xC3) = 4
    code, doc = run(capsys, "domination", "corollary", "--graph", "torus:3:3",
                    "--partition", "columns:3:3", "--rd", "--variant", "paired", *extra)
    assert code == 2 and doc["error"] == "invalid input" and "--rd" in doc["detail"]


def test_malformed_columns_shorthand_is_input_error(capsys):
    code, doc = run(capsys, "partition", "check", "--graph", "torus:3:3",
                    "--partition", "columns:3")
    assert code == 2 and doc["error"] == "invalid input" and "columns:m:n" in doc["detail"]
    code, doc = run(capsys, "domination", "corollary", "--graph", "torus:3:3",
                    "--partition", "columns:x:3", "--h", "3")
    assert code == 2 and doc["error"] == "invalid input" and "columns:m:n" in doc["detail"]


def test_domination_corollary_derives_the_shift(capsys):
    argv = ["domination", "corollary", "--graph", "torus:3:3", "--partition", "columns:3:3"]
    assert run(capsys, *argv, "--h", "3") == (0, {"h": 3, "equals": True})
    assert run(capsys, *argv, "--h", "3", "--mode", "search") == (
        0, {"h": 3, "found": True, "witness": [0, 1, 2]})
    assert run(capsys, *argv, "--h", "4", "--variant", "paired") == (0, {"h": 4, "equals": True})
    assert run(capsys, *argv, "--h", "2", "--variant", "paired") == (1, {"h": 2, "equals": False})
    # the derived shift finds what the column shift, which carries column i
    # onto column i + 1, finds through the library
    for m, n in [(3, 3), (4, 4), (5, 4)]:
        g, parts, sigma = cartesian_cycles(m, n), columns_partition(m, n), column_shift_symmetry(m, n)
        argv = ["domination", "corollary", "--graph", f"torus:{m}:{n}",
                "--partition", f"columns:{m}:{n}", "--mode", "search"]
        for h in range(2, 9):
            searches = [(["--variant", v.value], prefix_pruned_search(g, parts, sigma, v, h))
                        for v in Variant]
            searches.append((["--rd"], rd_prefix_pruned_search(g, parts, sigma, h)))
            for flags, found in searches:
                code, doc = run(capsys, *argv, *flags, "--h", str(h))
                assert (code, doc.get("witness")) == ((1, None) if found is None else (0, sorted(found)))


def test_domination_corollary_without_a_shift_is_input_error(capsys, tmp_path):
    # parts of sizes 4 and 5 cannot be carried onto each other
    path = tmp_path / "halves.json"
    path.write_text(dump_json({"parts": [[0, 1, 2, 3], [4, 5, 6, 7, 8]]}), encoding="utf-8")
    code, doc = run(capsys, "domination", "corollary", "--graph", "torus:3:3",
                    "--partition", str(path), "--h", "3")
    assert code == 2 and doc["error"] == "invalid input" and "no shift" in doc["detail"]


def test_domination_corollary_bad_shift_is_input_error(capsys):
    # the shift is always derived, so a --shift flag is a usage error
    for shift in ["columns:3:3", "0,1,2,3,4,5,6,7,8"]:
        doc = _refused(capsys, "domination", "corollary", "--graph", "torus:3:3",
                       "--partition", "columns:3:3", "--shift", shift, "--h", "3")
        assert "--shift" in doc["detail"]


def test_partition_check_and_transitive(capsys):
    code, doc = run(capsys, "partition", "check", "--graph", "torus:3:3",
                    "--partition", "columns:3:3", "--transitive")
    assert code == 0 and doc["valid"] and doc["transitive"]


def test_partition_check_without_transitive_prints_only_validity(capsys):
    code, doc = run(capsys, "partition", "check", "--graph", "torus:3:3",
                    "--partition", "columns:3:3")
    assert code == 0 and doc == {"valid": True, "parts": 3}


def test_partition_find(capsys):
    code, doc = run(capsys, "partition", "find", "--graph", "cycle:6", "--t", "3")
    assert code == 0 and doc["found"] and len(doc["parts"]) == 3
    code, doc = run(capsys, "partition", "find", "--graph", "kmn:2:3", "--t", "5")
    assert code == 1 and not doc["found"]


def test_partition_find_honours_budget_seconds(capsys, tmp_path):
    # K13 minus the edge 0-12: about 2 * 10^8 orders of the 13 singleton classes
    # pass the pair screen, each refuted by the window test
    graph = tmp_path / "k13-minus-an-edge.json"
    edges = [(u, v) for u in range(13) for v in range(u + 1, 13) if (u, v) != (0, 12)]
    graph.write_text(dump_json(graph_to_json(Graph.from_edges(13, edges))), encoding="utf-8")
    start = time.monotonic()
    code = main(["partition", "find", "--graph", f"@{graph}", "--t", "13",
                 "--budget-seconds", "1"])
    out = capsys.readouterr().out
    assert time.monotonic() - start < 5
    assert code == 3 and out.count("\n") == 1
    assert json.loads(out) == {"error": "budget exceeded", "detail": "time budget 1.0s exceeded"}


def test_partition_check_transitive_honours_budget_seconds(capsys, tmp_path):
    # a 1000-cycle with the chord 0-500 has no shift of its singleton
    # classes, as two vertices have degree 3; every window up to length 500
    # is a path, and the window test builds 500,000 of them before a chord
    # refutes it, far more than the budget allows
    graph = tmp_path / "chord.json"
    chord = Graph.from_edges(1000, cycle(1000).edges() + [(0, 500)])
    graph.write_text(dump_json(graph_to_json(chord)), encoding="utf-8")
    path = tmp_path / "singletons.json"
    path.write_text(dump_json({"parts": [[v] for v in range(1000)]}), encoding="utf-8")
    start = time.monotonic()
    code, doc = run(capsys, "partition", "check", "--graph", f"@{graph}",
                    "--partition", str(path), "--transitive", "--budget-seconds", "0.5")
    assert time.monotonic() - start < 5
    assert code == 3 and doc["error"] == "budget exceeded"


def test_partition_check_transitive_answers_on_the_singletons_of_cycle_1000(capsys, tmp_path):
    path = tmp_path / "singletons.json"
    path.write_text(dump_json({"parts": [[v] for v in range(1000)]}), encoding="utf-8")
    start = time.monotonic()
    code, doc = run(capsys, "partition", "check", "--graph", "cycle:1000",
                    "--partition", str(path), "--transitive")
    assert time.monotonic() - start < 2
    assert code == 0 and doc == {"valid": True, "parts": 1000, "transitive": True}


def test_partition_check_transitive_answers_on_the_singletons_of_cycle_100(capsys, tmp_path):
    path = tmp_path / "singletons.json"
    path.write_text(dump_json({"parts": [[v] for v in range(100)]}), encoding="utf-8")
    start = time.monotonic()
    code, doc = run(capsys, "partition", "check", "--graph", "cycle:100",
                    "--partition", str(path), "--transitive")
    assert time.monotonic() - start < 2
    assert code == 0 and doc["valid"] and doc["transitive"] is True


def test_decomposition_check(capsys, tmp_path):
    doc_in = {
        "pieces": [
            {"vertices": [0, 2, 3, 4], "edges": [[0, 2], [0, 3], [0, 4]]},
            {"vertices": [1, 2, 3, 4], "edges": [[1, 2], [1, 3], [1, 4]]},
        ]
    }
    path = tmp_path / "stars.json"
    path.write_text(dump_json(doc_in), encoding="utf-8")
    code, doc = run(capsys, "decomposition", "check", "--graph", "kmn:2:3",
                    "--decomposition", str(path), "--transitive")
    assert code == 0 and doc["valid"] and doc["transitive"]
    code, doc = run(capsys, "decomposition", "check", "--graph", "kmn:2:3",
                    "--decomposition", str(path))
    assert code == 0 and doc == {"valid": True, "pieces": 2}


@pytest.mark.parametrize("command, doc_in, message", [
    ("partition", {"parts": [[0, 1, 2], [0, 3, 4, 5, 6, 7, 8]]}, "vertex 0 appears in two parts"),
    ("decomposition", {"pieces": [{"vertices": [0, 4], "edges": [[0, 4]]}]},
     "piece 0: edge (0, 4) is not in the graph"),
])
def test_structure_check_transitive_refuses_an_invalid_structure(capsys, tmp_path, command, doc_in, message):
    # under --transitive the structure is validated by the transitivity test
    # alone, which must still refuse it with the validator's message
    path = tmp_path / "structure.json"
    path.write_text(dump_json(doc_in), encoding="utf-8")
    code, doc = run(capsys, command, "check", "--graph", "torus:3:3",
                    f"--{command}", str(path), "--transitive")
    assert code == 2 and doc["error"] == "invalid input" and message in doc["detail"]


def test_drawing_check_valid_and_invalid(capsys, tmp_path):
    good = {"surface": "plane", "graph": graph_to_json(parse_graph_spec("circulant:8:1,4")),
            "crossings": [[[0, 4], [1, 5]]]}
    path = tmp_path / "d.json"
    path.write_text(dump_json(good), encoding="utf-8")
    code, doc = run(capsys, "drawing", "check", "--drawing", str(path))
    assert code == 0 and doc["valid"] and doc["cr_total"] == 1

    bad = {"surface": "plane", "graph": graph_to_json(cycle(4)), "crossings": [[[0, 1], [1, 2]]]}
    path.write_text(dump_json(bad), encoding="utf-8")
    code, doc = run(capsys, "drawing", "check", "--drawing", str(path))
    assert code == 1 and not doc["valid"]
    assert doc["violations"][0]["kind"] == "adjacent-pair"


def test_drawing_check_reads_no_file_the_drawing_names(capsys, tmp_path, monkeypatch):
    # the convex drawing holds its graph inline; with a spec, or the name of
    # g.json, a valid graph file in the working directory, in its place, it
    # is refused
    monkeypatch.chdir(tmp_path)
    code, doc = run(capsys, "drawing", "convex", "--graph", "circulant:12:1,4")
    Path("d.json").write_text(dump_json(doc), encoding="utf-8")
    assert run(capsys, "drawing", "check", "--drawing", "d.json") == (
        0, {"valid": True, "cr_total": 36})
    code, graph = run(capsys, "generate", "--graph", "circulant:12:1,4")
    Path("g.json").write_text(dump_json(graph), encoding="utf-8")
    for name in ["circulant:12:1,4", "@g.json"]:
        Path("named.json").write_text(dump_json({**doc, "graph": name}), encoding="utf-8")
        _refused(capsys, "drawing", "check", "--drawing", "named.json")


def test_drawing_convex(capsys):
    code, doc = run(capsys, "drawing", "convex", "--graph", "complete:5")
    assert code == 0 and doc["cr_total"] == 5
    assert len(doc["crossings"]) == 5


def test_drawing_parity(capsys, tmp_path):
    graph = {"n": 6, "edges": [[0, 2], [2, 4], [0, 4], [1, 3], [3, 5], [1, 5]]}
    even = {"surface": "plane", "graph": graph,
            "crossings": [[[0, 2], [1, 3]], [[2, 4], [3, 5]]]}
    path = tmp_path / "d.json"
    path.write_text(dump_json(even), encoding="utf-8")
    code, doc = run(capsys, "drawing", "parity", "--drawing", str(path),
                    "--cycle-a", "0-2,2-4,0-4", "--cycle-b", "1-3,3-5,1-5")
    assert code == 0 and doc["parity"] == "even"

    odd = dict(even, crossings=[[[0, 2], [1, 3]]])
    path.write_text(dump_json(odd), encoding="utf-8")
    code, doc = run(capsys, "drawing", "parity", "--drawing", str(path),
                    "--cycle-a", "0-2,2-4,0-4", "--cycle-b", "1-3,3-5,1-5")
    assert code == 1 and doc["parity"] == "odd"


def test_drawing_parity_and_check_read_the_convex_circulant_12(capsys, tmp_path):
    code, doc = run(capsys, "drawing", "convex", "--graph", "circulant:12:1,4")
    path = tmp_path / "d.json"
    path.write_text(dump_json(doc), encoding="utf-8")
    parity = ["drawing", "parity", "--drawing", str(path), "--cycle-b", "1-5,5-9,9-1"]
    assert main([*parity, "--cycle-a", "0-4,4-8,8-0"]) == 0
    assert capsys.readouterr().out == '{"parity":"even"}\n'
    _refused(capsys, *parity, "--cycle-a", "0-4,4-8")
    # an id written as 0.0, and a crossing entry of three edges
    assert doc["crossings"][0] == [[0, 4], [1, 5]]
    for first in [[[0.0, 4], [1, 5]], [[0, 4], [1, 5], [2, 6]]]:
        path.write_text(dump_json({**doc, "crossings": [first, *doc["crossings"][1:]]}),
                        encoding="utf-8")
        _refused(capsys, "drawing", "check", "--drawing", str(path))


def test_drawing_certify(capsys, tmp_path):
    drawing = tmp_path / "d.json"
    pieces = tmp_path / "p.json"
    # C_4 drawn without crossings, split into two paths
    drawing.write_text(dump_json({"graph": graph_to_json(cycle(4)), "crossings": []}),
                       encoding="utf-8")
    pieces.write_text(dump_json({
        "pieces": [
            {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]]},
            {"vertices": [0, 2, 3], "edges": [[2, 3], [0, 3]]},
        ]
    }), encoding="utf-8")
    code, doc = run(capsys, "drawing", "certify", "--drawing", str(drawing),
                    "--pieces", str(pieces), "--h", "0")
    assert code == 0 and doc["found"]
    # no crossings at all, so no rotation keeps the prefixes under -1/2
    code, doc = run(capsys, "drawing", "certify", "--drawing", str(drawing),
                    "--pieces", str(pieces), "--h", "-1")
    assert code == 1 and doc == {"found": False, "cr_total": 0, "h": "-1"}


def _circulant12_drawing_and_fans(capsys, tmp_path):
    """The convex drawing of circulant(12; 1, 4), 36 crossings, and its 12 fans."""
    drawing, pieces = tmp_path / "d.json", tmp_path / "p.json"
    code, doc = run(capsys, "drawing", "convex", "--graph", "circulant:12:1,4")
    assert code == 0 and doc["cr_total"] == 36
    drawing.write_text(dump_json(doc), encoding="utf-8")
    pieces.write_text(dump_json(decomposition_to_json(circulant14_decomposition(3))),
                      encoding="utf-8")
    return ["drawing", "certify", "--drawing", str(drawing), "--pieces", str(pieces)]


@pytest.mark.parametrize("h,direction,expected", [
    ("36", "below", 0), ("35", "below", 1), ("36", "above", 0), ("37", "above", 1),
    # nudged by 1/2, 357/10 would certify 36 crossings as at most 35.7
    ("357/10", "below", 2), ("36.0", "below", 2), ("36/1", "above", 2), ("3_6", "below", 2),
])
def test_drawing_certify_takes_an_integer_h(capsys, tmp_path, h, direction, expected):
    argv = [*_circulant12_drawing_and_fans(capsys, tmp_path), "--h", h]
    calls = [[*argv, "--direction", direction]]
    if direction == "below":
        calls.append(argv)  # the direction when none is given
    for call in calls:
        code, doc = run(capsys, *call)
        assert code == expected
        if expected == 2:
            assert doc["error"] == "invalid input" and "--h" in doc["detail"]
        else:
            assert doc["found"] is (expected == 0)


@pytest.mark.parametrize("command", ["corollary", "drawing certify"])
def test_epsilon_is_no_option_of_the_integer_bounds(capsys, tmp_path, command):
    # `certify sum --direction equality --epsilon` keeps it: there it is
    # written into the certificate (test_certify_sum_equality)
    if command == "corollary":
        argv = ["domination", "corollary", "--graph", "torus:3:3", "--partition", "columns:3:3",
                "--h", "3"]
    else:
        argv = [*_circulant12_drawing_and_fans(capsys, tmp_path), "--h", "36"]
    assert run(capsys, *argv)[0] == 0
    code, doc = run(capsys, *argv, "--epsilon", "1/2")
    assert code == 2 and doc["error"] == "invalid input" and "--epsilon" in doc["detail"]


GENERATE_SPECS = ("cycle:5", "torus:3:4", "circulant:12:1,4", "complete:5", "kmn:2:3")


def test_generate_text_matches_library(capsys):
    # the text `generate` prints is the library's JSON encoding of the graph
    for spec in GENERATE_SPECS:
        assert main(["generate", "--graph", spec]) == 0
        assert capsys.readouterr().out == dump_json(graph_to_json(parse_graph_spec(spec))), spec


def test_generate_json(capsys, tmp_path):
    # what `generate` prints, one line, `@path` reads back to the same bytes,
    # and a solve reads as the graph it names
    path = tmp_path / "g.json"
    for spec in GENERATE_SPECS:
        assert main(["generate", "--graph", spec]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and json.loads(out)["n"] == parse_graph_spec(spec).n
        path.write_text(out, encoding="utf-8")
        assert main(["generate", "--graph", f"@{path}"]) == 0
        assert capsys.readouterr().out == out, spec
        code, doc = run(capsys, "domination", "solve", "--graph", f"@{path}")
        assert (code, doc["value"]) == (0, min_parameter(parse_graph_spec(spec), Variant.DOMINATING).value)


def test_generate_bad_spec_is_input_error(capsys, tmp_path):
    code, doc = run(capsys, "generate", "--graph", "blob:9")
    assert code == 2 and doc["error"] == "invalid input"
    detail = _refused(capsys, "generate", "--graph", "circulant:12:1,4,4")["detail"]
    assert "stride 4 is repeated" in detail
    # a vertex count past sys.maxsize is refused before any loop over it
    huge = str(10**20)
    big = tmp_path / "big.json"
    big.write_text(dump_json({"n": 10**20, "edges": []}), encoding="utf-8")
    specs = [f"cycle:{huge}", f"complete:{huge}", f"kmn:{huge}:1", f"@{big}",
             f"torus:3:{huge}", f"circulant:{huge}:1"]
    cases = [["generate", "--graph", spec] for spec in specs] + [
        ["partition", "check", "--graph", "torus:3:3", "--partition", f"columns:3:{huge}"],
        ["reproduce", "--suite", "t1", "--n", huge, "--budget-nodes", "10"],
        ["reproduce", "--suite", "t1", "--n", huge],
    ]
    for argv in cases:
        assert "exceeds sys.maxsize" in _refused(capsys, *argv)["detail"]


def test_reproduce_structures_quick(capsys):
    code, doc = run(capsys, "reproduce", "--suite", "structures", "--quick")
    assert code == 0 and doc["ok"]
    assert all(r["ok"] for r in doc["results"])


def test_reproduce_structures_honours_the_node_budget(capsys):
    code, doc = run(capsys, "reproduce", "--suite", "structures", "--budget-nodes", "1")
    assert code == 3 and doc["error"] == "budget exceeded"
    # the quick instances spend 28 nodes in their shift searches and try no
    # candidate partition
    code, doc = run(capsys, "reproduce", "--suite", "structures", "--quick", "--budget-nodes", "28")
    assert code == 0 and doc["ok"]
    code, doc = run(capsys, "reproduce", "--suite", "structures", "--quick", "--budget-nodes", "27")
    assert code == 3 and doc == {"error": "budget exceeded", "detail": "node budget 27 exceeded"}


def test_reproduce_structures_honours_budget_seconds(capsys):
    code, doc = run(capsys, "reproduce", "--suite", "structures", "--budget-seconds", "0")
    assert code == 3 and doc == {"error": "budget exceeded", "detail": "time budget 0.0s exceeded"}


def test_reproduce_spends_one_budget_across_its_instances(capsys):
    # the three n4 instances spend 100, 632 and 2,897 nodes: each fits
    # in 3,000, all three do not
    code, doc = run(capsys, "reproduce", "--suite", "n4", "--budget-nodes", "3000")
    assert code == 3 and doc == {"error": "budget exceeded",
                                 "detail": "node budget 3000 exceeded"}
    code, doc = run(capsys, "reproduce", "--suite", "n4", "--budget-nodes", "3629")
    assert code == 0 and doc["ok"] is True


def test_reproduce_t1_quick(capsys):
    code, doc = run(capsys, "reproduce", "--suite", "t1", "--quick")
    assert code == 0 and doc["suite"] == "t1" and doc["ok"] is True
    assert [r["n"] for r in doc["results"]] == [3, 4]
    assert [r["value"] for r in doc["results"]] == [4, 6]
    assert [r["expected"] for r in doc["results"]] == [4, 6]
    for r in doc["results"]:
        assert r["match"] is True
        assert len(r["witness"]) == r["value"]
        assert is_paired_dominating(cartesian_cycles(5, r["n"]), r["witness"])


@pytest.mark.parametrize("suite, stdout", [
    ("t1", '{"suite":"t1","results":[{"n":3,"value":4,"expected":4,"match":true,'
           '"witness":[0,1,8,11]},{"n":4,"value":6,"expected":6,"match":true,'
           '"witness":[0,1,10,11,14,15]}],"ok":true}'),
    ("n4", '{"suite":"n4","results":[{"n":3,"value":6,"expected":6,"match":true,'
           '"witness":[6,7,8,9,10,11]}],"ok":true}'),
])
def test_reproduce_quick_stdout_is_pinned(capsys, suite, stdout):
    assert main(["reproduce", "--suite", suite, "--quick"]) == 0
    assert capsys.readouterr().out == stdout + "\n"


def test_reproduce_n4_quick(capsys):
    code, doc = run(capsys, "reproduce", "--suite", "n4", "--quick")
    assert code == 0 and doc["suite"] == "n4" and doc["ok"] is True
    [r] = doc["results"]
    assert r["n"] == 3 and r["value"] == 6 and r["expected"] == 6 and r["match"] is True
    assert len(r["witness"]) == 6
    assert is_minimal_total_dominating(cartesian_cycles(4, 3), r["witness"])


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    calls = [
        ["certify", "sum", "--list", "1,2", "--h", "4"],
        ["certify", "sum", "--list", "1,2", "--h", "3", "--direction", "equality"],
        ["sideways"],
        ["generate", "--graph", "cycle:4"],
        ["partition", "check", "--graph", "torus:3:3", "--partition", "columns:3:3"],
        ["domination", "solve", "--graph", "torus:3:3"],
        ["drawing", "convex", "--graph", "cycle:5"],
    ]
    run(capsys, *calls[0])
    assert built, "the first call builds the parser"
    built.clear()
    for i in range(1, 50):
        run(capsys, *calls[i % len(calls)])
    assert built == []


def test_calls_in_one_process_share_no_state(capsys, monkeypatch):
    code, doc = run(capsys, "certify", "sum", "--list", "1,2")
    assert code == 2
    code, doc = run(capsys, "certify", "sum", "--list", "1,2", "--h", "4")
    assert code == 0 and doc["found"]
    # each suite keeps its own row: the paired value of C5xC3 is 4, the
    # upper total of C4xC3 is 6
    for _ in range(2):
        code, doc = run(capsys, "reproduce", "--suite", "t1", "--n", "3")
        assert code == 0 and doc["results"][0]["expected"] == 4
        code, doc = run(capsys, "reproduce", "--suite", "n4", "--n", "3")
        assert code == 0 and doc["results"][0]["expected"] == 6
    code, doc = run(capsys, "reproduce", "--suite", "n4", "--budget-nodes", "3000")
    assert code == 3
    code, doc = run(capsys, "reproduce", "--suite", "n4", "--quick")
    assert code == 0 and doc["ok"] is True
    # the parser is built by now; the handler must still find the rebinding
    checked = []
    real = cli.is_transitive_partition
    monkeypatch.setattr(cli, "is_transitive_partition",
                        lambda *args: checked.append(args) or real(*args))
    code, doc = run(capsys, "partition", "check", "--graph", "torus:3:3",
                    "--partition", "columns:3:3", "--transitive")
    assert code == 0 and doc["transitive"] is True and len(checked) == 1
