"""The benchmark script: a node cap makes its paired and upper total reach
repeatable, its end-to-end part runs the workload it is given, its drawing
rows count the drawing they time and screen its parity, its partition row
runs the workload's search, its short searches run nine times with their
minimum kept, and its certificate rows time each step, the CLI round trip
at n = 10^3 and 10^4 included, on both sides with the least run kept."""

import importlib.util
import json
import os
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_script():
    path = os.path.join(ROOT, "scripts", "bench_searches.py")
    spec = importlib.util.spec_from_file_location("bench_searches", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_reach(family, cap, largest):
    # node counts, not the clock, stop both runs at the same n
    script = _load_script()
    runs = [script.reach(ROOT, family, cap) for _ in range(2)]
    for reach in runs:
        assert reach["largest_n"] == largest
        assert reach["runs"][-1]["n"] == largest + 1 and not reach["runs"][-1]["decided"]
        assert [r["n"] for r in reach["runs"]] == list(range(3, largest + 2))
    fields = [[(r["n"], r["decided"], r["nodes"]) for r in reach["runs"]] for reach in runs]
    assert fields[0] == fields[1]


def test_paired_reach_stops_at_the_first_n_past_the_node_cap():
    # each C5xCn up to n = 11 takes under 3,000 nodes and C5xC12 3,029
    _check_reach("paired", 3_000, 11)


def test_upper_total_reach_stops_at_the_first_n_past_the_node_cap():
    # C4xC3, C4xC4 and C4xC5 take 100, 632 and 2,897 nodes, C4xC6 13,539
    _check_reach("upper_total", 3_000, 5)


def test_end_to_end_runs_the_named_workload_and_alternates_the_first_side(monkeypatch):
    script = _load_script()
    calls = []

    def run(argv, cwd, **kwargs):
        calls.append((cwd, argv[argv.index("--workload") + 1], argv[argv.index("--seed") + 1]))
        metrics = {m: {"value": 1.0 if cwd == "p" else 0.5} for m in script.METRICS}
        line = json.dumps({"correct": True, "failed": 0, "metrics": metrics})
        return subprocess.CompletedProcess(argv, 0, stdout=f"provenance\n{line}\n")

    monkeypatch.setattr(script.subprocess, "run", run)
    record = script.end_to_end({"parent": "p", "change": "c"}, "structures-crossing", 7, 2, 1.0)
    assert calls == [("p", "structures-crossing", "7"), ("c", "structures-crossing", "7"),
                     ("c", "structures-crossing", "8"), ("p", "structures-crossing", "8")]
    assert record["workload"] == "structures-crossing"
    assert "--workload structures-crossing" in record["method"]
    assert [p["first"] for p in record["pairs"]] == ["parent", "change"]
    assert record["summary"]["wall_s"]["change_better_in_pairs"] == 2
    assert record["summary"]["entries_per_s"]["change_better_in_pairs"] == 0


def test_a_drawing_row_counts_the_crossings_of_the_drawing_it_times():
    script = _load_script()
    assert "jordan_parity_screen" in script.CALLS
    for arrange in ("identity", "rotated", "shuffled"):
        got = script._child(ROOT, script.DRAWING_CHILD, 3, arrange)
        assert all(got[call] >= 0 for call in script.CALLS)
        # the screen runs on two disjoint stride-4 cycles of a real drawing
        assert got["parity"] == "even"
        if arrange != "shuffled":  # a turn of the circle keeps the drawing
            assert got["crossings"] == 36


def test_the_partition_search_row_runs_the_workload_search():
    script = _load_script()
    graph, call, runs = script.SEARCHES["find partition K3,4 t=7"]
    got = script._child(ROOT, script.CHILD, graph, call, 10**9)
    assert got["decided"] and got["nodes"] == 245 and runs == 9


def test_a_certificate_row_times_each_step_on_both_sides(monkeypatch):
    script = _load_script()
    assert "equality_certificate" in script.CERTIFICATE_CALLS
    for n, loops, round_trip in ((1000, 1, 1), (6, 10, 0)):
        got = script._child(ROOT, script.CERTIFICATE_CHILD, n, loops, round_trip)
        calls = script.CERTIFICATE_CALLS + (script.ROUND_TRIP_CALLS if round_trip else ())
        assert set(got) == set(calls) and all(t >= 0 for t in got.values())
    seen = []

    def child(tree, source, n, loops, round_trip):
        seen.append((tree, n, loops, round_trip))
        calls = script.CERTIFICATE_CALLS + (script.ROUND_TRIP_CALLS if round_trip else ())
        return {call: 2e-6 if tree == "p" else 1e-6 for call in calls}

    monkeypatch.setattr(script, "_child", child)
    out = script.per_certificate({"parent": "p", "change": "c"})
    sizes = ["n=6", "n=12", "n=1000", "n=10000", "n=100000"]
    assert list(out) == [f"n={n}" for n in script.CERTIFICATE_SIZES] == sizes
    # a call on a short list is the mean of a loop of 10^4, a long one is timed alone
    assert script.CERTIFICATE_SIZES == {6: 10**4, 12: 10**4, 1000: 1, 10000: 1, 100000: 1}
    # the looped rows run nine times a side, the others five
    runs = {6: 9, 12: 9, 1000: 5, 10000: 5, 100000: 5}
    assert (script.SHORT_RUNS, script.CERTIFICATE_RUNS) == (9, 5)
    assert seen[:4] == [("p", 6, 10**4, 0), ("c", 6, 10**4, 0), ("c", 6, 10**4, 0), ("p", 6, 10**4, 0)]
    assert len(seen) == 2 * sum(runs.values())
    # only the 10^3 and 10^4 rows time the CLI round trip
    assert {(n, rt) for _, n, _, rt in seen} == {(6, 0), (12, 0), (1000, 1), (10000, 1), (100000, 0)}
    for n, row in zip(runs, out.values()):
        calls = script.CERTIFICATE_CALLS + (script.ROUND_TRIP_CALLS if n in (1000, 10000) else ())
        assert set(row) == {"parent", "change", "change_vs_parent"}
        for side, seconds in (("parent", 2e-6), ("change", 1e-6)):
            assert set(row[side]) == set(calls)
            # four significant figures, not a fixed count of decimals
            for timing in row[side].values():
                assert timing == {"median_s": seconds, "min_s": seconds, "runs_s": [seconds] * runs[n]}
        assert row["change_vs_parent"] == {call: -0.5 for call in calls}


def test_a_timed_row_keeps_the_least_run_beside_the_median():
    script = _load_script()
    got = {"parent": [{"f": 3e-3}, {"f": 1e-3}, {"f": 2e-3}], "change": [{"f": 5e-4}, {"f": 4e-4}, {"f": 9e-4}]}
    row = script._timed_row(got, ("f",))
    assert row["parent"]["f"] == {"median_s": 2e-3, "min_s": 1e-3, "runs_s": [3e-3, 1e-3, 2e-3]}
    assert row["change"]["f"] == {"median_s": 5e-4, "min_s": 4e-4, "runs_s": [5e-4, 4e-4, 9e-4]}
    assert row["change_vs_parent"] == {"f": -0.75}


def test_a_search_of_a_few_milliseconds_runs_nine_times_and_keeps_its_minimum(monkeypatch):
    script = _load_script()
    seconds = {"short": {"p": [0.009, 0.004, 0.005], "c": [0.003, 0.004, 0.008]},
               "long": {"p": [0.5, 0.3, 0.4], "c": [0.05, 0.2, 0.06]}}
    seen = []

    def child(tree, source, graph, call, nodes):
        run = sum(1 for t, g in seen if (t, g) == (tree, graph))
        seen.append((tree, graph))
        return {"nodes": 7, "s": seconds[graph][tree][run % 3]}

    searches = {"short one": ("short", "call", 3), "long one": ("long", "call", 3)}
    monkeypatch.setattr(script, "SEARCHES", searches)
    monkeypatch.setattr(script, "_child", child)
    out = script.per_search({"parent": "p", "change": "c"})
    assert script.SHORT_RUNS == 9 and script.SHORT_S == 0.01
    # a short search's three first runs are followed by six more, alternating on
    short = [t for t, g in seen if g == "short"]
    assert short == (["p", "c", "c", "p"] * 5)[:18]
    assert [t for t, g in seen if g == "long"] == ["p", "c", "c", "p", "p", "c"]
    row = out["short one"]
    assert len(row["parent"]["runs_s"]) == len(row["change"]["runs_s"]) == 9
    assert (row["parent"]["min_s"], row["parent"]["median_s"]) == (0.004, 0.005)
    assert (row["change"]["min_s"], row["change"]["median_s"]) == (0.003, 0.004)
    row = out["long one"]
    assert len(row["parent"]["runs_s"]) == 3
    assert (row["parent"]["min_s"], row["parent"]["median_s"]) == (0.3, 0.4)
    assert (row["change"]["min_s"], row["change"]["median_s"]) == (0.05, 0.06)
    assert row["change_vs_parent"] == -0.85
