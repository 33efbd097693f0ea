"""The benchmark script's paired reach: a node cap makes it repeatable."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_script():
    path = os.path.join(ROOT, "scripts", "bench_searches.py")
    spec = importlib.util.spec_from_file_location("bench_searches", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paired_reach_stops_at_the_first_n_past_the_node_cap():
    # each C5xCn up to n = 9 takes under 3,000 nodes and C5xC10 3,378, so
    # both runs stop at n = 10 whatever the clock reads
    script = _load_script()
    runs = [script.paired_reach(ROOT, 3_000) for _ in range(2)]
    for reach in runs:
        assert reach["largest_n"] == 9
        assert reach["runs"][-1]["n"] == 10 and not reach["runs"][-1]["decided"]
        assert [r["n"] for r in reach["runs"]] == list(range(3, 11))
    fields = [[(r["n"], r["decided"], r["nodes"]) for r in reach["runs"]] for reach in runs]
    assert fields[0] == fields[1]
