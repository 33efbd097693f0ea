"""Record the searches, drawings and a benchmark workload of two checkouts
side by side as a BENCH_*.json.

Usage, from the root of a checkout:

    python3 scripts/bench_searches.py --parent ../parent --out BENCH_26.json

--parent is a checkout of the commit to compare against (a `git clone` of
it, so that its commit can be read), and --change the checkout under test,
by default the one this script sits in.  Stdlib only.  The record has six
parts, each run in fresh interpreters on each tree's `src`:

- end_to_end: `perfbench/run.py --workload W` from the root of each
  checkout, W given by --workload (search-tori by default), seeds --seed
  onwards, which side runs first alternating from pair to pair;
- per_search: nodes and the median and least seconds of 5 calls of each
  search (9 for the README's pair, and for every search whose first runs
  take under 10 ms, as such short runs spread widely) on a fresh budget,
  graphs built outside the timing, parent and change alternating and the
  order swapped every run;
- per_drawing: the crossing count and the median seconds of
  `convex_drawing`, of two `decomposition_weights` calls on the drawing it
  returns and of `jordan_parity_screen` on the workload's two stride-4
  cycles, for the two drawings of the structures-crossing workload and for
  C(20000;{1,4}), alternating like per_search.  The first weights call also
  validates the drawing and the decomposition; a tree that keeps the
  weights on the drawing answers the second from there, and an older tree
  validates the decomposition again;
- per_certificate: the median seconds of 5 calls each of `find_rotation`,
  `verify_certificate`, `equality_certificate`, `certificate_to_json` with
  `dump_json`, and `certificate_from_json`, on a seeded list of n
  mixed-denominator entries for n = 6, 12, 10^3, 10^4 and 10^5, alternating
  like per_search; at n = 6 and 12 each of the 5 is the mean of a loop of
  10^4 calls, as one call takes a few microseconds, and those two rows run
  9 times on each side, as such short runs spread widely.  Rows for n = 10^3
  and 10^4 also time an in-process `certify sum` and `certify verify` of the
  same list through `cli.main`.  Each side keeps its least run beside the
  median;
- reach: `min_parameter` paired on C5xCn and `max_minimal_parameter` total
  on C4xCn, for n = 3, 4, ... under a --reach-nodes cap, each up to the
  first n that passes it.  Node counts are deterministic, so the reach is
  the same on every run; the clock is only a safety stop, at 600 s;
- the README's dominating 5x8 comparison, as two more searches.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# name -> (graph expression, call on g and budget b, timed runs)
SEARCHES = {
    "min paired C5xC13": ("cartesian_cycles(5, 13)", "min_parameter(g, Variant.PAIRED, b)", 5),
    # 3 runs: the id-order solvers take about 3 s on each of these two
    "min paired C5xC26": ("cartesian_cycles(5, 26)", "min_parameter(g, Variant.PAIRED, b)", 3),
    "max-minimal total C4xC8": (
        "cartesian_cycles(4, 8)", "max_minimal_parameter(g, Variant.TOTAL, b)", 3),
    "min total C7xC7": ("cartesian_cycles(7, 7)", "min_parameter(g, Variant.TOTAL, b)", 5),
    "min dominating C7xC7": ("cartesian_cycles(7, 7)", "min_parameter(g, Variant.DOMINATING, b)", 5),
    "max-minimal total C4xC6": (
        "cartesian_cycles(4, 6)", "max_minimal_parameter(g, Variant.TOTAL, b)", 5),
    "max-minimal dominating C5xC5": (
        "cartesian_cycles(5, 5)", "max_minimal_parameter(g, Variant.DOMINATING, b)", 5),
    "decide dominating C5xC7 h=8": (
        "(cartesian_cycles(5, 7), columns_partition(5, 7), column_shift_symmetry(5, 7))",
        "decide_parameter_via_prefix(*g, Variant.DOMINATING, 8, budget=b)", 5),
    "decide paired C5xC7 h=10": (
        "(cartesian_cycles(5, 7), columns_partition(5, 7), column_shift_symmetry(5, 7))",
        "decide_parameter_via_prefix(*g, Variant.PAIRED, 10, budget=b)", 5),
    "rd C5xC8 h=10": (
        "(cartesian_cycles(5, 8), columns_partition(5, 8), column_shift_symmetry(5, 8))",
        "rd_prefix_pruned_search(*g, 10, budget=b)", 5),
    # 3 runs, as in the earlier records of this row: on the cover search it
    # takes 8,473 nodes, about 0.015 s (2-core Xeon VM, Python 3.11)
    "decide dominating C7xC7 h=12": (
        "(cartesian_cycles(7, 7), columns_partition(7, 7), column_shift_symmetry(7, 7))",
        "decide_parameter_via_prefix(*g, Variant.DOMINATING, 12, budget=b)", 3),
    "min dominating C8xC8": ("cartesian_cycles(8, 8)", "min_parameter(g, Variant.DOMINATING, b)", 5),
    "min total C7xC8": ("cartesian_cycles(7, 8)", "min_parameter(g, Variant.TOTAL, b)", 5),
    "min dominating C5xC8": ("cartesian_cycles(5, 8)", "min_parameter(g, Variant.DOMINATING, b)", 9),
    "decide dominating C5xC8 h=10": (
        "(cartesian_cycles(5, 8), columns_partition(5, 8), column_shift_symmetry(5, 8))",
        "decide_parameter_via_prefix(*g, Variant.DOMINATING, 10, budget=b)", 9),
    # the structures-crossing workload's partition search; there is none
    "find partition K3,4 t=7": ("complete_bipartite(3, 4)", "find_transitive_partition(g, 7, b)", 9),
}

CHILD = """
import json, sys, time
from cyclecert.domination import *
from cyclecert.graphs import cartesian_cycles, complete_bipartite
from cyclecert.structures import column_shift_symmetry, columns_partition, find_transitive_partition
graph, call, nodes = sys.argv[1], sys.argv[2], int(sys.argv[3])
g = eval(graph)
b = SearchBudget(max_nodes=nodes, max_seconds=600)
start = time.perf_counter()
try:
    eval(call)
    decided = True
except BudgetExceededError:
    decided = False
print(json.dumps({"decided": decided, "nodes": b.nodes, "s": time.perf_counter() - start}))
"""

# name -> (k of circulant(4k; 1, 4), circle order, timed runs)
DRAWINGS = {
    "circulant200 shuffled": (50, "shuffled", 9),
    "circulant400 rotated": (100, "rotated", 9),
    # 3 runs: a pair loop over its 40,000 edges takes about 30 s a call
    "circulant20000": (5000, "identity", 3),
}

DRAWING_CHILD = """
import json, random, sys, time
from cyclecert.crossing import convex_drawing, decomposition_weights, jordan_parity_screen
from cyclecert.graphs import circulant
from cyclecert.structures import circulant14_decomposition
k, arrange = int(sys.argv[1]), sys.argv[2]
n = 4 * k
g, dec = circulant(n, [1, 4]), circulant14_decomposition(k)
order = list(range(n))
rng = random.Random(1)
if arrange == "shuffled":
    rng.shuffle(order)
elif arrange == "rotated":
    turn = rng.randrange(n)
    order = order[turn:] + order[:turn]
cyc_a = [(4 * i, 4 * (i + 1) % n) for i in range(k)]
cyc_b = [(4 * i + 1, (4 * i + 5) % n) for i in range(k)]
start = time.perf_counter()
d = convex_drawing(g, order)
convex = time.perf_counter() - start
weights = []
for _ in range(2):
    start = time.perf_counter()
    decomposition_weights(d, dec)
    weights.append(time.perf_counter() - start)
start = time.perf_counter()
parity = jordan_parity_screen(d, cyc_a, cyc_b)
screen = time.perf_counter() - start
print(json.dumps({"crossings": len(d.crossings), "parity": parity.value, "convex_drawing": convex,
                  "decomposition_weights": weights[0], "decomposition_weights_again": weights[1],
                  "jordan_parity_screen": screen}))
"""
CALLS = ("convex_drawing", "decomposition_weights", "decomposition_weights_again", "jordan_parity_screen")

# n of the seeded lists, each of entries p/q with |p| <= 50 and q in 1..12,
# -> calls per timed loop: a call on a short list takes a few microseconds
CERTIFICATE_SIZES = {6: 10**4, 12: 10**4, 10**3: 1, 10**4: 1, 10**5: 1}
CERTIFICATE_RUNS = 5
# n whose row also times the CLI round trip
ROUND_TRIP_SIZES = (10**3, 10**4)

CERTIFICATE_CHILD = """
import contextlib, io, json, os, random, statistics, sys, tempfile, time
from fractions import Fraction
from cyclecert import cli
from cyclecert.cyclic_core import (
    BoundSpec, Direction, cyclic_list, equality_certificate, find_rotation, total, verify_certificate)
from cyclecert.formats import certificate_from_json, certificate_to_json, dump_json
n, loops, round_trip = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3] == "1"
rng = random.Random(n)
cl = cyclic_list([Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(n)])
h = total(cl) + 1
cert = find_rotation(cl, h, Direction.BELOW)
assert verify_certificate(cl, h, cert)
doc = json.loads(dump_json(certificate_to_json(cert, h)))
bound = BoundSpec(total(cl), Fraction(1, 2))
assert equality_certificate(cl, bound) is not None
calls = {
    "find_rotation": lambda: find_rotation(cl, h, Direction.BELOW),
    "verify_certificate": lambda: verify_certificate(cl, h, cert),
    "equality_certificate": lambda: equality_certificate(cl, bound),
    "certificate_to_json+dump_json": lambda: dump_json(certificate_to_json(cert, h)),
    "certificate_from_json": lambda: certificate_from_json(doc, cl),
}
if round_trip:
    listing = "--list=" + ",".join(map(str, cl.values))
    summing = ["certify", "sum", listing, f"--h={h}"]
    folder = tempfile.TemporaryDirectory()
    path = os.path.join(folder.name, "cert.json")
    verifying = ["certify", "verify", listing, "--certificate", path]

    def main(argv, code):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == code
        return out.getvalue()

    def both():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(main(summing, 0))
        main(verifying, 0)

    both()  # builds the parser and writes the file certify verify reads
    calls["cli certify sum"] = lambda: main(summing, 0)
    calls["cli certify verify"] = lambda: main(verifying, 0)
    calls["cli certify sum+verify"] = both
out = {}
for name, call in calls.items():
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(loops):
            call()
        times.append((time.perf_counter() - start) / loops)
    out[name] = statistics.median(times)
print(json.dumps(out))
"""
CERTIFICATE_CALLS = ("find_rotation", "verify_certificate", "equality_certificate",
                     "certificate_to_json+dump_json", "certificate_from_json")
ROUND_TRIP_CALLS = ("cli certify sum", "cli certify verify", "cli certify sum+verify")

METRICS = {
    "wall_s": "lower", "setup_s": "lower", "peak_rss_mb": "lower", "ops_ok_ratio": "higher",
    "cert_p50_us": "lower", "cert_p99_us": "lower", "entries_per_s": "higher", "reproduce_s": "lower",
}


def _child(tree: str, source: str, *args: object) -> dict:
    """Run source in a fresh interpreter on tree's src; its stdout is JSON."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    out = subprocess.run([sys.executable, "-c", source, *map(str, args)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _commit(tree: str) -> str | None:
    try:
        return subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _quartiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        return [round(xs[0], 4)] * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return [round(q1, 4), round(q2, 4), round(q3, 4)]


# A search whose first runs take under SHORT_S on both sides runs SHORT_RUNS
# times in all: runs of a few milliseconds in fresh interpreters are bimodal.
SHORT_S = 0.01
SHORT_RUNS = 9


def per_search(trees: dict[str, str]) -> dict:
    out = {}
    for name, (graph, call, runs) in SEARCHES.items():
        got = _alternating(trees, runs, CHILD, graph, call, 10**9)
        if runs < SHORT_RUNS and all(statistics.median(r["s"] for r in rs) < SHORT_S for rs in got.values()):
            more = _alternating(trees, SHORT_RUNS - runs, CHILD, graph, call, 10**9, first_run=runs)
            for side in got:
                got[side] += more[side]
        row = {}
        for side, results in got.items():
            (count,) = {r["nodes"] for r in results}  # node counts are deterministic
            times = [r["s"] for r in results]
            median = statistics.median(times)
            row[side] = {"nodes": count, "median_s": round(median, 4), "min_s": round(min(times), 4),
                         "runs_s": [round(t, 4) for t in times],
                         "nodes_per_s": round(count / median)}
        row["change_vs_parent"] = round(row["change"]["median_s"] / row["parent"]["median_s"] - 1, 3)
        out[name] = row
        print(name, json.dumps(row), file=sys.stderr)
    return out


def _alternating(trees: dict[str, str], runs: int, source: str, *args: object,
                 first_run: int = 0) -> dict[str, list[dict]]:
    """runs child runs of source on each tree, parent and change alternating
    and the order swapped every run; first_run numbers the first of them, so
    that more runs continue the alternation."""
    got: dict[str, list[dict]] = {side: [] for side in trees}
    for run in range(first_run, first_run + runs):
        order = list(trees) if run % 2 == 0 else list(trees)[::-1]
        for side in order:
            got[side].append(_child(trees[side], source, *args))
    return got


def _figures(seconds: float) -> float:
    return float(f"{seconds:.4g}")


def _timed_row(got: dict[str, list[dict]], calls: tuple[str, ...]) -> dict:
    """Per side, the median, the least and the runs of each call's seconds
    to four significant figures (a call on a short list takes microseconds),
    and the change's medians against the parent's."""
    row: dict = {}
    for side, results in got.items():
        row[side] = {}
        for call in calls:
            times = [r[call] for r in results]
            row[side][call] = {"median_s": _figures(statistics.median(times)),
                               "min_s": _figures(min(times)),
                               "runs_s": [_figures(t) for t in times]}
    row["change_vs_parent"] = {
        call: round(row["change"][call]["median_s"] / row["parent"][call]["median_s"] - 1, 3)
        for call in calls
    }
    return row


def per_drawing(trees: dict[str, str]) -> dict:
    out = {}
    for name, (k, arrange, runs) in DRAWINGS.items():
        got = _alternating(trees, runs, DRAWING_CHILD, k, arrange)
        row = _timed_row(got, CALLS)
        for side in trees:
            (row[side]["crossings"],) = {r["crossings"] for r in got[side]}
            (row[side]["parity"],) = {r["parity"] for r in got[side]}
        out[name] = row
        print(name, json.dumps(row), file=sys.stderr)
    return out


def per_certificate(trees: dict[str, str]) -> dict:
    out = {}
    for n, loops in CERTIFICATE_SIZES.items():
        # a looped call takes microseconds, and such short runs spread widely
        runs = SHORT_RUNS if loops > 1 else CERTIFICATE_RUNS
        round_trip = n in ROUND_TRIP_SIZES
        got = _alternating(trees, runs, CERTIFICATE_CHILD, n, loops, int(round_trip))
        row = _timed_row(got, CERTIFICATE_CALLS + (ROUND_TRIP_CALLS if round_trip else ()))
        out[f"n={n}"] = row
        print("certificate", n, json.dumps(row), file=sys.stderr)
    return out


# family -> (rows m of the C_m x C_n tori, the solve on g and budget b)
REACH = {
    "paired": (5, "min_parameter(g, Variant.PAIRED, b)"),
    "upper_total": (4, "max_minimal_parameter(g, Variant.TOTAL, b)"),
}


def reach(tree: str, family: str, nodes: int) -> dict:
    m, call = REACH[family]
    rows = []
    n = 3
    while True:
        got = _child(tree, CHILD, f"cartesian_cycles({m}, {n})", call, nodes)
        rows.append({"n": n, "decided": got["decided"], "nodes": got["nodes"], "s": round(got["s"], 3)})
        print("reach", family, tree, rows[-1], file=sys.stderr)
        if not got["decided"]:
            break
        n += 1
    decided = [r for r in rows if r["decided"]]
    slowest = max(decided, key=lambda r: r["s"], default=None)
    return {"largest_n": decided[-1]["n"] if decided else None, "slowest": slowest, "runs": rows}


def end_to_end(trees: dict[str, str], workload: str, seed: int, pairs: int, seconds: float) -> dict:
    runs = []
    for i in range(pairs):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        pair: dict = {"seed": seed + i, "first": order[0]}
        for side in order:
            argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed + i), "--seconds", str(seconds), "--trace", "0"]
            last = subprocess.run(argv, cwd=trees[side], check=True, capture_output=True,
                                  text=True).stdout.strip().splitlines()[-1]
            result = json.loads(last)
            if result["correct"] is not True or result["failed"]:
                raise SystemExit(f"{side} run of seed {seed + i} not clean: {last}")
            pair[side] = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(workload, json.dumps(pair), file=sys.stderr)
        runs.append(pair)
    summary = {}
    for metric, better in METRICS.items():
        parent = [p["parent"][metric] for p in runs]
        change = [p["change"][metric] for p in runs]
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
        summary[metric] = {"better": better, "parent_q1_median_q3": _quartiles(parent),
                           "change_q1_median_q3": _quartiles(change), "change_better_in_pairs": wins}
    return {
        "workload": workload,
        "method": f"python3 perfbench/run.py --workload {workload} --seed S --seconds {seconds:g} "
                  "--trace 0, from the root of each checkout; which side runs first alternates; "
                  "every run reported correct with 0 failed operations",
        "seeds": f"{seed}-{seed + pairs - 1}",
        "summary": summary,
        "pairs": runs,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default=os.path.dirname(HERE))
    parser.add_argument("--out", required=True)
    parser.add_argument("--title", default="")
    parser.add_argument("--workload", default="search-tori")
    parser.add_argument("--seed", type=int, default=301)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--reach-nodes", type=int, default=10**8)
    args = parser.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    record = {
        "title": args.title,
        "parent_commit": _commit(trees["parent"]),
        "machine": {"cpu": _cpu(), "nproc": os.cpu_count(), "python": platform.python_version()},
        "per_search": {
            "method": "each run is one call in a fresh interpreter on that tree's src, on "
                      "SearchBudget(max_nodes=10**9, max_seconds=600), timed with "
                      "time.perf_counter, graphs built outside the timing; parent and change "
                      "alternate and the order is swapped every run; a search whose median "
                      f"on both sides is under {SHORT_S * 1000:g} ms runs {SHORT_RUNS} times; "
                      "min_s is the least run",
            "searches": per_search(trees),
        },
        "per_drawing": {
            "method": "each run is one convex_drawing call, two decomposition_weights calls "
                      "on the drawing it returns, the first of which also validates the drawing "
                      "and the decomposition (decomposition_weights_again is the second: a tree "
                      "that keeps the weights on the drawing answers it from there, an older "
                      "tree validates the decomposition again), and one jordan_parity_screen "
                      "call on the cycles (4i, 4i + 4) and (4i + 1, 4i + 5), in a fresh "
                      "interpreter on "
                      "that tree's src, graph, order and circulant14_decomposition built "
                      "outside the timing, "
                      "timed with time.perf_counter; shuffled and rotated orders come from "
                      "random.Random(1), C(20000;{1,4}) is drawn in vertex order; parent and "
                      "change alternate and the order is swapped every run",
            "drawings": per_drawing(trees),
        },
        "per_certificate": {
            "method": "each run is one fresh interpreter on that tree's src that builds a list "
                      "of n entries p/q, p in -50..50 and q in 1..12 from random.Random(n), with "
                      "h its total plus 1, finds and verifies a below certificate outside the "
                      "timing, then times 5 calls of each step with time.perf_counter and "
                      "reports their median: find_rotation, verify_certificate, "
                      "equality_certificate at h the total and eps 1/2 (BoundSpec built "
                      "outside the timing), certificate_to_json with dump_json, and "
                      "certificate_from_json given the list, on the JSON document read back "
                      "outside the timing; at n = 6 and 12 each of the 5 is the mean of a loop "
                      f"of 10^4 calls, and those rows run {SHORT_RUNS} times on each side, the "
                      f"others {CERTIFICATE_RUNS}; at n = 10^3 and 10^4 also cli.main in process "
                      "with stdout captured: certify sum of the list spelled by str(Fraction) "
                      "with --h and the default direction below, certify verify of the file "
                      "that output was written to, and both with that write between them, "
                      "after one untimed round trip; parent and change alternate and the order "
                      "is swapped every run; min_s is the least run",
            "lists": per_certificate(trees),
        },
        **{
            f"{family}_reach": {
                "method": f"{call} on g = cartesian_cycles({m}, n) and b = "
                          f"SearchBudget(max_nodes={args.reach_nodes}, max_seconds=600), in a "
                          "fresh interpreter, n = 3, 4, ... up to the first n that passes the node cap",
                **{side: reach(tree, family, args.reach_nodes) for side, tree in trees.items()},
            }
            for family, (m, call) in REACH.items()
        },
        "end_to_end": end_to_end(trees, args.workload, args.seed, args.pairs, args.seconds),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
