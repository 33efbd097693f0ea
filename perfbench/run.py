"""cyclecert benchmark: closed-loop workloads over certificates, solvers and
structure checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-small --seed 1 --seconds 20 --trace 0

One caller runs the workload's fixed list of operations in this process,
pass after pass, each operation starting only when the previous one has
returned; answers are checked between operations, outside the timed region.
With --trace 0 the last line of stdout is the result with every end-to-end
metric; with --trace 1 the run is split into an untraced half and a traced
half, and the result carries the per-layer metrics.  Earlier stdout lines
carry run provenance, failure reasons and exact counts; the same details and
the spans of a traced run are written under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Any, Optional

from clock import PERIOD, SpeedClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("certify-small", "certify-large", "search-tori", "structures-crossing")
SETUP_SAMPLES = 5


def _load(workload: str, seed: int, size: str) -> tuple[float, float, list]:
    """Import cyclecert and build every input; return (start, end, ops).

    The first call in a process includes the import of cyclecert, which is
    why set-up samples each come from a fresh process.
    """
    start = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads

    ops = workloads.build(workload, seed, size, OUT)
    return start, time.perf_counter(), ops


def _setup_probe(workload: str, seed: int, size: str) -> tuple[float, float]:
    """One set-up sample, taken in a fresh interpreter: (calibrated, raw)."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", "0", "--size", size]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
    calibrated, raw = done.stdout.split()
    return float(calibrated), float(raw)


class Pass:
    """Timings, failures and exact counts of one pass over the operations.

    Times are calibrated (see clock.py) except `raw_wall` and `elapsed`.
    """

    def __init__(self) -> None:
        self.wall = 0.0
        self.raw_wall = 0.0
        self.cli = 0.0
        self.elapsed = 0.0
        self.latencies: list[float] = []
        self.failures: list[tuple[str, str]] = []
        self.counts: dict[str, int] = {}
        self.layers: Optional[tuple[dict, dict, Counter]] = None


def run_pass(ops: list, clock: SpeedClock, recorder: Any = None) -> Pass:
    """One pass: each operation runs, is timed, and is then checked."""
    p = Pass()
    begin = time.perf_counter()
    if recorder is not None:
        recorder.reset()
    intervals = []
    for i, op in enumerate(ops):
        if recorder is not None:
            recorder.op_id = i
        error: Optional[BaseException] = None
        answer = None
        start = time.perf_counter()
        try:
            answer = op.run()
        except Exception as exc:  # a raising operation is a failed operation
            error = exc
        intervals.append((start, time.perf_counter()))
        if recorder is not None:
            recorder.paused = True
        try:
            if error is not None:
                reason = f"raised {type(error).__name__}: {error}"
            else:
                reason = op.check(answer)
                if op.count is not None:
                    p.counts.update(op.count(answer))
        except Exception as exc:  # a malformed answer can break its check
            reason = f"answer could not be checked: {type(exc).__name__}: {exc}"
        if recorder is not None:
            recorder.paused = False
        if reason:
            p.failures.append((op.name, reason))
    p.elapsed = time.perf_counter() - begin
    for op, (start, end) in zip(ops, intervals):
        took = clock.seconds(start, end)
        p.latencies.append(took)
        p.wall += took
        p.raw_wall += end - start
        if op.cli:
            p.cli += took
    if recorder is not None:
        recorder.op_id = -1
        p.layers = (*recorder.times(clock.seconds), Counter(recorder.counts))
    return p


def run_passes(ops: list, clock: SpeedClock, seconds: float) -> list[Pass]:
    """Repeat passes, at least one, while the next is expected to end within
    `seconds`."""
    passes: list[Pass] = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin + statistics.median(p.elapsed for p in passes) <= seconds:
        passes.append(run_pass(ops, clock))
    return passes


def run_alternating(ops: list, clock: SpeedClock, seconds: float, rec: Any) -> tuple[list[Pass], list[Pass]]:
    """Untraced and traced passes in turn, so that both see the same warm-up
    and machine state: at least one untraced and two traced passes, and at
    most three traced ones."""
    import spans

    plain: list[Pass] = []
    traced: list[Pass] = []
    begin = time.perf_counter()
    while len(traced) < 3:
        room = seconds - (time.perf_counter() - begin)
        expected = statistics.median(p.elapsed for p in plain + traced) if traced else 0.0
        if len(traced) >= 2 and room < 2 * expected:
            break
        if not plain or room >= 2 * expected:
            plain.append(run_pass(ops, clock))
        with spans.patch(rec):
            traced.append(run_pass(ops, clock, rec))
    return plain, traced


def end_to_end(ops: list, passes: list[Pass], setup_s: float) -> dict[str, tuple[float, str]]:
    """Latency percentiles are taken over each operation's median across
    passes, interpolating between operations, so that a workload with few,
    unequal operations does not jump from one operation's time to the next."""
    per_op = [statistics.median(times) for times in zip(*(p.latencies for p in passes))]
    cuts = statistics.quantiles(per_op, n=100, method="inclusive")
    wall = statistics.median(p.wall for p in passes)
    attempted = len(ops) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_ok_ratio": (1 - failed / attempted, "ratio"),
        "cert_p50_us": (cuts[49] * 1e6, "us"),
        "cert_p99_us": (cuts[98] * 1e6, "us"),
        "entries_per_s": (sum(op.entries for op in ops) / wall, "1/s"),
        "reproduce_s": (statistics.median(p.cli for p in passes), "s"),
    }


_SELF_S = (
    "cyclic_core.find_rotation", "cyclic_core.verify_certificate", "cyclic_core.equality_certificate",
    "cyclic_core.prefix_condition_all_starts", "cyclic_core.greedy_block_cover",
    "formats.certificate_to_json", "formats.certificate_from_json",
    "structures.is_transitive_decomposition", "structures.is_transitive_partition",
    "structures.find_transitive_partition", "structures.cyclic_symmetry_violations",
    "iso.isomorphic", "tiles.canonical_periodic_decomposition", "tiles.tile_close",
    "crossing.convex_drawing", "crossing.validate_drawing", "crossing.decomposition_weights",
    "crossing.prefix_cr_certificate", "crossing.jordan_parity_screen", "cli.main",
)
_SOLVERS = ("paired", "upper_total", "cover", "prefix", "rd")
# Counts that must repeat exactly from pass to pass and run to run.
EXACT = (
    "cyclic_core.entries", "cyclic_core.scan_fallbacks", "formats.bytes", "iso.isomorphic.calls",
    *(f"domination.{s}.nodes" for s in _SOLVERS),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = [(f"{name}.self_s", "s", "lower") for name in _SELF_S]
    spec += [
        ("cyclic_core.entries", "count", "lower"),
        ("cyclic_core.scan_fallbacks", "count", "lower"),
        ("cyclic_core.candidate_hit_ratio", "ratio", "higher"),
        ("formats.bytes", "bytes", "lower"),
        ("iso.isomorphic.calls", "count", "lower"),
        ("iso.positive_ratio", "ratio", "higher"),
        ("graphs.construct.self_s", "s", "lower"),
    ]
    for s in _SOLVERS:
        spec += [
            (f"domination.{s}.self_s", "s", "lower"),
            (f"domination.{s}.nodes", "count", "lower"),
            (f"domination.{s}.nodes_per_s", "1/s", "higher"),
        ]
    spec += [
        ("domination.budget_exceeded", "count", "lower"),
        ("ops_failed_ratio", "ratio", "lower"),
        ("exact_count_drift", "count", "lower"),
        ("trace_overhead_ratio", "ratio", "lower"),
    ]
    return spec


def per_layer(traced: list[Pass], plain: list[Pass], setup_layers: dict, drift: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: self times are medians over traced passes, counts
    come from the last traced pass (they repeat exactly, or drift says so)."""
    self_s = {name: statistics.median(p.layers[0].get(name, 0.0) for p in traced) for name in
              {*_SELF_S, *(f"domination.{s}" for s in _SOLVERS)}}
    total_s = traced[-1].layers[1]
    counts = traced[-1].layers[2]
    found = counts["cyclic_core.found"]
    calls = counts["iso.isomorphic.calls"]
    values: dict[str, float] = {f"{name}.self_s": v for name, v in self_s.items()}
    values.update({name: counts[name] for name in EXACT})
    values["cyclic_core.candidate_hit_ratio"] = counts["cyclic_core.found_without_fallback"] / found if found else 1.0
    values["iso.positive_ratio"] = counts["iso.isomorphic.positive"] / calls if calls else 0.0
    values["graphs.construct.self_s"] = setup_layers.get("graphs.construct", 0.0)
    for s in _SOLVERS:
        span = total_s.get(f"domination.{s}", 0.0)
        values[f"domination.{s}.nodes_per_s"] = counts[f"domination.{s}.nodes"] / span if span else 0.0
    values["domination.budget_exceeded"] = counts["domination.budget_exceeded"]
    attempted = len(traced[-1].latencies) * (len(traced) + len(plain))
    values["ops_failed_ratio"] = sum(len(p.failures) for p in traced + plain) / attempted
    values["exact_count_drift"] = drift
    values["trace_overhead_ratio"] = (
        statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain)
    )
    return {name: (values[name], unit) for name, unit, _ in per_layer_spec()}


def count_drift(passes: list[Pass], stored_path: str) -> list[str]:
    """Exact counts that differ between passes, or from an earlier run of the
    same code on the same seed; each is a change the algorithm did not make."""
    drifted = []
    first = passes[0].counts
    for p in passes[1:]:
        drifted += [name for name, v in p.counts.items() if first.get(name) != v]
    traced = [p.layers[2] for p in passes if p.layers is not None]
    for layers in traced[1:]:
        drifted += [name for name in EXACT if layers[name] != traced[0][name]]
    current = dict(first)
    if traced:
        current.update({name: traced[0][name] for name in EXACT})
    if os.path.exists(stored_path):
        with open(stored_path, encoding="utf-8") as fh:
            stored = json.load(fh)
        drifted += [name for name, v in current.items() if name in stored and stored[name] != v]
    else:
        with open(stored_path, "w", encoding="utf-8") as fh:
            json.dump(current, fh, indent=1, sort_keys=True)
    return sorted(set(drifted))


def source_digest(*dirs: str) -> str:
    """sha256 over the Python files directly in `dirs`."""
    h = hashlib.sha256()
    for folder in dirs:
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def provenance(args: argparse.Namespace, digest: str) -> dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and os.path.samefile(out[0], ROOT):
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cyclecert_commit": commit,
        "cyclecert_source_sha256": digest,
    }


def _failure_summary(passes: list[Pass]) -> dict[str, int]:
    return dict(Counter(reason for p in passes for _, reason in p.failures))


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for testing the benchmark itself")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cyclecert", "__init__.py")):
        print(f"cyclecert sources not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    with SpeedClock() as clock:
        if args.setup_probe:
            start, end, _ = _load(args.workload, args.seed, args.size)
            time.sleep(2 * PERIOD)  # one more speed sample after the interval
            print(clock.seconds(start, end), end - start)
            return 0
        start, end, ops = _load(args.workload, args.seed, args.size)
        import oracles
        import spans

        digest = source_digest(os.path.join(SRC, "cyclecert"))
        info = provenance(args, digest)
        tag = f"{args.workload}-seed{args.seed}" + ("" if args.size == "full" else f"-{args.size}")
        # Stored counts are compared only between runs of the same library
        # and the same benchmark.
        both = source_digest(os.path.join(SRC, "cyclecert"), HERE)
        counts_path = os.path.join(OUT, f"counts-{tag}-{both[:16]}.json")

        if args.trace == 0:
            samples = [(clock.seconds(start, end), end - start)]
            samples += [_setup_probe(args.workload, args.seed, args.size) for _ in range(SETUP_SAMPLES - 1)]
            passes = run_passes(ops, clock, args.seconds)
            all_passes = passes
            drift = count_drift(passes, counts_path)
            metrics = end_to_end(ops, passes, statistics.median(c for c, _ in samples))
            info["setup_samples_s"] = [c for c, _ in samples]
            info["setup_samples_raw_s"] = [r for _, r in samples]
        else:
            rec = spans.Recorder()
            with spans.patch(rec):
                _, _, ops = _load(args.workload, args.seed, args.size)
            setup_layers = rec.times(clock.seconds)[0]
            plain, traced = run_alternating(ops, clock, args.seconds, rec)
            all_passes = plain + traced
            drift = count_drift(all_passes, counts_path)
            metrics = per_layer(traced, plain, setup_layers, len(drift))
            rec.write(os.path.join(OUT, f"spans-{tag}.jsonl"))
        info["pass_wall_s"] = [p.wall for p in all_passes]
        info["pass_raw_wall_s"] = [p.raw_wall for p in all_passes]
        info["kernel_median_s"] = statistics.median(clock.kernel_s) if clock.kernel_s else None

    failures = _failure_summary(all_passes)
    attempted = len(ops) * len(all_passes)
    failed = sum(failures.values())
    info.update(
        passes=len(all_passes),
        ops_per_pass=len(ops),
        latency_samples=len(ops),
        failures=failures,
        exact_count_drift=drift,
        exact_counts=all_passes[0].counts,
    )
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": info, "metrics": metrics}, fh, indent=1)
    print("provenance " + json.dumps({k: v for k, v in info.items() if k != "exact_counts"}))
    result = {
        "correct": not drift and set(failures) <= {oracles.KNOWN_DEFECT},
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
