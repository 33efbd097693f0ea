"""Tests of the benchmark itself: what it prints, and that it catches wrong
answers.  Run with `python3 -m pytest perfbench/tests -q` from the root."""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import oracles
import run
import workloads
from clock import SpeedClock
from cyclecert import cyclic_core, domination

ROOT = os.path.dirname(run.HERE)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _result(workload: str, trace: int) -> dict:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload: str, trace: int) -> None:
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in _spec()[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workloads_match_the_spec() -> None:
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_spec()


def test_same_seed_same_inputs() -> None:
    a = workloads.build("certify-small", 5, "tiny", run.OUT)
    b = workloads.build("certify-small", 5, "tiny", run.OUT)
    assert [op.name for op in a] == [op.name for op in b]


def test_only_the_known_defect_fails_on_certify_small() -> None:
    ops = workloads.build("certify-small", 4, "tiny", run.OUT)
    reasons = {reason for _, reason in _one_pass(ops).failures}
    assert reasons == {oracles.KNOWN_DEFECT}


def _one_pass(ops):
    with SpeedClock() as clock:
        return run.run_pass(ops, clock)


def _tampered(cert):
    sums = list(cert.prefix_sums)
    sums[-1] += 1
    return dataclasses.replace(cert, prefix_sums=tuple(sums))


def test_corrupted_certificate_is_a_failure(monkeypatch: pytest.MonkeyPatch) -> None:
    ops = workloads.build("certify-large", 4, "tiny", run.OUT)
    assert _one_pass(ops).failures == []
    real = cyclic_core.find_rotation

    def corrupt(xs, h, direction):
        cert = real(xs, h, direction)
        return None if cert is None else _tampered(cert)

    monkeypatch.setattr(cyclic_core, "find_rotation", corrupt)
    failures = _one_pass(ops).failures
    assert failures
    assert all(reason != oracles.KNOWN_DEFECT for _, reason in failures)


def test_corrupted_witness_is_a_failure(monkeypatch: pytest.MonkeyPatch) -> None:
    ops = [op for op in workloads.build("search-tori", 4, "tiny", run.OUT) if op.name.startswith("min ")]
    assert ops and _one_pass(ops).failures == []
    real = domination.min_parameter

    def corrupt(g, variant, budget=None):
        report = real(g, variant, budget)
        return dataclasses.replace(report, witness=report.witness[1:])

    monkeypatch.setattr(domination, "min_parameter", corrupt)
    failures = _one_pass(ops).failures
    assert len(failures) == len(ops)


def test_raising_operation_is_a_failure_and_the_run_goes_on() -> None:
    def boom():
        raise domination.BudgetExceededError("node budget exceeded")

    ops = [workloads.Op("boom", boom, lambda answer: None, 1), workloads.Op("fine", lambda: 1, lambda a: None, 1)]
    p = _one_pass(ops)
    assert [name for name, _ in p.failures] == ["boom"]
    assert len(p.latencies) == 2


def test_rotation_oracle_rejects_a_tampered_table() -> None:
    xs = tuple(cyclic_core.cyclic_list(["1/2", "-3", "2", "1/3"]).values)
    scaled = oracles.Scaled(xs)
    h = scaled.total + 1
    cert = cyclic_core.find_rotation(xs, h, cyclic_core.Direction.BELOW)
    assert oracles.rotation_reason(scaled, h, oracles.BELOW, cert) is None
    assert oracles.rotation_reason(scaled, h, oracles.BELOW, _tampered(cert))
    assert oracles.rotation_reason(scaled, scaled.total - 1, oracles.BELOW, cert)


def test_fails_without_the_sources(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "search-tori", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
