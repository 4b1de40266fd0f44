"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Every workload runs and prints every metric named in BENCHMARK.json, each
gate rejects a corrupted answer, and the command refuses to report without
the program's sources; the speed sampler leaves its own time out of a query and
scales by the samples around it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gammacap  # noqa: E402
import gammacap.cli  # noqa: E402,F401
import gammacap.oracle  # noqa: E402,F401
import speed  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] >= 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert any(line.startswith(f"{metric['name']} = ") for line in lines[:-1])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    else:
        assert not any(line.startswith("MISSING") for line in lines), proc.stdout


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("verify", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _answer(workload, item):
    return workloads.QUERIES[workload](gammacap, item)


def _gate(workload):
    return workloads.Gate(gammacap, workload, size="tiny")


def test_capacity_gate_rejects_perturbed_capacity():
    item = (2, 3, 3, "constant:t=0")
    params, res = _answer("capacity", item)
    gate = _gate("capacity")
    assert gate.check(item, (params, res)) is None
    bad = dataclasses.replace(res, capacity_bits=res.capacity_bits + 1e-3)
    assert gate.check(item, (params, bad)) is not None
    bad_input = dataclasses.replace(
        res, optimal_input=gammacap.RankDistribution([1.0, 0.0, 0.0, 0.0])
    )
    assert gate.check(item, (params, bad_input)) is not None


def test_capacity_gate_checks_the_bound_of_uncertified_answers():
    item = (2, 2, 2, "iid:t=1")
    params, res = _answer("capacity", item)
    bad = dataclasses.replace(res, converged=False, capacity_bits=4.5)
    assert _gate("capacity").check(item, (params, bad)) is not None


def test_subspace_gate_rejects_wrong_count_and_digest(monkeypatch):
    items = workloads.make_round("subspace_pairs", 3, 0, "tiny")
    answers = [_answer("subspace_pairs", item) for item in items]
    gate = _gate("subspace_pairs")
    assert all(gate.check(i, a) is None for i, a in zip(items, answers))
    assert gate.check(items[0], answers[0] + 1) is not None
    assert gate.check_round_digest(items, answers) is None
    monkeypatch.setitem(workloads.SUBSPACE_DIGEST, "tiny", "0" * 64)
    assert gate.check_round_digest(items, answers) is not None


def test_subspace_digest_is_the_same_for_every_seed():
    digests = set()
    for seed in (1, 2):
        items = workloads.make_round("subspace_pairs", seed, 0, "tiny")
        digests.add(workloads.subspace_digest(items, [_answer("subspace_pairs", i) for i in items]))
    assert digests == {workloads.SUBSPACE_DIGEST["tiny"]}


def test_verify_gate_rejects_flipped_result():
    item = (2, 1, 2, "constant:t=1")
    code, report = _answer("verify", item)
    gate = _gate("verify")
    assert gate.check(item, (code, report)) is None
    payload = json.loads(report)
    payload["result"]["passed"] = False
    assert gate.check(item, (code, json.dumps(payload))) is not None
    assert gate.check(item, (1, report)) is not None


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        assert workloads.make_round(workload, 5, 1) == workloads.make_round(workload, 5, 1)


def test_sampler_leaves_samples_out_and_scales_by_the_window():
    sampler = speed.Sampler()
    sampler.starts.extend([0.0, 1.0, 2.0, 10.0])
    sampler.seconds.extend([0.001, 0.002, 0.004, 0.008])
    assert sampler.inside(0.5, 2.5) == pytest.approx(0.006)
    assert sampler.scale(1.0, 1.2) == pytest.approx(speed.REFERENCE_SECONDS / 0.002)
    # No sample within the window: the median of all of them.
    assert sampler.scale(5.0, 5.1) == pytest.approx(speed.REFERENCE_SECONDS / 0.003)


def test_sampler_samples_while_it_runs():
    with speed.Sampler() as sampler:
        deadline = time.perf_counter() + 3 * speed.SAMPLE_EVERY_S
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.seconds) >= 4
    assert all(s > 0 for s in sampler.seconds)
