"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
They use the ``tiny`` sizes, so they check the benchmark's plumbing and
invariant checks, not the paper-scale claims.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import ledger  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    make_workload,
    run_digest,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PLAN = json.loads((ROOT / "perfbench" / "plan.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_prints_every_metric(workload: str, trace: str) -> None:
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.1",
        "--trace", trace, "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for entry in spec:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
        # every metric is also printed on its own line, with its unit
        assert any(
            line.startswith(entry["name"] + " ") and line.endswith(" " + entry["unit"])
            for line in lines[:-1]
        )
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_plan_matches_benchmark_json() -> None:
    names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert PLAN["claim"] is None
    assert set(PLAN["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    assert set(PLAN["workloads"]) == set(WORKLOADS)
    assert PLAN["exact"] == list(ledger.EXACT)
    assert set(PLAN["exact"]) <= names
    predicted = {m for row in PLAN["predictions"] for m in row["metrics"]}
    assert predicted <= names
    assert {m["name"] for m in SPEC["per_layer"]} <= predicted


def test_missing_program_exits_nonzero_without_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_bench(
        "--workload", "fig1-paper", "--seed", "0", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _names(checks):
    return {c.name for c in checks if not c.ok}


def test_broken_fig1_output_fails_checks() -> None:
    workload = make_workload("fig1-paper", size="tiny")
    outcome = workload.sweep(0)
    assert not _names(workload.checks(outcome))
    run = outcome.runs[0]
    short = dataclasses.replace(
        run.flow_results[0],
        bytes_transferred=run.flow_results[0].bytes_transferred - 1,
    )
    run.flow_results[0] = short
    assert "flows_delivered" in _names(workload.checks(outcome))


def test_broken_fabric_output_fails_checks() -> None:
    workload = make_workload("fabric-1k", size="tiny")
    outcome = workload.sweep(0)
    assert not _names(workload.checks(outcome))
    digest = run_digest(outcome.runs)
    outcome.runs[0].energy_j *= 1.01
    outcome.runs[1].flow_results.pop()
    failed = _names(workload.checks(outcome))
    assert {"fleet_is_host_plus_switch", "all_flows_complete"} <= failed
    assert run_digest(outcome.runs) != digest


def test_broken_grid_journal_fails_checks(tmp_path: Path) -> None:
    workload = make_workload("grid-traced", size="tiny")
    outcome = workload.sweep(0, workdir=tmp_path)
    assert not _names(workload.checks(outcome))
    journal = outcome.trace_dir / "journal.jsonl"
    with journal.open("a", encoding="utf-8") as f:
        f.write(json.dumps({"event": "worker_error", "error": "injected"}) + "\n")
    assert "journal_terminal_no_worker_error" in _names(workload.checks(outcome))


def test_traced_sweep_matches_untraced_and_restores_code() -> None:
    from repro.net.host import Host
    from repro.sim.engine import Simulator

    step, send = Simulator.step, Host.send
    workload = make_workload("fig1-paper", size="tiny")
    plain = workload.sweep(1)
    book = ledger.Ledger()
    with ledger.Patches(book):
        traced = workload.sweep(1, observer=ledger.LedgerObserver(book))
    assert Simulator.step is step and Host.send is send
    assert run_digest(traced.runs) == run_digest(plain.runs)
    metrics = book.metrics(traced.wall_s, traced.done_at)
    assert metrics["harness.items"] == workload.items
    assert metrics["sim.events"] > 0 and metrics["net.pkts"] > 0
    assert abs(metrics["ledger.loop_gap_s"]) <= 1e-6 * metrics["harness.loop_s"]


def test_host_speed_normalization_rescales_segments_and_drops_handler_time() -> None:
    from perfbench import hostspeed

    nominal = hostspeed.NOMINAL_CHUNK_S
    sampler = hostspeed.Sampler()
    # a chunk at 2x nominal over [1.0, 1.1]; the host at nominal before
    # it and at 4x after it
    sampler.marks = [(1.0, 1.1, 2 * nominal)]
    got = sampler.normalize(0.0, 2.0, before=nominal, after=6 * nominal)
    assert got == pytest.approx(1.0 / 1.5 + 0.9 / 4.0)
    assert sampler.handler_s(0.0, 2.0) == pytest.approx(0.1)
    # a uniform host slow-down cancels
    sampler.marks = [(1.0, 1.1, 3 * nominal)]
    assert sampler.normalize(0.0, 2.0, 3 * nominal, 3 * nominal) == pytest.approx(1.9 / 3)
