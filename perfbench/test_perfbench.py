"""Smoke tests of the benchmark itself, on tiny formulas.

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import pipeline
import tracing
from cspack import cnf, packing, reduction
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE = Workload(name="smoke", n=6, m=12, r=2, planted=True, per_second=1.0, why="tests")


def _run_cli(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "sparse-planted", "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_emits_every_named_metric_with_its_unit(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run_cli(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_json_names_the_workloads_and_trace_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS


def test_cli_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_cli(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_seed_same_digest_and_another_seed_other_inputs():
    first = harness.run_untraced(SMOKE, SMOKE.formulas(seed=1, count=4), 60)
    again = harness.run_untraced(SMOKE, SMOKE.formulas(seed=1, count=4), 60)
    assert first["failed"] == 0 and first["attempted"] == 4
    assert first["digest"] == again["digest"]
    one = [cnf.to_dimacs(f) for f in SMOKE.formulas(seed=1, count=4)]
    two = [cnf.to_dimacs(f) for f in SMOKE.formulas(seed=2, count=4)]
    assert set(one).isdisjoint(two)
    assert harness.run_untraced(SMOKE, SMOKE.formulas(seed=2, count=4), 60)["digest"] != first["digest"]


def test_forced_failed_check_is_counted_and_the_run_goes_on(monkeypatch):
    # Planted formulas are satisfiable, so an oracle that answers "unsat" fails every instance.
    monkeypatch.setattr(cnf, "brute_force_sat", lambda formula: None)
    result = harness.run_untraced(SMOKE, SMOKE.formulas(seed=1, count=3), 60)
    assert result["attempted"] == 3 and result["failed"] == 3
    assert any("oracle says unsat" in m for m in result["messages"])


def test_exception_in_the_pipeline_is_a_failed_check(monkeypatch):
    def broken(instance, budget):
        raise RuntimeError("solver crashed")

    monkeypatch.setattr(packing, "solve_exact", broken)
    result = harness.run_untraced(SMOKE, SMOKE.formulas(seed=1, count=2), 60)
    assert result["attempted"] == 2 and result["failed"] == 2
    assert "RuntimeError: solver crashed" in result["messages"]


def test_traced_run_keeps_outputs_and_restores_the_rebound_names():
    originals = (reduction.enumerate_group_assignments, reduction.build_iss,
                 reduction.SetPackingInstance, packing.SetPackingInstance)
    formulas = SMOKE.formulas(seed=5, count=4)
    traced = harness.run_traced(SMOKE, formulas, 60)
    assert (reduction.enumerate_group_assignments, reduction.build_iss,
            reduction.SetPackingInstance, packing.SetPackingInstance) == originals
    assert traced["failed"] == 0 and traced["attempted"] == 2
    assert traced["digest"] == harness.run_untraced(SMOKE, formulas[:2], 60)["digest"]
    metrics = traced["metrics"]
    assert set(metrics) == set(tracing.LAYER_UNITS)
    assert metrics["packing.sets"]["value"] > 0
    assert metrics["reduction.enumerate_s"]["value"] > 0
    assert metrics["packing.validate_s"]["value"] > 0


def test_self_time_excludes_child_spans():
    spans = [["reduce", 0.0, 10.0, -1, 0], ["enumerate", 1.0, 4.0, 0, 0], ["validate", 5.0, 6.0, 0, 0]]
    total, own = tracing.self_times(spans)
    assert total["reduce"] == 10.0 and own["reduce"] == 6.0
    assert own["enumerate"] == 3.0


def test_stage_counts_match_the_instance():
    formula = SMOKE.formulas(seed=7, count=1)[0]
    products = pipeline.run_pipeline(formula, SMOKE.r)
    counts = tracing.Counter()
    tracing.count_products(counts, products)
    assert counts["packing.elements"] == sum(len(s) for s in products.parsed.sets)
    assert counts["packing.sets"] == products.parsed.set_count
