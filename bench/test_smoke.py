"""Smoke test of the benchmark harness at minimal sizes.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS, check_subsets, genus2_flow, torus_ladder

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CLI_MAIN = run.import_program()

SMALL = {
    "genus2-flow": lambda work: genus2_flow(work, 0, admissible=1, degenerate=1),
    "torus-ladder": lambda work: torus_ladder(work, 0, sizes=(4,), solve_sizes=(4,), check_sizes=(4,)),
    "check-subsets": lambda work: check_subsets(work, 0, torus=3, genus2_cap=1),
}


def _check_schema(line: str, declared: list[dict]) -> dict:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}, metric["name"]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def test_workload_names_match_spec():
    assert sorted(WORKLOADS) == sorted(SMALL) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_workload_reports_every_metric(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    workload = SMALL[name](tmp_path)
    run.measure(workload, CLI_MAIN, seconds=0, trace=0)
    end_to_end = _check_schema(capsys.readouterr().out.strip().splitlines()[-1], SPEC["end_to_end"])
    assert all(value > 0 for value in end_to_end.values())
    run.measure(workload, CLI_MAIN, seconds=0, trace=1)
    layers = _check_schema(capsys.readouterr().out.strip().splitlines()[-1], SPEC["per_layer"])
    assert layers["curvature.evals"] > 0
    if name == "genus2-flow":
        assert layers["angles.degenerate_share"] > 0
    if name == "torus-ladder":
        assert layers["angles.degenerate_share"] == 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "genus2-flow", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
