"""Tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest perfbench/test_counts.py

Runs each workload's traced run twice on one seed with the shortest run
length, about three minutes in all on a 2-core machine.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((ROOT / "perfbench" / "design.json").read_text())
COUNTS = [m["name"] for m in BENCH["per_layer"] if m["unit"] in ("count", "B", "flop")]
LAYER_TIMES = [
    "generators.self.s", "rankings.embed.s", "estimation.self.s", "clustering.self.s", "evaluation.self.s",
    "fileio.self.s", "pipeline.self.s", "experiments.self.s", "cli.self.s",
]


def bench(root: Path, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root, capture_output=True, text=True, timeout=600
    )


def traced(workload: str, seed: int) -> dict:
    done = bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_counts_repeat_and_layers_account_for_op_time(workload):
    first, second = traced(workload, 7), traced(workload, 7)
    for run in (first, second):
        assert run["correct"] and run["failed"] == 0
        metrics = {name: m["value"] for name, m in run["metrics"].items()}
        assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
        layers = sum(metrics[name] for name in LAYER_TIMES)
        assert layers == pytest.approx(metrics["trace.op.s"], rel=0.02)
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["clustering.calls"]["value"] > 0


def test_every_computed_count_has_a_formula():
    assert set(COUNTS) <= set(DESIGN["computed_counts"])


def test_benchmark_json_metric_names_are_unique():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, "--workload", "exp2_sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
