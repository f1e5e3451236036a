"""Small-level runs of every workload definition through the benchmark code.

Each workload is run at level 3, untraced and traced, and must pass its
output checks and emit exactly the metrics BENCHMARK.json names, with their
units.  The installed bindings must be restored afterwards.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import make_expected  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


@pytest.fixture
def quick(monkeypatch, tmp_path):
    monkeypatch.setattr(worker, "MIN_SAMPLES", 1)
    monkeypatch.setattr(worker, "MIN_TRACE_PAIRS", 2)
    monkeypatch.setattr(worker, "SPAN_DIR", tmp_path)


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_small_level_run_emits_every_metric(name, quick, tmp_path):
    from sparseoc import linalg, solvers
    originals = (linalg.factorize, solvers.factorize,
                 linalg.Factorization.solve)
    workload = dataclasses.replace(WORKLOADS[name], level=3)
    expected = make_expected.record(workload)

    samples, metrics, _ = worker.measure(workload, expected, seconds=0.0)
    assert [s["reasons"] for s in samples] == [[]] * len(samples)
    assert {k: u for k, (_, u) in metrics.items()} \
        == _units(BENCHMARK["end_to_end"])
    assert all(v > 0 for v, _ in metrics.values())

    samples, metrics, _ = worker.measure_traced(workload, expected, 0.0,
                                                worker.random.Random(0))
    # includes the determinism checks between traced and untraced solves
    assert [s["reasons"] for s in samples] == [[]] * len(samples)
    assert {k: u for k, (_, u) in metrics.items()} \
        == _units(BENCHMARK["per_layer"])
    assert (tmp_path / f"spans-{name}.jsonl").stat().st_size > 0
    assert (linalg.factorize, solvers.factorize,
            linalg.Factorization.solve) == originals


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stadler-ihadmm-l5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
