"""Self-time and layer arithmetic of the benchmark tracer on synthetic spans."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import Tracer, run_metrics, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [("a", 0.0, 10.0, -1, 1),
             ("b", 1.0, 4.0, 0, 1),
             ("c", 2.0, 3.0, 1, 1),      # grandchild of a: counts against b
             ("d", 5.0, 9.0, 0, 1),
             ("e", 20.0, 21.0, -1, 2)]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])


def test_layer_metrics_of_one_solve():
    tracer = Tracer()
    tracer.spans = [
        ("experiments.build", 0.0, 0.5, -1, 1),
        ("mesh.assemble", 0.1, 0.2, 0, 1),
        ("solvers.ihadmm", 1.0, 11.0, -1, 1),
        ("linalg.factor.K", 1.0, 1.5, 2, 1),
        ("linalg.saddle", 2.0, 6.0, 2, 1),
        ("linalg.solve.saddle", 2.5, 4.5, 4, 1),
        ("prox.residual", 7.0, 9.0, 2, 1),
        ("linalg.solve.M", 7.5, 8.5, 6, 1),
        ("solvers.ihadmm", 20.0, 30.0, -1, 2),   # another run: ignored
    ]
    tracer.counts[1].update({"ihadmm_iters": 4, "factor_count.K": 1,
                             "fill_nnz.K": 1000})
    m = {k: v for k, (v, _) in run_metrics(tracer, 1).items()}

    assert m["experiments.build_s"] == pytest.approx(0.5)
    assert m["mesh.assemble_s"] == pytest.approx(0.1)
    assert m["solvers.solve_s"] == pytest.approx(10.0)
    # 10 s minus the factorization, saddle and residual children
    assert m["solvers.self_s"] == pytest.approx(10.0 - 0.5 - 4.0 - 2.0)
    assert m["trace.coverage"] == pytest.approx(0.65)
    assert m["linalg.saddle_s"] == pytest.approx(4.0)
    assert m["linalg.saddle_self_s"] == pytest.approx(2.0)
    assert m["linalg.factor_s"] == pytest.approx(0.5)
    assert m["linalg.solve_s"] == pytest.approx(3.0)
    assert m["linalg.solve_count.saddle"] == 1
    assert m["linalg.solve_count.M"] == 1
    assert m["linalg.fill_mb.K"] == pytest.approx(0.012)
    assert m["prox.residual_count"] == 1
    assert m["solvers.ms_per_iter"] == pytest.approx(2500.0)
