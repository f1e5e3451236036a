import numpy as np
import pytest

import sparseoc as so
from sparseoc import mesh as fem
from sparseoc.experiments import (example1_fields, build_example1,
                                  build_example2, l2_control_error,
                                  compute_eoc, ExperimentSpec, run_table,
                                  reproduction_sigma, example_params,
                                  build_example,
                                  _QUAD_BARY, _QUAD_W, EXAMPLE1_PARAMS,
                                  EXAMPLE2_PARAMS)
from sparseoc.solvers import SolverConfig

from p1_helpers import eval_p1, integrate_elementwise


def test_quadrature_rule_degree5():
    # exact on reference-triangle monomials up to total degree 5
    from math import factorial

    def exact(p, q):
        return factorial(p) * factorial(q) / factorial(p + q + 2)

    x = _QUAD_BARY[:, 1]
    y = _QUAD_BARY[:, 2]
    for p in range(6):
        for q in range(6 - p):
            got = 0.5 * np.sum(_QUAD_W * x ** p * y ** q)
            assert abs(got - exact(p, q)) < 1e-14


def test_example1_exact_values():
    f = example1_fields()
    assert np.isclose(f["y_star"](0.5, 0.5), 1.0)
    # below the threshold the control vanishes
    pts = np.array([[0.05, 0.05], [0.5, 0.5]])
    p_vals = f["p_star"](pts[:, 0], pts[:, 1])
    assert np.all(np.abs(p_vals) <= EXAMPLE1_PARAMS.beta)
    assert np.all(f["u_star"](pts[:, 0], pts[:, 1]) == 0.0)
    assert np.abs(f["u_star"](np.linspace(0, 1, 101),
                              np.linspace(0, 1, 101))).max() <= 0.5


def test_example1_laplacian_finite_differences():
    f = example1_fields()
    rng = np.random.default_rng(1)
    x, y = rng.uniform(0.05, 0.95, (2, 100))
    h = 1e-4
    lap_fd = (f["p_star"](x + h, y) + f["p_star"](x - h, y)
              + f["p_star"](x, y + h) + f["p_star"](x, y - h)
              - 4 * f["p_star"](x, y)) / h ** 2
    scale = np.abs(f["neg_lap_p_star"](x, y)).max()
    assert np.abs(-lap_fd - f["neg_lap_p_star"](x, y)).max() <= 1e-6 * scale


def test_example1_data_consistency():
    # yc, yd satisfy the optimality system of the constructed solution
    f = example1_fields()
    rng = np.random.default_rng(2)
    x, y = rng.uniform(0.05, 0.95, (2, 50))
    h = 1e-4

    def lap(g, x, y):
        return (g(x + h, y) + g(x - h, y) + g(x, y + h) + g(x, y - h)
                - 4 * g(x, y)) / h ** 2

    state_res = -lap(f["y_star"], x, y) - f["u_star"](x, y) - f["yc"](x, y)
    assert np.abs(state_res).max() < 1e-5
    adj_res = -lap(f["p_star"], x, y) - (f["yd"](x, y) - f["y_star"](x, y))
    assert np.abs(adj_res).max() < 1e-4


def test_example2_data(ex2):
    m, prob = ex2(3)
    assert np.array_equal(prob.yc, np.zeros(prob.n))
    assert np.abs(prob.yd).max() > 0.0
    assert prob.alpha == 1e-5 and prob.beta == 1e-3
    assert prob.a == -30.0 and prob.b == 30.0


def test_example_rebuild_bitwise(ex2):
    m1, p1 = build_example2(3)
    m2, p2 = build_example2(3)
    assert np.array_equal(p1.K.data, p2.K.data)
    assert np.array_equal(p1.M.data, p2.M.data)
    assert np.array_equal(p1.yd, p2.yd)
    assert np.array_equal(p1.W, p2.W)


def test_l2_error_same_grid_zero(meshes):
    m = meshes(4)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(m.n_interior)
    assert l2_control_error(u, u, m, ref_mesh=m) == 0.0


def test_l2_error_constant_difference(meshes):
    # reference differing by a constant d on the unit square: error = |d|
    m = meshes(3)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(m.n_interior)
    d = 0.37
    err = l2_control_error(u, lambda x, y: eval_p1(m, u, x, y) + d, m)
    assert abs(err - abs(d)) < 1e-12


def test_l2_error_nested_injection_exact(meshes):
    # a coarse P1 function is represented exactly on the nested fine mesh
    m, mref = meshes(3), meshes(5)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(m.n_interior)
    xy = fem.interior_coordinates(mref)
    u_on_ref = eval_p1(m, u, xy[:, 0], xy[:, 1])
    assert l2_control_error(u, u_on_ref, m, ref_mesh=mref) < 1e-13


def test_l2_error_interpolant_beats_solver(ex1):
    m, prob, f = ex1(4)
    xy = fem.interior_coordinates(m)
    interp_err = l2_control_error(f["u_star"](xy[:, 0], xy[:, 1]),
                                  f["u_star"], m)
    sig = reproduction_sigma(prob.alpha)
    rep = so.solve_two_phase(prob, SolverConfig(tol=1e-3, sigma=sig),
                             SolverConfig(tol=1e-10, sigma=sig))
    solver_err = l2_control_error(rep.final_state.u, f["u_star"], m)
    assert interp_err < solver_err
    # and the interpolant error decays ~h^2-ish across levels
    m5, _, _ = ex1(5)
    xy5 = fem.interior_coordinates(m5)
    interp_err5 = l2_control_error(f["u_star"](xy5[:, 0], xy5[:, 1]),
                                   f["u_star"], m5)
    assert interp_err / interp_err5 > 1.8


def test_compute_eoc_paper_pair():
    eocs = compute_eoc([(2.0 ** -3, 0.3075), (2.0 ** -4, 0.1237)])
    assert abs(eocs[0] - 1.3137) < 5e-4


def test_compute_eoc_trivial():
    assert np.allclose(compute_eoc([(0.5, 0.5), (0.25, 0.25)]), [1.0])
    assert np.allclose(compute_eoc([(0.2, 0.6), (0.1, 0.3)]), [1.0])
    assert compute_eoc([(0.5, 0.1), (0.25, 0.0)]) == [None]


def test_integrate_elementwise(meshes):
    m = meshes(4)
    assert abs(integrate_elementwise(m, lambda x, y: 1.0 + 0 * x) - 1.0) < 1e-14
    got = integrate_elementwise(m, lambda x, y: x * y)
    assert abs(got - 0.25) < 1e-14


def test_example_params_rejects_an_unknown_example():
    assert example_params("constructed") == EXAMPLE1_PARAMS
    assert example_params("stadler") == EXAMPLE2_PARAMS
    with pytest.raises(ValueError, match="^unknown example 'bogus'$"):
        example_params("bogus")


def test_build_example_rejects_an_unknown_example():
    with pytest.raises(ValueError, match="^unknown example 'bogus'$"):
        build_example("bogus", 2)


def test_experiment_spec_validation():
    cfg = SolverConfig()
    with pytest.raises(ValueError):
        ExperimentSpec("constructed", [], [("ihadmm", cfg)]).validate()
    with pytest.raises(ValueError):
        ExperimentSpec("constructed", [4, 3], [("ihadmm", cfg)]).validate()
    with pytest.raises(ValueError):
        ExperimentSpec("constructed", [3, 3], [("ihadmm", cfg)]).validate()
    with pytest.raises(ValueError):
        ExperimentSpec("bogus", [3], [("ihadmm", cfg)]).validate()
    with pytest.raises(ValueError):
        ExperimentSpec("stadler", [3, 4], [("ihadmm", cfg)],
                       reference_level=4).validate()


def test_run_table_single_cell():
    spec = ExperimentSpec("constructed", [3],
                          [("ihadmm", SolverConfig(tol=1e-6, sigma=0.125))])
    rows = run_table(spec)
    assert len(rows) == 1
    row = rows[0]
    assert row.level == 3 and row.n_dofs == 49
    assert row.eoc is None
    assert len(row.cells) == 1 and row.cells[0].converged
    assert np.isfinite(row.E2)


def test_run_table_eoc_and_failures():
    cfg = SolverConfig(tol=1e-6, sigma=0.125)
    fail = SolverConfig(tol=1e-12, max_iter=1, sigma=0.125)
    spec = ExperimentSpec("constructed", [3, 4],
                          [("two_phase", (SolverConfig(tol=1e-3, sigma=0.125),
                                          SolverConfig(tol=1e-8, sigma=0.125))),
                           ("ihadmm", fail)])
    rows = run_table(spec)
    assert len(rows) == 2
    assert rows[1].eoc is not None and rows[1].eoc > 0.9
    for row in rows:
        assert row.cells[0].converged
        assert not row.cells[1].converged
    assert rows[0].E2 > rows[1].E2


def test_spec_two_phase_takes_a_config_pair():
    cfg = SolverConfig(tol=1e-6, sigma=0.125)
    with pytest.raises(ValueError):
        ExperimentSpec("constructed", [3], [("two_phase", cfg)]).validate()
    with pytest.raises(ValueError):
        ExperimentSpec("constructed", [3], [("ihadmm", (cfg, cfg))]).validate()


def test_sparsity_fraction_stabilizes(ex1):
    # the L1 term produces exact zeros; their fraction settles across levels
    fracs = []
    for level in (3, 4, 5):
        _, prob, _ = ex1(level)
        sig = reproduction_sigma(prob.alpha)
        rep = so.solve_two_phase(prob, SolverConfig(tol=1e-3, sigma=sig),
                                 SolverConfig(tol=1e-10, sigma=sig))
        fracs.append(np.mean(rep.final_state.u == 0.0))
    assert all(f > 0.2 for f in fracs)
    assert abs(fracs[-1] - fracs[-2]) < 0.1



@pytest.mark.parametrize("level,phases", [(6, (53, 3)), (7, (53, 4))])
def test_stadler_reference_handoff_counts(monkeypatch, level, phases):
    # the fine-grid reference hands off to PDAS at phase1_tol 1e-1 and
    # converges to 1e-10; the PDAS steps after the handoff rest on the
    # K-solve's round-off, which grows with the level (eta_1's floor)
    from sparseoc import experiments
    reports = []
    two_phase = experiments.solve_two_phase

    def recorded(*args, **kwargs):
        reports.append(two_phase(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(experiments, "solve_two_phase", recorded)
    m, u = experiments._reference_solution(level)
    (rep,) = reports
    assert m.level == level and u is rep.final_state.u
    assert rep.converged and rep.phase_iterations == phases
    assert rep.final_eta <= 1e-10
