import dataclasses
import numpy as np
import pytest

import sparseoc as so
from sparseoc.linalg import factorize
from sparseoc.oracle import brute_force_solve
from sparseoc.solvers import SolverConfig, IterateState, _classify
from sparseoc.experiments import reproduction_sigma

from conftest import random_tiny_problem


def _warm_from_phase1(state):
    # solve_pdas derives mu = M p - alpha T z from the adjoint
    return IterateState(u=state.z.copy(), p=state.p)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=-1.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(tau=1.7).validate()
    with pytest.raises(ValueError):
        SolverConfig(eps_decay=1.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(inner_backend="cg").validate()
    assert SolverConfig(tau=1.618).validate() is not None


@pytest.mark.parametrize("bad", [{"eps0": 0.0}, {"eps0": -1.0},
                                 {"max_iter": 2.5}, {"max_iter": True}])
def test_config_validation_eps0_and_integer_max_iter(bad):
    with pytest.raises(ValueError):
        SolverConfig(**bad).validate()
    assert SolverConfig(max_iter=np.int64(3)).validate().max_iter == 3


def test_warm_state_dimension_check(ex1):
    _, prob, _ = ex1(2)
    bad = IterateState(u=np.zeros(3))
    with pytest.raises(ValueError):
        so.solve_ihadmm(prob, SolverConfig(max_iter=2), warm=bad)


def test_tiny_grid_oracle_agreement(ex1):
    # the one-dof mesh problem: every solver hits the brute-force answer
    _, prob, _ = ex1(1)
    u_star, _ = brute_force_solve(prob)
    sig = reproduction_sigma(prob.alpha)
    ih = so.solve_ihadmm(prob, SolverConfig(tol=1e-12, sigma=sig, max_iter=2000))
    assert np.abs(ih.final_state.u - u_star).max() < 1e-8
    cl = so.solve_classical_admm(prob, SolverConfig(tol=1e-12, max_iter=2000))
    assert np.abs(cl.final_state.u - u_star).max() < 1e-8
    ap = so.solve_apg(prob, SolverConfig(tol=1e-11, max_iter=2000))
    assert np.abs(ap.final_state.u - u_star).max() < 1e-7
    pd = so.solve_pdas(prob, SolverConfig(tol=1e-12, max_iter=50))
    assert np.abs(pd.final_state.u - u_star).max() < 1e-10


def test_random_tiny_oracle_agreement():
    rng = np.random.default_rng(77)
    for _ in range(5):
        prob = random_tiny_problem(rng)
        u_star, _ = brute_force_solve(prob)
        sig = reproduction_sigma(prob.alpha)
        rep = so.solve_ihadmm(prob, SolverConfig(tol=1e-10, sigma=sig,
                                                 max_iter=5000))
        assert rep.converged
        assert np.abs(rep.final_state.u - u_star).max() < 1e-7


def test_huge_beta_kills_z(ex1):
    _, prob, _ = ex1(3)
    prob = dataclasses.replace(prob, beta=1e8)
    seen_z = []
    rep = so.solve_ihadmm(prob, SolverConfig(tol=1e-10),
                          callback=lambda k, s: seen_z.append(s.z.copy()))
    assert rep.converged
    for z in seen_z:
        assert np.array_equal(z, np.zeros_like(z))
    assert np.abs(rep.final_state.u).max() < 1e-8


def test_z_stays_in_box(ex1):
    _, prob, _ = ex1(3)
    boxes = []
    so.solve_ihadmm(prob, SolverConfig(tol=1e-8, sigma=0.125),
                    callback=lambda k, s: boxes.append(
                        (s.z.min(), s.z.max())))
    for lo, hi in boxes:
        assert lo >= prob.a and hi <= prob.b


def test_feasibility_decay(ex1):
    # consensus gap in the discrete L2 norm, matching the eta_2 convention
    _, prob, _ = ex1(4)
    gaps = []

    def track(k, s):
        d = s.u - s.z
        gaps.append(np.sqrt(d @ (prob.M @ d)))

    cfg = SolverConfig(tol=1e-8, sigma=reproduction_sigma(prob.alpha))
    rep = so.solve_ihadmm(prob, cfg, callback=track)
    assert rep.converged
    burn = 5
    for g1, g2 in zip(gaps[burn:], gaps[burn + 1:]):
        assert g2 <= g1 * 1.05
    u = rep.final_state.u
    assert gaps[-1] <= cfg.tol * (1.0 + np.sqrt(u @ (prob.M @ u)))


def test_ihadmm_inexact_backend_matches_direct(ex1):
    _, prob, _ = ex1(4)
    sig = reproduction_sigma(prob.alpha)
    d = so.solve_ihadmm(prob, SolverConfig(tol=1e-8, sigma=sig))
    g = so.solve_ihadmm(prob, SolverConfig(tol=1e-8, sigma=sig,
                                           inner_backend="pmhss_gmres"))
    assert d.converged and g.converged
    scale = 1.0 + np.linalg.norm(d.final_state.u)
    assert np.linalg.norm(d.final_state.u - g.final_state.u) < 1e-6 * scale
    assert any(s.iterations > 0 for s in g.inner_stats)


def test_ihadmm_partial_report_on_max_iter(ex1):
    _, prob, _ = ex1(3)
    rep = so.solve_ihadmm(prob, SolverConfig(tol=1e-12, max_iter=3))
    assert not rep.converged
    assert rep.iterations == 3
    assert len(rep.eta_history) == 3 == len(rep.Rh_history)


def test_classical_iteration_growth(ex1):
    _, p3, _ = ex1(3)
    _, p4, _ = ex1(4)
    r3 = so.solve_classical_admm(p3, SolverConfig(tol=1e-6, max_iter=2000))
    r4 = so.solve_classical_admm(p4, SolverConfig(tol=1e-6, max_iter=2000))
    assert r3.converged and r4.converged
    assert r4.iterations > r3.iterations


@pytest.mark.xfail(reason="ADMM1 with the published parameters does not "
                          "reproduce the published per-level counts; the "
                          "mesh-dependent growth trend is asserted instead "
                          "(see decisions ledger)", strict=False)
def test_classical_level5_paper_count(ex1):
    _, prob, _ = ex1(5)
    rep = so.solve_classical_admm(prob, SolverConfig(tol=1e-6, max_iter=2000))
    assert rep.converged
    assert 41 <= rep.iterations <= 75          # published 58 +- 30%


def test_apg_curvature_stabilizes(ex1):
    # f is quadratic: once accepted, the backtracked constant never grows
    _, prob, _ = ex1(3)
    rep = so.solve_apg(prob, SolverConfig(tol=1e-8))
    assert rep.converged
    doublings = [s.iterations for s in rep.inner_stats]
    first_ok = next(i for i, d in enumerate(doublings) if d == 0)
    assert all(d == 0 for d in doublings[first_ok:])


def test_apg_iteration_count_level5(ex1):
    _, prob, _ = ex1(5)
    rep = so.solve_apg(prob, SolverConfig(tol=1e-6))
    assert rep.converged
    assert 6 <= rep.iterations <= 18           # published 12 +- 50%


def test_ihadmm_iteration_count_level5(ex1):
    _, prob, _ = ex1(5)
    rep = so.solve_ihadmm(prob, SolverConfig(
        tol=1e-6, sigma=reproduction_sigma(prob.alpha)))
    assert rep.converged
    assert 22 <= rep.iterations <= 40          # published 31 +- 30%


def test_pdas_ridge_newton(ex1):
    # no threshold, no binding bounds: plain Newton on a quadratic
    _, prob, _ = ex1(3)
    prob = dataclasses.replace(prob, beta=1e-300, a=-1e8, b=1e8)
    rep = so.solve_pdas(prob, SolverConfig(tol=1e-9, max_iter=10))
    assert rep.converged
    assert rep.iterations <= 2
    g = so.prox.grad_f(prob, factorize(prob.K), rep.final_state.u) \
        + 0.5 * prob.alpha * prob.W * rep.final_state.u
    assert np.abs(g).max() < 1e-8


def test_pdas_finite_termination_from_warm_start(ex1):
    for level in (3, 4, 5):
        _, prob, _ = ex1(level)
        sig = reproduction_sigma(prob.alpha)
        ph1 = so.solve_ihadmm(prob, SolverConfig(tol=1e-3, sigma=sig))
        rep = so.solve_pdas(prob, SolverConfig(tol=1e-10, max_iter=10),
                            warm=_warm_from_phase1(ph1.final_state))
        assert rep.converged
        assert rep.iterations <= 10


def test_pdas_stalled_active_sets_are_not_converged(ex1):
    # eta bottoms out at round-off (~1e-15) far above tol, the active sets
    # repeat, and PDAS must stop without claiming convergence
    _, prob, _ = ex1(3)
    rep = so.solve_pdas(prob, SolverConfig(tol=1e-18))
    assert rep.iterations < 10
    assert rep.final_eta > 1e-18
    assert not rep.converged


def test_direct_saddle_steps_flagged_converged(ex2):
    # the direct u-step reaches round-off relative to ||rhs||, which is all
    # an LU solve can promise, on every iteration of a Stadler run
    _, prob = ex2(4)
    rep = so.solve_ihadmm(prob, SolverConfig(
        tol=1e-6, sigma=reproduction_sigma(prob.alpha)))
    assert rep.converged
    assert all(s.converged for s in rep.inner_stats)
    assert max(s.final_relative_residual for s in rep.inner_stats) < 1e-12
    # a GMRES solve stopped by its iteration cap short of its target is not
    gamma = 0.5 * prob.alpha + reproduction_sigma(prob.alpha)
    saddle = so.SaddleSolver(prob.M, prob.K, gamma)
    rhs = np.ones(prob.n)
    _, _, st = saddle.solve(rhs, rhs, backend="pmhss_gmres", tol=1e-30)
    assert st.iterations == 500
    assert not st.converged


def test_stadler_pmhss_inner_iterations_level4(ex2):
    # the inexact u-step runs GMRES on (y, u) against the ||r1|| + ||r2||
    # target; this pins its inner-iteration total on the Stadler problem
    _, prob = ex2(4)
    rep = so.solve_ihadmm(prob, SolverConfig(
        tol=1e-6, sigma=reproduction_sigma(prob.alpha),
        inner_backend="pmhss_gmres"))
    assert rep.converged and rep.iterations == 424
    assert sum(s.iterations for s in rep.inner_stats) == 8878


def test_pdas_classification_partitions(ex1):
    _, prob, _ = ex1(3)
    rng = np.random.default_rng(5)
    u = rng.uniform(2 * prob.a, 2 * prob.b, prob.n)
    mu = rng.standard_normal(prob.n)
    code = _classify(u, mu, prob, 1.0)
    assert code.min() >= 0 and code.max() <= 4


def test_two_phase_basic(ex1):
    _, prob, _ = ex1(4)
    sig = reproduction_sigma(prob.alpha)
    rep = so.solve_two_phase(prob, SolverConfig(tol=1e-3, sigma=sig),
                             SolverConfig(tol=1e-10, sigma=sig))
    assert rep.converged
    assert rep.final_eta <= 1e-10
    it1, it2 = rep.phase_iterations
    assert it1 + it2 == rep.iterations
    assert len(rep.eta_history) == rep.iterations


def test_two_phase_ordered_tolerances(ex1):
    _, prob, _ = ex1(2)
    with pytest.raises(ValueError):
        so.solve_two_phase(prob, SolverConfig(tol=1e-12),
                           SolverConfig(tol=1e-3))


def test_two_phase_degenerate_tolerances(ex1):
    _, prob, _ = ex1(3)
    sig = reproduction_sigma(prob.alpha)
    rep = so.solve_two_phase(prob, SolverConfig(tol=1e-6, sigma=sig),
                             SolverConfig(tol=1e-6, sigma=sig))
    assert rep.converged
    assert rep.final_eta <= 1e-6
    assert rep.phase_iterations[1] >= 0


def test_two_phase_phase1_failure_aborts(ex1):
    _, prob, _ = ex1(3)
    rep = so.solve_two_phase(prob, SolverConfig(tol=1e-10, max_iter=2),
                             SolverConfig(tol=1e-12))
    assert not rep.converged
    assert rep.phase_iterations == (2, 0)


def test_two_phase_matches_cold_pdas(ex1):
    for level in (2, 3, 4):
        _, prob, _ = ex1(level)
        sig = reproduction_sigma(prob.alpha)
        tp = so.solve_two_phase(prob, SolverConfig(tol=1e-3, sigma=sig),
                                SolverConfig(tol=1e-11, sigma=sig))
        cold = so.solve_pdas(prob, SolverConfig(tol=1e-11, max_iter=50))
        assert tp.converged and cold.converged
        assert np.abs(tp.final_state.u - cold.final_state.u).max() < 1e-8


def test_solver_equivalence(ex1):
    # all four agree on u within 1e-6 (1 + ||u||) where tol 1e-8 is reached
    for level in (2, 3, 4):
        _, prob, _ = ex1(level)
        sig = reproduction_sigma(prob.alpha)
        tp = so.solve_two_phase(prob, SolverConfig(tol=1e-3, sigma=sig),
                                SolverConfig(tol=1e-10, sigma=sig))
        u_ref = tp.final_state.u
        scale = 1.0 + np.linalg.norm(u_ref)
        runs = [
            so.solve_ihadmm(prob, SolverConfig(tol=1e-8, sigma=sig)),
            so.solve_classical_admm(prob, SolverConfig(tol=1e-8,
                                                       max_iter=6000)),
            so.solve_apg(prob, SolverConfig(tol=1e-8, max_iter=3000)),
        ]
        for rep in runs:
            assert rep.converged
            assert np.linalg.norm(rep.final_state.u - u_ref) <= 1e-6 * scale


def test_theta_merit_slack_monotone(ex1):
    # ||theta^{k+1}|| <= ||theta^k|| + sqrt(5/2 sigma ||M||) rho eps_k
    _, prob, _ = ex1(3)
    sig = reproduction_sigma(prob.alpha)
    tau = 1.0
    ref = so.solve_two_phase(prob, SolverConfig(tol=1e-3, sigma=sig),
                             SolverConfig(tol=1e-12, sigma=sig))
    u_s = ref.final_state.u
    lam_s = ref.final_state.p - 0.5 * prob.alpha * u_s
    z_s = u_s
    M = prob.M.toarray()
    C = np.linalg.solve(prob.K.toarray(), M)
    sigma_f = 0.5 * prob.alpha * M + C.T @ M @ C
    rho = 1.0 / np.linalg.eigvalsh(sig * M + sigma_f).min()
    norm_M = np.linalg.eigvalsh(M).max()

    cfg = SolverConfig(tol=1e-9, sigma=sig, tau=tau)
    thetas = []

    def track(k, s):
        dl = s.lam - lam_s
        dz = s.z - z_s
        thetas.append(np.sqrt(dl @ (M @ dl) / (2 * tau * sig)
                              + 0.5 * sig * dz @ (M @ dz)))

    rep = so.solve_ihadmm(prob, cfg, callback=track)
    assert rep.converged
    slack = [np.sqrt(2.5 * sig * norm_M) * rho
             * cfg.eps0 / (k + 1.0) ** cfg.eps_decay
             for k in range(len(thetas))]
    for k in range(len(thetas) - 1):
        assert thetas[k + 1] <= thetas[k] + slack[k] + 1e-12


def test_Rh_complexity_trend(ex1):
    # k * min_{i<=k} R_h(i) decays toward zero (checked above the fp floor)
    _, prob, _ = ex1(3)
    cfg = SolverConfig(tol=1e-16, max_iter=200,
                       sigma=reproduction_sigma(prob.alpha))
    rep = so.solve_ihadmm(prob, cfg)
    rh = np.array(rep.Rh_history)
    running = np.minimum.accumulate(rh)
    kmin = np.arange(1, len(rh) + 1) * running
    burn = 10
    floor = 1e-20
    live = running > floor
    idx = np.flatnonzero(live)
    idx = idx[idx >= burn]
    for i, j in zip(idx, idx[1:]):
        assert kmin[j] <= kmin[i] * 1.05
    assert kmin[-1] <= 1e-10 * kmin[burn]


def test_convergence_log_csv(tmp_path, ex1):
    _, prob, _ = ex1(2)
    path = tmp_path / "log.csv"
    so.solve_ihadmm(prob, SolverConfig(tol=1e-6)).write_log(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,eta1,eta2,eta3,eta4,eta5,eta,Rh,inner_iters"
    assert len(lines) >= 2
    first = lines[1].split(",")
    assert first[0] == "1" and len(first) == 9


def test_callback_sees_every_iteration(ex1):
    _, prob, _ = ex1(2)
    count = []
    rep = so.solve_ihadmm(prob, SolverConfig(tol=1e-8, sigma=0.125),
                          callback=lambda k, s: count.append(k))
    assert count == list(range(rep.iterations))
