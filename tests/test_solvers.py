import collections
import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sparseoc as so
from sparseoc import linalg, solvers
from sparseoc.linalg import factorize
from sparseoc.oracle import brute_force_solve
from sparseoc.prox import (dist_subdifferential_g, kkt_residual_admm,
                           multiplier_fixed_point)
from sparseoc.solvers import SolverConfig, IterateState, _classify
from sparseoc.experiments import build_example1, reproduction_sigma

from conftest import kernel_problem, random_tiny_problem


def _warm_from_phase1(state):
    # solve_pdas derives mu = M p - alpha T z from the adjoint
    return IterateState(u=state.z.copy(), p=state.p)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=-1.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(inner_backend="cg").validate()


@pytest.mark.parametrize("value", [True, np.nan, np.inf])
@pytest.mark.parametrize("field", ["tol", "sigma"])
def test_config_validation_rejects_bool_and_nonfinite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        SolverConfig(**{field: value}).validate()


@pytest.mark.parametrize("bad", [{"max_iter": 2.5}, {"max_iter": True},
                                 {"max_iter": 0}])
def test_config_validation_integer_max_iter(bad):
    with pytest.raises(ValueError):
        SolverConfig(**bad).validate()
    assert SolverConfig(max_iter=np.int64(3)).validate().max_iter == 3


def test_warm_state_dimension_check(ex1):
    _, prob, _ = ex1(2)
    bad = IterateState(u=np.zeros(3))
    with pytest.raises(ValueError):
        so.solve_ihadmm(prob, SolverConfig(max_iter=2), warm=bad)


@pytest.mark.parametrize("field", ["y", "p", "mu"])
def test_warm_state_checks_y_p_and_mu(ex1, field):
    # a length-1 mu would broadcast in the PDAS classification, a short p
    # would fail inside a sparse product
    _, prob, _ = ex1(3)
    warm = IterateState(u=np.zeros(prob.n), **{field: np.zeros(1)})
    with pytest.raises(ValueError, match=f"warm state field {field} has "
                                         "wrong length"):
        so.solve_pdas(prob, SolverConfig(max_iter=2), warm=warm)


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


def test_classical_iteration_growth(classical_admm):
    # the fixed Euclidean penalty is h^-2 times stronger, relative to f,
    # than the M-weighted one: each refinement multiplies the count by ~4
    # (101/374/1418 at levels 3/4/5)
    counts = []
    for level in (3, 4, 5):
        rep = classical_admm(level)
        assert rep.iterations <= 2000       # converged within max_iter=2000
        assert rep.converged
        counts.append(rep.iterations)
    for coarse, fine in zip(counts, counts[1:]):
        assert 3.5 <= fine / coarse <= 4.2


@pytest.mark.xfail(reason="ADMM1 with the published parameters does not "
                          "reproduce the published per-level counts; the "
                          "mesh-dependent growth trend is asserted instead "
                          "(see decisions ledger)", strict=False)
def test_classical_level5_paper_count(classical_admm):
    rep = classical_admm(5)
    assert rep.iterations <= 2000           # converged within max_iter=2000
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


def test_pdas_cycling_active_sets_stop_unconverged(ex2, monkeypatch):
    # cold PDAS on the Stadler problem at level 4 classifies sets 0..7,
    # then set 6 again, two sets back: a set seen before, not only the
    # previous one, ends the run
    _, prob = ex2(4)
    codes = []

    def classify(*args):
        codes.append(_classify(*args))
        return codes[-1]

    monkeypatch.setattr(solvers, "_classify", classify)
    rep = so.solve_pdas(prob, SolverConfig(tol=1e-10, max_iter=50))
    assert not rep.converged
    assert rep.iterations == 8 and len(codes) == 9
    assert np.array_equal(codes[8], codes[6])
    assert not np.array_equal(codes[8], codes[7])
    assert rep.final_eta > 0.1


@pytest.mark.parametrize("level", [4, 5, 6, 7])
def test_cold_pdas_converges_in_a_level_independent_count(ex1, level):
    # semismooth Newton on eta_3's fixed-point equation: from zero the
    # constructed problem converges in 3, 4, 4, 4 steps
    _, prob, _ = ex1(level)
    rep = so.solve_pdas(prob, SolverConfig(tol=1e-10, max_iter=50))
    assert rep.converged and rep.final_eta <= 1e-10
    assert rep.iterations <= 4


def test_two_phase_converges_on_the_constructed_problem_at_level_8(ex1):
    # phase 2 takes 2 steps from the 1e-3 handoff, as on the coarser levels
    _, prob, _ = ex1(8)
    sig = reproduction_sigma(prob.alpha)
    rep = so.solve_two_phase(prob, SolverConfig(tol=1e-3, sigma=sig),
                             SolverConfig(tol=1e-10, sigma=sig))
    assert rep.converged and rep.final_eta <= 1e-10
    assert rep.phase_iterations[1] <= 3


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(1e-6, 1.0), beta=st.floats(1e-3, 1.0),
       a=st.floats(-30.0, -0.1), b=st.floats(0.1, 30.0),
       dofs=st.lists(st.tuples(st.floats(1e-6, 1.0), st.floats(-2.0, 2.0),
                               st.floats(-3.0, 3.0)), min_size=1, max_size=20))
def test_classify_is_the_branch_of_the_multiplier_fixed_point(alpha, beta, a,
                                                              b, dofs):
    # away from ties, each code names where Pi_box((2/alpha) soft(v, beta)),
    # v = M lam / W, lands: at a, at b, at 0, or inside with the sign of v
    W, t, s = map(np.array, zip(*dofs))
    prob = kernel_problem(W, alpha, beta, a, b)
    u = np.where(t < 0.0, -t * a, t * b)            # anywhere in twice the box
    v = s * (0.5 * alpha * max(-a, b) + beta)       # across every branch
    mu = W * v - 0.5 * alpha * (W * u)
    code = _classify(u, mu, prob)
    Mlam = mu + 0.5 * alpha * (W * u)
    z = multiplier_fixed_point(Mlam * prob.W_inv, prob)
    ties = (0.5 * alpha * a - beta, 0.5 * alpha * b + beta, -beta, beta)
    clear = ~np.any([np.isclose(Mlam / W, tie, rtol=1e-9, atol=0.0)
                     for tie in ties], axis=0)
    lands = np.select([z == a, z == b, z == 0.0, z > 0.0],
                      [solvers._AT_A, solvers._AT_B, solvers._AT_0,
                       solvers._INACT_POS], solvers._INACT_NEG)
    assert np.array_equal(code[clear], lands[clear])


def _dense_pdas_step(prob, code):
    """u, y, p of a PDAS step at fixed active sets, by a dense solve of the
    full 3n KKT system.

    Rows: K y - M u = M yc; M y + K p = M yd; alpha T u - M p = -mu_fix on
    the free dofs and u = u_fix on the active ones.
    """
    n, alpha = prob.n, prob.alpha
    M, K = prob.M.toarray(), prob.K.toarray()
    T = 0.5 * (M + np.diag(prob.W))
    active = code <= solvers._AT_0
    u_fix = np.where(code == solvers._AT_A, prob.a,
                     np.where(code == solvers._AT_B, prob.b, 0.0))
    mu_fix = np.where(code == solvers._INACT_POS, prob.W * prob.beta,
                      -prob.W * prob.beta)
    Z, I = np.zeros((n, n)), np.eye(n)
    control_rows = np.where(active[:, None], np.hstack([Z, Z, I]),
                            np.hstack([Z, -M, alpha * T]))
    A = np.vstack([np.hstack([K, Z, -M]), np.hstack([M, K, Z]), control_rows])
    rhs = np.concatenate([M @ prob.yc, M @ prob.yd,
                          np.where(active, u_fix, -mu_fix)])
    x = np.linalg.solve(A, rhs)
    return x[2 * n:], x[:n], x[n:2 * n]


@pytest.mark.parametrize("level", [2, 3])
def test_pdas_step_matches_dense_kkt_solve(ex1, level):
    # one Newton step from a random (u, mu): mixed active sets, and a CG
    # start far from the step
    _, prob, _ = ex1(level)
    rng = np.random.default_rng(level)
    u = rng.uniform(2 * prob.a, 2 * prob.b, prob.n)
    mu = 2 * prob.beta * prob.W * rng.standard_normal(prob.n)
    code = _classify(u, mu, prob)
    assert np.any(code <= solvers._AT_0) and np.any(code > solvers._AT_0)
    rep = so.solve_pdas(prob, SolverConfig(max_iter=1),
                        warm=IterateState(u=u, mu=mu))
    assert rep.iterations == 1 and rep.inner_stats[0].iterations > 0
    s = rep.final_state
    for got, want in zip((s.u, s.y, s.p), _dense_pdas_step(prob, code)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _record_cg_iterations_to(monkeypatch, rtol):
    """Wrap solvers.cg; for each call append the first iteration whose true
    residual ||b - A x_k|| is at most rtol ||b|| (None if none is)."""
    cg_orig, hits = solvers.cg, []

    def cg_recording(A, b, callback, **kwargs):
        state = [0, None]

        def record(xk):
            callback(xk)
            state[0] += 1
            if state[1] is None and \
                    np.linalg.norm(b - A.matvec(xk)) <= rtol * np.linalg.norm(b):
                state[1] = state[0]

        result = cg_orig(A, b, callback=record, **kwargs)
        hits.append(state[1])
        return result

    monkeypatch.setattr(solvers, "cg", cg_recording)
    return hits


def test_pdas_cg_iterations_do_not_grow_with_the_level(ex2, monkeypatch):
    # the reduced Hessian alpha T + M K^-1 M K^-1 M is a compact
    # perturbation of alpha T: the CG count per step stays level-independent.
    # The raw counts to _CG_RTOL = 1e-14 end on the round-off plateau, where
    # the LU orderings move them by one; the iterations to a true residual
    # of 1e-12 (17 at levels 4-7) are what the trend is judged on
    hits = _record_cg_iterations_to(monkeypatch, 1e-12)
    most = []
    for level in (4, 5, 6):
        _, prob = ex2(level)
        sig = reproduction_sigma(prob.alpha)
        del hits[:]
        rep = so.solve_two_phase(prob, SolverConfig(tol=1e-3, sigma=sig),
                                 SolverConfig(tol=1e-10, sigma=sig))
        assert rep.converged and rep.final_eta <= 1e-10
        steps = rep.inner_stats[rep.phase_iterations[0]:]
        assert all(s.converged for s in steps)
        assert all(s.final_relative_residual <= solvers._CG_RTOL
                   for s in steps)
        assert all(s.iterations > 0 for s in steps)
        assert max(s.iterations for s in steps) <= 25
        assert len(hits) == len(steps) and None not in hits
        most.append(max(hits))
    assert most == sorted(most, reverse=True)


def test_pdas_cg_iterations_in_convergence_log(tmp_path, ex1):
    _, prob, _ = ex1(4)
    sig = reproduction_sigma(prob.alpha)
    rep = so.solve_two_phase(prob, SolverConfig(tol=1e-3, sigma=sig),
                             SolverConfig(tol=1e-10, sigma=sig))
    rep.write_log(tmp_path / "log.csv")
    rows = (tmp_path / "log.csv").read_text().splitlines()[1:]
    n1, n2 = rep.phase_iterations
    assert n2 > 0 and len(rows) == n1 + n2
    assert all(int(r.split(",")[-1]) > 0 for r in rows[n1:])


def test_pdas_cg_miss_stops_unconverged(ex2, monkeypatch, tmp_path):
    # cold start: the first step has every dof active at zero and no CG;
    # the second needs ~40 CG iterations and stops at the cap
    _, prob = ex2(4)
    monkeypatch.setattr(solvers, "_CG_MAX_ITER", 5)
    rep = so.solve_pdas(prob, SolverConfig(tol=1e-10, max_iter=20))
    assert not rep.converged
    assert rep.iterations == 2
    last = rep.inner_stats[-1]
    assert not last.converged and last.iterations == 5
    assert last.final_relative_residual > solvers._CG_RTOL
    _assert_every_iteration_recorded(rep, tmp_path)


def test_pdas_cg_starts_from_the_current_controls(ex1):
    # restarted at its own solution, PDAS keeps the active sets and its CG
    # starts at the solution: no CG iteration is needed
    _, prob, _ = ex1(4)
    sig = reproduction_sigma(prob.alpha)
    s = so.solve_two_phase(prob, SolverConfig(tol=1e-3, sigma=sig),
                           SolverConfig(tol=1e-10, sigma=sig)).final_state
    rep = so.solve_pdas(prob, SolverConfig(max_iter=1),
                        warm=IterateState(u=s.u, mu=s.mu))
    assert rep.inner_stats[0].iterations == 0
    assert np.array_equal(rep.final_state.u, s.u)


@pytest.mark.parametrize("level", [2, 3])
def test_classical_u_step_solves_the_3n_system(ex1, level):
    # each iterate's (y, u, p) solves the 3n system
    # [[M, 0, K], [0, alpha/2 M + sigma I, -M], [K, -M, 0]] [y; u; p]
    # = [M yd; sigma z - lam_c; M yc] at the step's (z, lam_c), rebuilt
    # from the callback as in _iterate_recorder.  The error is taken
    # relative to the whole solution: at level 2 u decays to ~1e-8 of it,
    # below what the dense solve resolves of u alone
    _, prob, _ = ex1(level)
    sigma, tau, n = 0.1 * prob.alpha, solvers._TAU_CLASSICAL, prob.n
    M, K, O = prob.M.toarray(), prob.K.toarray(), np.zeros((n, n))
    A3 = np.block([[M, O, K],
                   [O, 0.5 * prob.alpha * M + sigma * np.eye(n), -M],
                   [K, -M, O]])
    z, lam_c, errors = np.zeros(n), np.zeros(n), []

    def record(k, s):
        nonlocal z, lam_c
        rhs = np.concatenate([prob.Myd, sigma * z - lam_c, prob.Myc])
        x = np.linalg.solve(A3, rhs)
        errors.append(np.linalg.norm(np.concatenate([s.y, s.u, s.p]) - x)
                      / np.linalg.norm(x))
        z, lam_c = s.z, lam_c + tau * sigma * (s.u - s.z)

    rep = so.solve_classical_admm(prob, SolverConfig(
        tol=1e-8, sigma=sigma, max_iter=2000), callback=record)
    assert rep.converged and len(errors) == rep.iterations
    assert max(errors) <= 1e-12


def test_classical_admm_inner_stats_carry_the_cg(classical_admm, tmp_path):
    # each row holds the u-step's CG iterations, one preconditioner solve
    # each, and the residual of the 3n system's middle row relative to
    # ||b|| + ||g0||, which, unlike ||b + g0||, does not cancel as u decays
    for level in (2, 3):
        rep = classical_admm(level)
        assert rep.converged
        for s in rep.inner_stats:
            assert s.converged
            assert s.iterations > 0
            assert 0.0 < s.final_relative_residual <= 1e-13
        _assert_every_iteration_recorded(rep, tmp_path)
        rows = (tmp_path / "log.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[-1]) for r in rows] \
            == [s.iterations for s in rep.inner_stats]


def test_classical_admm_cg_miss_stops_unconverged(ex1, monkeypatch,
                                                  tmp_path):
    # one CG iteration from u = 0 does not reach _CG_RTOL: the first row
    # records the miss and stops the run
    _, prob, _ = ex1(3)
    monkeypatch.setattr(solvers, "_CG_MAX_ITER", 1)
    rep = so.solve_classical_admm(prob, SolverConfig(tol=1e-6,
                                                     max_iter=2000))
    assert not rep.converged
    assert rep.iterations == 1
    last = rep.inner_stats[-1]
    assert not last.converged and last.iterations == 1
    assert last.final_relative_residual > solvers._CG_RTOL
    _assert_every_iteration_recorded(rep, tmp_path)


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
    saddle = so.SaddleSolver(prob.sine, gamma)
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
    # each u-step's GMRES after the second starts from the minimal-residual
    # combination of the last 8 solution updates, and its target follows
    # the last eta (2246 against the fixed tol-based cap, 6863 from the
    # previous (y, u) alone).  With the exact G = M + s K in PMHSS in place
    # of G~ = M~ + s K the three read 970, 1827 and 4738: at this small s
    # the dropped skew mass part weighs more against s K than on the
    # constructed problem.  The total moves with round-off in the data: yd
    # projected by SuperLU's transposed solve (1.4e-15 relative away from
    # the CG projection) gives 1087, and by its plain solve 1091.  It read
    # 1079 while GMRES ran on the nodal (y, u); in the sine basis, with the
    # same operator and preconditioner up to round-off and the window's
    # Gram matrix kept row by row, it reads 1084, at the same 424
    # iterations
    assert sum(s.iterations for s in rep.inner_stats) == 1084


def test_constructed_pmhss_inner_iterations_level6(ex1):
    # the benchmark instance, where zero starts take 360 GMRES iterations,
    # starts from the previous (y, u) alone 234 and the fixed tol-based
    # cap on the target 147
    _, prob, _ = ex1(6)
    rep = so.solve_ihadmm(prob, SolverConfig(
        tol=1e-6, sigma=reproduction_sigma(prob.alpha),
        inner_backend="pmhss_gmres"))
    assert rep.converged and rep.iterations == 36
    assert rep.inner_stats[0].iterations > 0
    assert sum(s.iterations for s in rep.inner_stats) <= 100


@pytest.mark.parametrize("example", ["constructed", "stadler"])
def test_pmhss_target_follows_the_last_eta(ex1, ex2, monkeypatch, example):
    # the inexact u-step aims at min(eps_k / denom, cap_k), where cap_k
    # scales the fixed cap 0.25 tol h / max(1, gamma) by
    # max(tol, _FORCING eta_{k-1}) / tol; the cap holds eta1 and eta3 to
    # half of that, so neither ever decides eta
    prob = ex1(4)[1] if example == "constructed" else ex2(4)[1]
    config = SolverConfig(tol=1e-6, sigma=reproduction_sigma(prob.alpha),
                          inner_backend="pmhss_gmres")
    targets = []
    solve = linalg.SaddleSolver.solve

    def recording_solve(self, rhs_top, rhs_bottom, backend="direct",
                        tol=1e-10):
        targets.append(tol)
        return solve(self, rhs_top, rhs_bottom, backend=backend, tol=tol)

    monkeypatch.setattr(linalg.SaddleSolver, "solve", recording_solve)
    rep = so.solve_ihadmm(prob, config)
    assert rep.converged and len(targets) == rep.iterations

    gamma = 0.5 * prob.alpha + config.sigma
    mk = linalg.estimate_mkinv_norm(prob.W, prob.sine)
    denom = np.sqrt(2.0) * mk * max(mk, gamma)
    cap = 0.25 * config.tol * prob.h / max(1.0, gamma)
    forced = [config.tol] + [max(config.tol, solvers._FORCING * r.eta)
                             for r in rep.eta_history[:-1]]
    relaxed = 0
    for k, (target, f, res) in enumerate(zip(targets, forced,
                                             rep.eta_history)):
        eps_k = solvers._EPS0 / (k + 1.0) ** solvers._EPS_DECAY
        cap_k = 0.25 * f * prob.h / max(1.0, gamma)
        assert target == min(eps_k / denom, cap_k)
        if f == config.tol:
            assert target == min(eps_k / denom, cap)
        else:
            relaxed += 1
        assert max(res.eta1, res.eta3) <= 0.5 * f
        assert max(res.eta1, res.eta3) < res.eta
    assert relaxed > 0 and forced[0] == config.tol


def test_pdas_classification_partitions(ex1):
    _, prob, _ = ex1(3)
    rng = np.random.default_rng(5)
    u = rng.uniform(2 * prob.a, 2 * prob.b, prob.n)
    mu = rng.standard_normal(prob.n)
    code = _classify(u, mu, prob)
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
    tau = solvers._TAU_IHADMM
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

    cfg = SolverConfig(tol=1e-9, sigma=sig)
    thetas = []

    def track(k, s):
        dl = s.lam - lam_s
        dz = s.z - z_s
        thetas.append(np.sqrt(dl @ (M @ dl) / (2 * tau * sig)
                              + 0.5 * sig * dz @ (M @ dz)))

    rep = so.solve_ihadmm(prob, cfg, callback=track)
    assert rep.converged
    slack = [np.sqrt(2.5 * sig * norm_M) * rho
             * solvers._EPS0 / (k + 1.0) ** solvers._EPS_DECAY
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


def _assert_every_iteration_recorded(rep, tmp_path):
    # the three histories have one entry per iteration, and so has the log
    assert len(rep.eta_history) == len(rep.Rh_history) \
        == len(rep.inner_stats) == rep.iterations
    rep.write_log(tmp_path / "log.csv")
    rows = (tmp_path / "log.csv").read_text().splitlines()[1:]
    assert [int(r.split(",")[0]) for r in rows] \
        == list(range(1, rep.iterations + 1))


@pytest.mark.parametrize("name", ["ihadmm", "classical_admm", "apg", "pdas",
                                  "two_phase"])
def test_callback_sees_every_iteration(ex1, tmp_path, name):
    _, prob, _ = ex1(2)
    count = []
    config = SolverConfig(tol=1e-8, sigma=0.125, max_iter=2000)
    callback = lambda k, s: count.append(k)
    if name == "two_phase":
        rep = so.solve_two_phase(prob, SolverConfig(tol=1e-3, sigma=0.125),
                                 config, callback=callback)
        assert rep.phase_iterations[1] > 0
    else:
        rep = so.SOLVERS[name](prob, config, callback=callback)
    assert rep.converged
    assert count == list(range(rep.iterations))
    _assert_every_iteration_recorded(rep, tmp_path)


def test_apg_backtracking_give_up_stops_unconverged(ex1, monkeypatch,
                                                    tmp_path):
    # f turns NaN in the fourth iteration, so no trial point passes the
    # sufficient-decrease test: APG gives up after 60 doublings and returns
    # the last accepted control without a multiplier
    _, prob, _ = ex1(3)
    seen = []
    f_orig = solvers.f_from_state
    monkeypatch.setattr(
        solvers, "f_from_state",
        lambda problem, u, y: np.nan if len(seen) == 3
        else f_orig(problem, u, y))
    rep = so.solve_apg(prob, SolverConfig(tol=1e-6),
                       callback=lambda k, s: seen.append(s.u))
    assert not rep.converged and rep.iterations == 3
    assert rep.final_state.lam is None
    assert np.array_equal(rep.final_state.u, seen[-1])
    _assert_every_iteration_recorded(rep, tmp_path)


def _miss_on_saddle_solve(monkeypatch, index):
    """Make the index-th u-step (1-based) report a missed inner target."""
    solve_orig, calls = linalg.SaddleSolver.solve, []

    def solve(self, *args, **kwargs):
        y, u, stats = solve_orig(self, *args, **kwargs)
        calls.append(stats)
        if len(calls) == index:
            stats = dataclasses.replace(stats, converged=False)
        return y, u, stats

    monkeypatch.setattr(linalg.SaddleSolver, "solve", solve)


@pytest.mark.parametrize("backend", ["direct", "pmhss_gmres"])
def test_ihadmm_inner_miss_stops_the_run(ex1, monkeypatch, tmp_path,
                                         backend):
    # a u-step flagged as a miss ends the run unconverged after that
    # iteration is recorded and shown to the callback, whatever the backend
    _, prob, _ = ex1(3)
    config = SolverConfig(tol=1e-6, inner_backend=backend)
    assert so.solve_ihadmm(prob, config).iterations > 4
    _miss_on_saddle_solve(monkeypatch, 4)
    count = []
    rep = so.solve_ihadmm(prob, config, callback=lambda k, s: count.append(k))
    assert not rep.inner_stats[3].converged
    assert not rep.converged and rep.iterations == 4
    assert count == list(range(rep.iterations))
    _assert_every_iteration_recorded(rep, tmp_path)


def test_ihadmm_inner_miss_on_the_last_step_is_not_converged(ex1,
                                                             monkeypatch):
    # the miss outranks eta <= tol on the same iteration
    _, prob, _ = ex1(3)
    config = SolverConfig(tol=1e-6, inner_backend="pmhss_gmres")
    plain = so.solve_ihadmm(prob, config)
    assert plain.converged
    _miss_on_saddle_solve(monkeypatch, plain.iterations)
    rep = so.solve_ihadmm(prob, config)
    assert rep.iterations == plain.iterations
    assert rep.final_eta == plain.final_eta <= config.tol
    assert not rep.converged


def _count_lu_ops(monkeypatch, prob):
    """Count factorizations, solves and solved columns per operator, and
    sparse matrix products by the matrix's dtype (real or complex).

    The operator is K, M or other.  Wraps factorize (solvers holds its
    own binding) and Factorization.solve the way perfbench's tracer does,
    SineGrid.solve (a K-solve) and the @ operator of the problem's
    sparse matrix class.  Returns the counter and a fresh copy of the problem,
    whose cached M factorization and K-solver are not yet made.
    """
    prob = dataclasses.replace(prob)
    counts = collections.Counter()
    op_of = weakref.WeakKeyDictionary()
    factorize_orig, solve_orig = linalg.factorize, linalg.Factorization.solve
    sine_solve_orig = linalg.SineGrid.solve
    sparse_class = type(prob.M)
    matmul_orig = sparse_class.__matmul__

    def count_solve(op, cols):
        counts["solve." + op] += 1
        counts["cols." + op] += cols

    def counted_matmul(A, x):
        kind = "complex" if A.dtype.kind == "c" else "real"
        counts["product." + kind] += 1
        return matmul_orig(A, x)

    def counted_factorize(A):
        op = "K" if A is prob.K else "M" if A is prob.M else "other"
        fact = factorize_orig(A)
        op_of[fact] = op
        counts["factor." + op] += 1
        return fact

    def counted_solve(fact, rhs):
        count_solve(op_of.get(fact, "other"),
                    1 if np.ndim(rhs) == 1 else np.shape(rhs)[1])
        return solve_orig(fact, rhs)

    def counted_sine_solve(grid, rhs):
        # a stack of right-hand sides runs along the leading axis
        count_solve("K", 1 if np.ndim(rhs) == 1 else np.shape(rhs)[0])
        return sine_solve_orig(grid, rhs)

    for owner in (linalg, solvers):
        monkeypatch.setattr(owner, "factorize", counted_factorize)
    monkeypatch.setattr(linalg.Factorization, "solve", counted_solve)
    monkeypatch.setattr(linalg.SineGrid, "solve", counted_sine_solve)
    monkeypatch.setattr(sparse_class, "__matmul__", counted_matmul)
    return counts, prob


def test_direct_ihadmm_one_lu_solve_per_iteration(ex1, ex2, monkeypatch):
    # the saddle solve only: the eta dual norms are bounded through W
    # (eta4 takes the M norm of alpha/2 u - p + lam); R_h comes from the
    # carried adjoint, so K is neither factored nor solved.  On Stadler at
    # level 4 the u-step factors A once and solves with it once per
    # iteration; on the constructed problem at level 3 it iterates in the
    # sine basis (linalg.SaddleSolver._richardson) and makes no LU at all
    for prob, lu in ((ex2(4)[1], True), (ex1(3)[1], False)):
        with monkeypatch.context() as mp:
            counts, prob = _count_lu_ops(mp, prob)
            rep = so.solve_ihadmm(prob, SolverConfig(
                tol=1e-6, sigma=reproduction_sigma(prob.alpha)))
        assert rep.converged and rep.iterations > 10
        assert counts["factor.M"] == 0 and counts["solve.M"] == 0
        assert counts["factor.other"] == lu
        assert counts["solve.other"] == lu * rep.iterations
        assert sum(v for k, v in counts.items() if k.startswith("solve.")) \
            == lu * rep.iterations
        assert counts["factor.K"] == 0 and counts["solve.K"] == 0


def test_pmhss_ihadmm_factors_and_solves_no_k(ex1, monkeypatch):
    # ||M K^-1|| for the inexact target comes from the mesh in closed form,
    # and the PMHSS preconditioner's G~ = M~ + sqrt(gamma) K is a diagonal
    # in the sine basis where GMRES runs, so the inexact path factors
    # nothing and solves with nothing: no K-solve, no LU solve of G or of
    # any other matrix
    _, prob, _ = ex1(3)
    counts, prob = _count_lu_ops(monkeypatch, prob)
    pmhss_apply = linalg.pmhss_apply

    def counted_pmhss_apply(*args):
        counts["pmhss"] += 1
        return pmhss_apply(*args)

    monkeypatch.setattr(linalg, "pmhss_apply", counted_pmhss_apply)
    rep = so.solve_ihadmm(prob, SolverConfig(
        tol=1e-6, sigma=reproduction_sigma(prob.alpha),
        inner_backend="pmhss_gmres"))
    assert rep.converged and rep.iterations > 10
    assert not [k for k in counts if k.startswith(("factor.", "solve."))]
    # one PMHSS application per GMRES iteration
    papps = sum(s.preconditioner_applications for s in rep.inner_stats)
    assert counts["pmhss"] == papps > 0


def test_direct_ihadmm_sparse_products_per_iteration(ex1, ex2, monkeypatch):
    # the u-step's right-hand side (K), its residual (the complex A), M u,
    # M z_new and the eta5 gap; M lam, M (u - z) and M w for eta4 and R_h
    # follow from the carried M z and M lam by linearity, and eta1 and
    # eta3 come from the u-step's block residual.  The same on either path
    # of the u-step: the LU (Stadler, level 4) and the sine-basis
    # Richardson (constructed, level 4), whose steps make dense products
    # only and whose start residual reuses the last A z
    for prob, lu in ((ex2(4)[1], True), (ex1(4)[1], False)):
        with monkeypatch.context() as mp:
            counts, prob = _count_lu_ops(mp, prob)
            seen = []
            rep = so.solve_ihadmm(prob, SolverConfig(
                tol=1e-6, sigma=reproduction_sigma(prob.alpha)),
                callback=lambda k, s: seen.append(
                    (counts["product.real"], counts["product.complex"])))
        assert rep.converged and rep.iterations > 10
        assert counts["factor.other"] == lu
        # between two callbacks lies one whole iteration
        steps = {(r1 - r0, c1 - c0)
                 for (r0, c0), (r1, c1) in zip(seen, seen[1:])}
        assert steps == {(4, 1)}


def test_sine_richardson_ihadmm_run_matches_the_lu_run(ex1, monkeypatch):
    # a whole direct ihADMM run on the constructed problem at level 5 takes
    # the sine-basis u-step; with the LU forced it takes the same number of
    # iterations to a final z within 1e-12
    _, prob, _ = ex1(5)
    config = SolverConfig(tol=1e-6, sigma=reproduction_sigma(prob.alpha))
    gamma = 0.5 * prob.alpha + config.sigma
    assert linalg.SaddleSolver(prob.sine, gamma)._richardson
    spectral = so.solve_ihadmm(prob, config)
    monkeypatch.setattr(linalg, "_SPECTRAL_MAX_RHO", -1.0)
    lu = so.solve_ihadmm(prob, config)
    assert spectral.converged and lu.converged
    assert spectral.iterations == lu.iterations
    z, z_lu = spectral.final_state.z, lu.final_state.z
    assert np.linalg.norm(z - z_lu) <= 1e-12 * np.linalg.norm(z_lu)


def test_one_sine_basis_per_problem(ex1, monkeypatch):
    # a two-phase solve (the ihADMM's sine-basis u-steps, then PDAS's
    # K-solves), a pmhss_gmres and a direct ihADMM on one problem all read
    # its one sine basis: its DST matrix and spectra are made once, and K
    # and M are checked once
    prob = dataclasses.replace(ex1(4)[1])
    counts = collections.Counter()
    for name in ("_stencil_error", "_mass_error", "_sine_matrix",
                 "_sine_spectra"):
        def counted(*args, _name=name, _orig=getattr(linalg, name)):
            counts[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(linalg, name, counted)
    sigma = reproduction_sigma(prob.alpha)
    reps = [so.solve_two_phase(prob, SolverConfig(tol=1e-3, sigma=sigma),
                               SolverConfig(tol=1e-10, sigma=sigma))]
    for backend in ("pmhss_gmres", "direct"):
        reps.append(so.solve_ihadmm(prob, SolverConfig(
            tol=1e-6, sigma=sigma, inner_backend=backend)))
    assert all(rep.converged for rep in reps)
    assert counts == {"_stencil_error": 1, "_mass_error": 1,
                      "_sine_matrix": 1, "_sine_spectra": 1}


def test_classical_admm_sparse_products_per_iteration(ex1, monkeypatch):
    # the CG's start residual and each CG iteration apply the reduced
    # Hessian: (alpha/2 M + sigma I) v and the three M of M K^-1 M K^-1 M v.
    # Then M (u + yc) and M (yd - y) for y and p, M (alpha/2 u - p) for the
    # step's residual and R_h's first term, the functionals' K y, M u,
    # M (y - yd) and K p, with M u reused for ||u||_M, then M (u - z),
    # M w for eta4 and the eta5 gap
    _, prob, _ = ex1(3)
    counts, prob = _count_lu_ops(monkeypatch, prob)
    seen = []
    rep = so.solve_classical_admm(
        prob, SolverConfig(tol=1e-6, max_iter=2000),
        callback=lambda k, s: seen.append(
            (counts["product.real"], counts["product.complex"])))
    assert rep.converged and rep.iterations > 10
    # between two callbacks lies one whole iteration
    steps = [(r1 - r0, c1 - c0) for (r0, c0), (r1, c1) in zip(seen, seen[1:])]
    assert steps == [(14 + 4 * s.iterations, 0) for s in rep.inner_stats[1:]]


def _carried_eta_floors(prob, state, sigma, iterations):
    """Round-off floors of eta2, eta4 and eta5 made from the ihADMM's
    carried products against fresh ones, each the unit round-off of the
    M norms of its operands over 1 + ||u||_M: eta2 takes M u - M z for
    M(u - z); eta4's fresh alpha/2 u - p + lam cancels terms of size
    gamma u (an eta4 of exactly 0, z not moved, reads ~1e-21 there); the
    carried M lam takes one rounding per iteration, which eta5's fixed
    point amplifies by 2/alpha (alpha = 1e-5 on the Stadler problem)."""
    fn = lambda v: np.sqrt(v @ (prob.M @ v))
    u, z, lam = state.u, state.z, state.lam
    gamma = 0.5 * prob.alpha + sigma
    floors = np.array([fn(u) + fn(z),
                       gamma * fn(u) + fn(state.p) + fn(lam),
                       (2.0 / prob.alpha) * iterations * fn(lam)])
    return np.finfo(float).eps * floors / (1.0 + fn(u))


def _assert_carried_etas_match(res, ref, floors):
    """eta2, eta4 and eta5 from carried products agree with
    kkt_residual_admm's fresh ones to 1e-10 relative beyond their
    round-off floors (_carried_eta_floors)."""
    got = np.array([res.eta2, res.eta4, res.eta5])
    want = np.array([ref.eta2, ref.eta4, ref.eta5])
    assert np.all(np.abs(got - want) <= 1e-10 * want + floors)


@pytest.mark.parametrize("backend", ["direct", "pmhss_gmres"])
def test_ihadmm_etas_match_kkt_residual_admm(ex1, backend):
    # the solver takes eta1 and eta3 from the u-step's block residual and
    # the other three from carried products; kkt_residual_admm rebuilds
    # them from (u, y, p) with K and from fresh products
    _, prob, _ = ex1(4)
    sigma = reproduction_sigma(prob.alpha)
    seen = []
    rep = so.solve_ihadmm(prob, SolverConfig(
        tol=1e-6, sigma=sigma, inner_backend=backend),
        callback=lambda k, s: seen.append(s))
    assert rep.converged and len(seen) == rep.iterations
    for k, (res, state) in enumerate(zip(rep.eta_history, seen)):
        ref = kkt_residual_admm(state, prob)
        _assert_carried_etas_match(
            res, ref, _carried_eta_floors(prob, state, sigma, k + 1))
        for got, want in ((res.eta1, ref.eta1), (res.eta3, ref.eta3)):
            if backend == "direct":
                assert abs(got - want) <= 1e-12
            else:
                assert abs(got - want) <= 1e-4 * want


@pytest.mark.parametrize("tau", [1.0, 1.5])
@pytest.mark.parametrize("backend", ["direct", "pmhss_gmres"])
@pytest.mark.parametrize("example, level", [("stadler", 4), ("constructed", 5)])
def test_carried_products_match_fresh_ones(ex1, ex2, monkeypatch, example,
                                           level, backend, tau):
    # the ihADMM carries M z and M lam by linearity and takes eta4's M w
    # from them; at the final state its last etas match those of fresh
    # products.  tau = 1.5 keeps the (tau - 1) sigma (u - z) term of w
    prob = ex2(level)[1] if example == "stadler" else ex1(level)[1]
    monkeypatch.setattr(solvers, "_TAU_IHADMM", tau)
    sigma = reproduction_sigma(prob.alpha)
    rep = so.solve_ihadmm(prob, SolverConfig(
        tol=1e-6, sigma=sigma, inner_backend=backend))
    assert rep.converged
    state = rep.final_state
    _assert_carried_etas_match(
        rep.eta_history[-1], kkt_residual_admm(state, prob),
        _carried_eta_floors(prob, state, sigma, rep.iterations))


@pytest.mark.parametrize("with_callback", [False, True])
def test_classical_admm_callback_adds_no_M_solve(ex1, monkeypatch,
                                                 with_callback):
    # one M-solve for lam = M^{-1} lam_c serves eta4, the callback and the
    # final state; the eta dual norms are bounded through W with none
    _, prob, _ = ex1(3)
    counts, prob = _count_lu_ops(monkeypatch, prob)
    seen = []
    rep = so.solve_classical_admm(
        prob, SolverConfig(tol=1e-6, max_iter=2000),
        callback=(lambda k, s: seen.append(s.lam)) if with_callback else None)
    assert rep.converged
    assert len(seen) == (rep.iterations if with_callback else 0)
    assert counts["solve.M"] == counts["cols.M"] == rep.iterations


def test_apg_one_K_solve_per_backtracking_trial(ex1, monkeypatch):
    # y and p of the start (2), then per iteration the state of each trial
    # point (doublings + 1) and the adjoint of the accepted one (1); f and
    # grad f at the extrapolated point come from the carried y and p
    _, prob, _ = ex1(3)
    counts, prob = _count_lu_ops(monkeypatch, prob)
    rep = so.solve_apg(prob, SolverConfig(tol=1e-6))
    assert rep.converged
    assert any(s.iterations > 0 for s in rep.inner_stats)
    assert counts["factor.K"] == 0
    assert counts["solve.K"] == 2 + sum(2 + s.iterations
                                        for s in rep.inner_stats)


@pytest.mark.parametrize("example", ["constructed", "stadler"])
def test_apg_carried_state_and_gradient_match_solves(ex1, ex2, monkeypatch,
                                                     example):
    # APG extrapolates y and p with u; at every extrapolated point x they
    # must be the state and adjoint that solves give.  An iteration calls
    # f_from_state at x, then the prox at x - grad f(x) / L; a trial's
    # f_from_state comes after a prox.
    prob = ex1(3)[1] if example == "constructed" else ex2(3)[1]
    calls = []
    f_orig, prox_orig = solvers.f_from_state, solvers.prox_g_euclidean

    def f_spy(problem, u, y):
        calls.append(("f", u.copy(), y.copy()))
        return f_orig(problem, u, y)

    def prox_spy(v, L, problem):
        calls.append(("prox", v.copy(), L))
        return prox_orig(v, L, problem)

    monkeypatch.setattr(solvers, "f_from_state", f_spy)
    monkeypatch.setattr(solvers, "prox_g_euclidean", prox_spy)
    rep = so.solve_apg(prob, SolverConfig(tol=1e-6, max_iter=3000))
    assert rep.converged
    factorK = factorize(prob.K)
    starts = [k for k, c in enumerate(calls)
              if c[0] == "f" and (k == 0 or calls[k - 1][0] == "f")]
    assert len(starts) == rep.iterations
    for k in starts:
        _, x, y_x = calls[k]
        _, v, L = calls[k + 1]
        y = so.prox.solve_state(prob, factorK, x)
        assert np.linalg.norm(y_x - y) <= 1e-12 * np.linalg.norm(y)
        g = so.prox.grad_f(prob, factorK, x)
        assert np.linalg.norm(L * (x - v) - g) \
            <= 1e-9 * max(np.linalg.norm(g), L * np.linalg.norm(x))


@pytest.mark.parametrize("name", ["classical_admm", "pdas"])
def test_no_K_solve_for_Rh(ex1, monkeypatch, name):
    _, prob, _ = ex1(3)
    counts, prob = _count_lu_ops(monkeypatch, prob)
    rep = so.SOLVERS[name](prob, SolverConfig(tol=1e-6, max_iter=2000))
    assert rep.converged
    assert np.all(np.isfinite(rep.Rh_history))
    assert counts["factor.K"] == 0
    if name == "classical_admm":
        # g0 (2), then per u-step the CG start residual (2; the first CG
        # starts from u = 0 and needs none), two per CG iteration, and y
        # and p (2); eta and R_h add none
        assert counts["solve.K"] == sum(4 + 2 * s.iterations
                                        for s in rep.inner_stats)
    else:
        # the Newton steps' own K-solves only: y and p of the fixed
        # controls, the CG start residual, two per CG iteration, y and p of
        # the step; eta and R_h add none
        assert counts["solve.K"] <= sum(6 + 2 * s.iterations
                                        for s in rep.inner_stats)


def test_two_phase_factors_neither_M_nor_K(ex1, monkeypatch):
    # PDAS solves with K by the sine transform, and neither phase solves
    # with M: the eta dual norms are bounded through W
    _, prob, _ = ex1(4)
    counts, prob = _count_lu_ops(monkeypatch, prob)
    sig = reproduction_sigma(prob.alpha)
    rep = so.solve_two_phase(prob, SolverConfig(tol=1e-3, sigma=sig),
                             SolverConfig(tol=1e-10, sigma=sig))
    assert rep.converged and rep.phase_iterations[1] > 0
    assert counts["factor.M"] == 0 and counts["factor.K"] == 0
    assert counts["solve.K"] > 0


@pytest.mark.parametrize("name", ["ihadmm", "two_phase", "pdas", "apg",
                                  "classical_admm"])
def test_only_the_classical_admm_factors_M(monkeypatch, name):
    # the build projects the data by CG and factors nothing; of the solvers
    # only the classical ADMM solves with M (lam = M^-1 lam_c), and it
    # factors M on first use, once per problem however many runs follow
    factored = []
    factorize_orig = linalg.factorize

    def counted_factorize(A):
        factored.append(A)
        return factorize_orig(A)

    for owner in (linalg, solvers):
        monkeypatch.setattr(owner, "factorize", counted_factorize)
    _, prob, _ = build_example1(3)
    assert factored == []
    sig = reproduction_sigma(prob.alpha)
    for _ in range(2):
        if name == "two_phase":
            rep = so.solve_two_phase(prob, SolverConfig(tol=1e-3, sigma=sig),
                                     SolverConfig(tol=1e-10, sigma=sig))
        else:
            rep = so.SOLVERS[name](prob, SolverConfig(tol=1e-6, sigma=sig,
                                                      max_iter=2000))
        assert rep.converged
    assert sum(A is prob.M for A in factored) == (name == "classical_admm")


def _dense_diagnostics(prob, u, z, Mlam, y, p, reduced, carried=(0.0, 0.0)):
    """eta_1..eta_5 and R_h of an iterate with dense M- and K-solves.

    The functionals are the solver's sparse products; only the dual norms
    and the K-solves are dense.  The state and adjoint functionals F are
    measured by the bound 2 sqrt(F' W^{-1} F) on their M^{-1} norm, the
    stationarity functional by its exact M^{-1} norm.  The dual-norm
    residuals sit at round-off (~1e-16) on some iterations, so they get an
    absolute floor beside the relative tolerance.  carried holds the
    floors of eta2 and eta5 of the split system that the ihADMM's carried
    products need (_carried_eta_floors).  R_h takes the exact gradient of
    f at u (two K-solves), not the carried adjoint; reduced selects the
    three residuals of the z-eliminated system.
    """
    M, K = prob.M, prob.K
    fn = lambda v: np.sqrt(v @ (M @ v))
    dual = lambda r: np.sqrt(r @ np.linalg.solve(M.toarray(), r))
    lumped = lambda r: 2.0 * np.sqrt(r @ (r / prob.W))
    scale = 1.0 + fn(u)
    e_state = lumped(K @ y - M @ u - M @ prob.yc) / (1.0 + fn(prob.yc))
    e_adj = lumped(M @ (y - prob.yd) + K @ p) / (1.0 + fn(prob.yd))
    if reduced:
        q = M @ (p - 0.5 * prob.alpha * u)
        eta = [e_state, e_adj,
               fn(u - multiplier_fixed_point(q * prob.W_inv, prob)) / scale,
               0.0, 0.0]
        floors = [1e-14, 1e-14, 0.0, 0.0, 0.0]
    else:
        eta = [e_state, fn(u - z) / scale, e_adj,
               dual(0.5 * prob.alpha * (M @ u) - M @ p + Mlam) / scale,
               fn(z - multiplier_fixed_point(Mlam * prob.W_inv, prob))
               / scale]
        floors = [1e-14, carried[0], 1e-14, 1e-14, carried[1]]
    y_u = np.linalg.solve(K.toarray(), M @ (u + prob.yc))
    terms = [Mlam, 0.5 * prob.alpha * (M @ u),
             M @ np.linalg.solve(K.toarray(), M @ (y_u - prob.yd))]
    r1 = sum(terms)
    d = dist_subdifferential_g(z, Mlam, prob)
    rh = r1 @ r1 + d @ d + (u - z) @ (u - z)
    # r1 cancels its terms down to ~1e-7 of their size near the solution,
    # where their round-off (~1e-15 relative) moves R_h by 2 |r1| of it
    rh_floor = 1e-28 + 2e-14 * np.linalg.norm(r1) \
        * sum(np.linalg.norm(t) for t in terms)
    return np.array(eta), np.array(floors), rh, rh_floor


def _iterate_recorder(prob, kind, sigma=None, tau=None):
    """Callback that stores the dense diagnostics of every iterate.

    The classical ADMM hands its callback lam = M^{-1} lam_c; the Euclidean
    multiplier lam_c its residuals use is rebuilt here bit for bit from its
    update lam_c += tau sigma (u - z), and lam is checked against it.  The
    ihADMM ("admm") carries its products, whose round-off floors take its
    sigma.
    """
    seen = []
    lam_c = np.zeros(prob.n)

    def record(k, s):
        nonlocal lam_c
        carried = (0.0, 0.0)
        if kind == "admm":
            Mlam, z = prob.M @ s.lam, s.z
            carried = _carried_eta_floors(prob, s, sigma, k + 1)[[0, 2]]
        elif kind == "classical":
            lam_c = lam_c + tau * sigma * (s.u - s.z)
            Mlam, z = lam_c, s.z
            assert np.linalg.norm(prob.M @ s.lam - lam_c) \
                <= 1e-13 * np.linalg.norm(lam_c)
        elif kind == "pdas":
            Mlam, z = s.mu + 0.5 * prob.alpha * (prob.W * s.u), s.u
        else:                                   # apg
            Mlam, z = prob.M @ s.lam, s.u
        seen.append(_dense_diagnostics(prob, s.u, z, Mlam, s.y, s.p,
                                       kind in ("pdas", "apg"), carried))
    return record, seen


def _assert_diagnostics_match(rep, seen):
    assert len(seen) == rep.iterations > 0
    for res, rh, (eta, floors, rh_exact, rh_floor) in zip(
            rep.eta_history, rep.Rh_history, seen):
        got = np.array(res.as_tuple()[:5])
        assert np.all(np.abs(got - eta) <= 1e-10 * np.abs(eta) + floors)
        assert res.eta == got.max()
        assert abs(rh - rh_exact) <= 1e-9 * rh_exact + rh_floor


@pytest.mark.parametrize("example, level",
                         [("constructed", 2), ("constructed", 3),
                          ("stadler", 3)], ids=["2", "3", "stadler-3"])
@pytest.mark.parametrize("backend", ["direct", "pmhss_gmres"])
def test_ihadmm_diagnostics_match_dense_oracle(ex1, ex2, example, level,
                                               backend):
    # the Stadler problem's alpha = 1e-5 makes eta5's fixed point amplify
    # the round-off of the W-scaled multiplier M lam / W by 2/alpha
    prob = ex1(level)[1] if example == "constructed" else ex2(level)[1]
    sigma = reproduction_sigma(prob.alpha)
    record, seen = _iterate_recorder(prob, "admm", sigma)
    rep = so.solve_ihadmm(prob, SolverConfig(
        tol=1e-8, sigma=sigma, max_iter=2000, inner_backend=backend),
        callback=record)
    assert rep.converged
    _assert_diagnostics_match(rep, seen)


@pytest.mark.parametrize("level", [2, 3])
def test_classical_admm_diagnostics_match_dense_oracle(ex1, level):
    _, prob, _ = ex1(level)
    sigma = 0.1 * prob.alpha
    record, seen = _iterate_recorder(prob, "classical", sigma,
                                     solvers._TAU_CLASSICAL)
    rep = so.solve_classical_admm(prob, SolverConfig(
        tol=1e-8, sigma=sigma, max_iter=2000), callback=record)
    assert rep.converged
    _assert_diagnostics_match(rep, seen)


@pytest.mark.parametrize("level", [2, 3])
def test_apg_diagnostics_match_dense_oracle(ex1, level):
    _, prob, _ = ex1(level)
    record, seen = _iterate_recorder(prob, "apg")
    rep = so.solve_apg(prob, SolverConfig(tol=1e-8), callback=record)
    assert rep.converged
    _assert_diagnostics_match(rep, seen)


@pytest.mark.parametrize("level", [2, 3])
def test_two_phase_diagnostics_match_dense_oracle(ex1, level):
    # the callback sees both phases with one running index; PDAS iterates
    # carry mu, ihADMM ones do not
    _, prob, _ = ex1(level)
    sig = reproduction_sigma(prob.alpha)
    record1, seen1 = _iterate_recorder(prob, "admm", sig)
    record2, seen2 = _iterate_recorder(prob, "pdas")
    ks = []

    def record(k, s):
        ks.append(k)
        (record1 if s.mu is None else record2)(k, s)

    rep = so.solve_two_phase(prob, SolverConfig(tol=1e-3, sigma=sig),
                             SolverConfig(tol=1e-10, sigma=sig),
                             callback=record)
    assert rep.converged and len(seen2) > 0
    assert ks == list(range(rep.iterations))
    assert (len(seen1), len(seen2)) == rep.phase_iterations
    _assert_diagnostics_match(rep, seen1 + seen2)
