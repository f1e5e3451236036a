"""
Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Expected runtimes are
printed for reference; sweeps reuse session-cached problems and the
level-8 reference solution.

The error-order criteria (1 and 5) judge the EOC of the L2 control error
on the refinement steps where the best P1 approximation of the reference,
E_best, itself converges at the demanded order (`best_approximation.py`).
At h = 1/8 neither reference is resolved by any P1 function, so the 3 -> 4
step is pre-asymptotic on both problems and only the later steps are
judged; the detail lines print E2, E_best, both EOC lists and the judged
steps.
"""

import time
import numpy as np
import pytest
import scipy.sparse as sp

import sparseoc as so
from sparseoc import mesh as fem
from sparseoc.linalg import SaddleSolver, SineGrid, factorize
from sparseoc.experiments import (_reference_solution, l2_control_error,
                                  reproduction_sigma)
from sparseoc.solvers import (SolverConfig, IterateState, _EPS0, _EPS_DECAY,
                              _TAU_IHADMM)
from sparseoc.oracle import brute_force_solve
from sparseoc.prox import (grad_f, objective_f, z_update_ihadmm,
                           z_update_classical, prox_g_euclidean)

from best_approximation import best_p1_error, gated_order
from conftest import random_tiny_problem

PAPER_E2 = {3: 0.3075, 4: 0.1237, 5: 0.0516, 6: 0.0201}


def _report(criterion, ok, detail, t0):
    line = (f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} "
            f"[{time.perf_counter() - t0:.1f}s] {detail}")
    print(line)
    return ok


@pytest.fixture(scope="module")
def ex1_two_phase(ex1):
    """Two-phase solutions of the constructed problem at tol 1e-8."""
    runs = {}
    for level in (3, 4, 5, 6):
        m, prob, fields = ex1(level)
        sig = reproduction_sigma(prob.alpha)
        rep = so.solve_two_phase(prob, SolverConfig(tol=1e-3, sigma=sig),
                                 SolverConfig(tol=1e-8, sigma=sig))
        runs[level] = (m, prob, fields, rep)
    return runs


@pytest.fixture(scope="module")
def ex2_reference():
    # the package's own level-8 reference (PDAS from an early handoff);
    # it raises unless the solve converged
    return _reference_solution(8)


def test_criterion_1_eoc_reproduction(ex1_two_phase):
    """E2 at most 10% above the published table, EOC >= 1 where E_best has it.

    The published column is an upper bound, not a target: its level-3 entry
    0.3075 exceeds ||u*||_L2 = 0.2967, the error of the zero control, so no
    discrete control on this problem can reproduce it.  The order is judged
    on the steps where the best P1 approximation of u* converges at order 1:
    u* (clipped and soft-thresholded from sin(4 pi x2)) has two cells per
    half period at h = 1/8, and its E_best = 0.1120, 0.0788, 0.0350, 0.0119
    gives EOC 0.51, 1.17, 1.56, so the 3 -> 4 step is pre-asymptotic for
    every P1 function.
    """
    t0 = time.perf_counter()
    levels = (3, 4, 5, 6)
    errs, best = [], []
    for level in levels:
        m, prob, fields, rep = ex1_two_phase[level]
        assert rep.converged
        errs.append(l2_control_error(rep.final_state.u, fields["u_star"], m))
        best.append(best_p1_error(m, fields["u_star"]))
    gate = gated_order(levels, errs, best, 1.0)
    below = {level: e <= 1.10 * PAPER_E2[level]
             for e, level in zip(errs, levels)}
    ok = all(below.values()) and gate.ok
    detail = (f"{gate.detail()} (published {list(PAPER_E2.values())}, "
              f"E2 <= 1.1 published={below})")
    assert _report(1, ok, detail, t0), detail


def test_criterion_2_ihadmm_mesh_independence(ex1):
    """ihADMM counts at tol 1e-6 all in [15, 60] with spread <= 2."""
    t0 = time.perf_counter()
    counts = []
    for level in (3, 4, 5, 6):
        _, prob, _ = ex1(level)
        rep = so.solve_ihadmm(prob, SolverConfig(
            tol=1e-6, sigma=reproduction_sigma(prob.alpha)))
        assert rep.converged
        counts.append(rep.iterations)
    ok = (all(15 <= c <= 60 for c in counts)
          and max(counts) <= 2 * min(counts))
    assert _report(2, ok, f"iterations={counts} (published 27-32)", t0)


def test_criterion_3_classical_admm_mesh_dependence(classical_admm):
    """Classical ADMM counts strictly increase across levels 4 -> 5 -> 6."""
    t0 = time.perf_counter()
    counts = []
    for level in (4, 5, 6):
        rep = classical_admm(level)
        assert rep.converged, f"classical ADMM stalled at level {level}"
        counts.append(rep.iterations)
    ok = counts[0] < counts[1] < counts[2]
    assert _report(3, ok, f"iterations={counts} (published 44/58/76)", t0)


def test_criterion_4_two_phase_split(ex1):
    """Phase-2 PDAS takes <= 10 iterations and reaches eta <= 1e-10."""
    t0 = time.perf_counter()
    splits, etas = [], []
    for level in (3, 4, 5, 6):
        _, prob, _ = ex1(level)
        sig = reproduction_sigma(prob.alpha)
        rep = so.solve_two_phase(prob, SolverConfig(tol=1e-3, sigma=sig),
                                 SolverConfig(tol=1e-10, sigma=sig))
        assert rep.converged
        splits.append(rep.phase_iterations)
        etas.append(rep.final_eta)
    ok = (all(p2 <= 10 for _, p2 in splits)
          and all(e <= 1e-10 for e in etas))
    assert _report(4, ok, f"splits={splits} (published 13+5..15+6) "
                          f"final_eta={[f'{e:.1e}' for e in etas]}", t0)


def test_criterion_5_stadler_trend(ex2_reference, ex2):
    """Hard benchmark: E2 decreasing, EOC >= 0.8 where E_best has it, 2x
    count spread, eta <= 1e-10.

    At alpha = 1e-5 the control climbs from 0 to the bounds +-30 across
    bands the coarse meshes do not resolve.  The projection of the level-8
    reference onto each level gives E_best = 5.27, 3.43, 1.68, 0.62, that is
    EOC 0.62, 1.03, 1.43, so no P1 control reaches 0.8 on the 3 -> 4 step,
    and that step is not judged.  The last step, 5 -> 6, is measured
    against a reference only two levels finer than level 6.
    """
    t0 = time.perf_counter()
    m_ref, u_ref = ex2_reference
    levels = (3, 4, 5, 6)
    errs, best, counts, etas = [], [], [], []
    for level in levels:
        m, prob = ex2(level)
        sig = reproduction_sigma(prob.alpha)
        ih = so.solve_ihadmm(prob, SolverConfig(tol=1e-6, sigma=sig,
                                                max_iter=2000))
        assert ih.converged
        counts.append(ih.iterations)
        tp = so.solve_two_phase(prob, SolverConfig(tol=1e-3, sigma=sig),
                                SolverConfig(tol=1e-10, sigma=sig))
        assert tp.converged
        etas.append(tp.final_eta)
        errs.append(l2_control_error(tp.final_state.u, u_ref, m,
                                     ref_mesh=m_ref))
        best.append(best_p1_error(m, u_ref, ref_mesh=m_ref))
    gate = gated_order(levels, errs, best, 0.8)
    decreasing = all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
    ok = (decreasing and gate.ok
          and max(counts) <= 2 * min(counts)
          and all(e <= 1e-10 for e in etas))
    detail = (f"{gate.detail('.3f')} iters={counts} "
              f"eta={[f'{e:.1e}' for e in etas]}")
    assert _report(5, ok, detail, t0), detail


def test_criterion_6_oracle_equivalence():
    """Four solvers at tol 1e-10 match brute force within 1e-7 on >= 20 tiny
    instances; the active-set solver runs warm-started, its designed mode."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240615)
    worst = 0.0
    n_instances = 20
    for _ in range(n_instances):
        prob = random_tiny_problem(rng, n=int(rng.integers(1, 5)))
        u_star, cert = brute_force_solve(prob)
        assert cert.eta <= 1e-9
        sig = reproduction_sigma(prob.alpha)
        reps = [
            so.solve_ihadmm(prob, SolverConfig(tol=1e-10, sigma=sig,
                                               max_iter=5000)),
            so.solve_classical_admm(prob, SolverConfig(tol=1e-10,
                                                       max_iter=5000)),
            so.solve_apg(prob, SolverConfig(tol=1e-10, max_iter=5000)),
        ]
        # PDAS derives its multiplier from p, as in solve_two_phase
        ph1 = so.solve_ihadmm(prob, SolverConfig(tol=1e-3, sigma=sig))
        warm = IterateState(u=ph1.final_state.z.copy(), p=ph1.final_state.p)
        reps.append(so.solve_pdas(prob, SolverConfig(tol=1e-10, max_iter=100),
                                  warm=warm))
        for rep in reps:
            assert rep.converged, rep.solver
            worst = max(worst, np.abs(rep.final_state.u - u_star).max())
    ok = worst <= 1e-7
    assert _report(6, ok, f"{n_instances} instances, worst |u - u*| "
                          f"= {worst:.2e}", t0)


def test_criterion_7_invariant_suites(ex1, meshes):
    """Norm equivalence, gradient FD, prox oracles, theta slack, R_h trend."""
    t0 = time.perf_counter()
    checks = {}

    # norm equivalence with c = 4, 1000 vectors per level <= 6
    rng = np.random.default_rng(99)
    ok_ne = True
    for level in range(1, 7):
        m = meshes(level)
        M = fem.assemble_mass(m)
        W = fem.assemble_lumped_mass(m)
        Z = rng.standard_normal((1000, m.n_interior))
        a = np.einsum("ij,ij->i", Z, (M @ Z.T).T)
        b = (Z * Z) @ W
        ok_ne &= bool(np.all(a <= b * (1 + 1e-12))
                      and np.all(b <= 4 * a * (1 + 1e-12)))
    checks["norm_equivalence"] = ok_ne

    # gradient vs central differences, rel err <= 1e-6, 20 points levels 2-4
    ok_fd = True
    for level in (2, 3, 4):
        _, prob, _ = ex1(level)
        factorK = factorize(prob.K)
        for _ in range(7):
            u = rng.standard_normal(prob.n)
            d = rng.standard_normal(prob.n)
            d /= np.linalg.norm(d)
            g = grad_f(prob, factorK, u) @ d
            eps = 1e-5
            fd = (objective_f(prob, factorK, u + eps * d)
                  - objective_f(prob, factorK, u - eps * d)) / (2 * eps)
            ok_fd &= abs(fd - g) <= 1e-6 * max(1.0, abs(fd))
    checks["gradient_fd"] = ok_fd

    # closed-form updates vs scalar grid search within 1e-4
    ok_prox = True
    for _ in range(60):
        prob = random_tiny_problem(rng, n=3)
        sigma = float(rng.uniform(0.02, 2.0))
        L = float(rng.uniform(0.1, 5.0))
        u = rng.uniform(-2, 2, 3)
        lam = rng.standard_normal(3)
        mlam = prob.M @ lam
        z1 = z_update_ihadmm(u, mlam * prob.W_inv, prob, sigma)
        z2 = z_update_classical(u, lam, prob, sigma)
        z3 = prox_g_euclidean(u, L, prob)
        grid = np.arange(prob.a, prob.b + 1e-4, 1e-4)
        for i in range(3):
            w = prob.W[i]
            gpart = (0.25 * prob.alpha * w * grid ** 2
                     + prob.beta * w * np.abs(grid))
            o1 = gpart - mlam[i] * grid + 0.5 * sigma * w * (grid - u[i]) ** 2
            o2 = gpart - lam[i] * grid + 0.5 * sigma * (grid - u[i]) ** 2
            o3 = gpart + 0.5 * L * (grid - u[i]) ** 2
            ok_prox &= abs(z1[i] - grid[np.argmin(o1)]) <= 1.5e-4
            ok_prox &= abs(z2[i] - grid[np.argmin(o2)]) <= 1.5e-4
            ok_prox &= abs(z3[i] - grid[np.argmin(o3)]) <= 1.5e-4
    checks["prox_grid_search"] = ok_prox

    # theta^k slack-monotonicity along a level-4 run
    _, prob, _ = ex1(4)
    sig = reproduction_sigma(prob.alpha)
    tau = _TAU_IHADMM
    ref = so.solve_two_phase(prob, SolverConfig(tol=1e-3, sigma=sig),
                             SolverConfig(tol=1e-12, sigma=sig))
    u_s = ref.final_state.u
    lam_s = ref.final_state.p - 0.5 * prob.alpha * u_s
    M = prob.M.toarray()
    C = np.linalg.solve(prob.K.toarray(), M)
    sigma_f = 0.5 * prob.alpha * M + C.T @ M @ C
    rho = 1.0 / np.linalg.eigvalsh(sig * M + sigma_f).min()
    norm_M = np.linalg.eigvalsh(M).max()
    cfg = SolverConfig(tol=1e-9, sigma=sig)
    thetas = []

    def track(k, s):
        dl = s.lam - lam_s
        dz = s.z - u_s
        thetas.append(np.sqrt(dl @ (M @ dl) / (2 * tau * sig)
                              + 0.5 * sig * dz @ (M @ dz)))

    rep = so.solve_ihadmm(prob, cfg, callback=track)
    ok_theta = rep.converged
    for k in range(len(thetas) - 1):
        slack = np.sqrt(2.5 * sig * norm_M) * rho \
            * _EPS0 / (k + 1.0) ** _EPS_DECAY
        ok_theta &= thetas[k + 1] <= thetas[k] + slack + 1e-12
    checks["theta_slack_monotone"] = bool(ok_theta)

    # k * min R_h trend over 200 iterations at level 4
    rep = so.solve_ihadmm(prob, SolverConfig(tol=1e-16, max_iter=200,
                                             sigma=sig))
    rh = np.array(rep.Rh_history)
    running = np.minimum.accumulate(rh)
    kmin = np.arange(1, len(rh) + 1) * running
    idx = np.flatnonzero(running > 1e-20)
    idx = idx[idx >= 10]
    ok_rh = all(kmin[j] <= kmin[i] * 1.05 for i, j in zip(idx, idx[1:]))
    ok_rh &= kmin[-1] <= 1e-10 * kmin[10]
    checks["Rh_complexity_trend"] = bool(ok_rh)

    ok = all(checks.values())
    assert _report(7, ok, str(checks), t0)


def test_criterion_8_inner_solver_contract(meshes):
    """pmhss_gmres matches direct within 10x tol; <= 60 iterations at level 6."""
    t0 = time.perf_counter()
    ok = True
    tol = 1e-9
    for level in (3, 4, 5, 6):
        m = meshes(level)
        M = fem.assemble_mass(m)
        K = fem.assemble_stiffness(m)
        solver = SaddleSolver(SineGrid(M, K), 0.3)
        rng = np.random.default_rng(level)
        rhs_top = rng.standard_normal(m.n_interior)
        rhs_bottom = rng.standard_normal(m.n_interior)
        yd_, ud_, _ = solver.solve(rhs_top, rhs_bottom, backend="direct")
        yg_, ug_, st = solver.solve(rhs_top, rhs_bottom,
                                    backend="pmhss_gmres", tol=tol)
        ok &= st.converged
        dev = np.linalg.norm(np.concatenate([yd_ - yg_, ud_ - ug_]))
        A = sp.bmat([[M / 0.3, K], [-K, M]])
        r = np.concatenate([rhs_top, rhs_bottom]) \
            - A @ np.concatenate([yg_, ug_])
        ok &= (np.linalg.norm(r[:m.n_interior])
               + np.linalg.norm(r[m.n_interior:])) <= tol
        ok &= dev <= 10 * tol
    m = meshes(6)
    M = fem.assemble_mass(m)
    K = fem.assemble_stiffness(m)
    solver = SaddleSolver(SineGrid(M, K), 0.3)
    rng = np.random.default_rng(42)
    rhs_top = rng.standard_normal(m.n_interior)
    rhs_bottom = rng.standard_normal(m.n_interior)
    norm_b = np.linalg.norm(np.concatenate([rhs_top, rhs_bottom]))
    _, _, st = solver.solve(rhs_top, rhs_bottom, backend="pmhss_gmres",
                            tol=1e-10 * norm_b)
    ok &= st.converged and st.iterations <= 60
    assert _report(8, ok, f"level-6 PMHSS-GMRES iterations={st.iterations}, "
                          f"rel res={st.final_relative_residual:.1e}", t0)
