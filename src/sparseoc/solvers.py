"""
Outer optimization methods for the discretized sparse control problem.

Four solvers share the termination residuals of prox.py:

* solve_ihadmm       -- heterogeneous ADMM: M-weighted penalty in the u-step
                        (reduced 2x2 saddle solve), W-weighted penalty in the
                        z-step (closed form), inexact inner solves driven by
                        a summable tolerance sequence eps_k, each GMRES
                        started from the previous (y, u).
* solve_classical_admm -- Euclidean-penalty ADMM; its 3x3 block system has no
                        cheap elimination and is factored once per run.
* solve_apg          -- accelerated proximal gradient (FISTA) with doubling
                        backtracking for the curvature constant and gradient
                        based restart.
* solve_pdas         -- primal-dual active set (semismooth Newton): classify
                        every dof against the thresholds +-c w_i beta and the
                        bounds, fix the active ones, solve for the free ones,
                        repeat until the sets freeze or one recurs.  The
                        Newton step is the SPD reduced-Hessian system in the
                        free controls, solved by preconditioned CG with two
                        K-solves per iteration; no 3n system is assembled or
                        factored.

The M and K factorizations are cached on the problem (problem.factorM,
problem.factorK), so each is made once however many solvers or phases run.

solve_two_phase runs ihADMM to moderate accuracy and hands its thresholded
iterate z (with y, p and the stationarity-consistent multiplier
mu = M p - alpha T z) to PDAS for polishing.

A solver run is single-threaded and deterministic for a given config; problem
data is immutable, so distinct runs may execute concurrently.
"""

import numbers
import time
import numpy as np
import scipy.sparse as sp
from dataclasses import dataclass
from scipy.sparse.linalg import LinearOperator, cg

from .linalg import (SaddleSolver, factorize, estimate_mkinv_norm,
                     InnerSolveStats)
from .mesh import _fmt, check_real
# grad_f is not called here; it stays bound because perfbench's tracer
# wraps these module attributes by name
from .prox import (z_update_ihadmm, z_update_classical, prox_g_euclidean,
                   grad_f, kkt_residual_pdas, admm_residuals_weighted,
                   dist_subdifferential_g, _state_adjoint)

_GOLDEN = 0.5 * (1.0 + np.sqrt(5.0))


@dataclass
class SolverConfig:
    """Shared solver parameters; None picks the documented per-solver default.

    sigma defaults to 0.1*alpha, tau to 1 (heterogeneous ADMM) or 1.618
    (classical ADMM).  eps0/eps_decay define the summable inner tolerance
    sequence eps_k = eps0 / (k+1)^eps_decay used by the inexact u-step.
    """

    tol: float = 1e-6
    max_iter: int = 500
    sigma: float = None
    tau: float = None
    eps0: float = 1e-2
    eps_decay: float = 1.2
    inner_backend: str = "direct"
    pdas_c: float = 1.0

    def validate(self):
        for name in ("tol", "sigma", "tau", "eps0", "eps_decay", "pdas_c"):
            value = getattr(self, name)
            if value is not None:
                check_real(name, value)
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if not isinstance(self.max_iter, numbers.Integral) \
                or isinstance(self.max_iter, bool):
            raise ValueError("max_iter must be an integer")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.sigma is not None and self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.tau is not None and not (0.0 < self.tau < _GOLDEN):
            raise ValueError(f"tau must lie in (0, {_GOLDEN:.4f})")
        if not self.eps0 > 0:
            raise ValueError("eps0 must be positive")
        if self.eps_decay <= 1.0:
            raise ValueError("eps_decay must exceed 1 so that sum(eps_k) < inf")
        if self.inner_backend not in ("direct", "pmhss_gmres"):
            raise ValueError(f"unknown inner backend {self.inner_backend!r}")
        if self.pdas_c <= 0:
            raise ValueError("active-set parameter c must be positive")
        return self


@dataclass
class IterateState:
    """The (u, z, lambda, y, p[, mu]) tuple every solver carries."""

    u: np.ndarray
    z: np.ndarray = None
    lam: np.ndarray = None
    y: np.ndarray = None
    p: np.ndarray = None
    mu: np.ndarray = None


@dataclass
class ConvergenceReport:
    solver: str
    iterations: int
    eta_history: list
    Rh_history: list
    inner_stats: list
    wall_time: float
    converged: bool
    final_state: IterateState
    phase_iterations: tuple = None

    @property
    def final_eta(self):
        return self.eta_history[-1].eta if self.eta_history else np.inf

    def write_log(self, path):
        """Per-iteration convergence log as machine-readable CSV."""
        with open(path, "w") as fh:
            fh.write("iter,eta1,eta2,eta3,eta4,eta5,eta,Rh,inner_iters\n")
            for k, res in enumerate(self.eta_history):
                rh = self.Rh_history[k] if k < len(self.Rh_history) else ""
                it = (self.inner_stats[k].iterations
                      if k < len(self.inner_stats) else 0)
                vals = ",".join(_fmt(v) for v in res.as_tuple())
                fh.write(f"{k + 1},{vals},{_fmt(rh)},{it}\n")


def _zero_state(n):
    z = np.zeros(n)
    return IterateState(u=z.copy(), z=z.copy(), lam=z.copy())


def _check_warm(warm, n):
    if warm is None:
        return _zero_state(n)
    for name in ("u", "z", "lam"):
        v = getattr(warm, name)
        if v is not None and len(v) != n:
            raise ValueError(f"warm state field {name} has wrong length")
    u = warm.u if warm.u is not None else np.zeros(n)
    return IterateState(u=u.copy(),
                        z=warm.z.copy() if warm.z is not None else u.copy(),
                        lam=warm.lam.copy() if warm.lam is not None else np.zeros(n),
                        y=None if warm.y is None else warm.y.copy(),
                        p=None if warm.p is None else warm.p.copy(),
                        mu=None if warm.mu is None else warm.mu.copy())


def solve_ihadmm(problem, config=None, warm=None, callback=None):
    """Heterogeneous ADMM with inexact saddle-point u-steps."""
    config = (config or SolverConfig()).validate()
    sigma = config.sigma if config.sigma is not None else 0.1 * problem.alpha
    tau = config.tau if config.tau is not None else 1.0
    gamma = 0.5 * problem.alpha + sigma
    M, K, W = problem.M, problem.K, problem.W
    n = problem.n

    t0 = time.perf_counter()
    factorM = problem.factorM
    saddle = SaddleSolver(M, K, gamma)
    inexact = config.inner_backend == "pmhss_gmres"
    if inexact:
        mk_norm = estimate_mkinv_norm(M, problem.factorK)
        # residual budget of the error-vector map delta = gamma M K^{-1} r1
        # + (M K^{-1})^2 r2, capped so the M^{-1}-weighted residual norms
        # (amplified by at most 2/h, since lambda_min(M) >= h^2/4) can never
        # block eta <= tol
        denom = np.sqrt(2.0) * mk_norm * max(mk_norm, gamma)
        cap = 0.25 * config.tol * problem.h / max(1.0, gamma)

    state = _check_warm(warm, n)
    u, z, lam = state.u, state.z, state.lam
    Mlam = M @ lam
    eta_hist, rh_hist, inner_hist = [], [], []
    converged = False

    for k in range(config.max_iter):
        rhs_top = (K @ (sigma * z - lam) + problem.Myd) / gamma
        rhs_bottom = -problem.Myc
        if inexact:
            eps_k = config.eps0 / (k + 1.0) ** config.eps_decay
            # GMRES starts from the previous (y, u), the first step from 0
            x0 = None if k == 0 else np.concatenate([y, u])
            y, u_new, stats = saddle.solve(rhs_top, rhs_bottom,
                                           backend="pmhss_gmres",
                                           tol=min(eps_k / denom, cap), x0=x0)
        else:
            y, u_new, stats = saddle.solve(rhs_top, rhs_bottom)
        # first block row: K p = M(yd - y) with p = gamma u - sigma z + lam
        p = gamma * u_new - sigma * z + lam
        z = z_update_ihadmm(u_new, Mlam, problem, sigma)
        lam = lam + tau * sigma * (u_new - z)
        Mlam = M @ lam
        u = u_new

        state = IterateState(u=u, z=z, lam=lam, y=y, p=p)
        res = admm_residuals_weighted(u, z, lam, Mlam, y, p, problem, factorM)
        eta_hist.append(res)
        rh_hist.append(_Rh_from(u, z, Mlam, p, problem))
        inner_hist.append(stats)
        if callback is not None:
            callback(k, state)
        if inexact and not stats.converged:
            break
        if res.eta <= config.tol:
            converged = True
            break

    return ConvergenceReport("ihadmm", len(eta_hist), eta_hist, rh_hist,
                             inner_hist, time.perf_counter() - t0,
                             converged, state)


def _Rh_from(u, z, Mlam, p, problem):
    """R_h = ||M lam + grad f(u)||^2 + dist^2(0, -M lam + dg(z)) + ||u - z||^2.

    Takes M*lambda directly (avoids M-solves in the classical ADMM) and the
    adjoint p of the iterate: with K y = M(u + yc) and K p = M(yd - y),
    grad f(u) = alpha/2 M u - M p, so the first term is the eta_4
    functional and R_h costs no solve.
    """
    r1 = problem.M @ (0.5 * problem.alpha * u - p) + Mlam
    d = dist_subdifferential_g(z, Mlam, problem)
    r3 = u - z
    return float(r1 @ r1 + d @ d + r3 @ r3)


def solve_classical_admm(problem, config=None, warm=None, callback=None):
    """Classical (Euclidean-penalty) ADMM; the 3x3 system is factored once."""
    config = (config or SolverConfig()).validate()
    sigma = config.sigma if config.sigma is not None else 0.1 * problem.alpha
    tau = config.tau if config.tau is not None else 1.618
    M, K = problem.M, problem.K
    n = problem.n

    t0 = time.perf_counter()
    factorM = problem.factorM
    A3 = sp.bmat([[M, None, K],
                  [None, 0.5 * problem.alpha * M + sigma * sp.identity(n), -M],
                  [K, -M, None]], format="csc")
    fact = factorize(A3)

    state = _check_warm(warm, n)
    u, z = state.u, state.z
    lam_c = M @ state.lam      # euclidean multiplier; state stores M^{-1} lam_c
    eta_hist, rh_hist, inner_hist = [], [], []
    converged = False

    for k in range(config.max_iter):
        rhs = np.concatenate([problem.Myd, sigma * z - lam_c, problem.Myc])
        x = fact.solve(rhs)
        y, u, p = x[:n], x[n:2 * n], x[2 * n:]
        z = z_update_classical(u, lam_c, problem, sigma)
        lam_c = lam_c + tau * sigma * (u - z)
        # one M-solve serves eta4, the callback and the final state
        lam = factorM.solve(lam_c)

        res = admm_residuals_weighted(u, z, lam, lam_c, y, p, problem,
                                      factorM)
        eta_hist.append(res)
        rh_hist.append(_Rh_from(u, z, lam_c, p, problem))
        inner_hist.append(InnerSolveStats(0, 0.0, 0, True))
        if callback is not None:
            callback(k, IterateState(u=u, z=z, lam=lam, y=y, p=p))
        if res.eta <= config.tol:
            converged = True
            break

    state = IterateState(u=u, z=z, lam=lam, y=y, p=p)
    return ConvergenceReport("classical_admm", len(eta_hist), eta_hist,
                             rh_hist, inner_hist, time.perf_counter() - t0,
                             converged, state)


def _f_and_state(problem, factorK, u):
    """f(u), the state y and M (y - yd) in one K-solve."""
    y = factorK.solve(problem.M @ (u + problem.yc))
    d = y - problem.yd
    Md = problem.M @ d
    fval = 0.5 * d @ Md + 0.25 * problem.alpha * u @ (problem.M @ u)
    return fval, y, Md


def _f_and_grad(problem, factorK, u):
    """f(u) and grad f(u) in two K-solves."""
    fval, _, Md = _f_and_state(problem, factorK, u)
    grad = 0.5 * problem.alpha * (problem.M @ u) + problem.M @ factorK.solve(Md)
    return fval, grad


def solve_apg(problem, config=None, warm=None, callback=None):
    """FISTA with doubling backtracking on the curvature constant."""
    config = (config or SolverConfig()).validate()
    n = problem.n
    t0 = time.perf_counter()
    factorK, factorM = problem.factorK, problem.factorM

    state = _check_warm(warm, n)
    u = state.u
    x = u.copy()
    tk = 1.0
    # cheap curvature seed; backtracking only ever increases it
    L = 0.5 * problem.alpha * float(problem.M.diagonal().max())
    eta_hist, rh_hist, inner_hist = [], [], []
    converged = False

    for k in range(config.max_iter):
        fx, gx = _f_and_grad(problem, factorK, x)
        doublings = 0
        while True:
            u_new = prox_g_euclidean(x - gx / L, L, problem)
            diff = u_new - x
            fu, y_new, _ = _f_and_state(problem, factorK, u_new)
            upper = fx + gx @ diff + 0.5 * L * (diff @ diff)
            if fu <= upper + 1e-12 * max(1.0, abs(fx)):
                break
            L *= 2.0
            doublings += 1
            if doublings > 60:
                return ConvergenceReport(
                    "apg", len(eta_hist), eta_hist, rh_hist, inner_hist,
                    time.perf_counter() - t0, False,
                    IterateState(u=u, z=u.copy(), lam=None))

        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        momentum = (tk - 1.0) / t_next
        x_next = u_new + momentum * (u_new - u)
        if gx @ (u_new - u) > 0.0:
            t_next = 1.0            # adaptive restart when momentum misaligns
            x_next = u_new.copy()
        u, x, tk = u_new, x_next, t_next

        p = factorK.solve(problem.M @ (problem.yd - y_new))
        it_state = IterateState(u=u, z=u.copy(), y=y_new, p=p,
                                lam=p - 0.5 * problem.alpha * u)
        res = kkt_residual_pdas(it_state, problem, factorM=factorM)
        eta_hist.append(res)
        Mlam = problem.M @ (p - 0.5 * problem.alpha * u)
        rh_hist.append(_Rh_from(u, u, Mlam, p, problem))
        inner_hist.append(InnerSolveStats(doublings, 0.0, 0, True))
        if callback is not None:
            callback(k, it_state)
        if res.eta <= config.tol:
            converged = True
            break

    return ConvergenceReport("apg", len(eta_hist), eta_hist, rh_hist,
                             inner_hist, time.perf_counter() - t0,
                             converged, it_state)


# relative residual of the CG that solves a PDAS Newton step, and its cap
_CG_RTOL = 1e-14
_CG_MAX_ITER = 200

# PDAS dof classification codes
_AT_A, _AT_B, _AT_0, _INACT_POS, _INACT_NEG = range(5)


def _classify(u, mu, problem, c):
    """Active/inactive partition of Algorithm-step-1 with deterministic ties.

    Strict inequalities as printed; boundary-equality dofs fall through to
    the inactive set matching the sign of u + c mu.
    """
    w = problem.W
    t = u + c * mu
    thr = c * w * problem.beta
    return np.where(t - problem.a < -thr, _AT_A,
                    np.where(t - problem.b > thr, _AT_B,
                             np.where(np.abs(t) < thr, _AT_0,
                                      np.where(t >= 0.0, _INACT_POS, _INACT_NEG))))


def _pcg(A_apply, P_apply, b, x0):
    """scipy's preconditioned CG from x0 to ||b - A x|| <= _CG_RTOL ||b||.

    Returns x, the iteration count, the preconditioner applications and
    whether the target was met within _CG_MAX_ITER iterations.
    """
    n = len(b)
    counts = [0, 0]

    def precondition(r):
        counts[1] += 1
        return P_apply(r)

    def count_iteration(_):
        counts[0] += 1

    x, info = cg(LinearOperator((n, n), matvec=A_apply, dtype=float), b,
                 x0=x0, rtol=_CG_RTOL, atol=0.0, maxiter=_CG_MAX_ITER,
                 M=LinearOperator((n, n), matvec=precondition, dtype=float),
                 callback=count_iteration)
    return x, counts[0], counts[1], info == 0


def solve_pdas(problem, config=None, warm=None, callback=None):
    """Primal-dual active set method on the z-eliminated problem.

    With the active controls fixed, y = K^{-1} M (u + yc) and
    p = K^{-1} M (yd - y) eliminate the state and adjoint, and the Newton
    step is the SPD system H_ff u_f = r in the free controls, with
    H = alpha T + M K^{-1} M K^{-1} M.  Preconditioned CG solves it from
    the current u_f, with an LU of alpha T_ff as the preconditioner; each
    CG iteration costs two K-solves, and y, p follow from two more.
    """
    config = (config or SolverConfig()).validate()
    c = config.pdas_c
    M, W, alpha = problem.M, problem.W, problem.alpha
    n = problem.n
    T = (0.5 * (M + sp.diags(W))).tocsr()

    t0 = time.perf_counter()
    factorM, factorK = problem.factorM, problem.factorK
    state = _check_warm(warm, n)
    u = state.u
    if state.mu is not None:
        mu = state.mu
    elif state.p is not None:
        mu = M @ state.p - alpha * (T @ u)
    else:
        mu = np.zeros(n)

    eta_hist, rh_hist, inner_hist = [], [], []
    converged = False
    seen_codes = set()
    y = p = None

    for k in range(config.max_iter):
        code = _classify(u, mu, problem, c)
        key = code.tobytes()
        if key in seen_codes:
            break                   # a set seen before, eta > tol: stalled
        seen_codes.add(key)

        u_new = np.where(code == _AT_A, problem.a,
                         np.where(code == _AT_B, problem.b, 0.0))
        mu_fix = np.where(code == _INACT_POS, W * problem.beta,
                          -W * problem.beta)
        ia = np.flatnonzero(code <= _AT_0)
        jf = np.flatnonzero(code > _AT_0)

        y, p = _state_adjoint(IterateState(u=u_new), problem, factorK)
        if len(jf):
            # stationarity on the free dofs, alpha T u - M p = -mu_fix,
            # is H_ff u_f = rhs once y and p are eliminated
            rhs = (M @ p - alpha * (T @ u_new) - mu_fix)[jf]
            T_ff = T[jf][:, jf]
            precond = factorize(alpha * T_ff)

            def hessian(v):
                w = np.zeros(n)
                w[jf] = v
                q = M @ factorK.solve(M @ factorK.solve(M @ w))
                return alpha * (T_ff @ v) + q[jf]

            u_f, iters, apps, cg_ok = _pcg(hessian, precond.solve, rhs, u[jf])
            u_new[jf] = u_f
            y, p = _state_adjoint(IterateState(u=u_new), problem, factorK)
        u = u_new

        stationarity = M @ p - alpha * (T @ u)
        mu = mu_fix.copy()
        mu[ia] = stationarity[ia]
        if len(jf):
            # the step's true residual, from the y and p recovered above
            rel_res = (np.linalg.norm(stationarity[jf] - mu_fix[jf])
                       / np.linalg.norm(rhs))
            stats = InnerSolveStats(iters, rel_res, apps, cg_ok)
        else:
            stats = InnerSolveStats(0, 0.0, 0, True)

        it_state = IterateState(u=u, z=u.copy(), y=y, p=p, mu=mu,
                                lam=p - 0.5 * alpha * u)
        res = kkt_residual_pdas(it_state, problem, factorM=factorM)
        eta_hist.append(res)
        Mlam = mu + 0.5 * alpha * (W * u)
        rh_hist.append(_Rh_from(u, u, Mlam, p, problem))
        inner_hist.append(stats)
        if callback is not None:
            callback(k, it_state)
        if not stats.converged:
            break                   # CG missed its target: abort flagged
        if res.eta <= config.tol:
            converged = True
            break

    final = IterateState(u=u, z=u.copy(), y=y, p=p, mu=mu,
                         lam=None if p is None else p - 0.5 * alpha * u)
    return ConvergenceReport("pdas", len(eta_hist), eta_hist, rh_hist,
                             inner_hist, time.perf_counter() - t0,
                             converged, final)


def solve_two_phase(problem, config_phase1=None, config_phase2=None,
                    callback=None):
    """ihADMM to moderate accuracy, then PDAS warm-started from its iterate.

    callback(k, state) sees the iterates of both phases, k running on
    from phase 1 into phase 2.
    """
    config_phase1 = config_phase1 or SolverConfig(tol=1e-3)
    config_phase2 = config_phase2 or SolverConfig(tol=1e-10)
    if config_phase1.tol < config_phase2.tol:
        raise ValueError("phase tolerances must satisfy tol1 >= tol2")
    t0 = time.perf_counter()

    rep1 = solve_ihadmm(problem, config_phase1, callback=callback)
    if not rep1.converged:
        return ConvergenceReport("two_phase", rep1.iterations,
                                 rep1.eta_history, rep1.Rh_history,
                                 rep1.inner_stats,
                                 time.perf_counter() - t0, False,
                                 rep1.final_state,
                                 phase_iterations=(rep1.iterations, 0))

    # hand PDAS the thresholded copy z: it is exactly zero / exactly at the
    # bounds on the active sets, so the first classification is reliable
    # even though the unthresholded u still carries O(tol) noise there;
    # PDAS derives mu = M p - alpha T z from it
    s1 = rep1.final_state
    warm = IterateState(u=s1.z.copy(), z=s1.z.copy(), lam=s1.lam, y=s1.y,
                        p=s1.p)
    callback2 = None
    if callback is not None:
        callback2 = lambda k, state: callback(rep1.iterations + k, state)
    rep2 = solve_pdas(problem, config_phase2, warm=warm, callback=callback2)

    return ConvergenceReport(
        "two_phase", rep1.iterations + rep2.iterations,
        rep1.eta_history + rep2.eta_history,
        rep1.Rh_history + rep2.Rh_history,
        rep1.inner_stats + rep2.inner_stats,
        time.perf_counter() - t0, rep2.converged, rep2.final_state,
        phase_iterations=(rep1.iterations, rep2.iterations))


SOLVERS = {
    "ihadmm": solve_ihadmm,
    "classical_admm": solve_classical_admm,
    "apg": solve_apg,
    "pdas": solve_pdas,
}
