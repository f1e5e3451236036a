"""
Outer optimization methods for the discretized sparse control problem.

Four solver loops share the termination residuals of prox.py and one run
recorder, _Run: it starts the clock, appends the eta, R_h and inner-solve
histories together, calls the callback, tests eta <= tol and builds the
ConvergenceReport that every exit returns:

* solve_ihadmm       -- heterogeneous ADMM: M-weighted penalty in the u-step
                        (reduced 2x2 saddle solve), W-weighted penalty in the
                        z-step (closed form), inexact inner solves driven by
                        the fixed summable tolerance sequence
                        eps_k = 1e-2 / (k+1)^1.2 (_EPS0, _EPS_DECAY), each
                        GMRES started from the best combination of the last
                        solution updates (linalg._SolutionWindow); eta_1
                        and eta_3 reuse the u-step's block residual, and
                        M z and M lam are carried, so a direct iteration
                        makes 4 real sparse products and 1 complex one
                        (see the loop; eta_4 measures the ADMM dual
                        residual sigma (z - z_new) at tau = 1).  The
                        W-scaled multiplier W^{-1} M lam is made once per
                        multiplier update; the next z-step and eta_5's
                        fixed point both read it.
* solve_classical_admm -- Euclidean-penalty ADMM; its u-step is a reduced SPD
                        system in u, solved by preconditioned CG as in PDAS.
* solve_apg          -- accelerated proximal gradient (FISTA) with doubling
                        backtracking for the curvature constant and gradient
                        based restart.
* solve_pdas         -- primal-dual active set: semismooth Newton on eta_3's
                        fixed point u = Pi_box((2/alpha) soft(v, beta)),
                        v = W^{-1} M (p - alpha/2 u).  Classify every dof
                        by the branch of that map it lies on, fix the active
                        ones, solve for the free ones, repeat until the sets
                        freeze or one recurs.  The Newton step is the SPD
                        reduced-Hessian system in the free controls, solved
                        by preconditioned CG with two K-solves per iteration.

The inexact u-step k aims its ||r1|| + ||r2|| at min(eps_k / denom, cap_k)
with cap_k = 0.25 max(tol, _FORCING eta_{k-1}) h / max(1, gamma), a
forcing term relative to the last outer residual (Eisenstat & Walker 1996;
Eckstein & Silva 2013); a step with no previous eta (the first, also after
a warm start) takes max(tol, .) = tol.  Three facts follow:

* the target never exceeds eps_k / denom, so the errors stay summable as
  the convergence theory needs; denom takes ||M K^{-1}||_2 from the mesh
  (linalg.estimate_mkinv_norm: max(W) / (8 sin^2(pi h/2))), not from K;
* eta_1 and eta_3 measure the functionals F by 2 ||F||_{W^{-1}}, the
  bound on ||F||_{M^{-1}} from W/4 <= M <= W (prox._residual_core), and
  2 ||F||_{W^{-1}} <= 2 ||F||_2 / sqrt(min W) = (2/h) ||F||_2 on the
  uniform mesh, where every W_i = h^2; so eta_1 and eta_3 of step k are at
  most 0.5 max(tol, _FORCING eta_{k-1});
* once _FORCING eta_{k-1} <= tol the target is the fixed one,
  min(eps_k / denom, 0.25 tol h / max(1, gamma)), so the accuracy the run
  ends on does not move; only the early steps solve more loosely.

The M factorization and the K-solver are cached on the problem
(problem.factorM, problem.factorK), so each is made once however many
solvers or phases run.  Of the solvers only the classical ADMM solves with
M, for lam = M^{-1} lam_c, so only its first run on a problem factors M
(the build projects the data by CG and factors nothing).  K is never
factored: problem.factorK, the problem's one sine basis (problem.sine,
linalg.SineGrid), solves with it by the 2-D sine transform.

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
from dataclasses import dataclass, replace
from scipy.sparse.linalg import LinearOperator, cg

from .linalg import (SaddleSolver, factorize, estimate_mkinv_norm,
                     InnerSolveStats)
from .mesh import _fmt, check_real
# grad_f is not called here; it stays bound because perfbench's tracer
# wraps these module attributes by name
from .prox import (z_update_ihadmm, z_update_classical, prox_g_euclidean,
                   grad_f, kkt_residual_pdas, admm_residuals_weighted,
                   admm_products, dist_subdifferential_g, solve_state,
                   solve_adjoint, f_from_state, state_adjoint_functionals)

# multiplier step lengths: 1 for the ihADMM, as in the paper, and the
# classical ADMM's customary 1.618, just below the golden ratio
_TAU_IHADMM = 1.0
_TAU_CLASSICAL = 1.618
# an inexact ihADMM u-step's residual target follows the last eta times this
_FORCING = 0.1
# the inexact u-step's error sequence eps_k = _EPS0 / (k+1)^_EPS_DECAY; a
# decay above 1 keeps sum(eps_k) finite, as the convergence theory needs
_EPS0 = 1e-2
_EPS_DECAY = 1.2


@dataclass
class SolverConfig:
    """Shared solver parameters; sigma None picks 0.1*alpha (penalty)."""

    tol: float = 1e-6
    max_iter: int = 500
    sigma: float = None
    inner_backend: str = "direct"

    def validate(self):
        for name in ("tol", "sigma"):
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
        if self.inner_backend not in ("direct", "pmhss_gmres"):
            raise ValueError(f"unknown inner backend {self.inner_backend!r}")
        return self

    def penalty(self, problem):
        """The ADMM penalty sigma of a run on problem."""
        return self.sigma if self.sigma is not None else 0.1 * problem.alpha


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
        """Per-iteration convergence log as machine-readable CSV.

        inner_iters is the Krylov iteration count of the inner solve
        (GMRES, CG; 0 for a direct u-step), except for APG, which has no
        inner solve: its rows hold the backtracking doublings.
        """
        with open(path, "w") as fh:
            fh.write("iter,eta1,eta2,eta3,eta4,eta5,eta,Rh,inner_iters\n")
            rows = zip(self.eta_history, self.Rh_history, self.inner_stats)
            for k, (res, rh, stats) in enumerate(rows, 1):
                vals = ",".join(_fmt(v) for v in res.as_tuple())
                fh.write(f"{k},{vals},{_fmt(rh)},{stats.iterations}\n")


class _Run:
    """A solver run's clock, histories, callback, stop test and report."""

    def __init__(self, solver, config, callback):
        self.solver, self.tol, self.callback = solver, config.tol, callback
        self.eta, self.Rh, self.inner = [], [], []
        self.converged = False
        self.t0 = time.perf_counter()

    def record(self, state, res, rh, stats):
        """Record an iteration and call back; True to stop: converged once
        eta <= tol, unconverged once an inner solve missed its target."""
        self.eta.append(res)
        self.Rh.append(rh)
        self.inner.append(stats)
        if self.callback is not None:
            self.callback(len(self.eta) - 1, state)
        if not stats.converged:
            return True
        self.converged = res.eta <= self.tol
        return self.converged

    def report(self, state):
        return ConvergenceReport(self.solver, len(self.eta), self.eta,
                                 self.Rh, self.inner,
                                 time.perf_counter() - self.t0,
                                 self.converged, state)


def _check_warm(warm, n):
    """Copy of the warm state; a missing u, z, lam is zero, u, zero.
    Every field given must have length n."""
    warm = IterateState(u=None) if warm is None else warm
    for name in ("u", "z", "lam", "y", "p", "mu"):
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
    sigma = config.penalty(problem)
    gamma = 0.5 * problem.alpha + sigma
    M, K = problem.M, problem.K
    # multiples of d = u - z_new: lam moves by step d, and eta4's w holds
    # slack d (see the loop)
    step, slack = _TAU_IHADMM * sigma, (_TAU_IHADMM - 1.0) * sigma

    run = _Run("ihadmm", config, callback)
    saddle = SaddleSolver(problem.sine, gamma)
    inexact = config.inner_backend == "pmhss_gmres"
    if inexact:
        mk_norm = estimate_mkinv_norm(problem.W, problem.sine)
        # residual budget of the error-vector map delta = gamma M K^{-1} r1
        # + (M K^{-1})^2 r2
        denom = np.sqrt(2.0) * mk_norm * max(mk_norm, gamma)

    state = _check_warm(warm, problem.n)
    z, lam = state.z, state.lam
    # M z and M lam are carried: each iteration makes M u and M z_new, and
    # every other product with M follows from them by linearity
    Mz, Mlam = M @ z, M @ lam
    # the W-scaled multiplier W^{-1} M lam, made once per multiplier update:
    # the z-step and eta5's fixed point both read it
    v = Mlam * problem.W_inv
    rhs_bottom = -problem.Myc

    for k in range(config.max_iter):
        rhs_top = (K @ (sigma * z - lam) + problem.Myd) / gamma
        if inexact:
            eps_k = _EPS0 / (k + 1.0) ** _EPS_DECAY
            # capped so that eta1 and eta3, 2 ||F||_{W^-1} <= (2/h) ||F||_2
            # with min(W) = h^2, stay below half of max(tol, _FORCING * the
            # last eta)
            forced = _FORCING * run.eta[-1].eta if run.eta else 0.0
            cap_k = 0.25 * max(config.tol, forced) * problem.h / max(1.0, gamma)
            # GMRES starts from the minimal-residual combination of the
            # previous solutions (linalg._SolutionWindow), the first from 0
            y, u, stats = saddle.solve(rhs_top, rhs_bottom,
                                       backend="pmhss_gmres",
                                       tol=min(eps_k / denom, cap_k))
        else:
            y, u, stats = saddle.solve(rhs_top, rhs_bottom)
        # K p = M(yd - y) with p = gamma u - sigma z + lam; the block residual
        # gives K y - M(u + yc) = r2 and M(y - yd) + K p = -gamma r1
        p = gamma * u - sigma * z + lam
        r1, r2 = saddle.residual
        Mu = M @ u
        z_new = z_update_ihadmm(u, v, problem, sigma)
        Mz_new = M @ z_new
        d, Md = u - z_new, Mu - Mz_new
        # w = alpha/2 u - p + lam_new = sigma (z - z_new) + (tau - 1) sigma d
        # with p and lam_new = lam + tau sigma d: at tau = 1 the ADMM dual
        # residual, with no cancellation between u, p and lam
        w = sigma * (z - z_new) + slack * d
        Mw = sigma * (Mz - Mz_new) + slack * Md
        lam, Mlam = lam + step * d, Mlam + step * Md
        v = Mlam * problem.W_inv
        z, Mz = z_new, Mz_new

        state = IterateState(u=u, z=z, lam=lam, y=y, p=p)
        res = admm_residuals_weighted(u, Mu, r2, -gamma * r1, d, Md, w, Mw,
                                      z, v, problem)
        if run.record(state, res, _Rh_from(Mw, z, Mlam, d, problem), stats):
            break

    return run.report(state)


def _Rh_from(r1, z, Mlam, r3, problem):
    """R_h = ||M lam + grad f(u)||^2 + dist^2(0, -M lam + dg(z)) + ||u - z||^2.

    Takes r1 = M lam + grad f(u) = M lam + M(alpha/2 u - p), p the adjoint
    of the iterate: the ADMMs' eta_4 functional, or M lam - q with the q of
    kkt_residual_pdas; Mlam = M lambda itself (no M-solve in the classical
    ADMM); and r3 = u - z.  So R_h costs no solve and no product with M.
    """
    d = dist_subdifferential_g(z, Mlam, problem)
    return float(r1 @ r1 + d @ d + r3 @ r3)


# relative residual and iteration cap of the classical ADMM's and PDAS's CG
_CG_RTOL = 1e-14
_CG_MAX_ITER = 200


def _pcg(A_apply, P_apply, b, x0):
    """scipy's preconditioned CG from x0 to ||b - A x|| <= _CG_RTOL ||b||.

    Returns x, the iteration count (= preconditioner applications) and
    whether the target was met within _CG_MAX_ITER iterations.
    """
    n = len(b)
    steps = []                  # the callback adds one entry per iteration
    x, info = cg(LinearOperator((n, n), matvec=A_apply, dtype=float), b,
                 x0=x0, rtol=_CG_RTOL, atol=0.0, maxiter=_CG_MAX_ITER,
                 M=LinearOperator((n, n), matvec=P_apply, dtype=float),
                 callback=steps.append)
    return x, len(steps), info == 0


def _tracking_hessian(problem, factorK, w):
    """M K^{-1} M K^{-1} M w, the reduced Hessian's tracking term."""
    M = problem.M
    return M @ factorK.solve(M @ factorK.solve(M @ w))


def solve_classical_admm(problem, config=None, warm=None, callback=None):
    """Classical (Euclidean-penalty) ADMM.  The u-step eliminates y and p
    from its 3n system as PDAS does: CG from the previous u, preconditioned
    by an LU of alpha/2 M + sigma I, solves
    (alpha/2 M + sigma I + M K^{-1} M K^{-1} M) u = sigma z - lam_c + g0."""
    config = (config or SolverConfig()).validate()
    sigma = config.penalty(problem)
    M, n = problem.M, problem.n

    run = _Run("classical_admm", config, callback)
    factorM, factorK = problem.factorM, problem.factorK
    A0 = (0.5 * problem.alpha * M + sigma * sp.identity(n)).tocsr()
    precond = factorize(A0)
    # g0 = M K^{-1} (M yd - M K^{-1} M yc): M times the adjoint of u = 0
    g0 = M @ solve_adjoint(problem, factorK,
                           solve_state(problem, factorK, np.zeros(n)))
    g0_norm = np.linalg.norm(g0)
    hessian = lambda v: A0 @ v + _tracking_hessian(problem, factorK, v)

    state = _check_warm(warm, n)
    u, z = state.u, state.z
    lam_c = M @ state.lam      # euclidean multiplier; state stores M^{-1} lam_c

    for _ in range(config.max_iter):
        b = sigma * z - lam_c
        u, iters, cg_ok = _pcg(hessian, precond.solve, b + g0, u)
        y = solve_state(problem, factorK, u)
        p = solve_adjoint(problem, factorK, y)
        # grad f(u); the step's true residual is the 3n system's middle row,
        # taken relative to ||b|| + ||g0||: ||b + g0|| cancels as u decays
        Mg = M @ (0.5 * problem.alpha * u - p)
        stats = InnerSolveStats(iters, np.linalg.norm(b - sigma * u - Mg)
                                / (np.linalg.norm(b) + g0_norm), cg_ok)
        z = z_update_classical(u, lam_c, problem, sigma)
        lam_c = lam_c + _TAU_CLASSICAL * sigma * (u - z)
        # one M-solve serves eta4, the callback and the final state
        lam = factorM.solve(lam_c)

        Mu, F_state, F_adjoint = state_adjoint_functionals(u, y, p, problem)
        d, Md, w, Mw = admm_products(u, z, lam, p, problem)
        res = admm_residuals_weighted(u, Mu, F_state, F_adjoint, d, Md, w, Mw,
                                      z, lam_c * problem.W_inv, problem)
        state = IterateState(u=u, z=z, lam=lam, y=y, p=p)
        if run.record(state, res, _Rh_from(Mg + lam_c, z, lam_c, d, problem),
                      stats):
            break

    return run.report(state)


def solve_apg(problem, config=None, warm=None, callback=None):
    """FISTA with doubling backtracking on the curvature constant.

    The iterate carries its state y and adjoint p.  Both are affine in u, so
    the extrapolated x = u_new + m (u_new - u) gets its own as the same
    combination, and f(x), grad f(x) = M (alpha/2 x - p_x) cost no solve.
    A run makes 2 K-solves at the start, then 2 + d per iteration with d
    doublings: the state of each trial point and the accepted one's adjoint.
    """
    config = (config or SolverConfig()).validate()
    alpha, M = problem.alpha, problem.M
    run = _Run("apg", config, callback)
    factorK = problem.factorK

    u = _check_warm(warm, problem.n).u
    y = solve_state(problem, factorK, u)
    p = solve_adjoint(problem, factorK, y)
    x, y_x, p_x, tk = u, y, p, 1.0
    # cheap curvature seed; backtracking only ever increases it
    L = 0.5 * alpha * float(M.diagonal().max())

    for _ in range(config.max_iter):
        fx = f_from_state(problem, x, y_x)
        gx = M @ (0.5 * alpha * x - p_x)
        doublings = 0
        while True:
            u_new = prox_g_euclidean(x - gx / L, L, problem)
            diff = u_new - x
            y_new = solve_state(problem, factorK, u_new)
            fu = f_from_state(problem, u_new, y_new)
            upper = fx + gx @ diff + 0.5 * L * (diff @ diff)
            if fu <= upper + 1e-12 * max(1.0, abs(fx)):
                break
            L *= 2.0
            doublings += 1
            if doublings > 60:
                return run.report(IterateState(u=u, z=u.copy(), lam=None))
        p_new = solve_adjoint(problem, factorK, y_new)

        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        m = (tk - 1.0) / t_next
        if gx @ (u_new - u) > 0.0:
            t_next, m = 1.0, 0.0    # adaptive restart when momentum misaligns
        x, y_x, p_x = (new + m * (new - old) for new, old in
                       ((u_new, u), (y_new, y), (p_new, p)))
        u, y, p, tk = u_new, y_new, p_new, t_next

        lam = p - 0.5 * alpha * u
        it_state = IterateState(u=u, z=u.copy(), y=y, p=p, lam=lam)
        # q = M(p - alpha/2 u) = M lam, so grad f(u) + M lam = 0 exactly
        res, q = kkt_residual_pdas(it_state, problem)
        if run.record(it_state, res, _Rh_from(q - q, u, q, u - u, problem),
                      InnerSolveStats(doublings, 0.0, True)):
            break

    return run.report(it_state)


# PDAS dof classification codes
_AT_A, _AT_B, _AT_0, _INACT_POS, _INACT_NEG = range(5)


def _classify(u, mu, problem):
    """The branch of prox.multiplier_fixed_point each dof lies on at
    M lam = mu + alpha/2 W u: with v = M lam / W, Pi_box((2/alpha)
    soft(v, beta)) is a where v < alpha a/2 - beta, b where
    v > alpha b/2 + beta, 0 where |v| < beta and inside otherwise;
    equality dofs fall through to the inactive set with the sign of v."""
    half_alpha, beta = 0.5 * problem.alpha, problem.beta
    v = (mu + half_alpha * (problem.W * u)) * problem.W_inv
    return np.where(v < half_alpha * problem.a - beta, _AT_A,
                    np.where(v > half_alpha * problem.b + beta, _AT_B,
                             np.where(np.abs(v) < beta, _AT_0,
                                      np.where(v >= 0.0, _INACT_POS, _INACT_NEG))))


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
    M, W, alpha = problem.M, problem.W, problem.alpha
    n = problem.n
    T = (0.5 * (M + sp.diags(W))).tocsr()

    run = _Run("pdas", config, callback)
    factorK = problem.factorK
    state = _check_warm(warm, n)
    u = state.u
    if state.mu is not None:
        mu = state.mu
    elif state.p is not None:
        mu = M @ state.p - alpha * (T @ u)
    else:
        mu = np.zeros(n)

    seen_codes = set()

    for _ in range(config.max_iter):
        code = _classify(u, mu, problem)
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

        y = solve_state(problem, factorK, u_new)
        p = solve_adjoint(problem, factorK, y)
        if len(jf):
            # stationarity on the free dofs, alpha T u - M p = -mu_fix,
            # is H_ff u_f = rhs once y and p are eliminated
            rhs = (M @ p - alpha * (T @ u_new) - mu_fix)[jf]
            T_ff = T[jf][:, jf]
            precond = factorize(alpha * T_ff)

            def hessian(v):
                w = np.zeros(n)
                w[jf] = v
                q = _tracking_hessian(problem, factorK, w)
                return alpha * (T_ff @ v) + q[jf]

            u_f, iters, cg_ok = _pcg(hessian, precond.solve, rhs, u[jf])
            u_new[jf] = u_f
            y = solve_state(problem, factorK, u_new)
            p = solve_adjoint(problem, factorK, y)
        u = u_new

        stationarity = M @ p - alpha * (T @ u)
        mu = mu_fix.copy()
        mu[ia] = stationarity[ia]
        if len(jf):
            # the step's true residual, from the y and p recovered above
            rel_res = (np.linalg.norm(stationarity[jf] - mu_fix[jf])
                       / np.linalg.norm(rhs))
            stats = InnerSolveStats(iters, rel_res, cg_ok)
        else:
            stats = InnerSolveStats(0, 0.0, True)

        it_state = IterateState(u=u, z=u.copy(), y=y, p=p, mu=mu,
                                lam=p - 0.5 * alpha * u)
        res, q = kkt_residual_pdas(it_state, problem)
        Mlam = mu + 0.5 * alpha * (W * u)
        # a CG that missed its target stops the run unconverged
        if run.record(it_state, res,
                      _Rh_from(Mlam - q, u, Mlam, u - u, problem),
                      stats):
            break

    return run.report(it_state)     # the first set is never a repeat


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
        return replace(rep1, solver="two_phase",
                       wall_time=time.perf_counter() - t0,
                       phase_iterations=(rep1.iterations, 0))

    # hand PDAS the thresholded copy z: it is exactly zero / exactly at the
    # bounds on the active sets, so the first classification is reliable
    # even though the unthresholded u still carries O(tol) noise there;
    # PDAS derives mu = M p - alpha T z from it
    s1 = rep1.final_state
    warm = IterateState(u=s1.z.copy(), z=s1.z.copy(), lam=s1.lam, y=s1.y,
                        p=s1.p)
    callback2 = None if callback is None else (
        lambda k, state: callback(rep1.iterations + k, state))
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
# every name run_solver takes
SOLVER_NAMES = (*SOLVERS, "two_phase")


def run_solver(name, problem, config):
    """Run solver name on problem: two_phase takes a (phase1, phase2)
    config pair, every other solver one SolverConfig."""
    if name == "two_phase":
        return solve_two_phase(problem, *config)
    return SOLVERS[name](problem, config)
