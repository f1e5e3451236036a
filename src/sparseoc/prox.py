"""
Proximal maps, the reduced objective, and KKT residuals.

With S_h u = K^{-1} M u the discrete control-to-state map, the reduced
problem reads min f(u) + g(z) subject to u = z, where

    f(u) = 1/2 ||K^{-1} M (u + yc) - yd||_M^2 + alpha/4 ||u||_M^2,
    g(z) = alpha/4 z' W z + beta ||W z||_1 + indicator([a, b]^n),

W the lumped-mass weights.  The reduced map has one kernel: solve_state
(y = K^{-1} M (u + yc)) and solve_adjoint (p = K^{-1} M (yd - y)) make one
K-solve each, f_from_state gives f from u and y with none, and
grad f(u) = M (alpha/2 u - p).  g is separable, so every update used by the
solvers (heterogeneous/classical ADMM z-steps, the Euclidean prox of the
accelerated gradient method) has a closed form built from the soft
thresholding operator and the box projection.

Termination is measured by normalized residuals eta_1..eta_5 of the discrete
optimality system (state, coupling, adjoint, stationarity, and the prox
fixed point of the multiplier relation).  Residuals of equations (state,
adjoint, stationarity) are functionals and carry the dual M^{-1} norm;
iterate mismatches (u - z, the fixed-point gap) are functions and carry the
M norm.  These are the discrete L2 norms, so the residuals, unlike raw
Euclidean ones, do not shrink by mass-matrix factors h^2 under refinement
and iteration counts stay comparable across grid levels.  The state and
adjoint dual norms are taken as the closed-form bound 2 ||F||_{W^{-1}},
which lies between ||F||_{M^{-1}} and twice it and needs no solve (see
_residual_core); the dual norm of the ADMM stationarity functional
M(alpha/2 u - p + lam) is exact, the M norm of alpha/2 u - p + lam, and
needs none either.  admm_residuals_weighted takes every vector with its
product with M, so a caller may make or carry them.  The ihADMM takes the
state and adjoint functionals from its u-step's block residual (r1, r2),
K y - M(u + yc) = r2 and M(y - yd) + K p = -gamma r1, and carries M z and
M lam: from M u and M z_new, M(u - z_new) and the new M lam follow by
linearity, and w = alpha/2 u - p + lam_new = sigma (z - z_new)
+ (tau - 1) sigma (u - z_new), with its M w, from the old and new M z.  At
tau = 1, w is the ADMM dual residual sigma (z - z_new).  So a direct
iteration makes 4 real sparse products (K(sigma z - lam), M u, M z_new,
the eta_5 gap) and 1 complex one (the u-step's residual).
kkt_residual_admm and the classical ADMM make M(u - z) and M w afresh; the
other solvers reuse the M u of their state functional for ||u||_M.  R_h
keeps plain Euclidean norms; the solvers build it from a vector the
residuals already have (the ADMMs' eta_4 functional M w, the
q = M(p - alpha/2 u) of kkt_residual_pdas) and dist_subdifferential_g, so
it costs no solve.  The ihADMM z-step and eta_5's fixed point
(multiplier_fixed_point) take the W-scaled multiplier v = W^{-1} M lam,
which the ihADMM builds once per multiplier update for both;
dist_subdifferential_g takes M lam itself, whose interval arithmetic is
exact in that form.  The kernels read the lumped weights in the forms
DiscreteProblem caches (1/W, beta W, alpha/2 W).  All functions are pure.
"""

import math
import numpy as np
from dataclasses import dataclass


def soft(v, t):
    """Soft thresholding sign(v) * max(|v| - t, 0); t scalar or vector.

    Taken as v minus the projection of v onto [-t, t]: off the interval
    that is v - t or v + t, the same single rounding as the sign form."""
    negative = t < 0 if np.isscalar(t) else (np.asarray(t) < 0).any()
    if negative:
        raise ValueError("soft threshold must be nonnegative")
    return v - np.minimum(np.maximum(v, -t), t)


def project_box(v, a, b):
    """Componentwise projection onto [a, b]."""
    if a > b:
        raise ValueError(f"empty box: a={a} > b={b}")
    return np.minimum(np.maximum(v, a), b)


def solve_state(problem, factorK, u):
    """The state y = K^{-1} M (u + yc) of the control u."""
    return factorK.solve(problem.M @ (u + problem.yc))


def solve_adjoint(problem, factorK, y):
    """The adjoint p = K^{-1} M (yd - y) of the state y."""
    return factorK.solve(problem.M @ (problem.yd - y))


def f_from_state(problem, u, y):
    """f(u) from u and its state y; no solve."""
    d = y - problem.yd
    return 0.5 * d @ (problem.M @ d) + 0.25 * problem.alpha * u @ (problem.M @ u)


def objective_f(problem, factorK, u):
    """Tracking-plus-ridge part f(u) of the reduced objective."""
    return f_from_state(problem, u, solve_state(problem, factorK, u))


def objective_g(problem, z):
    """Separable part g(z); +inf outside the box."""
    if np.any(z < problem.a - 1e-14) or np.any(z > problem.b + 1e-14):
        return np.inf
    return (0.25 * problem.alpha * np.sum(problem.W * z * z)
            + problem.beta * np.sum(problem.W * np.abs(z)))


def grad_f(problem, factorK, u):
    """Gradient M (alpha/2 u - p), p the adjoint of the state of u."""
    p = solve_adjoint(problem, factorK, solve_state(problem, factorK, u))
    return problem.M @ (0.5 * problem.alpha * u - p)


def z_update_ihadmm(u, v, problem, sigma):
    """Closed-form z-step of the W-weighted (heterogeneous) ADMM.

    Minimizes g(z) + <lam, M(u - z)> + sigma/2 ||u - z||_W^2; takes the
    W-scaled multiplier v = W^{-1} M lam, which the solver builds once per
    iteration for this step and eta_5's fixed point.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return project_box(soft(sigma * u + v, problem.beta)
                       / (sigma + 0.5 * problem.alpha), problem.a, problem.b)


def z_update_classical(u, lam, problem, sigma):
    """Closed-form z-step of the classical ADMM (Euclidean penalty).

    Minimizes g(z) + <lam, u - z> + sigma/2 ||u - z||^2; lam is the plain
    (unweighted) multiplier.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    W = problem.W
    v = W * soft((sigma * u + lam) * problem.W_inv, problem.beta)
    return project_box(v / (0.5 * problem.alpha * W + sigma),
                       problem.a, problem.b)


def prox_g_euclidean(v, L, problem):
    """argmin_z g(z) + L/2 ||z - v||^2, componentwise closed form."""
    if L <= 0:
        raise ValueError("prox weight L must be positive")
    W = problem.W
    return project_box(soft(L * v, problem.beta * W) / (L + 0.5 * problem.alpha * W),
                       problem.a, problem.b)


@dataclass(frozen=True)
class KktResidual:
    """Normalized optimality residuals; eta is the max of the active set."""

    eta1: float = 0.0
    eta2: float = 0.0
    eta3: float = 0.0
    eta4: float = 0.0
    eta5: float = 0.0
    eta: float = 0.0

    def as_tuple(self):
        return (self.eta1, self.eta2, self.eta3, self.eta4, self.eta5, self.eta)


def state_adjoint_functionals(u, y, p, problem):
    """M u, the state functional K y - M(u + yc) and the adjoint
    functional M(y - yd) + K p: the first three vectors that
    admm_residuals_weighted and _residual_core take after u."""
    Mu = problem.M @ u
    return (Mu, problem.K @ y - Mu - problem.Myc,
            problem.M @ (y - problem.yd) + problem.K @ p)


def _m_norm(problem, v):
    """||v||_M, the discrete L2 norm of the function v."""
    return math.sqrt(max(v @ (problem.M @ v), 0.0))


def _residual_core(u, Mu, F_state, F_adjoint, problem):
    """1 + ||u||_M from Mu = M u and the normalized dual norms of the state
    and adjoint functionals, each bounded by 2 ||F||_{W^{-1}} without a
    solve."""
    # A P1 element mass matrix is at least a quarter of its lumped diagonal
    # (its eigenvalues are |T|/12 (4, 1, 1) against |T|/3), and lumping moves
    # the nonnegative off-diagonal mass onto the diagonal, so W/4 <= M <= W
    # and ||F||_{M^-1} <= 2 ||F||_{W^-1} <= 2 ||F||_{M^-1}: the bound never
    # stops a run earlier than the exact dual norm would.
    W_inv = problem.W_inv
    return (1.0 + math.sqrt(max(u @ Mu, 0.0)),
            2.0 * math.sqrt(W_inv @ (F_state * F_state))
            / (1.0 + problem.yc_norm),
            2.0 * math.sqrt(W_inv @ (F_adjoint * F_adjoint))
            / (1.0 + problem.yd_norm))


def multiplier_fixed_point(v, problem):
    """z solving  v in alpha/2 z + beta d|z| + N_box(z)  for the W-scaled
    multiplier v = W^{-1} q, q = M lam."""
    return project_box((2.0 / problem.alpha) * soft(v, problem.beta),
                       problem.a, problem.b)


def admm_residuals_weighted(u, Mu, F_state, F_adjoint, d, Md, w, Mw, z, v,
                            problem):
    """eta_1..eta_5 of an ADMM iterate (shared solver core) from vectors
    and their products with M, which the caller makes or carries: u and
    Mu = M u with the state and adjoint functionals (eta_1, eta_3),
    d = u - z and Md = M d (eta_2), the stationarity residual
    w = alpha/2 u - p + lam and Mw = M w (eta_4), z and the W-scaled
    multiplier v = W^{-1} M lam (eta_5).  The dual norm of the
    stationarity functional M w is the M norm of w, so eta_4 needs no
    solve.
    """
    scale_u, eta1, eta3 = _residual_core(u, Mu, F_state, F_adjoint, problem)
    eta2 = math.sqrt(max(d @ Md, 0.0)) / scale_u
    eta4 = math.sqrt(max(w @ Mw, 0.0)) / scale_u
    eta5 = _m_norm(problem, z - multiplier_fixed_point(v, problem)) / scale_u
    return KktResidual(eta1, eta2, eta3, eta4, eta5,
                       max(eta1, eta2, eta3, eta4, eta5))


def admm_products(u, z, lam, p, problem):
    """d = u - z, M d, w = alpha/2 u - p + lam and M w of an ADMM iterate,
    each product made afresh."""
    M = problem.M
    d = u - z
    w = 0.5 * problem.alpha * u - p + lam
    return d, M @ d, w, M @ w


def kkt_residual_admm(state, problem):
    """Residuals eta_1..eta_5 of the split (u, z) optimality system at a
    state that carries its y and p, every product made afresh."""
    u = state.u
    return admm_residuals_weighted(
        u, *state_adjoint_functionals(u, state.y, state.p, problem),
        *admm_products(u, state.z, state.lam, state.p, problem),
        state.z, (problem.M @ state.lam) * problem.W_inv, problem)


def kkt_residual_pdas(state, problem):
    """Residuals eta_1..eta_3 of the reduced (z eliminated) system at a
    state that carries its y and p, and q = M(p - alpha/2 u).

    eta_3 is the prox fixed point of the stationarity relation
    mu = M p - alpha T u in beta W d|u| + N_box(u), evaluated as
    u = Pi_box((2/alpha) soft(W^{-1} M (p - alpha/2 u), beta)); it vanishes
    exactly at KKT points of the lumped problem.
    """
    u, p = state.u, state.p
    scale_u, eta1, eta2 = _residual_core(
        u, *state_adjoint_functionals(u, state.y, p, problem), problem)
    q = problem.M @ (p - 0.5 * problem.alpha * u)
    eta3 = _m_norm(problem, u - multiplier_fixed_point(q * problem.W_inv,
                                                       problem)) / scale_u
    return KktResidual(eta1, eta2, eta3, 0.0, 0.0, max(eta1, eta2, eta3)), q


def dist_subdifferential_g(z, q, problem):
    """Componentwise distance from q to the subdifferential of g at z.

    dg(z)_i = W_i (alpha/2 z_i + beta d|z_i|) + N_[a,b](z_i) with exact
    interval arithmetic: d|0| = [-1, 1], normal cone (-inf, 0] at a,
    [0, inf) at b, {0} inside.  e = q - W (alpha/2 z + beta sign(z)) is
    q's offset from the interval's end at z != 0 and from its centre 0 at
    z = 0, so the distance is |e| off zero and max(|e| - beta W, 0) at
    zero, where the normal cone absorbs one side of e at a bound.  Each
    gap is rounded as q's gap to an end of the interval.
    """
    bw = problem.beta_W
    e = q - (problem.half_alpha_W * z + bw * np.sign(z))
    # the cone absorbs e < 0 at a and e > 0 at b
    d = np.maximum(e * (z < problem.b), -e * (z > problem.a))
    d -= bw * (z == 0.0)
    return np.maximum(d, 0.0, out=d)

