"""
Proximal maps, the reduced objective, and KKT residuals.

With S_h u = K^{-1} M u the discrete control-to-state map, the reduced
problem reads min f(u) + g(z) subject to u = z, where

    f(u) = 1/2 ||K^{-1} M (u + yc) - yd||_M^2 + alpha/4 ||u||_M^2,
    g(z) = alpha/4 z' W z + beta ||W z||_1 + indicator([a, b]^n),

W the lumped-mass weights.  g is separable, so every update used by the
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
and iteration counts stay comparable across grid levels.  The dual norms of
one residual evaluation come from a single multi-column M-solve; that of
the ADMM stationarity functional M(alpha/2 u - p + lam) is the M norm of
alpha/2 u - p + lam and needs none.  The complexity functional R_h keeps
plain Euclidean norms; the solvers build it from the adjoint p their
iterate carries (grad f(u) = alpha/2 M u - M p when K p = M(yd - y) and
K y = M(u + yc)) and from dist_subdifferential_g, so it costs no solve.
All functions are pure.
"""

import numpy as np
from dataclasses import dataclass


def soft(v, t):
    """Soft thresholding sign(v) * max(|v| - t, 0); t scalar or vector."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("soft threshold must be nonnegative")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def project_box(v, a, b):
    """Componentwise projection onto [a, b]."""
    if a > b:
        raise ValueError(f"empty box: a={a} > b={b}")
    return np.clip(v, a, b)


def objective_f(problem, factorK, u):
    """Tracking-plus-ridge part f(u) of the reduced objective."""
    y = factorK.solve(problem.M @ (u + problem.yc))
    d = y - problem.yd
    return 0.5 * d @ (problem.M @ d) + 0.25 * problem.alpha * u @ (problem.M @ u)


def objective_g(problem, z):
    """Separable part g(z); +inf outside the box."""
    if np.any(z < problem.a - 1e-14) or np.any(z > problem.b + 1e-14):
        return np.inf
    return (0.25 * problem.alpha * np.sum(problem.W * z * z)
            + problem.beta * np.sum(problem.W * np.abs(z)))


def grad_f(problem, factorK, u):
    """Gradient alpha/2 M u + M K^{-1} M (K^{-1} M (u+yc) - yd)."""
    y = factorK.solve(problem.M @ (u + problem.yc))
    return (0.5 * problem.alpha * (problem.M @ u)
            + problem.M @ factorK.solve(problem.M @ (y - problem.yd)))


def z_update_ihadmm(u, Mlam, problem, sigma):
    """Closed-form z-step of the W-weighted (heterogeneous) ADMM.

    Minimizes g(z) + <lam, M(u - z)> + sigma/2 ||u - z||_W^2; takes
    Mlam = M lam, which the solver carries from its multiplier update.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    v = sigma * u + Mlam / problem.W
    return project_box(soft(v, problem.beta) / (sigma + 0.5 * problem.alpha),
                       problem.a, problem.b)


def z_update_classical(u, lam, problem, sigma):
    """Closed-form z-step of the classical ADMM (Euclidean penalty).

    Minimizes g(z) + <lam, u - z> + sigma/2 ||u - z||^2; lam is the plain
    (unweighted) multiplier.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    W = problem.W
    v = W * soft((sigma * u + lam) / W, problem.beta)
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


class _MassNorms:
    """Discrete L2 norms: M for functions, M^{-1} for residual functionals."""

    def __init__(self, problem, factorM=None):
        self.M = problem.M
        self._problem = problem
        self._factorM = factorM

    def fn(self, v, Mv=None):
        Mv = self.M @ v if Mv is None else Mv
        return float(np.sqrt(max(v @ Mv, 0.0)))

    def dual(self, *rs):
        """M^{-1} norms of the functionals rs, from one multi-column solve."""
        if self._factorM is None:
            self._factorM = self._problem.factorM
        R = np.column_stack(rs)
        sq = np.einsum("ij,ij->j", R, self._factorM.solve(R))
        return [float(np.sqrt(max(v, 0.0))) for v in sq]


def _state_adjoint(state, problem, factorK):
    """y, p of a state, recomputed from u when the solver did not carry them."""
    y, p = state.y, state.p
    if y is None:
        y = factorK.solve(problem.M @ (state.u + problem.yc))
    if p is None:
        p = factorK.solve(problem.M @ (problem.yd - y))
    return y, p


def multiplier_fixed_point(lam_weighted, problem):
    """z solving  W^{-1} q in alpha/2 z + beta d|z| + N_box(z), q = M lam."""
    v = lam_weighted / problem.W
    return project_box((2.0 / problem.alpha) * soft(v, problem.beta),
                       problem.a, problem.b)


def admm_residuals_weighted(u, z, lam, Mlam, y, p, problem, factorM=None):
    """eta_1..eta_5 given lambda and Mlam = M lambda (shared solver core).

    The state and adjoint functionals share one 2-column M-solve for their
    dual norms, and M u is built once.  The stationarity functional
    alpha/2 M u - M p + M lam is M times alpha/2 u - p + lam, so its dual
    norm is the M norm of that vector and needs no solve.
    """
    M, K = problem.M, problem.K
    nrm = _MassNorms(problem, factorM)
    Mu = M @ u
    scale_u = 1.0 + nrm.fn(u, Mu)
    d1, d3 = nrm.dual(K @ y - Mu - problem.Myc, M @ (y - problem.yd) + K @ p)
    eta1 = d1 / (1.0 + problem.yc_norm)
    eta2 = nrm.fn(u - z) / scale_u
    eta3 = d3 / (1.0 + problem.yd_norm)
    eta4 = nrm.fn(0.5 * problem.alpha * u - p + lam) / scale_u
    eta5 = nrm.fn(z - multiplier_fixed_point(Mlam, problem)) / scale_u
    return KktResidual(eta1, eta2, eta3, eta4, eta5,
                       max(eta1, eta2, eta3, eta4, eta5))


def kkt_residual_admm(state, problem, factorK=None, factorM=None):
    """Residuals eta_1..eta_5 of the split (u, z) optimality system."""
    y, p = _state_adjoint(state, problem, factorK)
    return admm_residuals_weighted(state.u, state.z, state.lam,
                                   problem.M @ state.lam, y, p, problem,
                                   factorM)


def kkt_residual_pdas(state, problem, factorK=None, factorM=None):
    """Residuals eta_1..eta_3 of the reduced (z eliminated) system.

    eta_3 is the prox fixed point of the stationarity relation
    mu = M p - alpha T u in beta W d|u| + N_box(u), evaluated as
    u = Pi_box((2/alpha) soft(W^{-1} M (p - alpha/2 u), beta)); it vanishes
    exactly at KKT points of the lumped problem.
    """
    u = state.u
    y, p = _state_adjoint(state, problem, factorK)
    M, K = problem.M, problem.K
    nrm = _MassNorms(problem, factorM)
    Mu = M @ u
    scale_u = 1.0 + nrm.fn(u, Mu)
    d1, d2 = nrm.dual(K @ y - Mu - problem.Myc, M @ (y - problem.yd) + K @ p)
    eta1 = d1 / (1.0 + problem.yc_norm)
    eta2 = d2 / (1.0 + problem.yd_norm)
    q = M @ (p - 0.5 * problem.alpha * u)
    eta3 = nrm.fn(u - multiplier_fixed_point(q, problem)) / scale_u
    return KktResidual(eta1, eta2, eta3, 0.0, 0.0, max(eta1, eta2, eta3))


def dist_subdifferential_g(z, q, problem):
    """Componentwise distance from q to the subdifferential of g at z.

    dg(z)_i = W_i (alpha/2 z_i + beta d|z_i|) + N_[a,b](z_i) with exact
    interval arithmetic: d|0| = [-1, 1], normal cone (-inf, 0] at a,
    [0, inf) at b, {0} inside.
    """
    W = problem.W
    base = 0.5 * problem.alpha * W * z
    bw = problem.beta * W
    lo = base + np.where(z > 0, bw, -bw)
    hi = base + np.where(z < 0, -bw, bw)
    lo[z <= problem.a] = -np.inf           # normal cone opens downward at a
    hi[z >= problem.b] = np.inf            # and upward at b
    # lo <= hi, so at most one of the two gaps is positive
    return np.maximum(lo - q, 0.0) + np.maximum(q - hi, 0.0)

