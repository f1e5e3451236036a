"""
Brute-force reference solver for tiny control problems.

Certifies the main solvers: for n <= 6 unknowns the minimizer of
f(u) + g(u) is found by enumerating, per coordinate, the five regimes the
optimality system allows (at the lower bound, negative interior, at zero,
positive interior, at the upper bound), solving the smooth stationarity
equations on the interior coordinates, and keeping the unique pattern whose
solution and multipliers satisfy every sign, interval and normal-cone
condition.  The enumeration is dense numpy on purpose: it shares no code
with the sparse solver stack, so agreement between the two is meaningful.
certify_kkt then measures the minimizer with the solvers' own residuals
(prox.kkt_residual_admm), the same eta the solvers stop on.
"""

import itertools
import numpy as np

from .prox import kkt_residual_admm

AT_LOWER, NEG_INTERIOR, AT_ZERO, POS_INTERIOR, AT_UPPER = range(5)

_MAX_N = 6
_SLACK = 1e-11


def _dense_operators(problem):
    """Dense Hessian/gradient data of the reduced objective f + smooth(g)."""
    K = problem.K.toarray()
    M = problem.M.toarray()
    C = np.linalg.solve(K, M)                       # K^{-1} M
    sigma_f = 0.5 * problem.alpha * M + C.T @ M @ C
    grad0 = C.T @ (M @ (C @ problem.yc - problem.yd))
    H = sigma_f + 0.5 * problem.alpha * np.diag(problem.W)
    return H, grad0, C, M


def brute_force_solve(problem):
    """Global minimizer of f(u)+g(u) by regime enumeration, with certificate."""
    n = problem.n
    if n > _MAX_N:
        raise ValueError(f"oracle handles at most {_MAX_N} unknowns, got {n}")
    H, grad0, _, _ = _dense_operators(problem)
    W, beta = problem.W, problem.beta
    a, b = problem.a, problem.b

    accepted = []
    for pattern in itertools.product(range(5), repeat=n):
        pattern = np.array(pattern)
        free = (pattern == NEG_INTERIOR) | (pattern == POS_INTERIOR)
        fixed = ~free
        u = np.where(pattern == AT_LOWER, a,
                     np.where(pattern == AT_UPPER, b, 0.0))
        sign = np.where(pattern == POS_INTERIOR, 1.0,
                        np.where(pattern == NEG_INTERIOR, -1.0, 0.0))
        if free.any():
            rhs = -(grad0[free] + H[np.ix_(free, fixed)] @ u[fixed]
                    + beta * W[free] * sign[free])
            try:
                u[free] = np.linalg.solve(H[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue

        # interval conditions on the interior coordinates
        pos = pattern == POS_INTERIOR
        neg = pattern == NEG_INTERIOR
        if np.any(u[pos] < _SLACK) or np.any(u[pos] > b - _SLACK):
            continue
        if np.any(u[neg] > -_SLACK) or np.any(u[neg] < a + _SLACK):
            continue

        # multiplier conditions on the fixed coordinates
        r = H @ u + grad0
        ok = True
        for i in np.flatnonzero(fixed):
            if pattern[i] == AT_ZERO and abs(r[i]) > beta * W[i] + _SLACK:
                ok = False
            elif pattern[i] == AT_LOWER and r[i] < beta * W[i] - _SLACK:
                ok = False
            elif pattern[i] == AT_UPPER and r[i] > -beta * W[i] + _SLACK:
                ok = False
            if not ok:
                break
        if ok:
            accepted.append(u)

    if not accepted:
        raise RuntimeError("no regime pattern accepted; the objective is "
                           "strictly convex, so this indicates a bug")
    for other in accepted[1:]:        # boundary ties must agree
        if np.linalg.norm(other - accepted[0]) > 1e-9:
            raise RuntimeError("two distinct regime patterns accepted")
    u = accepted[0]
    return u, certify_kkt(u, problem)


def certify_kkt(u, problem):
    """Rebuild (y, p, lam, z) from u and check the full optimality system."""
    from .solvers import IterateState

    K = problem.K.toarray()
    M = problem.M.toarray()
    y = np.linalg.solve(K, M @ (u + problem.yc))
    p = np.linalg.solve(K, M @ (problem.yd - y))
    lam = p - 0.5 * problem.alpha * u
    state = IterateState(u=u, z=u.copy(), lam=lam, y=y, p=p)
    res = kkt_residual_admm(state, problem)
    if res.eta > 1e-9:
        raise RuntimeError(f"oracle inconsistency: KKT residual {res.eta:.3e}")
    return res
