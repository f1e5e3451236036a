"""
Sparse kernels and Krylov machinery for the reduced saddle-point systems.

The control subproblem of the heterogeneous ADMM reduces, after eliminating
the adjoint variable, to the 2x2 block system

    [ (1/gamma) M   K ] [y]   [rhs_top   ]
    [      -K       M ] [u] = [rhs_bottom]      gamma = alpha/2 + sigma.

With s = sqrt(gamma) and y = s w it is the complex-symmetric n x n system

    (M - i s K)(w + i u) = s rhs_top + i rhs_bottom.

Two backends solve it: a one-time sparse LU of A = M - i s K ("direct",
exact up to round-off), and right-preconditioned GMRES on (y, u), one
product with A per block operator application, with the modified HSS
block preconditioner

    P = (1/gamma) [[I, s I], [-s I, gamma I]] diag(G, G),   G = M~ + s K,

whose inverse costs one G-solve for a stack of two right-hand sides plus
a closed-form 2x2 block inversion.  M~ is the mass matrix without its
skew Kronecker part (SineSolver), so G is solved, like K, by sine
transforms and nothing is factored.  A GMRES cycle keeps its
preconditioned directions, so it applies the preconditioner once per
iteration, and hands back the true residual it ends on.  Right
preconditioning keeps that residual the true one for any fixed P, so
replacing M by M~ in G moves the iteration count, never the accuracy.

The ihADMM u-steps solve with one matrix for right-hand sides that change
slowly.  From the third on, GMRES starts from the minimal-residual
combination of the last _WINDOW solution updates (_SolutionWindow, after
Fischer 1998): the true residuals that GMRES returns give their images
under the block operator without a product with A.  On the constructed
problem at level 6 a run to 1e-6 takes 95 GMRES iterations with the
ihADMM's forced u-step targets (solvers.solve_ihadmm), whose denominator
takes ||M K^{-1}||_2 from a closed-form mesh bound, estimate_mkinv_norm.

K itself is never factored.  On the uniform mesh it is the 5-point
stencil, which the 2-D sine transform (DST-I) diagonalizes; SineSolver
solves with it, and with M~ + s K, by two transforms and a division (the
fast Poisson solver of Buzbee, Golub & Nielson 1970), each transform two
BLAS products with the N x N DST-I matrix.  Every matrix the package
factors -- the SPD M, alpha T_ff and alpha/2 M + sigma I, and the
complex-symmetric A -- equals its plain transpose and has a zero-free
diagonal, so its LU takes SuperLU's symmetric mode; factorize rejects
any other matrix.

Matrices are CSR and immutable once assembled; every solver call owns its
workspace, so concurrent solves on shared operators are safe.
"""

import math
import numpy as np
import scipy.sparse as sp
from dataclasses import dataclass
from functools import cached_property
from scipy.sparse.linalg import splu


class FactorizationError(RuntimeError):
    """Raised when a matrix turns out to be numerically singular."""


class Factorization:
    """Sparse LU in SuperLU's symmetric mode (MMD ordering of A^T + A and
    diagonal pivots, for low fill); solve() is accurate to ~1e-12 relative
    residual.  A must equal its plain transpose (A.T, not A.H: a
    complex-symmetric A qualifies) and have a zero-free diagonal."""

    def __init__(self, A):
        A = sp.csc_matrix(A)
        if (A.shape[0] != A.shape[1] or (A != A.T).nnz
                or not np.all(A.diagonal() != 0)):
            raise ValueError("can only factorize a square symmetric matrix "
                             "with a zero-free diagonal")
        try:
            self._lu = splu(A, permc_spec="MMD_AT_PLUS_A",
                            diag_pivot_thresh=0.0,
                            options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise FactorizationError(str(exc)) from exc
        if not np.all(np.isfinite(self._lu.U.diagonal())):
            raise FactorizationError("LU factor contains non-finite pivots")

    def solve(self, rhs):
        return self._lu.solve(np.asarray(rhs))  # no cast: keeps complex rhs


def factorize(A):
    """Factor A (see Factorization) for repeated solves."""
    return Factorization(A)


def _sine_eigenvalues(h, j):
    """4 sin^2(j pi h/2), the eigenvalues of the 1-D stencil [-1, 2, -1] on
    the 1/h - 1 interior nodes of a uniform grid (j = 1, ..., 1/h - 1); the
    5-point stencil's are their pairwise sums."""
    return 4.0 * np.sin(0.5 * np.pi * h * j) ** 2


def _sine_matrix(N):
    """The N x N DST-I matrix S_jk = sin(pi j k/(N+1)).  The argument is
    taken from the integer (j k) mod 2(N+1), so every entry is the sine of
    an angle in [0, 2 pi) and the round-off does not grow with j k."""
    j = np.arange(1, N + 1)
    return np.sin(np.pi / (N + 1) * (np.outer(j, j) % (2 * N + 2)))


def _sine_transform(S, B):
    """S B S for each N x N grid B of a stack along leading axes (or for a
    single grid), with S = _sine_matrix(N): two BLAS matrix products."""
    return S @ B @ S


class SineSolver:
    """Solver with mass M~ + stiffness K, K the 5-point stencil
    [-1; -1, 4, -1; -1] on an N x N interior grid numbered row by row (the
    P1 stiffness matrix of the uniform Friedrichs-Keller mesh,
    mesh.assemble_stiffness); the defaults solve with K alone.

    The DST-I matrix S has S^2 = (N+1)/2 I and diagonalizes the 1-D
    stencils [-1, 2, -1] and E + E^T = [1, 0, 1] (E the shift) with the
    eigenvalues 4 sin^2(j pi h/2) and c_j = 2 cos(j pi h), h = 1/(N + 1).
    The mesh's mass matrix is h^2/12 [6 I + (E+E^T) x I + I x (E+E^T)
    + E x E + E^T x E^T], or with E x E^T + E^T x E when the diagonals
    run the other way.  These last two terms are 1/2 (E+E^T) x (E+E^T)
    +- 1/2 (E-E^T) x (E-E^T); dropping the skew part leaves M~, with the
    eigenvalues h^2/12 (6 + c_j + c_k + c_j c_k/2) for either direction.
    So with b on the grid as B, the solve is S (S B S / D) S, where D_jk
    is the eigenvalue of mass M~ + stiffness K times ((N+1)/2)^2: two 2-D
    sine transforms and a division, with S and D the only arrays stored
    (N^2 entries each, no factor).  The constructor raises ValueError for
    any other K; it checks one product of K against the stencil applied
    by slicing, on integer entries, where both are exact.
    """

    def __init__(self, K, mass=0.0, stiffness=1.0):
        n = K.shape[0]
        N = math.isqrt(n)
        if K.shape != (n, n) or N * N != n:
            raise ValueError("K must be square of order N^2")
        x = np.random.default_rng(0).integers(1, 2 ** 20, n).astype(float)
        X = x.reshape(N, N)
        Kx = 4.0 * X
        Kx[1:] -= X[:-1]
        Kx[:-1] -= X[1:]
        Kx[:, 1:] -= X[:, :-1]
        Kx[:, :-1] -= X[:, 1:]
        if not np.array_equal(K @ x, Kx.ravel()):
            raise ValueError("K is not the 5-point stencil of an N x N grid")
        h = 1.0 / (N + 1)
        j = np.arange(1, N + 1)
        lam = _sine_eigenvalues(h, j)
        c = 2.0 * np.cos(np.pi * h * j)
        mu = h * h / 12.0 * (6.0 + c[:, None] + c[None, :]
                             + 0.5 * c[:, None] * c[None, :])
        self._S = _sine_matrix(N)
        self._denom = (mass * mu + stiffness * (lam[:, None] + lam[None, :])) \
            * (0.5 * (N + 1)) ** 2

    def solve(self, rhs):
        """The solution for a length-n rhs, or for each row of an m x n
        stack of them, in one transform pair."""
        rhs = np.asarray(rhs)
        S = self._S
        B = rhs.reshape(rhs.shape[:-1] + S.shape)
        return _sine_transform(S, _sine_transform(S, B) / self._denom) \
            .reshape(rhs.shape)


@dataclass
class InnerSolveStats:
    """An inner solve's iterations, achieved relative residual, preconditioner
    applications and whether it met its target (an LU solve always does)."""

    iterations: int
    final_relative_residual: float
    preconditioner_applications: int
    converged: bool


def pmhss_apply(gamma, G_solver, r):
    """Apply the inverse of the modified-HSS block preconditioner to r.

    P = (1/gamma) [[I, sg I], [-sg I, gamma I]] diag(G, G) with
    sg = sqrt(gamma) and G the SPD matrix that G_solver solves with
    (SaddleSolver's is G~ = M~ + sg K); the block-scalar factor is inverted
    in closed form ((1/gamma)[[1, sg], [-sg, gamma]] has determinant 2),
    then G_solver solves with G for both halves in one call on the 2 x n
    stack of them.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    n = len(r) // 2
    sg = np.sqrt(gamma)
    r1, r2 = r[:n], r[n:]
    # inverse of the scalar factor: 0.5 * [[gamma, -sg], [sg, 1]]
    s1 = 0.5 * (gamma * r1 - sg * r2)
    s2 = 0.5 * (sg * r1 + r2)
    return G_solver(np.stack([s1, s2])).ravel()


def gmres(A_apply, P_apply, rhs, tol, max_iter=500, restart=50, x0=None):
    """Right-preconditioned restarted GMRES from x0 (zero by default).

    P_apply applies P^{-1}.  Returns (x, stats, r) with r = rhs - A x, the
    true residual of x.  Stops when ||r|| <= tol * ||rhs|| (right
    preconditioning keeps the recurrence residual equal to the true one).
    A cycle keeps the preconditioned directions z_j = P^{-1} v_j beside the
    Krylov basis v_j, as the rows of two arrays allocated once per cycle,
    so x = x0 + Z y needs no further preconditioner application:
    a cycle of j iterations applies P^{-1} j times and A j + 1 times (the
    last for the true residual it ends on, from which the next cycle
    starts).  A nonzero start costs one more product with A; an x0 that
    already meets the target takes 0 iterations.  Happy breakdown counts
    as convergence; hitting max_iter is reported through the stats flag,
    never an exception.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]

    norm_b = np.linalg.norm(rhs)
    if norm_b == 0.0:
        return np.zeros(n), InnerSolveStats(0, 0.0, 0, True), np.zeros(n)
    target = tol * norm_b
    if x0 is None:
        x, r = np.zeros(n), rhs
    else:
        x = np.array(x0, dtype=float)
        r = rhs - A_apply(x)

    total_iters = 0
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
        V = np.empty((m + 1, n))
        Z = np.empty((m, n))
        V[0] = r / beta
        g[0] = beta

        j = 0
        for j in range(m):
            Z[j] = P_apply(V[j])
            # copy: operators may return their argument (e.g. identity)
            w = np.array(A_apply(Z[j]), dtype=float)
            for i in range(j + 1):          # modified Gram-Schmidt
                H[i, j] = w @ V[i]
                w -= H[i, j] * V[i]
            H[j + 1, j] = np.linalg.norm(w)
            happy = H[j + 1, j] < 1e-14 * beta
            if not happy:
                V[j + 1] = w / H[j + 1, j]
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
            if res <= target or happy or total_iters >= max_iter:
                break
        k = j + 1
        ym = np.linalg.solve(H[:k, :k], g[:k])
        x = x + ym @ Z[:k]
        r = rhs - A_apply(x)
        res = np.linalg.norm(r)

    converged = res <= target * (1.0 + 1e-12)
    return x, InnerSolveStats(total_iters, res / norm_b, total_iters,
                              converged), r


# solution updates a recycled PMHSS-GMRES start combines
_WINDOW = 8
# eigenvalue cut-off of the window's scaled Gram matrix, relative to its
# largest: a kept direction gets its coefficient to ~eps / _GRAM_RCOND
_GRAM_RCOND = 1e-14


class _SolutionWindow:
    """Start vectors for a sequence of solves A x_j = b_j with one matrix.

    Keeps the last _WINDOW solution updates d_j = x_j - x_{j-1} as the
    rows of D and their images as the rows of C = D A^T.  A solve that ends
    on x_j with true residual r_j has A x_j = b_j - r_j, so
    A d_j = (b_j - r_j) - (b_{j-1} - r_{j-1}) costs no product with A.
    start(b) returns x_{k-1} + D^T h, where h minimizes ||r0 - C^T h|| and
    r0 = b - (b_{k-1} - r_{k-1}) is the residual of the plain start x_{k-1}
    (Fischer 1998), so its residual is never the larger one.

    The small least-squares problem is solved over the whole window at
    every start, by the normal equations on the Gram matrix C C^T with
    unit-scaled rows, through its pseudo-inverse: the rows can be nearly
    dependent (scaled condition up to ~1e9 on the Stadler problem).  The
    rows are kept as they came, never orthonormalized, because dropping
    the oldest row of an orthonormalized window changes its span.  Row
    order does not matter, so a new update overwrites the oldest row.  The
    window takes 2 * _WINDOW vectors of b's length.
    """

    def __init__(self):
        self.count = 0          # updates recorded so far
        self.D = self.C = None
        self.x = self.Ax = None

    def start(self, b):
        """The start for rhs b: None before the first solve, the last
        solution before the second, the minimal-residual one after."""
        if self.count == 0:
            return self.x
        k = min(self.count, _WINDOW)
        C = self.C[:k]
        G = C @ C.T
        s = 1.0 / np.sqrt(G.diagonal())
        G *= np.outer(s, s)
        h = np.linalg.lstsq(G, s * (C @ (b - self.Ax)), rcond=_GRAM_RCOND)[0]
        return self.x + (s * h) @ self.D[:k]

    def record(self, x, b, r):
        """Add the solution x of rhs b with true residual r = b - A x; a
        solve that left x unchanged adds no update."""
        Ax = b - r
        if self.x is not None and np.any(x != self.x):
            if self.D is None:
                self.D = np.empty((_WINDOW, len(x)))
                self.C = np.empty((_WINDOW, len(x)))
            row = self.count % _WINDOW
            self.D[row] = x - self.x
            self.C[row] = Ax - self.Ax
            self.count += 1
        self.x, self.Ax = x, Ax


class SaddleSolver:
    """Reusable solver for a fixed (M, K, gamma) saddle operator.

    Holds A = M - i sqrt(gamma) K.  The direct backend factors A once; the
    pmhss_gmres backend runs right-preconditioned GMRES from the window of
    its earlier solves, preconditioned by PMHSS with G~ = M~ + sqrt(gamma) K
    (G_solve), and factors nothing.  Both report the achieved
    ||r1|| + ||r2|| relative to ||rhs|| in the stats and leave the block
    residual (r1, r2) of the last solve in self.residual.
    """

    def __init__(self, M, K, gamma):
        self.M = M
        self.K = K
        self.gamma = gamma
        self.n = M.shape[0]
        self._s = np.sqrt(gamma)
        self._A = (M - 1j * self._s * K).tocsr()
        self._direct = None
        self._window = _SolutionWindow()
        self.residual = None

    @cached_property
    def G_solve(self):
        """Solves with G~ = M~ + sqrt(gamma) K for a stack of right-hand
        sides by sine transforms (SineSolver), made on the first pmhss_gmres
        solve.  It needs K to be the mesh's 5-point stencil; a saddle
        solver built with another K must put its own solve with an SPD G,
        taking the same stacks, into this slot before a pmhss_gmres solve.
        """
        return SineSolver(self.K, mass=1.0, stiffness=self._s).solve

    def _apply(self, x):
        """[[M/gamma, K], [-K, M]] [y; u] as one product with A."""
        w = self._A @ (x[:self.n] / self._s + 1j * x[self.n:])
        return np.concatenate([w.real / self._s, w.imag])

    def solve(self, rhs_top, rhs_bottom, backend="direct", tol=1e-10):
        """Solve for (y, u); returns (y, u, InnerSolveStats).

        tol is the absolute target on ||r1|| + ||r2|| of a pmhss_gmres
        solve, whose stats say whether it was met.  A direct solve is exact
        up to round-off: it ignores tol and always reports converged, with
        the relative residual it measured.  pmhss_gmres starts from the
        solver's _SolutionWindow, which the solve then joins, so one solver
        serves one sequence of solves whose right-hand sides change slowly;
        its first solve starts from zero.
        """
        norm_b = np.hypot(np.linalg.norm(rhs_top), np.linalg.norm(rhs_bottom))
        stats_iters, papps = 0, 0
        if backend == "direct":
            if self._direct is None:
                self._direct = factorize(self._A)
            b = self._s * rhs_top + 1j * rhs_bottom
            z = self._direct.solve(b)
            y, u = self._s * z.real, np.ascontiguousarray(z.imag)
            # b - A z = s r1 + i r2 in terms of the block residuals (r1, r2)
            r = b - self._A @ z
            self.residual = (r.real / self._s, r.imag)
        elif backend == "pmhss_gmres":
            rhs = np.concatenate([rhs_top, rhs_bottom])
            if norm_b == 0.0:
                x = r = np.zeros(2 * self.n)
            else:
                G_solve = self.G_solve
                P = lambda v: pmhss_apply(self.gamma, G_solve, v)
                x0 = self._window.start(rhs)
                # ||r1|| + ||r2|| <= sqrt(2) ||r||_2, so aim for tol/sqrt(2)
                rel = tol / (np.sqrt(2.0) * norm_b)
                x, st, r = gmres(self._apply, P, rhs, rel, x0=x0)
                self._window.record(x, rhs, r)
                stats_iters, papps = st.iterations, st.preconditioner_applications
            y, u = x[:self.n], x[self.n:]
            self.residual = (r[:self.n], r[self.n:])
        else:
            raise ValueError(f"unknown saddle backend {backend!r}")

        achieved = sum(np.linalg.norm(v) for v in self.residual)
        rel_res = achieved / norm_b if norm_b > 0 else 0.0
        converged = backend == "direct" or norm_b == 0.0 or achieved <= tol
        return y, u, InnerSolveStats(stats_iters, rel_res, papps, converged)


def estimate_mkinv_norm(W, h):
    """max(W) / (8 sin^2(pi h/2)) >= ||M K^{-1}||_2 on the uniform
    Friedrichs-Keller mesh with P1 K and M (mesh.build_mesh, discretize):
    K is the 5-point stencil, lambda_min(K) = 8 sin^2(pi h/2) (SineSolver's
    smallest eigenvalue), and M >= 0 has interior row sums <= W_i, so
    lambda_max(M) <= max W (Gershgorin)."""
    return float(np.max(W) / (2.0 * _sine_eigenvalues(h, 1)))
