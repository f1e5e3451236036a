"""
Sparse kernels and Krylov machinery for the reduced saddle-point systems.

The control subproblem of the heterogeneous ADMM reduces, after eliminating
the adjoint variable, to the 2x2 block system

    [ (1/gamma) M   K ] [y]   [rhs_top   ]
    [      -K       M ] [u] = [rhs_bottom]      gamma = alpha/2 + sigma.

With s = sqrt(gamma) and y = s w it is the complex-symmetric n x n system

    (M - i s K)(w + i u) = s rhs_top + i rhs_bottom.

Both backends work in the orthonormal sine basis of the N x N grid,
F(X) = S~ X S~, held with the verdicts that K is the mesh's 5-point
stencil and M its mass matrix by the problem's one SineGrid
(DiscreteProblem.sine).  There M~ (M without its skew Kronecker part) and
K are the diagonals mu and kappa, and the rest of M maps a grid X to
c Q X Q^T with a dense N x N matrix Q.  The K-solve and every SaddleSolver
read that grid; a SaddleSolver adds only the diagonals of its own gamma.

The direct backend is exact up to round-off.  A~ = M~ - i s K is diagonal
in the sine basis, so a Richardson iteration preconditioned by it runs
wholly there, one pair of N x N BLAS products per step, from the last
solution.  It takes that path only where I - A~^-1 A contracts by at most
_SPECTRAL_MAX_RHO per step, which holds on fine grids and large gamma
(the constructed problem from level 2, the Stadler problem from level 7);
elsewhere it factors A once by sparse LU.

The other backend, pmhss_gmres, is right-preconditioned GMRES on the
transformed (y, u) with the modified HSS block preconditioner

    P = (1/gamma) [[I, s I], [-s I, gamma I]] diag(G, G),   G = M~ + s K.

Every diagonal map of the sine basis -- the Richardson's division by
A~'s eigenvalues, the block operator's diagonal part and P^{-1} -- acts
on the (2, N, N) stack of two grids as one (same, swap) pair of arrays,
X * same + X[::-1] * swap (_apply_pair).  So the block operator costs one
pair of N x N products on the stack plus that pair, and P^{-1} (G is the
diagonal mu + s kappa, which commutes with the 2x2 block factor) the pair
alone.  A GMRES iteration makes no sparse product and no transform, and
nothing is factored; a solve transforms its rhs in and its solution out
once, and makes one sparse product with A for the true residual (r1, r2)
that the ihADMM reads.  F is orthonormal, so the transformed residual has
the nodal norm.  A GMRES cycle keeps its preconditioned directions, so it
applies the preconditioner once per iteration, and hands back the true
residual it ends on.  Right preconditioning keeps that residual the true
one for any fixed P, so replacing M by M~ in G moves the iteration count,
never the accuracy.

The ihADMM u-steps solve with one matrix for right-hand sides that change
slowly.  From the third on, GMRES starts from the minimal-residual
combination of the last _WINDOW solution updates (_SolutionWindow, after
Fischer 1998): the true residuals that GMRES returns give their images
under the block operator, and the start's residual, without a product.
On the constructed problem at level 6 a run to 1e-6 takes 95 GMRES
iterations with the ihADMM's forced u-step targets (solvers.solve_ihadmm),
whose denominator takes ||M K^{-1}||_2 from a closed-form mesh bound,
estimate_mkinv_norm.

The mesh's K is never factored: SineGrid.solve solves with the 5-point
stencil by two transforms F and a division by kappa (a problem with any
other K gets an LU of it as its K-solver, DiscreteProblem.factorK).
Every matrix the package factors -- such a K, the SPD M, alpha T_ff and
alpha/2 M + sigma I, and the complex-symmetric A -- equals its plain
transpose and has a zero-free diagonal, as the symmetric-mode LU and
transposed solves of Factorization need; factorize rejects any other
matrix.

Matrices are CSR and immutable once assembled, and a SineGrid's arrays
are read-only.  A SaddleSolver keeps its workspace and its last solves, so
it serves one sequence of solves at a time; distinct solvers on one grid
may run concurrently.
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
    complex-symmetric A qualifies) and have a zero-free diagonal.  So
    solve() runs SuperLU's transposed solve: it solves A^T x = rhs with
    the same factors, and A^T = A makes that the same x, up to round-off
    of the same size.  It is the faster of the two here, by 20-30% per
    solve on the mesh matrices on one BLAS thread."""

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
        # no cast: a complex rhs stays complex (a real factor refuses it)
        return self._lu.solve(np.asarray(rhs), "T")


def factorize(A):
    """Factor A (see Factorization) for repeated solves."""
    return Factorization(A)


def _frozen(v):
    """v made read-only: a cached array is shared by every caller."""
    v.flags.writeable = False
    return v


def _sine_matrix(N):
    """The N x N DST-I matrix S_jk = sin(pi j k/(N+1)).  The argument is
    taken from the integer (j k) mod 2(N+1), so every entry is the sine of
    an angle in [0, 2 pi) and the round-off does not grow with j k."""
    j = np.arange(1, N + 1)
    return np.sin(np.pi / (N + 1) * (np.outer(j, j) % (2 * N + 2)))


def _stencil_error(K):
    """None when K is the 5-point stencil [-1; -1, 4, -1; -1] on an N x N
    interior grid numbered row by row, else why it is not.  It checks one
    product of K against the stencil applied by slicing, on integer
    entries, where both are exact."""
    n = K.shape[0]
    N = math.isqrt(n)
    if K.shape != (n, n) or N * N != n:
        return "K must be square of order N^2"
    x = np.random.default_rng(0).integers(1, 2 ** 20, n).astype(float)
    X = x.reshape(N, N)
    Kx = 4.0 * X
    Kx[1:] -= X[:-1]
    Kx[:-1] -= X[1:]
    Kx[:, 1:] -= X[:, :-1]
    Kx[:, :-1] -= X[:, 1:]
    if not np.array_equal(K @ x, Kx.ravel()):
        return "K is not the 5-point stencil of an N x N grid"
    return None


def _sine_spectra(N):
    """The eigenvalues of M~ and of K on the N x N grid in the sine basis,
    as two N x N arrays: h^2/12 (6 + c_j + c_k + c_j c_k/2) and
    4 sin^2(j pi h/2) + 4 sin^2(k pi h/2), c_j = 2 cos(j pi h).

    The DST-I matrix S diagonalizes the 1-D stencils [-1, 2, -1] and
    E + E^T = [1, 0, 1] (E the shift) with the eigenvalues
    4 sin^2(j pi h/2) and c_j, h = 1/(N + 1).  The mesh's mass matrix is
    h^2/12 [6 I + (E+E^T) x I + I x (E+E^T) + E x E + E^T x E^T], or with
    E x E^T + E^T x E when the diagonals run the other way.  These last
    two terms are 1/2 (E+E^T) x (E+E^T) +- 1/2 (E-E^T) x (E-E^T);
    dropping the skew part leaves M~, whose eigenvalues are the first
    array for either direction."""
    h = 1.0 / (N + 1)
    j = np.arange(1, N + 1)
    lam = 4.0 * np.sin(0.5 * np.pi * h * j) ** 2
    c = 2.0 * np.cos(np.pi * h * j)
    mu = h * h / 12.0 * (6.0 + c[:, None] + c[None, :]
                         + 0.5 * c[:, None] * c[None, :])
    return mu, lam[:, None] + lam[None, :]


def _mass_error(M, N):
    """None when M = M~ + h^2/24 (E-E^T) x (E-E^T) on the N x N grid, the
    mass matrix of mesh.build_mesh, whose diagonals couple X[i,j] with
    X[i+1,j+1] (_sine_spectra), else why it is not.  Like _stencil_error
    it checks one product, here with a positive random grid: every entry
    of M x and of the stencil applied by slicing is a sum of positive
    terms, so the two agree to a few units of round-off, and an entry of
    M off by more than ~1e-12 relative fails."""
    n = N * N
    if M.shape != (n, n):
        return "M must be of order N^2"
    h = 1.0 / (N + 1)
    X = np.random.default_rng(0).uniform(1.0, 2.0, (N, N))
    want = 6.0 * X
    want[1:] += X[:-1]
    want[:-1] += X[1:]
    want[:, 1:] += X[:, :-1]
    want[:, :-1] += X[:, 1:]
    want[1:, 1:] += X[:-1, :-1]
    want[:-1, :-1] += X[1:, 1:]
    got = (M @ X.ravel()).reshape(N, N) * (12.0 / (h * h))
    if not np.all(np.abs(got - want) <= 1e-13 * want):
        return "M is not the P1 mass matrix of an N x N grid"
    return None


def _apply_pair(pair, X):
    """The sine-basis diagonal map pair = (same, swap) on a (2, N, N)
    stack X: X * same + X[::-1] * swap.  With X the real and imaginary
    parts of a complex grid it divides by a complex diagonal; with X the
    two halves of a block vector it applies a 2x2 block of diagonals."""
    same, swap = pair
    out = X * same
    out += X[::-1] * swap
    return out


class SineGrid:
    """The 2-D sine basis of one problem's N x N interior grid
    (DiscreteProblem.sine), made part by part on first use and read-only,
    so that the K-solve (solve, the problem's factorK) and every
    SaddleSolver on the problem share it, also concurrently.

    It serves the mesh's matrices: K the 5-point stencil [-1; -1, 4, -1; -1]
    numbered row by row (mesh.assemble_stiffness) and
    M = M~ + c (E-E^T) x (E-E^T), c = h^2/24, its mass matrix.  The
    verdicts stencil_error and mesh_error are None where they are, else the
    reason, each found once by one product (_stencil_error, _mass_error).
    The orthonormal DST-I matrix S~ = sqrt(2/(N+1)) S, S_jk =
    sin(pi j k/(N+1)) (S_orth), diagonalizes K and M~ with the eigenvalues
    kappa and mu (spectra).  With F(X) = S~ X S~ (transform, its own
    inverse),

        F(M X) = mu o F(X) + c Q F(X) Q^T,    F(K X) = kappa o F(X),

    with the dense skew Q = S~ (E-E^T) S~.  So the K-solve of b on the grid
    as B is F(F(B) / kappa), the fast Poisson solver of Buzbee, Golub &
    Nielson (1970).
    """

    def __init__(self, M, K):
        self.M, self.K = M, K
        self.n = K.shape[0]
        self.N = math.isqrt(self.n)
        self.c = (1.0 / (self.N + 1)) ** 2 / 24.0

    @cached_property
    def stencil_error(self):
        """None when K is the grid's 5-point stencil, else why it is not."""
        return _stencil_error(self.K)

    @cached_property
    def mesh_error(self):
        """None when K and M are the mesh's, else why they are not."""
        if self.N * self.N != self.n:
            return "K and M must be of order N^2"
        return self.stencil_error or _mass_error(self.M, self.N)

    @cached_property
    def S_orth(self):
        return _frozen(_sine_matrix(self.N) * math.sqrt(2.0 / (self.N + 1)))

    @cached_property
    def spectra(self):
        """(mu, kappa), the eigenvalues of M~ and K as N x N arrays."""
        return tuple(_frozen(v) for v in _sine_spectra(self.N))

    @cached_property
    def Q(self):
        S, N = self.S_orth, self.N
        SD = np.zeros((N, N))           # S~ (E - E^T), (E v)_i = v_{i-1}
        SD[:, :-1] += S[:, 1:]
        SD[:, 1:] -= S[:, :-1]
        return _frozen(SD @ S)

    @cached_property
    def _cQt(self):
        return _frozen(-self.c * self.Q.T)

    def transform(self, X):
        """F(X) for each N x N grid of a stack (or for a single grid), in
        two BLAS matrix products; F is its own inverse."""
        return self.S_orth @ X @ self.S_orth

    def skew(self, X):
        """-c Q X Q^T for each grid of a (2, N, N) stack."""
        N = self.N
        return ((self.Q @ X).reshape(2 * N, N) @ self._cQt).reshape(X.shape)

    def solve(self, rhs):
        """K^-1 rhs for a length-n rhs, or for each row of an m x n stack
        of them, in one transform pair; K must be the stencil."""
        rhs = np.asarray(rhs)
        B = rhs.reshape(rhs.shape[:-1] + (self.N, self.N))
        return self.transform(self.transform(B) / self.spectra[1]) \
            .reshape(rhs.shape)


# the direct u-step iterates in the sine basis, and factors nothing, where
# I - A~^-1 A contracts at least this fast; _RHO_STEPS power steps estimate
# the contraction (ROADMAP item 13 gives it per level and problem)
_SPECTRAL_MAX_RHO = 3e-3
_RHO_STEPS = 10
# the sine-basis Richardson stops at this residual relative to ||b||
_SPECTRAL_RTOL = 1e-14


@dataclass
class InnerSolveStats:
    """An inner solve's iterations, achieved relative residual and whether
    it met its target (an LU solve always does)."""

    iterations: int
    final_relative_residual: float
    converged: bool

    @property
    def preconditioner_applications(self):
        """One per Krylov iteration: GMRES and CG apply it once each.  APG
        has no preconditioner; its stats hold backtracking doublings."""
        return self.iterations


def pmhss_apply(P, r):
    """Apply the inverse of the modified-HSS block preconditioner to the
    flat stack r = (Y, U) of two transformed grids.

    P = (1/gamma) [[I, s I], [-s I, gamma I]] diag(G, G), s = sqrt(gamma),
    with G the diagonal g = mu + s kappa in the sine basis.  The scalar
    factor has determinant 2 and commutes with diag(G, G), so
    P^{-1} = [[gamma, -s], [s, 1]] / (2 g), which the argument P holds as
    its (same, swap) pair (SaddleSolver._pmhss, _apply_pair).
    """
    return _apply_pair(P, r.reshape(P[0].shape)).reshape(r.shape)


# GMRES's restart length: a cycle's basis holds _RESTART + 1 vectors
_RESTART = 50


def gmres(A_apply, P_apply, rhs, tol, max_iter=500, restart=_RESTART,
          x0=None, r0=None, work=None):
    """Right-preconditioned restarted GMRES from x0 (zero by default).

    P_apply applies P^{-1}.  Returns (x, stats, r) with r = rhs - A x, the
    true residual of x.  Stops when ||r|| <= tol * ||rhs|| (right
    preconditioning keeps the recurrence residual equal to the true one).
    A cycle keeps the preconditioned directions z_j = P^{-1} v_j beside the
    Krylov basis v_j, so x = x0 + Z y needs no further preconditioner
    application: a cycle of j iterations applies P^{-1} j times and A
    j + 1 times (the last for the true residual it ends on, from which the
    next cycle starts).  A nonzero start costs one more product with A,
    unless the caller hands in its residual r0 = rhs - A x0; an x0 whose
    residual already meets the target takes 0 iterations and returns that
    residual.  Happy breakdown counts as convergence; hitting max_iter is
    reported through the stats flag, never an exception.

    The basis and the directions are the rows of the pair of arrays
    work = (V, Z), of at least restart + 1 and restart rows of len(rhs),
    that a caller making many solves allocates once and hands to each; by
    default each call makes its own.  The returned x and r never alias
    them.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]

    norm_b = np.linalg.norm(rhs)
    if norm_b == 0.0:
        return np.zeros(n), InnerSolveStats(0, 0.0, True), np.zeros(n)
    target = tol * norm_b
    if x0 is None:
        x, r = np.zeros(n), rhs
    else:
        x = np.array(x0, dtype=float)
        r = rhs - A_apply(x) if r0 is None else r0
    if work is None:
        m = min(restart, max_iter)
        work = np.empty((m + 1, n)), np.empty((m, n))
    V, Z = work

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
        np.divide(r, beta, out=V[0])
        g[0] = beta

        j = 0
        for j in range(m):
            Z[j] = P_apply(V[j])
            w = V[j + 1]
            w[:] = A_apply(Z[j])
            for i in range(j + 1):          # modified Gram-Schmidt
                H[i, j] = w @ V[i]
                w -= H[i, j] * V[i]
            H[j + 1, j] = np.linalg.norm(w)
            happy = H[j + 1, j] < 1e-14 * beta
            if not happy:
                w /= H[j + 1, j]
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
    return x, InnerSolveStats(total_iters, res / norm_b, converged), r


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
    (Fischer 1998), so its residual is never the larger one; that
    residual, r0 - C^T h, comes with it, again without a product.

    The small least-squares problem is solved over the whole window at
    every start, by the normal equations on the Gram matrix C C^T with
    unit-scaled rows, through its pseudo-inverse: the rows can be nearly
    dependent (scaled condition up to ~1e9 on the Stadler problem).  The
    rows are kept as they came, never orthonormalized, because dropping
    the oldest row of an orthonormalized window changes its span.  Row
    order does not matter, so a new update overwrites the oldest row.

    The window takes 2 * _WINDOW vectors of b's length, and each pass over
    them is memory-bound: a record makes the new row of C C^T (one pass
    over C), and a start reads C for C r0 and then D and C together, held
    as the pairs DC[j] = (d_j, A d_j), for D^T h and C^T h in one pass.
    """

    def __init__(self):
        self.count = 0          # updates recorded so far
        self.DC = self.G = None
        self.x = self.Ax = None

    def start(self, b):
        """The start for rhs b and its residual b - A x0: (None, None)
        before the first solve, the last solution before the second, the
        minimal-residual one after."""
        if self.x is None:
            return None, None
        r = b - self.Ax
        if self.count == 0:
            return self.x, r
        k = min(self.count, _WINDOW)
        s = 1.0 / np.sqrt(self.G.diagonal()[:k])
        G = self.G[:k, :k] * np.outer(s, s)
        h = s * np.linalg.lstsq(G, s * (self.DC[:k, 1] @ r),
                                rcond=_GRAM_RCOND)[0]
        dx, dr = (h @ self.DC[:k].reshape(k, -1)).reshape(2, -1)
        dx += self.x
        np.subtract(r, dr, out=dr)
        return dx, dr

    def record(self, x, b, r):
        """Add the solution x of rhs b with true residual r = b - A x; a
        solve that left x unchanged adds no update."""
        Ax = b - r
        if self.x is not None and np.any(x != self.x):
            if self.DC is None:
                self.DC = np.empty((_WINDOW, 2, len(x)))
                self.G = np.empty((_WINDOW, _WINDOW))
            row = self.count % _WINDOW
            d, c = self.DC[row]
            np.subtract(x, self.x, out=d)
            np.subtract(Ax, self.Ax, out=c)
            self.count += 1
            k = min(self.count, _WINDOW)
            self.G[row, :k] = self.G[:k, row] = self.DC[:k, 1] @ c
        self.x, self.Ax = x, Ax


class SaddleSolver:
    """Reusable solver for the saddle operator of one gamma on one SineGrid
    (for a problem, its own DiscreteProblem.sine).

    Both backends run in the grid's sine basis with the diagonals of their
    own gamma, s = sqrt(gamma), each made on first use, on (2, N, N) stacks
    whose skew terms are one pair of real N x N BLAS products
    (SineGrid.skew), so no step makes a sparse product or a transform.
    The direct backend picks on its first solve (_richardson) between the
    Richardson (_step) and one sparse LU of A: it tests the contraction
    first, so the LU pays for no matrix check, then that K and M are the
    mesh's (SineGrid.mesh_error).  The Richardson starts each solve from
    the last solution z_prev, whose residual b - A z_prev it takes from
    the kept A z_prev without a product.  The pmhss_gmres backend (block,
    pmhss_apply) needs the mesh's K and M (ValueError otherwise) and starts
    from the window of its earlier solves, in one workspace kept for all
    of them.  Either backend then makes one complex product with A for the
    true block residual (r1, r2) of the solve, leaves it in self.residual
    and reports its ||r1|| + ||r2|| relative to ||rhs|| in the stats.
    Both start from their earlier solves and fill one rhs buffer, so a
    solver serves one sequence of solves at a time.  gamma must be finite
    and positive (ValueError otherwise).
    """

    def __init__(self, grid, gamma):
        if not (np.isfinite(gamma) and gamma > 0):
            raise ValueError(f"gamma must be finite and positive, got {gamma}")
        self.grid = grid
        self.gamma = gamma
        self.n = grid.n
        self._s = np.sqrt(gamma)
        self._direct = None
        self._b = None          # the complex rhs s rhs_top + i rhs_bottom
        self._z = self._Az = 0.0    # the last sine-basis solution and A z
        self._window = _SolutionWindow()
        self._work = None       # the GMRES basis and directions
        self.residual = None

    @cached_property
    def _A(self):
        """A = M - i sqrt(gamma) K, made on first use."""
        return (self.grid.M - 1j * self._s * self.grid.K).tocsr()

    # the (same, swap) pairs of the sine-basis diagonal maps (_apply_pair)
    @cached_property
    def _inv(self):
        """R / lam for R = (Re, Im), lam = mu - i s kappa."""
        mu, kappa = self.grid.spectra
        inv = 1.0 / (mu - 1j * self._s * kappa)
        return np.stack([inv.real, inv.real]), np.stack([-inv.imag, inv.imag])

    @cached_property
    def _block(self):
        """The diagonal part of the block operator on (Y, U)."""
        mu, kappa = self.grid.spectra
        return np.stack([mu / self.gamma, mu]), np.stack([kappa, -kappa])

    @cached_property
    def _pmhss(self):
        """P^{-1} on (Y, U) (pmhss_apply)."""
        mu, kappa = self.grid.spectra
        half = 0.5 / (mu + self._s * kappa)
        sh = self._s * half
        return np.stack([self.gamma * half, half]), np.stack([-sh, sh])

    def block(self, x):
        """The transformed block operator [[M/gamma, K], [-K, M]] applied
        to the flat stack x = (Y, U) of two transformed grids."""
        N = self.grid.N
        X = x.reshape(2, N, N)
        T = self.grid.skew(X)
        T[0] /= self.gamma
        out = _apply_pair(self._block, X)
        out -= T
        return out.reshape(x.shape)

    def _step(self, R):
        """C = R / lam and the transformed residual -c Q C Q^T it leaves."""
        C = _apply_pair(self._inv, R)
        return C, self.grid.skew(C)

    def contraction(self, bound=np.inf):
        """The spectral radius of I - A~^-1 A, estimated as the norm ratio
        of the last of _RHO_STEPS power steps on R -> -c Q (R/lam) Q^T
        (similar to it) from a fixed-seed start.  The ratios grow towards
        it from below (the first is about half of it), so the estimate
        stops at the first ratio above bound: a residual that a step
        reduces by less than bound is already found."""
        R = np.random.default_rng(0).standard_normal(self._inv[0].shape)
        norm, rho = np.linalg.norm(R), 0.0
        for _ in range(_RHO_STEPS):
            R = self._step(R)[1]
            new = np.linalg.norm(R)
            if new == 0.0:
                return 0.0
            rho, norm = new / norm, new
            if rho > bound:
                break
        return rho

    @cached_property
    def _richardson(self):
        """Whether the direct backend runs the Richardson, not an LU of A."""
        return (self.contraction(_SPECTRAL_MAX_RHO) <= _SPECTRAL_MAX_RHO
                and self.grid.mesh_error is None)

    def _richardson_solve(self, r, target):
        """dz with A dz = r up to a transformed residual ||R|| <= target
        (||F(r)|| = ||r||), or to where a step fails to halve ||R||: it
        transforms r once, and the sum of its steps back once."""
        grid = self.grid
        R = grid.transform(np.stack([r.real, r.imag])
                           .reshape(2, grid.N, grid.N))
        Z = np.zeros_like(R)
        res = np.linalg.norm(R)
        while res > target:
            C, R = self._step(R)
            Z += C
            new = np.linalg.norm(R)
            if new > 0.5 * res:
                break
            res = new
        Y = grid.transform(Z).reshape(2, self.n)
        return Y[0] + 1j * Y[1]

    def _pmhss_gmres(self, rhs_top, rhs_bottom, rel):
        """(y, u, GMRES iterations) of a pmhss_gmres solve to relative
        residual rel, in the sine basis."""
        grid, N = self.grid, self.grid.N
        rhs = grid.transform(np.stack([rhs_top, rhs_bottom])
                             .reshape(2, N, N)).ravel()
        if self._work is None:
            self._work = (np.empty((_RESTART + 1, 2 * self.n)),
                          np.empty((_RESTART, 2 * self.n)))
        x0, r0 = self._window.start(rhs)
        P = lambda v: pmhss_apply(self._pmhss, v)
        x, stats, r = gmres(self.block, P, rhs, rel, x0=x0, r0=r0,
                            work=self._work)
        self._window.record(x, rhs, r)
        y, u = grid.transform(x.reshape(2, N, N)).reshape(2, self.n)
        return y, u, stats.iterations

    def solve(self, rhs_top, rhs_bottom, backend="direct", tol=1e-10):
        """Solve for (y, u); returns (y, u, InnerSolveStats).

        tol is the absolute target on ||r1|| + ||r2|| of a pmhss_gmres
        solve, whose stats say whether it was met.  A direct solve is exact
        up to round-off (an LU solve, or Richardson to a residual of
        _SPECTRAL_RTOL ||b||): it ignores tol and always reports converged,
        with the relative residual it measured.  pmhss_gmres starts from the
        solver's _SolutionWindow, which the solve then joins, so one solver
        serves one sequence of solves whose right-hand sides change slowly;
        its first solve starts from zero.
        """
        norm_b = math.sqrt(rhs_top @ rhs_top + rhs_bottom @ rhs_bottom)
        if self._b is None:
            self._b = np.empty(self.n, dtype=complex)
        b = self._b
        np.multiply(self._s, rhs_top, out=b.real)
        b.imag = rhs_bottom
        stats_iters = 0
        if backend == "direct":
            if not self._richardson:
                if self._direct is None:
                    self._direct = factorize(self._A)
                z = self._direct.solve(b)
                Az = self._A @ z
            else:
                z = np.zeros(self.n, dtype=complex)
                if norm_b > 0.0:
                    # from the last solution z_prev: its residual
                    # b - A z_prev takes the kept A z_prev, no product
                    z = self._z + self._richardson_solve(
                        b - self._Az, _SPECTRAL_RTOL * np.linalg.norm(b))
                Az = self._A @ z
                self._z, self._Az = z, Az
            y, u = self._s * z.real, np.ascontiguousarray(z.imag)
        elif backend == "pmhss_gmres":
            if self.grid.mesh_error is not None:
                raise ValueError("pmhss_gmres needs the mesh's K and M: "
                                 + self.grid.mesh_error)
            if norm_b == 0.0:
                y, u = np.zeros((2, self.n))
            else:
                # ||r1|| + ||r2|| <= sqrt(2) ||r||_2, so aim for tol/sqrt(2)
                y, u, stats_iters = self._pmhss_gmres(
                    rhs_top, rhs_bottom, tol / (np.sqrt(2.0) * norm_b))
            z = np.empty(self.n, dtype=complex)
            np.divide(y, self._s, out=z.real)
            z.imag = u
            Az = self._A @ z
        else:
            raise ValueError(f"unknown saddle backend {backend!r}")

        # b - A z = s r1 + i r2 in terms of the block residuals (r1, r2)
        r = b - Az
        self.residual = r1, r2 = r.real / self._s, r.imag
        achieved = math.sqrt(r1 @ r1) + math.sqrt(r2 @ r2)
        rel_res = achieved / norm_b if norm_b > 0 else 0.0
        converged = backend == "direct" or norm_b == 0.0 or achieved <= tol
        return y, u, InnerSolveStats(stats_iters, rel_res, converged)


def estimate_mkinv_norm(W, grid):
    """max(W) / lambda_min(K) >= ||M K^{-1}||_2 on the uniform
    Friedrichs-Keller mesh with P1 K and M (mesh.build_mesh, discretize):
    lambda_min(K) = 8 sin^2(pi h/2) is the grid's kappa[0, 0]
    (SineGrid.spectra), and M >= 0 has interior row sums <= W_i, so
    lambda_max(M) <= max W (Gershgorin)."""
    return float(np.max(W) / grid.spectra[1][0, 0])
