import collections
import concurrent.futures
import dataclasses
import math
import sys
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigh
from scipy.sparse.linalg import splu

from sparseoc import linalg, mesh as fem, solvers
from sparseoc.linalg import (factorize, FactorizationError, pmhss_apply,
                             gmres, SaddleSolver, SineGrid,
                             estimate_mkinv_norm, _SolutionWindow, _WINDOW,
                             _sine_matrix)
from sparseoc.solvers import SolverConfig, solve_two_phase
from sparseoc.experiments import (EXAMPLE1_PARAMS, EXAMPLE2_PARAMS,
                                  reproduction_sigma)

from conftest import random_tiny_problem


def test_factorize_diagonal():
    A = sp.diags([2.0]).tocsr()
    assert np.allclose(factorize(A).solve(np.array([4.0])), [2.0])


def test_factorize_constructed(meshes):
    K = fem.assemble_stiffness(meshes(3))
    ones = np.ones(K.shape[0])
    assert np.abs(factorize(K).solve(K @ ones) - ones).max() < 1e-10


def test_factorize_dense_oracle():
    rng = np.random.default_rng(1)
    Q = rng.standard_normal((50, 50))
    A = Q @ Q.T + 50 * np.eye(50)
    rhs = rng.standard_normal(50)
    x = factorize(sp.csr_matrix(A)).solve(rhs)
    assert np.abs(x - np.linalg.solve(A, rhs)).max() < 1e-10


def test_factorize_complex_symmetric(meshes):
    m = meshes(3)
    M = fem.assemble_mass(m)
    K = fem.assemble_stiffness(m)
    A = (M - 1j * np.sqrt(7.5e-6) * K).tocsr()
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(m.n_interior) + 1j * rng.standard_normal(m.n_interior)
    x = factorize(A).solve(rhs)
    ref = np.linalg.solve(A.toarray(), rhs)
    assert np.abs(x - ref).max() < 1e-10 * np.abs(ref).max()
    # a real factor refuses a complex rhs instead of dropping its imaginary part
    with pytest.raises(TypeError):
        factorize(M).solve(rhs)


@pytest.mark.parametrize("cols", [None, 2])
@pytest.mark.parametrize("kind", ["M", "A", "alpha T_ff",
                                  "alpha/2 M + sigma I"])
def test_factorization_solve_matches_dense_solve(ex2, kind, cols):
    # solve() runs SuperLU's transposed solve; every matrix class factorize
    # accepts equals its plain transpose, so it gives the x of a dense
    # solve, and of SuperLU's plain solve, for one rhs and for two columns:
    # the SPD M, the u-step's complex-symmetric M - i s K, a PDAS
    # preconditioner alpha T_ff on two thirds of the dofs and the classical
    # ADMM's alpha/2 M + sigma I
    prob = ex2(3)[1]
    M, alpha, n = prob.M, prob.alpha, prob.n
    s = np.sqrt(0.5 * alpha + reproduction_sigma(alpha))
    jf = np.flatnonzero(np.arange(n) % 3)
    T = (0.5 * (M + sp.diags(prob.W))).tocsr()
    A = {"M": M, "A": (M - 1j * s * prob.K).tocsr(),
         "alpha T_ff": alpha * T[jf][:, jf],
         "alpha/2 M + sigma I": (0.5 * alpha * M
                                 + 0.1 * alpha * sp.identity(n)).tocsr()}[kind]
    rng = np.random.default_rng(7)
    shape = (A.shape[0],) if cols is None else (A.shape[0], cols)
    rhs = rng.standard_normal(shape)
    if A.dtype.kind == "c":
        rhs = rhs + 1j * rng.standard_normal(shape)
    fact = factorize(A)
    x = fact.solve(rhs)
    ref = np.linalg.solve(A.toarray(), rhs)
    assert x.shape == rhs.shape and x.dtype == ref.dtype
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(x - fact._lu.solve(rhs)).max() <= 1e-14 * np.abs(ref).max()


def test_factorize_singular():
    # symmetric with a zero-free diagonal: the symmetric-mode path
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(FactorizationError):
        factorize(A)


def _fill(lu):
    return lu.L.nnz + lu.U.nnz


def _colamd_fill(A):
    return _fill(splu(sp.csc_matrix(A)))


def _mmd_fill(A):
    return _fill(splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                      diag_pivot_thresh=0.0, options={"SymmetricMode": True}))


def _pdas_preconditioners(prob, monkeypatch):
    """The alpha T_ff matrices a level's two-phase run factors."""
    prob = dataclasses.replace(prob)        # no cached factorizations
    seen = []

    def recording_factorize(A):
        if A.shape[0] < prob.n:
            seen.append(A)
        return factorize(A)

    monkeypatch.setattr(solvers, "factorize", recording_factorize)
    sig = reproduction_sigma(prob.alpha)
    rep = solve_two_phase(prob, SolverConfig(tol=1e-3, sigma=sig),
                          SolverConfig(tol=1e-10, sigma=sig))
    assert rep.converged and seen
    return seen


def test_symmetric_matrices_get_the_symmetric_ordering(ex1, monkeypatch):
    _, prob, _ = ex1(4)
    M, K = prob.M, prob.K
    s = np.sqrt(0.5 * prob.alpha + reproduction_sigma(prob.alpha))
    mats = {"M": M, "K": K, "G": M + s * K, "A": (M - 1j * s * K).tocsr(),
            # the classical ADMM's CG preconditioner, at its default sigma
            "alpha/2 M + sigma I": (0.5 * prob.alpha * M
                                    + 0.1 * prob.alpha * sp.identity(prob.n))}
    for i, T_ff in enumerate(_pdas_preconditioners(prob, monkeypatch)):
        mats[f"alpha T_ff {i}"] = T_ff
    for name, A in mats.items():
        fill = _fill(factorize(A)._lu)
        assert fill == _mmd_fill(A), name
        assert fill < _colamd_fill(A), name


def test_factorize_rejects_other_matrices(ex1):
    _, prob, _ = ex1(3)
    M, K, n = prob.M, prob.K, prob.n
    # the 3n u-step system of the classical ADMM: symmetric, but its (3,3)
    # block is zero
    sigma = 0.1 * prob.alpha
    A3 = sp.bmat([[M, None, K],
                  [None, 0.5 * prob.alpha * M + sigma * sp.identity(n), -M],
                  [K, -M, None]], format="csc")
    nonsymmetric = (K + sp.triu(M, 1)).tocsc()
    for A in (A3, nonsymmetric):
        with pytest.raises(ValueError, match="symmetric matrix with a "
                                             "zero-free diagonal"):
            factorize(A)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(log_s=st.floats(-4.0, 4.0), level=st.integers(2, 5),
       seed=st.integers(0, 2 ** 32 - 1))
@example(log_s=-4.0, level=5, seed=0)
@example(log_s=4.0, level=5, seed=0)
def test_complex_symmetric_solves_reach_the_direct_floor(meshes, log_s,
                                                         level, seed):
    m = meshes(level)
    A = (fem.assemble_mass(m)
         - 1j * 10.0 ** log_s * fem.assemble_stiffness(m)).tocsr()
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    x = factorize(A).solve(b)
    # the accuracy the Factorization docstring promises
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)


def test_pmhss_zero(meshes):
    solver = SaddleSolver(_grid(meshes(2)), 1.0)
    out = pmhss_apply(solver._pmhss, np.zeros(18))
    assert np.array_equal(out, np.zeros(18))


def _mass_without_skew(m):
    """M~ = h^2/12 [6 I + T x I + I x T + 1/2 T x T], T = E + E^T with E
    the N x N shift, built by sp.kron from the stencil in the _sine_spectra
    docstring; checks that the mesh's mass matrix M differs from it by
    the skew part +-h^2/24 (E - E^T) x (E - E^T) alone, whose sign
    follows the direction of the mesh diagonals."""
    N = math.isqrt(m.n_interior)
    I = sp.identity(N)
    T = sp.diags([1.0, 1.0], [-1, 1], shape=(N, N))
    Mt = m.h ** 2 / 12.0 * (6.0 * sp.kron(I, I) + sp.kron(T, I)
                            + sp.kron(I, T) + 0.5 * sp.kron(T, T))
    F = sp.diags([-1.0, 1.0], [-1, 1], shape=(N, N))
    skew = m.h ** 2 / 24.0 * sp.kron(F, F)
    M = fem.assemble_mass(m)
    assert min(abs(M - Mt - skew).max(), abs(M - Mt + skew).max()) \
        <= 1e-15 * m.h ** 2
    return Mt.tocsr()


def _grid(m):
    """The sine basis of a mesh's M and K."""
    return SineGrid(fem.assemble_mass(m), fem.assemble_stiffness(m))


def _transform(grid, x):
    """F applied to each half of a flat pair of grids x (or to each such
    pair, the rows of a stack): the nodal <-> sine basis map of the
    pmhss_gmres backend, its own inverse."""
    N = grid.N
    return grid.transform(x.reshape(-1, 2, N, N)).reshape(x.shape)


def _G_tilde_solve(grid, s, B):
    """G~^-1 B for a 2 x n stack B of nodal grids, G~ = M~ + s K: the
    division by the diagonal mu + s kappa of the grid's spectra, which
    the pmhss_gmres backend's P^-1 reads."""
    mu, kappa = grid.spectra
    return _transform(grid, _transform(grid, B) / (mu + s * kappa).ravel())


@pytest.mark.parametrize("level", range(1, 6))
def test_G_tilde_solve_matches_dense_solve(meshes, level):
    # the diagonal solve with G~ = M~ + s K in the sine basis against a
    # dense solve, over the range of s = sqrt(gamma) the examples reach
    # (Stadler's is ~2.7e-3), on a stack of two grids
    m = meshes(level)
    K = fem.assemble_stiffness(m)
    Mt = _mass_without_skew(m).toarray()
    rng = np.random.default_rng(level)
    grid = _grid(m)
    for s in (1e-4, 2.7e-3, 0.05, 1.0):
        B = rng.standard_normal((2, K.shape[0]))
        got = _G_tilde_solve(grid, s, B)
        want = np.linalg.solve(Mt + s * K.toarray(), B.T).T
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("level", [3, 4, 5])
def test_mass_without_skew_is_spectrally_close(meshes, level):
    # lambda(M~^-1 M) in [0.69, 1.31], [0.65, 1.35], [0.64, 1.36] at
    # levels 3/4/5: G~ stays a good PMHSS factor on every grid
    m = meshes(level)
    lam = eigh(fem.assemble_mass(m).toarray(),
               _mass_without_skew(m).toarray(), eigvals_only=True)
    assert 0.6 <= lam.min() and lam.max() <= 1.4


# a gamma of the Stadler problem's size and the one of criterion 8
_PMHSS_GAMMAS = (7.5e-6, 0.3)


def test_pmhss_round_trip(meshes):
    # the diagonal PMHSS inverse of the sine basis, between the nodal maps,
    # inverts the sparse P = (1/gamma) [[I, s I], [-s I, gamma I]]
    # diag(G~, G~) assembled from M~ + s K, at the Stadler gamma (7.5e-6)
    # and at 0.3, to round-off of the scale of P's terms
    for level in range(2, 7):
        m = meshes(level)
        K = fem.assemble_stiffness(m)
        n, grid = K.shape[0], _grid(m)
        for gamma in _PMHSS_GAMMAS:
            sg = math.sqrt(gamma)
            G = _mass_without_skew(m) + sg * K
            P = sp.bmat([[G / gamma, sg / gamma * G], [-sg / gamma * G, G]])
            solver = SaddleSolver(grid, gamma)
            r = np.random.default_rng(level).standard_normal(2 * n)
            x = _transform(grid, pmhss_apply(solver._pmhss,
                                             _transform(grid, r)))
            scale = np.linalg.norm(abs(P) @ abs(x))
            assert np.linalg.norm(P @ x - r) <= 1e-14 * scale


@pytest.mark.parametrize("level", range(2, 7))
@pytest.mark.parametrize("gamma", _PMHSS_GAMMAS)
def test_sine_basis_block_operator_is_the_sparse_one(meshes, level, gamma):
    # the pmhss_gmres backend's operator on a random pair of transformed
    # grids equals F [[M/gamma, K], [-K, M]] F to round-off of its terms
    m = meshes(level)
    M, K = fem.assemble_mass(m), fem.assemble_stiffness(m)
    solver = SaddleSolver(SineGrid(M, K), gamma)
    grid = solver.grid
    B = sp.bmat([[M / gamma, K], [-K, M]]).tocsr()
    x = np.random.default_rng(level).standard_normal(2 * m.n_interior)
    want = _transform(grid, B @ _transform(grid, x))
    scale = np.linalg.norm(abs(B) @ abs(_transform(grid, x)))
    assert np.linalg.norm(solver.block(x) - want) <= 1e-14 * scale


def test_pmhss_gmres_needs_the_mesh_matrices(ex1):
    # the backend reads the problem's sine basis, whose verdicts check K
    # (the 5-point stencil) and M (the mesh's mass matrix) by one product
    # each; a K or an M off in one entry, the oracle's random K of the
    # orders of 1 x 1, 2 x 2 and 3 x 3 grids, or a system of no square
    # order, is refused
    prob = ex1(4)[1]
    rhs = np.ones(prob.n)
    bad_K, bad_M = prob.K.copy(), prob.M.copy()
    bad_K.data[17] += 1e-9
    bad_M.data[17] *= 1.0 + 1e-9
    cases = [(dataclasses.replace(prob, K=bad_K), "not the 5-point stencil"),
             (dataclasses.replace(prob, M=bad_M), "not the P1 mass matrix")]
    for n in (1, 4, 5, 9):
        cases.append((random_tiny_problem(np.random.default_rng(n), n=n),
                      "order N" if n == 5 else "not the 5-point stencil"))
    for bad, match in cases:
        solver = SaddleSolver(bad.sine, 0.3)
        with pytest.raises(ValueError, match="needs the mesh's K and M: .*"
                                             + match):
            solver.solve(rhs[:bad.n], rhs[:bad.n], backend="pmhss_gmres")


def test_saddle_solver_rejects_bad_gamma(meshes):
    # gamma = alpha/2 + sigma must be finite and positive; the solver
    # checks it once, so no backend reaches a division by s = 0 (the
    # direct one returned converged=True at a nan residual) or an LU
    # refusal that names the matrix
    grid = _grid(meshes(2))
    rhs = np.ones(grid.n)
    for backend in ("direct", "pmhss_gmres"):
        for gamma in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError,
                               match="gamma must be finite and positive"):
                SaddleSolver(grid, gamma).solve(rhs, rhs, backend=backend)


def test_gmres_identity():
    rhs = np.arange(1.0, 6.0)
    x, stats, _ = gmres(lambda v: v, lambda v: v, rhs, 1e-12)
    assert stats.iterations == 1
    assert stats.converged
    assert np.allclose(x, rhs)


def test_gmres_dense_oracle():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((10, 10)) + 10 * np.eye(10)
    rhs = rng.standard_normal(10)
    x, stats, _ = gmres(lambda v: A @ v, lambda v: v, rhs, 1e-12)
    assert stats.converged
    assert np.abs(x - np.linalg.solve(A, rhs)).max() < 1e-9


def test_gmres_zero_rhs():
    x, stats, _ = gmres(lambda v: 2 * v, lambda v: v, np.zeros(4), 1e-10)
    assert stats.iterations == 0 and stats.converged
    assert np.array_equal(x, np.zeros(4))


def test_gmres_residual_monotone(meshes):
    # within one cycle the residual norms are non-increasing: the true
    # residual of a run capped at k iterations never exceeds that of k - 1
    K = fem.assemble_stiffness(meshes(3))
    rng = np.random.default_rng(8)
    rhs = rng.standard_normal(K.shape[0])
    x, stats, _ = gmres(lambda v: K @ v, lambda v: v, rhs, 1e-10,
                        max_iter=200, restart=200)
    assert stats.converged
    N = stats.iterations
    hist = []
    for k in range(1, N + 1):
        _, st_k, r = gmres(lambda v: K @ v, lambda v: v, rhs, 1e-10,
                           max_iter=k, restart=N)
        assert st_k.iterations == k
        hist.append(np.linalg.norm(r))
    assert all(r1 >= r2 * (1 - 1e-12) for r1, r2 in zip(hist, hist[1:]))


def test_gmres_from_x0():
    # an exact start takes no iteration; a random one meets the same
    # true-residual target as a zero start, against the dense oracle
    rng = np.random.default_rng(3)
    A = rng.standard_normal((10, 10)) + 10 * np.eye(10)
    rhs = rng.standard_normal(10)
    x_star = np.linalg.solve(A, rhs)
    x, stats, _ = gmres(lambda v: A @ v, lambda v: v, rhs, 1e-12, x0=x_star)
    assert stats.iterations == 0 and stats.converged
    assert np.array_equal(x, x_star)
    x0 = rng.standard_normal(10)
    x, stats, _ = gmres(lambda v: A @ v, lambda v: v, rhs, 1e-12,
                        x0=x0.copy())
    assert stats.iterations > 0 and stats.converged
    assert np.linalg.norm(rhs - A @ x) <= 1e-12 * np.linalg.norm(rhs)
    assert np.abs(x - x_star).max() < 1e-9


def test_saddle_pmhss_recycled_start_meets_the_dense_block_target(meshes):
    # a zero start; the same rhs again, whose start (the last solution)
    # meets the target at once; a new rhs from a nonzero window start
    M = fem.assemble_mass(meshes(3))
    K = fem.assemble_stiffness(meshes(3))
    gamma, n = 0.3, M.shape[0]
    A = np.block([[M.toarray() / gamma, K.toarray()],
                  [-K.toarray(), M.toarray()]])
    rng = np.random.default_rng(16)
    rhs, other = rng.standard_normal(2 * n), rng.standard_normal(2 * n)
    solver = SaddleSolver(SineGrid(M, K), gamma)
    tol = 1e-8 * np.linalg.norm(rhs)
    for b, zero_iterations in ((rhs, False), (rhs, True), (other, False)):
        y, u, stats = solver.solve(b[:n], b[n:], backend="pmhss_gmres",
                                   tol=tol)
        r = b - A @ np.concatenate([y, u])
        assert stats.converged and (stats.iterations == 0) == zero_iterations
        assert np.linalg.norm(r[:n]) + np.linalg.norm(r[n:]) <= tol


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       backend=st.sampled_from(["direct", "pmhss_gmres"]),
       level=st.integers(2, 4))
def test_saddle_residual_gives_state_and_adjoint_functionals(meshes, seed,
                                                             backend, level):
    # an ihADMM u-step: the residual the solver keeps is the block residual
    # of (y, u), and so the state and adjoint functionals of the iterate;
    # a loose Krylov target leaves it far above round-off.  The direct
    # backend runs on the oracle's random problems (its LU path), the
    # pmhss_gmres one, which needs the mesh's K and M, on a mesh with
    # random data; it solves twice, the second time from the first
    # solution, with 0 GMRES iterations, and both residuals are GMRES's
    # own transformed back
    rng = np.random.default_rng(seed)
    if backend == "direct":
        prob = random_tiny_problem(rng)
        M, K, n, alpha = prob.M, prob.K, prob.n, prob.alpha
        yd, yc = prob.yd, prob.yc
    else:
        m = meshes(level)
        M, K = fem.assemble_mass(m), fem.assemble_stiffness(m)
        n, alpha = m.n_interior, float(rng.uniform(1e-3, 1.0))
        yd, yc = rng.standard_normal((2, n))
    sigma = float(rng.uniform(1e-3, 1.0))
    gamma = 0.5 * alpha + sigma
    z, lam = rng.standard_normal((2, n))
    rhs_top = (K @ (sigma * z - lam) + M @ yd) / gamma
    rhs_bottom = -(M @ yc)
    norm_b = np.hypot(np.linalg.norm(rhs_top), np.linalg.norm(rhs_bottom))
    solver = SaddleSolver(SineGrid(M, K), gamma)
    iterations = []
    for _ in range(1 if backend == "direct" else 2):
        y, u, stats = solver.solve(rhs_top, rhs_bottom, backend=backend,
                                   tol=1e-3 * norm_b)
        iterations.append(stats.iterations)
        r1, r2 = solver.residual
        p = gamma * u - sigma * z + lam
        aM, aK = abs(M), abs(K)
        # round-off scale: every term of the residuals in absolute value
        terms = (aK @ (sigma * abs(z) + abs(lam)), aM @ abs(yd),
                 aM @ abs(y), gamma * (aK @ abs(u)), aK @ abs(y),
                 aM @ abs(u), aM @ abs(yc))
        scale = sum(np.linalg.norm(t) for t in terms)
        for got, want in (
                (gamma * r1, gamma * (rhs_top - M @ y / gamma - K @ u)),
                (r2, rhs_bottom + K @ y - M @ u),
                (r2, K @ y - M @ (u + yc)),
                (-gamma * r1, M @ (y - yd) + K @ p)):
            assert np.linalg.norm(got - want) <= 1e-13 * scale
    assert iterations[1:] in ([], [0])


def test_gmres_nonconvergence_flag():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((40, 40)) + 0.5 * np.eye(40)   # indefinite-ish
    rhs = rng.standard_normal(40)
    x, stats, _ = gmres(lambda v: A @ v, lambda v: v, rhs, 1e-14, max_iter=3,
                        restart=3)
    assert not stats.converged
    assert stats.iterations == 3


def test_gmres_returns_the_true_residual():
    # zero and nonzero starts, one cycle and several, converged or capped;
    # a start residual handed in, and a workspace that two runs share
    rng = np.random.default_rng(17)
    A = rng.standard_normal((30, 30)) + 6 * np.eye(30)
    rhs = rng.standard_normal(30)
    x1 = rng.standard_normal(30)
    work = np.full((5, 30), np.nan), np.full((4, 30), np.nan)
    for x0, r0, max_iter, restart, w in (
            (None, None, 500, 50, None), (x1, None, 500, 4, None),
            (None, None, 7, 3, None), (x1, rhs - A @ x1, 500, 4, None),
            (x1, rhs - A @ x1, 500, 4, work), (None, None, 7, 3, work)):
        x, stats, r = gmres(lambda v: A @ v, lambda v: v, rhs, 1e-12,
                            max_iter=max_iter, restart=restart, x0=x0, r0=r0,
                            work=w)
        assert np.linalg.norm(r - (rhs - A @ x)) <= 1e-14 * np.linalg.norm(rhs)
        assert stats.final_relative_residual \
            == np.linalg.norm(r) / np.linalg.norm(rhs)
        assert not any(np.shares_memory(v, w) for v in (x, r) for w in work)


def test_gmres_measures_a_start_residual_that_claims_the_target():
    # a start whose handed-in residual understates the true one and meets
    # the target: gmres measures rhs - A x0 and iterates to that target,
    # and its r is always the measured residual, never the handed-in one.
    # A start residual that meets the target in truth takes 0 iterations
    rng = np.random.default_rng(22)
    A = rng.standard_normal((30, 30)) + 6 * np.eye(30)
    rhs = rng.standard_normal(30)
    x_star = np.linalg.solve(A, rhs)
    norm_b, tol = np.linalg.norm(rhs), 1e-10
    for x0, iterate in ((x_star + 1e-6 * rng.standard_normal(30), True),
                        (x_star, False)):
        r_true = rhs - A @ x0
        for r0 in (1e-3 * r_true, np.zeros(30)):
            x, stats, r = gmres(lambda v: A @ v, lambda v: v, rhs, tol,
                                x0=x0, r0=r0)
            assert np.linalg.norm(r - (rhs - A @ x)) <= 1e-14 * norm_b
            assert stats.converged and np.linalg.norm(r) <= tol * norm_b
            assert (stats.iterations > 0) == iterate


def test_gmres_cycle_applies_pmhss_once_per_iteration(meshes):
    # x = x0 + Z y from the kept directions z_j = P^-1 v_j: no application
    # at the end of a cycle, however many cycles run.  A cycle applies the
    # operator once per iteration and once for its true residual; a start
    # x0 costs one more product, unless its residual r0 is handed in
    M = fem.assemble_mass(meshes(4))
    K = fem.assemble_stiffness(meshes(4))
    solver = SaddleSolver(SineGrid(M, K), 0.3)
    calls = collections.Counter()

    def P(v):
        calls["P"] += 1
        return pmhss_apply(solver._pmhss, v)

    def A(v):
        calls["A"] += 1
        return solver.block(v)

    rng = np.random.default_rng(18)
    rhs, x0 = rng.standard_normal((2, 2 * M.shape[0]))
    for restart, cycles in ((50, 1), (3, 4)):
        for start, r0, extra in ((None, None, 0), (x0, None, 1),
                                 (x0, rhs - solver.block(x0), 0)):
            calls.clear()
            x, stats, r = gmres(A, P, rhs, 1e-10, restart=restart,
                                x0=start, r0=r0)
            assert stats.converged
            assert stats.iterations > (cycles - 1) * restart
            assert calls["P"] == stats.iterations
            run = -(-stats.iterations // restart)
            assert run >= cycles
            assert calls["A"] == stats.iterations + run + extra


def test_pmhss_solves_reuse_one_workspace(meshes, monkeypatch):
    # two solves on one SaddleSolver share its GMRES workspace: the
    # second leaves the first's (y, u) as they were, and both match, bit
    # for bit, a solver whose every GMRES call makes a fresh one
    m = meshes(5)
    M, K = fem.assemble_mass(m), fem.assemble_stiffness(m)
    rng = np.random.default_rng(20)
    rhs = [rng.standard_normal((2, m.n_interior)) for _ in range(2)]
    rhs[1] = rhs[0] + 1e-2 * rhs[1]
    shared = SaddleSolver(SineGrid(M, K), 0.3)
    got = []
    for top, bottom in rhs:
        y, u, stats = shared.solve(top, bottom, backend="pmhss_gmres",
                                   tol=1e-9)
        assert stats.iterations > 0
        got.append((y, u, y.copy(), u.copy()))
    assert shared._work is not None
    for y, u, y_kept, u_kept in got:
        assert np.array_equal(y, y_kept) and np.array_equal(u, u_kept)
    gmres_shared = linalg.gmres
    monkeypatch.setattr(linalg, "gmres", lambda *args, work, **kwargs:
                        gmres_shared(*args, **kwargs))
    fresh = SaddleSolver(SineGrid(M, K), 0.3)
    for (top, bottom), (y, u, _, _) in zip(rhs, got):
        y_f, u_f, _ = fresh.solve(top, bottom, backend="pmhss_gmres",
                                  tol=1e-9)
        assert np.array_equal(y_f, y) and np.array_equal(u_f, u)
    # solvers of both backends on one new grid, in more threads than cores
    # and from the grid's first use on, give the bits of solvers run one
    # at a time, each on a grid of its own
    def run(grid, backend):
        solver = SaddleSolver(grid, 0.3)
        return [solver.solve(top, bottom, backend=backend, tol=1e-9)[:2]
                for top, bottom in rhs]

    backends = ("pmhss_gmres", "direct")
    alone = {b: run(SineGrid(M, K), b) for b in backends}
    grid = SineGrid(M, K)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(6) as pool:
            futures = [(b, pool.submit(run, grid, b)) for b in backends * 3]
            runs = [(b, f.result(timeout=120)) for b, f in futures]
    finally:
        sys.setswitchinterval(interval)
    for backend, solves in runs:
        assert np.array_equal(solves, alone[backend])


def test_pmhss_u_step_makes_two_transforms_and_no_sparse_product(
        meshes, monkeypatch):
    # a pmhss_gmres solve transforms its rhs in, and its solution out
    # together with its residual, which gives the block residual (r1, r2);
    # it makes no sparse product and never builds the complex A, however
    # many GMRES iterations it takes
    m = meshes(5)
    M, K = fem.assemble_mass(m), fem.assemble_stiffness(m)
    solver = SaddleSolver(SineGrid(M, K), 0.3)
    rng = np.random.default_rng(21)
    top, bottom = rng.standard_normal((2, m.n_interior))
    solver.solve(top, bottom, backend="pmhss_gmres", tol=1e-9)
    counts = collections.Counter()
    transform, matmul = SineGrid.transform, type(M).__matmul__

    def counted_transform(grid, B):
        counts["transform"] += 1
        return transform(grid, B)

    def counted_matmul(A, x):
        counts[A.dtype.kind] += 1
        return matmul(A, x)

    monkeypatch.setattr(SineGrid, "transform", counted_transform)
    monkeypatch.setattr(type(M), "__matmul__", counted_matmul)
    iterations = set()
    for k in range(5):
        counts.clear()
        if k < 4:
            top = top + 1e-2 * rng.standard_normal(m.n_interior)
        _, _, stats = solver.solve(top, bottom, backend="pmhss_gmres",
                                   tol=10.0 ** (-6 - min(k, 3)))
        iterations.add(stats.iterations)
        assert counts == {"transform": 2}
    assert 0 in iterations and max(iterations) > 2
    assert "_A" not in vars(solver) and solver._b is None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 12), solves=st.integers(0, _WINDOW + 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_solution_window_start_is_the_stacked_lstsq(n, solves, seed):
    # inexact solves of drifting right-hand sides; the start must be the
    # minimal-residual combination over the last _WINDOW updates, as a
    # brute-force lstsq on the explicitly stacked window gives it; past
    # _WINDOW + 1 solves each new update overwrites the oldest row
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 2 * n * np.eye(n)
    window = _SolutionWindow()
    b = rng.standard_normal(n)
    xs = []
    for _ in range(solves):
        x = np.linalg.solve(A, b) + 1e-3 * rng.standard_normal(n)
        window.record(x, b, b - A @ x)
        xs.append(x)
        b = b + 0.1 * rng.standard_normal(n)
    x0, r0 = window.start(b)
    if not xs:
        assert x0 is None and r0 is None
        return
    D = np.diff(np.array(xs), axis=0).T[:, -_WINDOW:]
    if D.shape[1] == 0:
        assert np.array_equal(x0, xs[-1])
        return
    h = np.linalg.lstsq(A @ D, b - A @ xs[-1], rcond=None)[0]
    brute = xs[-1] + D @ h
    res, res_brute = (np.linalg.norm(b - A @ v) for v in (x0, brute))
    scale = np.linalg.norm(b) + np.linalg.norm(A) * np.linalg.norm(xs[-1])
    assert abs(res - res_brute) <= 1e-12 * scale
    assert res <= np.linalg.norm(b - A @ xs[-1]) + 1e-12 * scale
    # the start's residual comes with it, without a product with A
    assert np.linalg.norm(r0 - (b - A @ x0)) <= 1e-12 * scale


def test_recycled_saddle_start_beats_the_previous_solution(meshes):
    # a sequence of slowly changing right-hand sides, as in ihADMM: each
    # recycled start has a residual no larger than that of the previous
    # solution, and every solve still meets its block target
    M = fem.assemble_mass(meshes(4))
    K = fem.assemble_stiffness(meshes(4))
    gamma, n = 0.3, M.shape[0]
    A = sp.bmat([[M / gamma, K], [-K, M]]).tocsr()
    rng = np.random.default_rng(19)
    base, drift = rng.standard_normal(2 * n), rng.standard_normal(2 * n)
    solver = SaddleSolver(SineGrid(M, K), gamma)
    x_prev, shrank = None, 0
    for k in range(12):
        rhs = base + drift / (k + 1) + 1e-3 * rng.standard_normal(2 * n)
        # the window holds sine-basis vectors: its start, mapped back
        x0 = solver._window.start(_transform(solver.grid, rhs))[0]
        if x_prev is not None:
            x0 = _transform(solver.grid, x0)
            res0 = np.linalg.norm(rhs - A @ x0)
            res_prev = np.linalg.norm(rhs - A @ x_prev)
            assert res0 <= res_prev * (1.0 + 1e-10)
            shrank += res0 < 0.5 * res_prev
        tol = 1e-8 * np.linalg.norm(rhs)
        y, u, stats = solver.solve(rhs[:n], rhs[n:], backend="pmhss_gmres",
                                   tol=tol)
        x_prev = np.concatenate([y, u])
        r = rhs - A @ x_prev
        assert stats.converged
        assert np.linalg.norm(r[:n]) + np.linalg.norm(r[n:]) <= tol
    assert shrank > 0


def test_gmres_saddle_with_pmhss_vs_direct(meshes):
    m = meshes(4)
    M = fem.assemble_mass(m)
    K = fem.assemble_stiffness(m)
    gamma = 0.3
    rng = np.random.default_rng(12)
    rhs_top = rng.standard_normal(m.n_interior)
    rhs_bottom = rng.standard_normal(m.n_interior)
    solver = SaddleSolver(SineGrid(M, K), gamma)
    y_d, u_d, _ = solver.solve(rhs_top, rhs_bottom, backend="direct")
    y_g, u_g, stats = solver.solve(rhs_top, rhs_bottom, backend="pmhss_gmres",
                                   tol=1e-10)
    assert stats.converged
    assert np.linalg.norm(np.concatenate([y_d - y_g, u_d - u_g])) < 1e-8


def test_saddle_residual_contract(meshes):
    for level in (3, 4, 5, 6):
        m = meshes(level)
        M = fem.assemble_mass(m)
        K = fem.assemble_stiffness(m)
        rng = np.random.default_rng(level)
        rhs_top = rng.standard_normal(m.n_interior)
        rhs_bottom = rng.standard_normal(m.n_interior)
        solver = SaddleSolver(SineGrid(M, K), 0.3)
        tol = 1e-8
        for backend in ("direct", "pmhss_gmres"):
            y, u, stats = solver.solve(rhs_top, rhs_bottom, backend=backend,
                                       tol=tol)
            A = sp.bmat([[M / 0.3, K], [-K, M]])
            r = np.concatenate([rhs_top, rhs_bottom]) - A @ np.concatenate([y, u])
            n = m.n_interior
            assert np.linalg.norm(r[:n]) + np.linalg.norm(r[n:]) <= tol


def test_saddle_known_solution(meshes):
    m = meshes(3)
    M = fem.assemble_mass(m)
    K = fem.assemble_stiffness(m)
    gamma = 0.42
    rng = np.random.default_rng(13)
    y_star = rng.standard_normal(m.n_interior)
    u_star = rng.standard_normal(m.n_interior)
    A = sp.bmat([[M / gamma, K], [-K, M]])
    rhs = A @ np.concatenate([y_star, u_star])
    y, u, stats = SaddleSolver(SineGrid(M, K), gamma).solve(
        rhs[:m.n_interior], rhs[m.n_interior:], backend="direct")
    assert np.abs(y - y_star).max() < 1e-10
    assert np.abs(u - u_star).max() < 1e-10


def test_direct_saddle_solve_is_always_converged(meshes):
    # an LU solve is exact up to round-off: it reports converged whatever
    # tol asks for, with the residual it measured.  At gamma = 1e-10 on
    # level 5 that residual is ~2.5e-12 relative, above any round-off floor
    # of 1e-12
    m = meshes(5)
    M, K = fem.assemble_mass(m), fem.assemble_stiffness(m)
    rng = np.random.default_rng(0)
    rhs_top = rng.standard_normal(m.n_interior)
    rhs_bottom = rng.standard_normal(m.n_interior)
    solver = SaddleSolver(SineGrid(M, K), 1e-10)
    y, u, stats = solver.solve(rhs_top, rhs_bottom, tol=1e-300)
    assert not solver._richardson          # the LU path
    assert stats.converged
    assert stats.iterations == 0
    achieved = sum(np.linalg.norm(v) for v in solver.residual)
    norm_b = np.linalg.norm(np.concatenate([rhs_top, rhs_bottom]))
    assert stats.final_relative_residual == pytest.approx(achieved / norm_b,
                                                          rel=1e-12)
    assert 1e-300 < stats.final_relative_residual < 1e-10


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(level=st.integers(2, 6), log_gamma=st.floats(-10.0, 8.0),
       seed=st.integers(0, 2 ** 32 - 1))
@example(level=6, log_gamma=math.log10(0.375), seed=0)
def test_sine_basis_splits_the_saddle_operator(meshes, level, log_gamma,
                                               seed):
    # F(A X) = lam o F(X) + c Q F(X) Q^T for A = M - i s K against the
    # sparse product, on a random complex grid, for any s
    m = meshes(level)
    M, K = fem.assemble_mass(m), fem.assemble_stiffness(m)
    s = math.sqrt(10.0 ** log_gamma)
    N = math.isqrt(m.n_interior)
    grid = SineGrid(M, K)
    assert grid.mesh_error is None
    mu, kappa = grid.spectra
    lam = mu - 1j * s * kappa
    assert grid.c == m.h ** 2 / 24.0
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    want = grid.transform(((M - 1j * s * K) @ X.ravel()).reshape(N, N))
    FX = grid.transform(X)
    got = lam * FX + grid.c * (grid.Q @ FX @ grid.Q.T)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    # F is orthonormal and its own inverse
    assert np.linalg.norm(grid.transform(FX) - X) <= 1e-13 * np.linalg.norm(X)
    # the grid's arrays are shared by every solver on it: none is writable
    for a in (grid.S_orth, grid.Q, *grid.spectra):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0.0


@pytest.mark.parametrize("level", [2, 3, 4])
def test_contraction_estimate_matches_the_dense_spectral_radius(meshes,
                                                                level):
    # the power estimate against the eigenvalues of I - A~^-1 A, A~ the
    # dense M~ - i s K, from Stadler's s to far above the constructed one
    m = meshes(level)
    M, K = fem.assemble_mass(m), fem.assemble_stiffness(m)
    I = np.eye(M.shape[0])
    Mt = _mass_without_skew(m).toarray()
    grid = SineGrid(M, K)
    for gamma in (1e-10, 0.75e-5, 1e-3, 0.375, 1e4):
        s = math.sqrt(gamma)
        A, At = M.toarray() - 1j * s * K.toarray(), Mt - 1j * s * K.toarray()
        rho = np.abs(np.linalg.eigvals(I - np.linalg.solve(At, A))).max()
        est = SaddleSolver(grid, gamma).contraction()
        assert 0.8 * rho <= est <= 1.25 * rho


def _saddle_gamma(params):
    return 0.5 * params.alpha + reproduction_sigma(params.alpha)


def test_direct_saddle_path_selection(ex1, ex2, meshes):
    # the problem's sine basis decides with the solver's gamma: the
    # sine-basis Richardson where I - A~^-1 A contracts by at most
    # _SPECTRAL_MAX_RHO (the constructed problem at levels 3-6), the LU
    # elsewhere: Stadler at levels 4-6 (rho 6.9e-2, 2.3e-2, 6.4e-3), the
    # gamma of test_direct_saddle_solve_is_always_converged, an M with one
    # perturbed entry and an M of the other diagonals, and the oracle's
    # random K, of the orders of 1 x 1, 2 x 2 and 3 x 3 grids and of none
    for level in (3, 4, 5, 6):
        assert SaddleSolver(ex1(level)[1].sine,
                            _saddle_gamma(EXAMPLE1_PARAMS))._richardson
        if level >= 4:
            assert not SaddleSolver(ex2(level)[1].sine,
                                    _saddle_gamma(EXAMPLE2_PARAMS))._richardson
    prob = ex1(5)[1]
    assert not SaddleSolver(prob.sine, 1e-10)._richardson
    perturbed = prob.M.copy()
    perturbed.data[17] *= 1.0 + 1e-9
    gamma = _saddle_gamma(EXAMPLE1_PARAMS)
    # the mass matrix of a mesh whose diagonals run the other way
    flipped = 2.0 * _mass_without_skew(meshes(5)) - prob.M
    b = np.random.default_rng(5).standard_normal(prob.n)
    for other in (perturbed, flipped):
        bad = dataclasses.replace(prob, M=other)
        assert not SaddleSolver(bad.sine, gamma)._richardson
        assert "not the P1 mass matrix" in bad.sine.mesh_error
        # K is still the stencil, so the K-solve stays the sine transform
        assert bad.factorK is bad.sine and bad.sine.stencil_error is None
        x = bad.factorK.solve(b)
        assert np.linalg.norm(prob.K @ x - b) <= 1e-13 * np.linalg.norm(b)
    for n in (1, 4, 5, 9):
        tiny = random_tiny_problem(np.random.default_rng(n), n=n)
        solver = SaddleSolver(tiny.sine, gamma)
        assert not solver._richardson
        y, u, _ = solver.solve(tiny.yd, tiny.yc)
        assert solver._direct is not None
        A = sp.bmat([[tiny.M / gamma, tiny.K], [-tiny.K, tiny.M]]).toarray()
        x = np.linalg.solve(A, np.concatenate([tiny.yd, tiny.yc]))
        assert np.allclose(np.concatenate([y, u]), x, rtol=1e-10, atol=0.0)
        # the problem's K-solver is then an LU of K, made by itself
        factorK = tiny.factorK
        assert isinstance(factorK, linalg.Factorization)
        want = np.linalg.solve(tiny.K.toarray(), tiny.yd)
        assert np.allclose(factorK.solve(tiny.yd), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("level", [3, 6])
def test_sine_richardson_solves_match_the_lu(meshes, monkeypatch, level):
    # a sequence of slowly changing right-hand sides, as in the ihADMM:
    # each Richardson solve starts from the last one and ends within
    # 1e-13 of the LU's solution, at a residual a few times its stop
    # target 1e-14, with no iteration reported; a zero rhs gives zero
    m = meshes(level)
    M, K = fem.assemble_mass(m), fem.assemble_stiffness(m)
    gamma = _saddle_gamma(EXAMPLE1_PARAMS)
    grid = SineGrid(M, K)
    spectral = SaddleSolver(grid, gamma)
    assert spectral._richardson
    monkeypatch.setattr(linalg, "_SPECTRAL_MAX_RHO", -1.0)
    lu = SaddleSolver(grid, gamma)
    assert not lu._richardson
    rng = np.random.default_rng(level)
    top, bottom = rng.standard_normal((2, m.n_interior))
    for k in range(6):
        top = top + 1e-2 * rng.standard_normal(m.n_interior)
        y, u, stats = spectral.solve(top, bottom)
        y_lu, u_lu, stats_lu = lu.solve(top, bottom)
        x, x_lu = np.concatenate([y, u]), np.concatenate([y_lu, u_lu])
        assert np.linalg.norm(x - x_lu) <= 1e-13 * np.linalg.norm(x_lu)
        assert stats.converged and stats.iterations == 0
        assert stats.final_relative_residual <= 5e-14
    y, u, stats = spectral.solve(0.0 * top, 0.0 * bottom)
    assert not np.any(y) and not np.any(u)
    assert stats.final_relative_residual == 0.0


def test_saddle_large_gamma_limit(meshes):
    # with rhs_top = 0 and rhs_bottom = -M yc: u = -(1/gamma) K^{-1} M y
    m = meshes(2)
    M = fem.assemble_mass(m)
    K = fem.assemble_stiffness(m)
    gamma = 1e8
    rng = np.random.default_rng(14)
    yc = rng.standard_normal(m.n_interior)
    y, u, _ = SaddleSolver(SineGrid(M, K), gamma).solve(
        np.zeros(m.n_interior), -(M @ yc), backend="direct")
    # dense-algebra oracle
    A = np.block([[M.toarray() / gamma, K.toarray()],
                  [-K.toarray(), M.toarray()]])
    x = np.linalg.solve(A, np.concatenate([np.zeros(m.n_interior), -(M @ yc)]))
    assert np.abs(np.concatenate([y, u]) - x).max() < 1e-10
    u_pred = -np.linalg.solve(K.toarray(), M @ y) / gamma
    assert np.abs(u - u_pred).max() < 1e-10 * max(1.0, np.abs(u).max())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(log_gamma=st.floats(-6.0, 8.0), level=st.integers(2, 4),
       log_rel_tol=st.floats(-10.0, -4.0), seed=st.integers(0, 2 ** 32 - 1))
@example(log_gamma=-6.0, level=4, log_rel_tol=-10.0, seed=0)
@example(log_gamma=8.0, level=4, log_rel_tol=-10.0, seed=0)
def test_saddle_backends_match_dense_block_solve(meshes, log_gamma, level,
                                                 log_rel_tol, seed):
    M = fem.assemble_mass(meshes(level))
    K = fem.assemble_stiffness(meshes(level))
    gamma = 10.0 ** log_gamma
    n = M.shape[0]
    A = np.block([[M.toarray() / gamma, K.toarray()],
                  [-K.toarray(), M.toarray()]])
    rng = np.random.default_rng(seed)
    rhs_top, rhs_bottom = rng.standard_normal(n), rng.standard_normal(n)
    rhs = np.concatenate([rhs_top, rhs_bottom])
    x_dense = np.linalg.solve(A, rhs)
    cond = np.linalg.cond(A)
    norm_b = np.linalg.norm(rhs)
    solver = SaddleSolver(SineGrid(M, K), gamma)
    # the direct solve is held to the accuracy the Factorization docstring
    # promises
    for backend, tol in (("direct", 1e-12 * norm_b),
                         ("pmhss_gmres", 10.0 ** log_rel_tol * norm_b)):
        y, u, stats = solver.solve(rhs_top, rhs_bottom, backend=backend,
                                   tol=tol)
        x = np.concatenate([y, u])
        r = rhs - A @ x
        assert stats.converged
        assert np.linalg.norm(r[:n]) + np.linalg.norm(r[n:]) <= tol
        # forward error <= cond * relative residual, plus the dense solve's own
        assert np.linalg.norm(x - x_dense) \
            <= 2.0 * cond * tol / norm_b * np.linalg.norm(x_dense)


def test_pmhss_gmres_iteration_count_level6(meshes):
    # PMHSS with G~ = M~ + s K keeps the Krylov iteration count small on
    # fine grids: lambda(M~^-1 M) stays in [0.6, 1.4] as h shrinks
    m = meshes(6)
    M = fem.assemble_mass(m)
    K = fem.assemble_stiffness(m)
    solver = SaddleSolver(SineGrid(M, K), 0.3)
    rng = np.random.default_rng(15)
    rhs_top = rng.standard_normal(m.n_interior)
    rhs_bottom = rng.standard_normal(m.n_interior)
    norm_b = np.linalg.norm(np.concatenate([rhs_top, rhs_bottom]))
    y, u, stats = solver.solve(rhs_top, rhs_bottom, backend="pmhss_gmres",
                               tol=1e-10 * norm_b)
    assert stats.converged
    assert stats.iterations <= 40


def test_estimate_mkinv_norm(meshes):
    # the closed-form bound against the dense ||M inv(K)||_2: never below
    # it, within 6% at level 3, and tighter on every finer level
    ratios = []
    for level in (2, 3, 4, 5):
        m = meshes(level)
        M = fem.assemble_mass(m).toarray()
        K = fem.assemble_stiffness(m).toarray()
        bound = estimate_mkinv_norm(fem.assemble_lumped_mass(m), _grid(m))
        exact = np.linalg.norm(M @ np.linalg.inv(K), 2)
        assert bound >= exact
        ratios.append(bound / exact)
    assert ratios[1] <= 1.06
    assert all(r1 < r0 for r0, r1 in zip(ratios, ratios[1:]))
    # lambda_min(K), read from the grid's kappa, gives the values of the
    # former max(W) / (8 sin^2(pi h/2)) exactly
    for level in range(2, 8):
        m = meshes(level)
        W = fem.assemble_lumped_mass(m)
        before = np.max(W) / (8.0 * np.sin(0.5 * np.pi * m.h) ** 2)
        assert estimate_mkinv_norm(W, _grid(m)) == before


@pytest.mark.parametrize("level", range(1, 7))
def test_sine_solver_matches_dense_solve(meshes, level):
    # level 1 is the one-dof grid (N = 1)
    K = fem.assemble_stiffness(meshes(level))
    rng = np.random.default_rng(level)
    b = rng.standard_normal(K.shape[0])
    want = np.linalg.solve(K.toarray(), b)
    got = _grid(meshes(level)).solve(b)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_sine_solver_rejects_other_matrices(ex1):
    # the problem's factorK is its sine basis only where K is the stencil;
    # with any other K the basis names why, and factorK is an LU of K
    # that matches the dense solve (a K that is not symmetric has none)
    prob = ex1(3)[1]
    assert prob.factorK is prob.sine
    skewed = prob.K.copy()
    skewed.data[17] += 1e-9
    with pytest.raises(ValueError, match="square symmetric"):
        dataclasses.replace(prob, K=skewed).factorK
    perturbed = (prob.K + sp.diags(np.eye(prob.n)[17] * 1e-9)).tocsr()
    b = np.random.default_rng(3).standard_normal(prob.n)
    for A in (2 * prob.K, perturbed):
        other = dataclasses.replace(prob, K=A)
        assert "not the 5-point stencil" in other.sine.stencil_error
        assert isinstance(other.factorK, linalg.Factorization)
        want = np.linalg.solve(A.toarray(), b)
        assert np.linalg.norm(other.factorK.solve(b) - want) \
            <= 1e-13 * np.linalg.norm(want)
    K = prob.K[:48, :48]            # 48 is no perfect square
    assert "order N" in SineGrid(K, K).stencil_error


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(N=st.integers(1, 40), stack=st.sampled_from([(), (1,), (2,), (3, 2)]),
       complex_=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(N=40, stack=(2,), complex_=True, seed=0)
def test_sine_transform_is_the_dst_double_sum(N, stack, complex_, seed):
    # F(B) = S~ B S~ against 2/(N+1) times the double sum over
    # sin(pi j k/(N+1)) with the unreduced argument, on a single grid or a
    # stack; S~ = sqrt(2/(N+1)) S is orthonormal and symmetric, so F
    # applied twice is the identity
    rng = np.random.default_rng(seed)
    B = rng.standard_normal(stack + (N, N))
    if complex_:
        B = B + 1j * rng.standard_normal(B.shape)
    T = np.array([[math.sin(math.pi * j * k / (N + 1))
                   for k in range(1, N + 1)] for j in range(1, N + 1)])
    want = 2.0 / (N + 1) * np.einsum("ja,...ab,bk->...jk", T, B, T)
    assert np.array_equal(_sine_matrix(N), _sine_matrix(N).T)
    grid = SineGrid(None, sp.identity(N * N))
    got = grid.transform(B)
    assert got.shape == B.shape and got.dtype == B.dtype
    assert np.linalg.norm(got - want) <= 2e-15 * N * np.linalg.norm(want)
    twice = grid.transform(got)
    assert np.linalg.norm(twice - B) <= 2e-15 * N * np.linalg.norm(B)


@pytest.mark.parametrize("level", [6, 7, 8])
def test_sine_solves_reach_round_off_at_fine_levels(meshes, level):
    # residuals of the K-solve and of the G~-solve at the constructed and
    # Stadler s = sqrt(gamma), gamma = alpha/2 + sigma, on the grids that
    # no dense solve reaches
    m = meshes(level)
    K = fem.assemble_stiffness(m)
    rng = np.random.default_rng(level)
    b = rng.standard_normal(K.shape[0])
    grid = _grid(m)
    x = grid.solve(b)
    assert np.linalg.norm(K @ x - b) <= 1e-12 * np.linalg.norm(b)
    Mt = _mass_without_skew(m)
    for alpha in (EXAMPLE1_PARAMS.alpha, EXAMPLE2_PARAMS.alpha):
        gamma = 0.5 * alpha + reproduction_sigma(alpha)
        B = rng.standard_normal((2, K.shape[0]))
        X = _G_tilde_solve(grid, math.sqrt(gamma), B)
        R = (Mt + math.sqrt(gamma) * K) @ X.T - B.T
        assert np.linalg.norm(R) <= 1e-12 * np.linalg.norm(B)
