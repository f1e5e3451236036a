import dataclasses
import math
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigh
from scipy.sparse.linalg import splu

from sparseoc import mesh as fem, solvers
from sparseoc.linalg import (factorize, FactorizationError, pmhss_apply,
                             gmres, SaddleSolver, SineSolver,
                             estimate_mkinv_norm, _SolutionWindow, _WINDOW,
                             _sine_matrix, _sine_transform)
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


def test_pmhss_zero():
    out = pmhss_apply(1.0, lambda r: r / 2.0, np.zeros(8))
    assert np.array_equal(out, np.zeros(8))


def _mass_without_skew(m):
    """M~ = h^2/12 [6 I + T x I + I x T + 1/2 T x T], T = E + E^T with E
    the N x N shift, built by sp.kron from the stencil in the SineSolver
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


@pytest.mark.parametrize("level", range(1, 6))
def test_G_tilde_solve_matches_dense_solve(meshes, level):
    # the sine-transform solve with G~ = M~ + s K against a dense solve,
    # over the range of s = sqrt(gamma) the examples reach (Stadler's is
    # ~2.7e-3); a stack of two grids gives the two one-grid solves
    m = meshes(level)
    K = fem.assemble_stiffness(m)
    Mt = _mass_without_skew(m).toarray()
    rng = np.random.default_rng(level)
    for s in (1e-4, 2.7e-3, 0.05, 1.0):
        B = rng.standard_normal((2, K.shape[0]))
        solve = SineSolver(K, mass=1.0, stiffness=s).solve
        got = solve(B)
        want = np.linalg.solve(Mt + s * K.toarray(), B.T).T
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.array_equal(got, np.stack([solve(B[0]), solve(B[1])]))


@pytest.mark.parametrize("level", [3, 4, 5])
def test_mass_without_skew_is_spectrally_close(meshes, level):
    # lambda(M~^-1 M) in [0.69, 1.31], [0.65, 1.35], [0.64, 1.36] at
    # levels 3/4/5: G~ stays a good PMHSS factor on every grid
    m = meshes(level)
    lam = eigh(fem.assemble_mass(m).toarray(),
               _mass_without_skew(m).toarray(), eigvals_only=True)
    assert 0.6 <= lam.min() and lam.max() <= 1.4


def test_pmhss_round_trip(meshes):
    m = meshes(2)
    K = fem.assemble_stiffness(m)
    gamma = 0.3
    sg = np.sqrt(gamma)
    G = (_mass_without_skew(m) + sg * K).toarray()
    G_solve = SaddleSolver(fem.assemble_mass(m), K, gamma).G_solve
    n = K.shape[0]
    P = (1.0 / gamma) * np.block(
        [[np.eye(n), sg * np.eye(n)], [-sg * np.eye(n), gamma * np.eye(n)]]) \
        @ np.block([[G, np.zeros((n, n))], [np.zeros((n, n)), G]])
    rng = np.random.default_rng(11)
    r = rng.standard_normal(2 * n)
    assert np.abs(P @ pmhss_apply(gamma, G_solve, r) - r).max() < 1e-10


def test_pmhss_rejects_bad_gamma(meshes):
    M = fem.assemble_mass(meshes(2))
    with pytest.raises(ValueError):
        pmhss_apply(-1.0, lambda r: r, np.zeros(2 * M.shape[0]))


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
    solver = SaddleSolver(M, K, gamma)
    tol = 1e-8 * np.linalg.norm(rhs)
    for b, zero_iterations in ((rhs, False), (rhs, True), (other, False)):
        y, u, stats = solver.solve(b[:n], b[n:], backend="pmhss_gmres",
                                   tol=tol)
        r = b - A @ np.concatenate([y, u])
        assert stats.converged and (stats.iterations == 0) == zero_iterations
        assert np.linalg.norm(r[:n]) + np.linalg.norm(r[n:]) <= tol


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       backend=st.sampled_from(["direct", "pmhss_gmres"]))
def test_saddle_residual_gives_state_and_adjoint_functionals(seed, backend):
    # an ihADMM u-step: the residual the solver keeps is the block residual
    # of (y, u), and so the state and adjoint functionals of the iterate;
    # a loose Krylov target leaves it far above round-off
    rng = np.random.default_rng(seed)
    prob = random_tiny_problem(rng)
    M, K, n = prob.M, prob.K, prob.n
    sigma = float(rng.uniform(1e-3, 1.0))
    gamma = 0.5 * prob.alpha + sigma
    z, lam = rng.standard_normal((2, n))
    rhs_top = (K @ (sigma * z - lam) + M @ prob.yd) / gamma
    rhs_bottom = -(M @ prob.yc)
    norm_b = np.hypot(np.linalg.norm(rhs_top), np.linalg.norm(rhs_bottom))
    solver = SaddleSolver(M, K, gamma)
    # K is no mesh stencil, so the solver gets a dense solve with the
    # SPD M + sqrt(gamma) K as its PMHSS G-solve
    G = (M + np.sqrt(gamma) * K).toarray()
    solver.G_solve = lambda B: np.linalg.solve(G, B.T).T
    y, u, _ = solver.solve(rhs_top, rhs_bottom, backend=backend,
                           tol=1e-3 * norm_b)
    r1, r2 = solver.residual
    p = gamma * u - sigma * z + lam
    aM, aK = abs(M), abs(K)
    # round-off scale: every term of the residuals in absolute value
    terms = (aK @ (sigma * abs(z) + abs(lam)), aM @ abs(prob.yd),
             aM @ abs(y), gamma * (aK @ abs(u)), aK @ abs(y), aM @ abs(u),
             aM @ abs(prob.yc))
    scale = sum(np.linalg.norm(t) for t in terms)
    for got, want in (
            (gamma * r1, gamma * (rhs_top - M @ y / gamma - K @ u)),
            (r2, rhs_bottom + K @ y - M @ u),
            (r2, K @ y - M @ (u + prob.yc)),
            (-gamma * r1, M @ (y - prob.yd) + K @ p)):
        assert np.linalg.norm(got - want) <= 1e-13 * scale


def test_gmres_nonconvergence_flag():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((40, 40)) + 0.5 * np.eye(40)   # indefinite-ish
    rhs = rng.standard_normal(40)
    x, stats, _ = gmres(lambda v: A @ v, lambda v: v, rhs, 1e-14, max_iter=3,
                        restart=3)
    assert not stats.converged
    assert stats.iterations == 3


def test_gmres_returns_the_true_residual():
    # zero and nonzero starts, one cycle and several, converged or capped
    rng = np.random.default_rng(17)
    A = rng.standard_normal((30, 30)) + 6 * np.eye(30)
    rhs = rng.standard_normal(30)
    for x0, max_iter, restart in ((None, 500, 50), (rng.standard_normal(30),
                                                    500, 4), (None, 7, 3)):
        x, stats, r = gmres(lambda v: A @ v, lambda v: v, rhs, 1e-12,
                            max_iter=max_iter, restart=restart, x0=x0)
        assert np.linalg.norm(r - (rhs - A @ x)) <= 1e-14 * np.linalg.norm(rhs)
        assert stats.final_relative_residual \
            == np.linalg.norm(r) / np.linalg.norm(rhs)


def test_gmres_cycle_applies_pmhss_once_per_iteration(meshes):
    # x = x0 + Z y from the kept directions z_j = P^-1 v_j: no application
    # at the end of a cycle, however many cycles run
    M = fem.assemble_mass(meshes(4))
    K = fem.assemble_stiffness(meshes(4))
    solver = SaddleSolver(M, K, 0.3)
    G_solve = solver.G_solve
    calls = []

    def P(v):
        calls.append(1)
        return pmhss_apply(0.3, G_solve, v)

    rhs = np.random.default_rng(18).standard_normal(2 * M.shape[0])
    for restart, cycles in ((50, 1), (3, 4)):
        calls.clear()
        x, stats, r = gmres(solver._apply, P, rhs, 1e-10, restart=restart)
        assert stats.converged and stats.iterations > (cycles - 1) * restart
        assert len(calls) == stats.iterations \
            == stats.preconditioner_applications


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
    x0 = window.start(b)
    if not xs:
        assert x0 is None
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
    solver = SaddleSolver(M, K, gamma)
    x_prev, shrank = None, 0
    for k in range(12):
        rhs = base + drift / (k + 1) + 1e-3 * rng.standard_normal(2 * n)
        x0 = solver._window.start(rhs)
        if x_prev is not None:
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
    solver = SaddleSolver(M, K, gamma)
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
        solver = SaddleSolver(M, K, 0.3)
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
    y, u, stats = SaddleSolver(M, K, gamma).solve(
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
    solver = SaddleSolver(M, K, 1e-10)
    y, u, stats = solver.solve(rhs_top, rhs_bottom, tol=1e-300)
    assert stats.converged
    assert stats.iterations == stats.preconditioner_applications == 0
    achieved = sum(np.linalg.norm(v) for v in solver.residual)
    norm_b = np.linalg.norm(np.concatenate([rhs_top, rhs_bottom]))
    assert stats.final_relative_residual == pytest.approx(achieved / norm_b,
                                                          rel=1e-12)
    assert 1e-300 < stats.final_relative_residual < 1e-10


def test_saddle_large_gamma_limit(meshes):
    # with rhs_top = 0 and rhs_bottom = -M yc: u = -(1/gamma) K^{-1} M y
    m = meshes(2)
    M = fem.assemble_mass(m)
    K = fem.assemble_stiffness(m)
    gamma = 1e8
    rng = np.random.default_rng(14)
    yc = rng.standard_normal(m.n_interior)
    y, u, _ = SaddleSolver(M, K, gamma).solve(
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
    solver = SaddleSolver(M, K, gamma)
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
    solver = SaddleSolver(M, K, 0.3)
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
        bound = estimate_mkinv_norm(fem.assemble_lumped_mass(m), m.h)
        exact = np.linalg.norm(M @ np.linalg.inv(K), 2)
        assert bound >= exact
        ratios.append(bound / exact)
    assert ratios[1] <= 1.06
    assert all(r1 < r0 for r0, r1 in zip(ratios, ratios[1:]))
    # the eigenvalue formula it shares with SineSolver gives the values of
    # the former max(W) / (8 sin^2(pi h/2))
    for level in range(2, 8):
        m = meshes(level)
        W = fem.assemble_lumped_mass(m)
        before = np.max(W) / (8.0 * np.sin(0.5 * np.pi * m.h) ** 2)
        assert abs(estimate_mkinv_norm(W, m.h) - before) <= 1e-15 * before


@pytest.mark.parametrize("level", range(1, 7))
def test_sine_solver_matches_dense_solve(meshes, level):
    # level 1 is the one-dof grid (N = 1)
    K = fem.assemble_stiffness(meshes(level))
    rng = np.random.default_rng(level)
    b = rng.standard_normal(K.shape[0])
    want = np.linalg.solve(K.toarray(), b)
    got = SineSolver(K).solve(b)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_sine_solver_rejects_other_matrices(meshes):
    K = fem.assemble_stiffness(meshes(3))
    perturbed = K.copy()
    perturbed.data[17] += 1e-9
    for A in (2 * K, perturbed):
        with pytest.raises(ValueError, match="not the 5-point stencil"):
            SineSolver(A)
    with pytest.raises(ValueError, match="order N"):
        SineSolver(K[:48, :48])     # 48 is no perfect square


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(N=st.integers(1, 40), stack=st.sampled_from([(), (1,), (2,), (3, 2)]),
       complex_=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(N=40, stack=(2,), complex_=True, seed=0)
def test_sine_transform_is_the_dst_double_sum(N, stack, complex_, seed):
    # S B S against the double sum over sin(pi j k/(N+1)) with the
    # unreduced argument, on a single grid or a stack; S^2 = (N+1)/2 I
    # makes the transform applied twice ((N+1)/2)^2 times the identity
    rng = np.random.default_rng(seed)
    B = rng.standard_normal(stack + (N, N))
    if complex_:
        B = B + 1j * rng.standard_normal(B.shape)
    T = np.array([[math.sin(math.pi * j * k / (N + 1))
                   for k in range(1, N + 1)] for j in range(1, N + 1)])
    want = np.einsum("ja,...ab,bk->...jk", T, B, T)
    S = _sine_matrix(N)
    got = _sine_transform(S, B)
    assert got.shape == B.shape and got.dtype == B.dtype
    assert np.linalg.norm(got - want) <= 2e-15 * N * np.linalg.norm(want)
    twice = _sine_transform(S, got)
    assert np.linalg.norm(twice - (0.5 * (N + 1)) ** 2 * B) \
        <= 2e-15 * N * np.linalg.norm(twice)


@pytest.mark.parametrize("level", [6, 7, 8])
def test_sine_solves_reach_round_off_at_fine_levels(meshes, level):
    # residuals of the K-solve and of the G~-solve at the constructed and
    # Stadler s = sqrt(gamma), gamma = alpha/2 + sigma, on the grids that
    # no dense solve reaches
    m = meshes(level)
    K = fem.assemble_stiffness(m)
    rng = np.random.default_rng(level)
    b = rng.standard_normal(K.shape[0])
    x = SineSolver(K).solve(b)
    assert np.linalg.norm(K @ x - b) <= 1e-12 * np.linalg.norm(b)
    Mt = _mass_without_skew(m)
    for alpha in (EXAMPLE1_PARAMS.alpha, EXAMPLE2_PARAMS.alpha):
        s = math.sqrt(0.5 * alpha + reproduction_sigma(alpha))
        B = rng.standard_normal((2, K.shape[0]))
        X = SineSolver(K, mass=1.0, stiffness=s).solve(B)
        R = (Mt + s * K) @ X.T - B.T
        assert np.linalg.norm(R) <= 1e-12 * np.linalg.norm(B)
