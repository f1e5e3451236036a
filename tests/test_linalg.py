import dataclasses
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.linalg import splu

from sparseoc import mesh as fem, solvers
from sparseoc.linalg import (factorize, FactorizationError, pmhss_apply,
                             gmres, SaddleSolver, estimate_mkinv_norm,
                             _DIRECT_RTOL)
from sparseoc.solvers import SolverConfig, solve_two_phase
from sparseoc.experiments import reproduction_sigma


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
    mats = {"M": M, "K": K, "G": M + s * K, "A": (M - 1j * s * K).tocsr()}
    for i, T_ff in enumerate(_pdas_preconditioners(prob, monkeypatch)):
        mats[f"alpha T_ff {i}"] = T_ff
    for name, A in mats.items():
        fill = _fill(factorize(A)._lu)
        assert fill == _mmd_fill(A), name
        assert fill < _colamd_fill(A), name


def test_other_matrices_keep_colamd(ex1):
    _, prob, _ = ex1(4)
    M, K, n = prob.M, prob.K, prob.n
    # the classical ADMM's 3n system: symmetric, but its (3,3) block is zero
    sigma = 0.1 * prob.alpha
    A3 = sp.bmat([[M, None, K],
                  [None, 0.5 * prob.alpha * M + sigma * sp.identity(n), -M],
                  [K, -M, None]], format="csc")
    nonsymmetric = (K + sp.triu(M, 1)).tocsc()
    for A in (A3, nonsymmetric):
        assert _fill(factorize(A)._lu) == _colamd_fill(A)
    assert _mmd_fill(A3) > _colamd_fill(A3)


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
    assert np.linalg.norm(b - A @ x) <= _DIRECT_RTOL * np.linalg.norm(b)


def test_pmhss_zero():
    out = pmhss_apply(1.0, lambda r: r / 2.0, np.zeros(8))
    assert np.array_equal(out, np.zeros(8))


def test_pmhss_round_trip(meshes):
    m = meshes(2)
    M = fem.assemble_mass(m)
    K = fem.assemble_stiffness(m)
    gamma = 0.3
    sg = np.sqrt(gamma)
    G = (M + sg * K).tocsc()
    G_solve = factorize(G).solve
    n = M.shape[0]
    P = (1.0 / gamma) * np.block(
        [[np.eye(n), sg * np.eye(n)], [-sg * np.eye(n), gamma * np.eye(n)]]) \
        @ np.block([[G.toarray(), np.zeros((n, n))],
                    [np.zeros((n, n)), G.toarray()]])
    rng = np.random.default_rng(11)
    r = rng.standard_normal(2 * n)
    assert np.abs(P @ pmhss_apply(gamma, G_solve, r) - r).max() < 1e-10


def test_pmhss_rejects_bad_gamma(meshes):
    M = fem.assemble_mass(meshes(2))
    with pytest.raises(ValueError):
        pmhss_apply(-1.0, lambda r: r, np.zeros(2 * M.shape[0]))


def test_gmres_identity():
    rhs = np.arange(1.0, 6.0)
    x, stats = gmres(lambda v: v, None, rhs, 1e-12)
    assert stats.iterations == 1
    assert stats.converged
    assert np.allclose(x, rhs)


def test_gmres_dense_oracle():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((10, 10)) + 10 * np.eye(10)
    rhs = rng.standard_normal(10)
    x, stats = gmres(lambda v: A @ v, None, rhs, 1e-12)
    assert stats.converged
    assert np.abs(x - np.linalg.solve(A, rhs)).max() < 1e-9


def test_gmres_zero_rhs():
    x, stats = gmres(lambda v: 2 * v, None, np.zeros(4), 1e-10)
    assert stats.iterations == 0 and stats.converged
    assert np.array_equal(x, np.zeros(4))


def test_gmres_residual_monotone(meshes):
    # preconditioned residual norms are non-increasing across iterations
    K = fem.assemble_stiffness(meshes(3))
    rng = np.random.default_rng(8)
    rhs = rng.standard_normal(K.shape[0])
    x, stats = gmres(lambda v: K @ v, None, rhs, 1e-10,
                     max_iter=200, restart=200)
    assert stats.converged
    hist = stats.residual_history
    assert len(hist) == stats.iterations
    assert all(r1 >= r2 * (1 - 1e-12) for r1, r2 in zip(hist, hist[1:]))


def test_gmres_nonconvergence_flag():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((40, 40)) + 0.5 * np.eye(40)   # indefinite-ish
    rhs = rng.standard_normal(40)
    x, stats = gmres(lambda v: A @ v, None, rhs, 1e-14, max_iter=3, restart=3)
    assert not stats.converged
    assert stats.iterations == 3


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
    for backend, tol in (("direct", _DIRECT_RTOL * norm_b),
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
    # exact-G PMHSS keeps the Krylov iteration count small on fine grids
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
    m = meshes(3)
    M = fem.assemble_mass(m)
    K = fem.assemble_stiffness(m)
    est = estimate_mkinv_norm(M, factorize(K))
    exact = np.linalg.norm(M.toarray() @ np.linalg.inv(K.toarray()), 2)
    assert abs(est - exact) / exact < 1e-6

