import numpy as np
import pytest

from sparseoc import mesh as fem
from sparseoc.linalg import factorize
from sparseoc.prox import (soft, project_box, grad_f, objective_f, objective_g,
                           z_update_ihadmm, z_update_classical,
                           prox_g_euclidean, kkt_residual_admm,
                           kkt_residual_pdas, dist_subdifferential_g,
                           multiplier_fixed_point)
from sparseoc.solvers import IterateState, _Rh_from

from conftest import random_tiny_problem


def test_soft_scalars():
    assert np.isclose(soft(1.2, 0.5), 0.7)
    assert soft(-0.3, 0.5) == 0.0
    v = np.array([-2.0, -0.1, 0.0, 0.4, 3.0])
    assert np.array_equal(soft(v, 0.0), v)


def test_soft_vector_threshold():
    v = np.array([1.0, -1.0, 0.2])
    t = np.array([0.5, 2.0, 0.1])
    assert np.allclose(soft(v, t), [0.5, 0.0, 0.1])
    with pytest.raises(ValueError):
        soft(v, -0.1)


def test_soft_is_contraction():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v, w = rng.standard_normal(8), rng.standard_normal(8)
        assert np.linalg.norm(soft(v, 0.3) - soft(w, 0.3)) \
            <= np.linalg.norm(v - w) * (1 + 1e-12)
        assert np.linalg.norm(soft(v, 0.3)) <= np.linalg.norm(v)


def test_project_box():
    assert project_box(np.array([0.7]), -0.5, 0.5)[0] == 0.5
    assert project_box(np.array([0.0]), -0.5, 0.5)[0] == 0.0
    rng = np.random.default_rng(1)
    v = rng.standard_normal(50)
    p = project_box(v, -0.3, 0.8)
    assert np.array_equal(project_box(p, -0.3, 0.8), p)     # idempotent
    w = rng.standard_normal(50)
    assert np.linalg.norm(project_box(v, -0.3, 0.8) - project_box(w, -0.3, 0.8)) \
        <= np.linalg.norm(v - w) * (1 + 1e-12)
    with pytest.raises(ValueError):
        project_box(v, 1.0, -1.0)


def test_grad_f_zero_at_constructed_point(ex1):
    # with yc = M^{-1} K yd and u = 0 the tracking residual vanishes
    _, prob, _ = ex1(3)
    factorK = factorize(prob.K)
    from scipy.sparse.linalg import spsolve
    yc = spsolve(prob.M.tocsc(), prob.K @ prob.yd)
    import dataclasses
    prob0 = dataclasses.replace(prob, yc=yc)
    g = grad_f(prob0, factorK, np.zeros(prob.n))
    assert np.abs(g).max() < 1e-10


def test_grad_f_finite_differences(ex1):
    for level in (2, 3, 4):
        _, prob, _ = ex1(level)
        factorK = factorize(prob.K)
        rng = np.random.default_rng(level)
        for _ in range(7):
            u = rng.standard_normal(prob.n)
            g = grad_f(prob, factorK, u)
            d = rng.standard_normal(prob.n)
            d /= np.linalg.norm(d)
            eps = 1e-5
            fd = (objective_f(prob, factorK, u + eps * d)
                  - objective_f(prob, factorK, u - eps * d)) / (2 * eps)
            assert abs(fd - g @ d) <= 1e-6 * max(1.0, abs(fd))


def test_grad_f_quadratic_secant(ex1):
    # f is quadratic: gradient differences equal the Hessian action exactly
    _, prob, _ = ex1(3)
    factorK = factorize(prob.K)
    rng = np.random.default_rng(5)
    u, e = rng.standard_normal(prob.n), rng.standard_normal(prob.n)
    g1 = grad_f(prob, factorK, u + e) - grad_f(prob, factorK, u)
    g2 = grad_f(prob, factorK, e) - grad_f(prob, factorK, np.zeros(prob.n))
    assert np.abs(g1 - g2).max() < 1e-9 * max(1.0, np.abs(g1).max())


def _scalar_grid_minimizer(objective, a, b, resolution=1e-4):
    grid = np.arange(a, b + resolution, resolution)
    return grid[np.argmin(objective(grid))]


def test_z_update_ihadmm_thresholds_small_inputs():
    rng = np.random.default_rng(3)
    prob = random_tiny_problem(rng, n=4, alpha=0.5, beta=0.5)
    sigma = 0.05
    u = np.ones(4)
    lam = np.zeros(4)
    z = z_update_ihadmm(u, lam, prob, sigma)
    assert np.array_equal(z, np.zeros(4))       # soft(0.05, 0.5) = 0


def test_z_update_ihadmm_grid_search():
    rng = np.random.default_rng(4)
    for _ in range(25):
        prob = random_tiny_problem(rng, n=3)
        sigma = float(rng.uniform(0.01, 1.0))
        u = rng.uniform(-2, 2, 3)
        lam = rng.standard_normal(3)
        z = z_update_ihadmm(u, lam, prob, sigma)
        mlam = prob.M @ lam
        for i in range(3):
            w = prob.W[i]

            def obj(t):
                return (0.25 * prob.alpha * w * t ** 2
                        + prob.beta * w * np.abs(t)
                        - mlam[i] * t + 0.5 * sigma * w * (t - u[i]) ** 2)

            t_star = _scalar_grid_minimizer(obj, prob.a, prob.b)
            assert abs(z[i] - t_star) <= 1.5e-4


def test_z_update_ihadmm_no_l1_limit():
    rng = np.random.default_rng(6)
    prob = random_tiny_problem(rng, n=4, alpha=0.8, beta=1e-12)
    import dataclasses
    prob = dataclasses.replace(prob, a=-1e12, b=1e12)
    sigma = 0.3
    u = rng.uniform(-2, 2, 4)
    lam = rng.standard_normal(4)
    z = z_update_ihadmm(u, lam, prob, sigma)
    v = sigma * u + (prob.M @ lam) / prob.W
    assert np.allclose(z, v / (sigma + 0.5 * prob.alpha), atol=1e-9)
    with pytest.raises(ValueError):
        z_update_ihadmm(u, lam, prob, -1.0)


def test_z_update_classical_grid_search():
    rng = np.random.default_rng(7)
    for _ in range(25):
        prob = random_tiny_problem(rng, n=3)
        sigma = float(rng.uniform(0.01, 1.0))
        u = rng.uniform(-2, 2, 3)
        lam = rng.standard_normal(3)
        z = z_update_classical(u, lam, prob, sigma)
        for i in range(3):
            w = prob.W[i]

            def obj(t):
                return (0.25 * prob.alpha * w * t ** 2
                        + prob.beta * w * np.abs(t)
                        - lam[i] * t + 0.5 * sigma * (t - u[i]) ** 2)

            t_star = _scalar_grid_minimizer(obj, prob.a, prob.b)
            assert abs(z[i] - t_star) <= 1.5e-4


def test_z_update_classical_zero_input():
    rng = np.random.default_rng(8)
    prob = random_tiny_problem(rng, n=3)
    z = z_update_classical(np.zeros(3), np.zeros(3), prob, 0.5)
    assert np.array_equal(z, np.zeros(3))


def test_z_update_classical_no_l1_collapse():
    rng = np.random.default_rng(9)
    prob = random_tiny_problem(rng, n=3, beta=1e-13)
    import dataclasses
    prob = dataclasses.replace(prob, a=-1e12, b=1e12)
    sigma = 0.4
    u = rng.uniform(-1, 1, 3)
    lam = rng.standard_normal(3)
    z = z_update_classical(u, lam, prob, sigma)
    expect = (sigma * u + lam) / (0.5 * prob.alpha * prob.W + sigma)
    assert np.allclose(z, expect, atol=1e-9)


def test_prox_g_euclidean_grid_search():
    rng = np.random.default_rng(10)
    for _ in range(25):
        prob = random_tiny_problem(rng, n=3)
        L = float(rng.uniform(0.1, 10.0))
        v = rng.uniform(-2, 2, 3)
        z = prox_g_euclidean(v, L, prob)
        for i in range(3):
            w = prob.W[i]

            def obj(t):
                return (0.25 * prob.alpha * w * t ** 2
                        + prob.beta * w * np.abs(t)
                        + 0.5 * L * (t - v[i]) ** 2)

            t_star = _scalar_grid_minimizer(obj, prob.a, prob.b)
            assert abs(z[i] - t_star) <= 1.5e-4


def test_prox_g_euclidean_edge_cases():
    rng = np.random.default_rng(11)
    prob = random_tiny_problem(rng, n=3)
    assert np.array_equal(prox_g_euclidean(np.zeros(3), 1.0, prob), np.zeros(3))
    # vanishing weights: prox degenerates to the box projection
    import dataclasses
    prob0 = dataclasses.replace(prob, W=np.full(3, 1e-300))
    v = np.array([-5.0, 0.1, 5.0])
    assert np.allclose(prox_g_euclidean(v, 1.0, prob0),
                       np.clip(v, prob.a, prob.b))
    with pytest.raises(ValueError):
        prox_g_euclidean(v, 0.0, prob)


def test_prox_scalar_sweep_10k():
    # every closed form equals the scalar grid search on 10^4 instances
    rng = np.random.default_rng(12)
    n_checked = 0
    while n_checked < 10000:
        prob = random_tiny_problem(rng, n=4)
        sigma = float(rng.uniform(0.02, 2.0))
        L = float(rng.uniform(0.1, 5.0))
        u = rng.uniform(-2, 2, 4)
        lam = rng.standard_normal(4)
        z1 = z_update_ihadmm(u, lam, prob, sigma)
        z2 = z_update_classical(u, lam, prob, sigma)
        z3 = prox_g_euclidean(u, L, prob)
        mlam = prob.M @ lam
        i = int(rng.integers(0, 4))
        w = prob.W[i]
        grid = np.arange(prob.a, prob.b + 1e-4, 1e-4)

        def g_part(t):
            return 0.25 * prob.alpha * w * t ** 2 + prob.beta * w * np.abs(t)

        o1 = g_part(grid) - mlam[i] * grid + 0.5 * sigma * w * (grid - u[i]) ** 2
        o2 = g_part(grid) - lam[i] * grid + 0.5 * sigma * (grid - u[i]) ** 2
        o3 = g_part(grid) + 0.5 * L * (grid - u[i]) ** 2
        assert abs(z1[i] - grid[np.argmin(o1)]) <= 1.5e-4
        assert abs(z2[i] - grid[np.argmin(o2)]) <= 1.5e-4
        assert abs(z3[i] - grid[np.argmin(o3)]) <= 1.5e-4
        n_checked += 3 * 4


def test_kkt_residual_zero_state(ex1):
    _, prob, _ = ex1(3)
    factorM = factorize(prob.M)
    n = prob.n
    state = IterateState(u=np.zeros(n), z=np.zeros(n), lam=np.zeros(n),
                         y=np.zeros(n), p=np.zeros(n))
    res = kkt_residual_admm(state, prob, factorM=factorM)
    r = prob.M @ prob.yc
    expect = np.sqrt(r @ factorM.solve(r)) \
        / (1.0 + np.sqrt(prob.yc @ (prob.M @ prob.yc)))
    assert np.isclose(res.eta1, expect)
    assert res.eta2 == 0.0


def test_kkt_residual_perturbation_growth(ex1):
    _, prob, _ = ex1(3)
    import sparseoc as so
    rep = so.solve_two_phase(prob, so.SolverConfig(tol=1e-3, sigma=0.125),
                             so.SolverConfig(tol=1e-12, sigma=0.125))
    s = rep.final_state
    base = kkt_residual_admm(s, prob)
    assert base.eta < 1e-11
    rng = np.random.default_rng(13)
    d = rng.standard_normal(prob.n)
    d /= np.linalg.norm(d)
    for eps in (1e-6, 1e-4):
        pert = IterateState(u=s.u + eps * d, z=s.z, lam=s.lam, y=s.y, p=s.p)
        res = kkt_residual_admm(pert, prob)
        assert res.eta2 < 10 * eps and res.eta2 > 1e-3 * eps
        assert res.eta4 < 10 * eps


def test_kkt_residual_pdas_zero_data():
    rng = np.random.default_rng(14)
    prob = random_tiny_problem(rng, n=3)
    import dataclasses
    prob = dataclasses.replace(prob, yd=np.zeros(3), yc=np.zeros(3))
    n = prob.n
    state = IterateState(u=np.zeros(n), z=np.zeros(n), lam=np.zeros(n),
                         y=np.zeros(n), p=np.zeros(n))
    res = kkt_residual_pdas(state, prob)
    assert res.eta == 0.0


def test_kkt_residual_pdas_vanishes_at_oracle_point():
    from sparseoc.oracle import brute_force_solve
    rng = np.random.default_rng(15)
    for _ in range(5):
        prob = random_tiny_problem(rng, n=3)
        u, cert = brute_force_solve(prob)
        res = kkt_residual_pdas(IterateState(u=u), prob, factorize(prob.K))
        assert res.eta <= 1e-10


def test_multiplier_fixed_point_consistency():
    # the 2/alpha scaling makes the fixed point exact: for z in the box and
    # any subgradient choice, reconstructing lam from dg(z) recovers z
    rng = np.random.default_rng(16)
    for _ in range(50):
        prob = random_tiny_problem(rng, n=4)
        z = rng.uniform(prob.a, prob.b, 4)
        z[rng.uniform(size=4) < 0.3] = 0.0
        s = np.sign(z) + (z == 0) * rng.uniform(-1, 1, 4)
        mlam = prob.W * (0.5 * prob.alpha * z + prob.beta * s)
        assert np.abs(multiplier_fixed_point(mlam, prob) - z).max() < 1e-12


def test_dist_subdifferential_cases():
    rng = np.random.default_rng(17)
    prob = random_tiny_problem(rng, n=5, alpha=1.0, beta=0.5)
    a, b, W = prob.a, prob.b, prob.W
    z = np.array([a, -0.5 * min(-a, b), 0.0, 0.5 * min(-a, b), b])
    base = 0.5 * prob.alpha * W * z
    # strictly interior nonzero coordinate: point evaluation
    q = np.zeros(5)
    d = dist_subdifferential_g(z, q, prob)
    assert np.isclose(d[3], abs(base[3] + prob.beta * W[3]))
    assert np.isclose(d[1], abs(base[1] - prob.beta * W[1]))
    # at zero: interval [-beta W, beta W]
    assert d[2] == 0.0
    q2 = np.zeros(5)
    q2[2] = prob.beta * W[2] + 0.7
    assert np.isclose(dist_subdifferential_g(z, q2, prob)[2], 0.7)
    # at the bounds the normal cone absorbs one side
    q3 = base + np.array([-prob.beta * W[0] - 5.0, 0, 0, 0,
                          prob.beta * W[4] + 5.0])
    d3 = dist_subdifferential_g(z, q3, prob)
    assert d3[0] == 0.0 and d3[4] == 0.0


def test_Rh_zero_at_kkt_and_positive_elsewhere():
    from sparseoc.oracle import brute_force_solve
    rng = np.random.default_rng(18)
    prob = random_tiny_problem(rng, n=3)
    u, _ = brute_force_solve(prob)
    K = prob.K.toarray()
    M = prob.M.toarray()
    y = np.linalg.solve(K, M @ (u + prob.yc))
    p = np.linalg.solve(K, M @ (prob.yd - y))
    Mlam = prob.M @ (p - 0.5 * prob.alpha * u)
    factorK = factorize(prob.K)
    assert _Rh_from(u, u.copy(), Mlam, prob, factorK) < 1e-18
    assert _Rh_from(u + 0.1, u.copy(), Mlam, prob, factorK) > 1e-6


def test_objective_g_outside_box():
    rng = np.random.default_rng(19)
    prob = random_tiny_problem(rng, n=2)
    assert objective_g(prob, np.array([prob.b + 1.0, 0.0])) == np.inf
    z = np.array([0.5 * prob.a, 0.5 * prob.b])
    expect = (0.25 * prob.alpha * np.sum(prob.W * z ** 2)
              + prob.beta * np.sum(prob.W * np.abs(z)))
    assert np.isclose(objective_g(prob, z), expect)
