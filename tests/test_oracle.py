import dataclasses
import numpy as np
import pytest

from sparseoc.oracle import brute_force_solve, certify_kkt

from conftest import random_tiny_problem


def _objective_value(problem, u):
    """Dense evaluation of f(u) + g(u); +inf outside the box."""
    if np.any(u < problem.a - 1e-12) or np.any(u > problem.b + 1e-12):
        return np.inf
    K = problem.K.toarray()
    M = problem.M.toarray()
    y = np.linalg.solve(K, M @ (u + problem.yc))
    d = y - problem.yd
    return (0.5 * d @ (M @ d) + 0.25 * problem.alpha * u @ (M @ u)
            + 0.25 * problem.alpha * np.sum(problem.W * u * u)
            + problem.beta * np.sum(problem.W * np.abs(u)))


def test_huge_beta_gives_zero():
    rng = np.random.default_rng(0)
    prob = random_tiny_problem(rng, n=1, beta=1e6)
    u, cert = brute_force_solve(prob)
    assert u[0] == 0.0
    assert cert.eta <= 1e-9


def test_tiny_beta_ridge():
    # no threshold, no bound active: u solves the scalar stationarity equation
    rng = np.random.default_rng(1)
    prob = random_tiny_problem(rng, n=1, beta=1e-14)
    prob = dataclasses.replace(prob, a=-1e6, b=1e6)
    u, cert = brute_force_solve(prob)
    K = prob.K.toarray()[0, 0]
    M = prob.M.toarray()[0, 0]
    # (alpha/2 (M + W) + M^2/K^2 M) u = M/K M (yd - M yc / K)
    H = 0.5 * prob.alpha * (M + prob.W[0]) + M ** 3 / K ** 2
    rhs = (M ** 2 / K) * (prob.yd[0] - M * prob.yc[0] / K)
    assert abs(u[0] - rhs / H) < 1e-10 * max(1.0, abs(u[0]))


def test_zero_data_zero_control():
    rng = np.random.default_rng(2)
    prob = random_tiny_problem(rng, n=3)
    prob = dataclasses.replace(prob, yd=np.zeros(3), yc=np.zeros(3))
    u, cert = brute_force_solve(prob)
    assert np.array_equal(u, np.zeros(3))
    assert cert.eta <= 1e-12


def test_oracle_certificate_and_uniqueness():
    rng = np.random.default_rng(3)
    for _ in range(20):
        prob = random_tiny_problem(rng)
        u, cert = brute_force_solve(prob)
        assert cert.eta <= 1e-9
        assert np.all(u >= prob.a - 1e-12) and np.all(u <= prob.b + 1e-12)


def test_oracle_beats_random_feasible_points():
    rng = np.random.default_rng(4)
    for _ in range(10):
        prob = random_tiny_problem(rng, n=3)
        u, _ = brute_force_solve(prob)
        f_star = _objective_value(prob, u)
        for _ in range(50):
            trial = rng.uniform(prob.a, prob.b, 3)
            assert f_star <= _objective_value(prob, trial) + 1e-12


def test_certify_rejects_perturbed_point():
    rng = np.random.default_rng(5)
    prob = random_tiny_problem(rng, n=2)
    u, _ = brute_force_solve(prob)
    with pytest.raises(RuntimeError):
        certify_kkt(u + 0.05, prob)


def test_oracle_refuses_large_instances(ex1):
    _, prob, _ = ex1(2)      # 9 unknowns > 6
    with pytest.raises(ValueError):
        brute_force_solve(prob)


def test_oracle_on_level1_mesh(ex1):
    # the one-unknown mesh problem certifies against the solver stack later
    _, prob, _ = ex1(1)
    u, cert = brute_force_solve(prob)
    assert cert.eta <= 1e-10
    assert prob.a <= u[0] <= prob.b
