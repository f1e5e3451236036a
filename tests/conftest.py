from types import SimpleNamespace

import numpy as np
import pytest

from sparseoc import mesh as fem
from sparseoc.experiments import build_example1, build_example2
from sparseoc.mesh import DiscreteProblem
from sparseoc.solvers import SolverConfig, solve_classical_admm


@pytest.fixture(scope="session")
def ex1():
    """Cached (mesh, problem, exact fields) per level for the constructed problem."""
    cache = {}

    def get(level):
        if level not in cache:
            cache[level] = build_example1(level)
        return cache[level]

    return get


@pytest.fixture(scope="session")
def ex2():
    cache = {}

    def get(level):
        if level not in cache:
            cache[level] = build_example2(level)
        return cache[level]

    return get


@pytest.fixture(scope="session")
def classical_admm(ex1):
    """Cached classical-ADMM report per level of the constructed problem.

    Solved with the default sigma and tau to tol 1e-6 within
    max_iter=8000; max_iter does not change the iterates, so a test that
    asks for a smaller cap checks rep.iterations against it.
    """
    cache = {}

    def get(level):
        if level not in cache:
            cache[level] = solve_classical_admm(
                ex1(level)[1], SolverConfig(tol=1e-6, max_iter=8000))
        return cache[level]

    return get


@pytest.fixture(scope="session")
def meshes():
    cache = {}

    def get(level):
        if level not in cache:
            cache[level] = fem.build_mesh(level)
        return cache[level]

    return get


def random_tiny_problem(rng, n=None, alpha=None, beta=None):
    """Small dense-ish DiscreteProblem with valid lumping structure.

    M is SPD with nonnegative entries and W_i = sum_j M_ij, so the graph
    Laplacian argument gives W - M >= 0 as for P1 lumping.  The mass scale
    is kept small against the O(n) stiffness, mirroring the h^2-vs-O(1)
    balance of the FEM operators the solvers are tuned for.
    """
    import scipy.sparse as sp
    n = n if n is not None else rng.integers(1, 5)
    B = rng.uniform(0.0, 1.0, size=(n, n))
    M = 0.5 * (B + B.T) + n * np.eye(n)
    mscale = rng.uniform(0.02, 0.1) / n
    M *= mscale
    W = M.sum(axis=1)
    Q = rng.standard_normal((n, n))
    K = Q @ Q.T + n * np.eye(n)
    # data loud enough that zero, interior and bound regimes all occur
    data = rng.uniform(0.2, 2.0) / mscale
    # K is no mesh stencil, so the solvers get an LU of it as their K-solver
    return DiscreteProblem(
        K=sp.csr_matrix(K), M=sp.csr_matrix(M), W=W,
        yd=data * rng.standard_normal(n), yc=data * rng.standard_normal(n),
        alpha=alpha if alpha is not None else float(rng.uniform(1e-3, 1.0)),
        beta=beta if beta is not None else float(rng.uniform(1e-3, 1.0)),
        a=float(-rng.uniform(0.2, 2.0)), b=float(rng.uniform(0.2, 2.0)),
        h=1.0)


def kernel_problem(W, alpha=1.0, beta=1.0, a=-1.0, b=1.0, **fields):
    """The fields the proximal kernels and residuals read, without the
    matrices and parameter checks of a DiscreteProblem (beta = 0 is
    allowed): W, alpha, beta, the bounds, any further fields, and the
    weights 1/W, beta W and alpha/2 W that DiscreteProblem caches, made by
    its own code."""
    prob = SimpleNamespace(W=np.asarray(W, dtype=float), alpha=alpha,
                           beta=beta, a=a, b=b, **fields)
    for name in ("W_inv", "beta_W", "half_alpha_W"):
        setattr(prob, name, getattr(DiscreteProblem, name).func(prob))
    return prob
