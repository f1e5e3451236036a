"""Brute-force certification of the solver stack on tiny instances.

For problems with at most six unknowns the global minimizer can be found by
enumerating, per coordinate, the five regimes the optimality system allows
(lower bound / negative / zero / positive / upper bound) and solving the
smooth equations on the free coordinates.  The oracle is dense numpy only,
shares no code with the sparse solvers, and certifies its answer through
the KKT residual; every solver must land on the same point.
"""

import numpy as np
import scipy.sparse as sp

import sparseoc as so
from sparseoc.mesh import DiscreteProblem
from sparseoc.oracle import brute_force_solve
from sparseoc.experiments import reproduction_sigma


def make_instance(rng, n):
    B = rng.uniform(0.0, 1.0, size=(n, n))
    M = (0.5 * (B + B.T) + n * np.eye(n)) * 0.05 / n
    W = M.sum(axis=1)
    Q = rng.standard_normal((n, n))
    K = Q @ Q.T + n * np.eye(n)
    data = 20.0
    # a random K is no mesh stencil, so the solvers get an LU of it as
    # their K-solver (DiscreteProblem.factorK), not the sine transform
    return DiscreteProblem(K=sp.csr_matrix(K), M=sp.csr_matrix(M), W=W,
                           yd=data * rng.standard_normal(n),
                           yc=data * rng.standard_normal(n),
                           alpha=0.05, beta=0.1, a=-1.0, b=1.0, h=1.0)


def main():
    rng = np.random.default_rng(7)
    prob = make_instance(rng, 4)
    u_star, cert = brute_force_solve(prob)
    print("tiny instance with 4 unknowns")
    print(f"oracle minimizer: {np.round(u_star, 6)}")
    print(f"certificate KKT residual: {cert.eta:.2e}")

    sigma = reproduction_sigma(prob.alpha)
    runs = {
        "ihadmm": so.solve_ihadmm(
            prob, so.SolverConfig(tol=1e-10, sigma=sigma, max_iter=5000)),
        "classical_admm": so.solve_classical_admm(
            prob, so.SolverConfig(tol=1e-10, max_iter=5000)),
        "apg": so.solve_apg(prob, so.SolverConfig(tol=1e-10, max_iter=5000)),
    }
    # PDAS warm-started from the thresholded iterate z and its adjoint p,
    # as solve_two_phase hands it over
    ph1 = so.solve_ihadmm(prob, so.SolverConfig(tol=1e-3, sigma=sigma))
    s1 = ph1.final_state
    warm = so.IterateState(u=s1.z.copy(), p=s1.p)
    runs["pdas (warm)"] = so.solve_pdas(
        prob, so.SolverConfig(tol=1e-10, max_iter=100), warm=warm)

    for name, rep in runs.items():
        dev = np.abs(rep.final_state.u - u_star).max()
        print(f"{name:>16}: {rep.iterations:4d} iterations, "
              f"|u - u*|_inf = {dev:.2e}")


if __name__ == "__main__":
    main()
