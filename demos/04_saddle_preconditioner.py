"""The reduced saddle system and its modified-HSS block preconditioner.

Each ADMM control step solves [[M/gamma, K], [-K, M]] [y; u] = rhs, which
with s = sqrt(gamma) and y = s w is the complex-symmetric n x n system
(M - i s K)(w + i u) = s rhs_top + i rhs_bottom.  The script compares the
one-time sparse factorization of M - i s K against right preconditioned
GMRES with P = scalar-factor x diag(G, G), G = M + s K, showing the
grid-independent Krylov iteration counts.
"""

import numpy as np

from sparseoc import mesh as fem
from sparseoc.linalg import SaddleSolver


def main():
    gamma = 0.3
    print(f"gamma = {gamma}; PMHSS-GMRES to relative residual 1e-10:")
    for level in (3, 4, 5, 6):
        m = fem.build_mesh(level)
        M = fem.assemble_mass(m)
        K = fem.assemble_stiffness(m)
        rng = np.random.default_rng(level)
        rhs_top = rng.standard_normal(m.n_interior)
        rhs_bottom = rng.standard_normal(m.n_interior)
        norm_b = np.linalg.norm(np.concatenate([rhs_top, rhs_bottom]))
        solver = SaddleSolver(M, K, gamma)
        y_d, u_d, _ = solver.solve(rhs_top, rhs_bottom, backend="direct")
        y_g, u_g, st = solver.solve(rhs_top, rhs_bottom,
                                    backend="pmhss_gmres",
                                    tol=1e-10 * norm_b)
        dev = np.linalg.norm(np.concatenate([y_d - y_g, u_d - u_g]))
        print(f"  level {level}: {st.iterations:3d} iterations, "
              f"|direct - gmres| = {dev:.1e}")


if __name__ == "__main__":
    main()
