"""The reduced saddle system and its modified-HSS block preconditioner.

Each ADMM control step solves [[M/gamma, K], [-K, M]] [y; u] = rhs,
which with s = sqrt(gamma) and y = s w is the complex-symmetric n x n
system (M - i s K)(w + i u) = s rhs_top + i rhs_bottom.  The script
compares the direct solve against right preconditioned GMRES with
P = scalar-factor x diag(G~, G~), G~ = M~ + s K, where M~ is the mass
matrix without its skew Kronecker part.  GMRES runs in the orthonormal
2-D sine basis of the grid, one SineGrid per level that the solvers of
both gammas share (a problem holds it as problem.sine): there G~ is the
diagonal mu + s kappa, so P^-1 is a 2x2 block of diagonals, made once
per solver, and the block operator is one such block apart from one
c Q X Q^T term per grid (a pair of dense N x N products).  So a GMRES
iteration makes no sparse product and no transform, nothing is factored,
and a solve transforms its rhs in and its solution out once and makes one
sparse product for its true residual.  The direct solve
factors nothing either at gamma = 0.3: there M - i s K is close enough
to the sine-diagonal M~ - i s K that a Richardson iteration
preconditioned by it cuts the residual by a factor of 650 (level 3) to
30,000 (level 6) per step, all in the sine basis.  At a gamma of the
Stadler problem's size (7.5e-6) the factor is only 6.5 to 160, and the
direct solve takes one sparse LU of M - i s K.  The script shows the
grid-independent Krylov iteration counts at both gammas; at the small
one G~ lies further from M + s K and GMRES takes more iterations.
"""

import numpy as np

from sparseoc import mesh as fem
from sparseoc.linalg import SaddleSolver, SineGrid

GAMMAS = (0.3, 7.5e-6)


def main():
    print("PMHSS-GMRES to relative residual 1e-10, iterations and "
          "|direct - gmres| per gamma:")
    for level in (3, 4, 5, 6):
        m = fem.build_mesh(level)
        M = fem.assemble_mass(m)
        K = fem.assemble_stiffness(m)
        grid = SineGrid(M, K)
        rng = np.random.default_rng(level)
        rhs_top = rng.standard_normal(m.n_interior)
        rhs_bottom = rng.standard_normal(m.n_interior)
        norm_b = np.linalg.norm(np.concatenate([rhs_top, rhs_bottom]))
        cells = []
        for gamma in GAMMAS:
            solver = SaddleSolver(grid, gamma)
            y_d, u_d, _ = solver.solve(rhs_top, rhs_bottom, backend="direct")
            y_g, u_g, st = solver.solve(rhs_top, rhs_bottom,
                                        backend="pmhss_gmres",
                                        tol=1e-10 * norm_b)
            dev = np.linalg.norm(np.concatenate([y_d - y_g, u_d - u_g]))
            cells.append(f"gamma = {gamma:g}: {st.iterations:3d}, {dev:.1e}")
        print(f"  level {level}: " + "; ".join(cells))


if __name__ == "__main__":
    main()
