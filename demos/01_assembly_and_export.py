"""Mesh construction, P1 assembly and the basic operator identities.

Builds the uniform triangulation of the unit square at a few levels, drives
the stiffness/mass/lumped-mass assembly, and spells out the identities the
solvers rely on: the 5-point stencil of the P1 Laplacian on this mesh, the
row-sum lumping identity, and the norm equivalence between consistent and
lumped mass.  Finishes by exporting the operators in MatrixMarket format.
"""

import numpy as np

from sparseoc import mesh as fem


def main():
    for level in (2, 3, 4):
        m = fem.build_mesh(level)
        K = fem.assemble_stiffness(m)
        M = fem.assemble_mass(m)
        W = fem.assemble_lumped_mass(m)
        print(f"level {level}: h = {m.h}, {m.n_elements} elements, "
              f"{m.n_interior} interior dofs")
        print(f"  K diagonal: {K.diagonal()[0]:.1f} (h-independent), "
              f"M diagonal: {M.diagonal()[0]:.3e} (= h^2/2)")
        print(f"  sum of interior lumped weights: {W.sum():.15f} "
              f"(= (1 - h)^2 = {(1 - m.h) ** 2:.15f})")

        rng = np.random.default_rng(0)
        z = rng.standard_normal(m.n_interior)
        zMz = z @ (M @ z)
        zWz = np.sum(W * z * z)
        print(f"  norm equivalence sample: z'Mz = {zMz:.4e} <= z'Wz = "
              f"{zWz:.4e} <= 4 z'Mz = {4 * zMz:.4e}")

    out = "matrices_level3"
    import pathlib
    pathlib.Path(out).mkdir(exist_ok=True)
    m = fem.build_mesh(3)
    fem.write_matrix_market(f"{out}/K.mtx", fem.assemble_stiffness(m))
    fem.write_matrix_market(f"{out}/M.mtx", fem.assemble_mass(m))
    fem.write_matrix_market_diagonal(f"{out}/W.mtx", fem.assemble_lumped_mass(m))
    print(f"\nwrote K.mtx, M.mtx, W.mtx to ./{out}/")


if __name__ == "__main__":
    main()
