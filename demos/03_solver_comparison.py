"""Level sweep comparing the four solvers, in the style of the benchmarks.

Emits one row per grid level: discretization error of the control, its
experimental order of convergence, and iteration counts for the
heterogeneous ADMM, the classical ADMM, the accelerated proximal gradient
method and the two-phase strategy.  Note the mesh-independent counts of the
heterogeneous ADMM versus the growth of the classical one.
"""

from sparseoc.experiments import (ExperimentSpec, run_table,
                                  reproduction_sigma, EXAMPLE1_PARAMS)
from sparseoc.solvers import SolverConfig


def main():
    sigma = reproduction_sigma(EXAMPLE1_PARAMS.alpha)
    matrix = [
        ("ihadmm", SolverConfig(tol=1e-6, sigma=sigma)),
        ("classical_admm", SolverConfig(tol=1e-6, max_iter=8000)),
        ("apg", SolverConfig(tol=1e-6)),
        ("two_phase", (SolverConfig(tol=1e-3, sigma=sigma),
                       SolverConfig(tol=1e-10, sigma=sigma))),
    ]
    spec = ExperimentSpec("constructed", [3, 4, 5], matrix)
    rows = run_table(spec)

    names = [name for name, _ in matrix]
    header = f"{'level':>5} {'dofs':>6} {'E2':>8} {'EOC':>6} " \
             + " ".join(f"{n:>16}" for n in names)
    print(header)
    for row in rows:
        eoc = f"{row.eoc:.3f}" if row.eoc is not None else "--"
        cells = []
        for cell in row.cells:
            iters = cell.iterations if cell.phase_iterations is None \
                else "+".join(str(i) for i in cell.phase_iterations)
            cells.append(f"{iters} ({cell.eta:.0e})")
        print(f"{row.level:>5} {row.n_dofs:>6} {row.E2:>8.4f} {eoc:>6} "
              + " ".join(f"{c:>16}" for c in cells))


if __name__ == "__main__":
    main()
