"""
sparseoc: solvers for L1-regularized, box-constrained elliptic optimal
control problems discretized with P1 finite elements and lumped-mass
quadrature on the unit square.
"""

from .mesh import (Mesh, DiscreteProblem, build_mesh, assemble_stiffness,
                   assemble_mass, assemble_lumped_mass, project_field,
                   discretize)
from .linalg import (factorize, Factorization, FactorizationError,
                     pmhss_apply, gmres, SaddleSolver, InnerSolveStats)
from .prox import (soft, project_box, grad_f, objective_f, objective_g,
                   z_update_ihadmm, z_update_classical, prox_g_euclidean,
                   kkt_residual_admm, kkt_residual_pdas, KktResidual)
from .solvers import (SolverConfig, IterateState, ConvergenceReport,
                      solve_ihadmm, solve_classical_admm, solve_apg,
                      solve_pdas, solve_two_phase, SOLVERS)
from .experiments import (ExperimentSpec, EocRow, build_example1,
                          build_example2, l2_control_error, compute_eoc,
                          run_table, EXAMPLE1_PARAMS, EXAMPLE2_PARAMS)
from .oracle import brute_force_solve, certify_kkt

__version__ = "0.1.0"
