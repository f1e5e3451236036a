"""
The benchmark workloads: fixed instances of the paper's two problems.

Every workload builds its problem with sparseoc.experiments, solves it with
sigma = reproduction_sigma(alpha) and checks the answer against values
recorded in expected.json (written by make_expected.py from a solve of the
same instance).  The PDE data is fixed, so no random value ever reaches a
solver.  sparseoc is called through module attributes looked up at call
time, so the tracer's wrappers see every call.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Relative tolerances of the output checks.  At the recorded tolerances the
# objective of the returned control sits within 2e-12 (relative) of a 1e-10
# solve, and the error against the analytic u* within 2e-7.
OBJECTIVE_RTOL = 1e-8
CONTROL_ERROR_RTOL = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    example: str            # "constructed" or "stadler"
    level: int
    solver: str             # "ihadmm" or "two_phase"
    backend: str            # saddle backend of the ihADMM u-step
    tol: float              # accuracy the returned iterate must reach


WORKLOADS = {w.name: w for w in (
    # iteration-bound: ~460 cheap iterations, per-iteration layers dominate
    Workload("stadler-ihadmm-l5", "stadler", 5, "ihadmm", "direct", 1e-6),
    # few iterations on the largest grid: factorizations and set-up weigh more
    Workload("constructed-ihadmm-l6", "constructed", 6, "ihadmm", "direct", 1e-6),
    # the inexact Krylov u-step (PMHSS-preconditioned GMRES) on the same
    # instance as constructed-ihadmm-l6, so direct and PMHSS compare directly
    Workload("constructed-pmhss-l6", "constructed", 6, "ihadmm", "pmhss_gmres", 1e-6),
    # ihADMM to 1e-3 warm-starting PDAS to 1e-10: the only PDAS-heavy workload
    Workload("constructed-two-phase-l6", "constructed", 6, "two_phase", "direct", 1e-10),
)}


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def build(workload):
    """Mesh, DiscreteProblem and analytic control (None for stadler)."""
    from sparseoc import experiments
    if workload.example == "constructed":
        mesh, problem, fields = experiments.build_example1(workload.level)
        return mesh, problem, fields["u_star"]
    mesh, problem = experiments.build_example2(workload.level)
    return mesh, problem, None


def solve(workload, problem):
    """Run the workload's solver to its tolerance; returns the report."""
    from sparseoc import solvers
    from sparseoc.experiments import reproduction_sigma
    sigma = reproduction_sigma(problem.alpha)
    if workload.solver == "two_phase":
        return solvers.solve_two_phase(
            problem, solvers.SolverConfig(tol=1e-3, sigma=sigma),
            solvers.SolverConfig(tol=workload.tol, sigma=sigma))
    return solvers.solve_ihadmm(
        problem, solvers.SolverConfig(tol=workload.tol, sigma=sigma,
                                      inner_backend=workload.backend))


def answer(workload, mesh, problem, u_star, report, expected):
    """Objective and L2 control error of the returned control z.

    The control error is measured against the analytic u* on the
    constructed problem and against the recorded tight-tolerance discrete
    solution on the Stadler problem, which has no closed form.
    """
    from sparseoc.experiments import l2_control_error
    from sparseoc.linalg import factorize
    from sparseoc.prox import objective_f, objective_g
    z = report.final_state.z
    objective = objective_f(problem, factorize(problem.K), z) \
        + objective_g(problem, z)
    if u_star is not None:
        error = l2_control_error(z, u_star, mesh)
    else:
        reference = np.asarray(expected["reference_control"])
        error = l2_control_error(z, reference, mesh, ref_mesh=mesh)
    return float(objective), float(error)


def check(workload, mesh, problem, u_star, report, expected):
    """Control error and the list of failed output checks (empty if none)."""
    reasons = []
    if not report.converged:
        reasons.append("not converged")
    if not report.final_eta <= workload.tol:
        reasons.append(f"final eta {report.final_eta:.3e} > tol {workload.tol:.0e}")
    objective, error = answer(workload, mesh, problem, u_star, report, expected)
    if not abs(objective - expected["objective"]) \
            <= OBJECTIVE_RTOL * abs(expected["objective"]):
        reasons.append(f"objective {objective!r} != recorded "
                       f"{expected['objective']!r}")
    # on the Stadler problem the error is pure solver error, which the eta
    # and objective checks already bound
    if u_star is not None and not abs(error - expected["control_error"]) \
            <= CONTROL_ERROR_RTOL * expected["control_error"]:
        reasons.append(f"control error {error!r} != recorded "
                       f"{expected['control_error']!r}")
    return error, reasons
