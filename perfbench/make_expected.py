"""
Record the answer each workload must reproduce into expected.json.

    PYTHONPATH=src python3 perfbench/make_expected.py

For every workload this solves the instance once and stores the objective
f(z) + g(z) and the L2 control error of the returned control.  The Stadler
problem has no analytic control, so its reference is first computed by a
two-phase solve (ihADMM to 1e-3, PDAS to 1e-10) and stored as well.
Rerun only when a change to the numerics is intended, and say so.
"""

import json

from workloads import EXPECTED_PATH, WORKLOADS, answer, build, solve


def record(workload):
    """The expected.json entry of one workload."""
    from sparseoc.experiments import reproduction_sigma
    from sparseoc.solvers import SolverConfig, solve_two_phase
    mesh, problem, u_star = build(workload)
    entry = {}
    if u_star is None:
        sigma = reproduction_sigma(problem.alpha)
        ref = solve_two_phase(problem, SolverConfig(tol=1e-3, sigma=sigma),
                              SolverConfig(tol=1e-10, sigma=sigma))
        if not ref.converged:
            raise RuntimeError(f"{workload.name}: reference solve failed")
        entry["reference_control"] = [float(v) for v in ref.final_state.z]
    report = solve(workload, problem)
    if not report.converged:
        raise RuntimeError(f"{workload.name}: solve did not converge")
    entry["objective"], entry["control_error"] = answer(
        workload, mesh, problem, u_star, report, entry)
    return entry


def main():
    expected = {}
    for name, workload in WORKLOADS.items():
        expected[name] = record(workload)
        print(name, {k: v for k, v in expected[name].items()
                     if k != "reference_control"})
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
