"""
Benchmark problems, discretization-error measurement and sweep tables.

Two instances on the unit square with A = -Laplace:

* the constructed problem ("constructed"): alpha = beta = 0.5, bounds
  +-0.5; the exact state/adjoint pair is prescribed analytically and the
  data fields yc, yd are backed out of the optimality system, so the exact
  control u* = Pi_[a,b]((1/alpha) soft(p*, beta)) is known in closed form;
* the benchmark of Stadler ("stadler"): alpha = 1e-5, beta = 1e-3, bounds
  +-30, yd = (1/6) sin(2 pi x) exp(2x) sin(2 pi y), no exact solution; a
  fine-grid two-phase solve serves as reference.

The control error E2(h) = ||u - u_h||_L2 is integrated elementwise with a
degree-5 rule (analytic reference) or exactly through the fine-grid mass
matrix (nested-mesh reference), and the experimental order of convergence
is the log-ratio slope between consecutive levels.
"""

import time
import numpy as np
from dataclasses import dataclass, field, replace

from . import mesh as fem
from .solvers import SolverConfig, SOLVERS, solve_two_phase

TWO_PI_SQ = 2.0 * np.pi ** 2


@dataclass(frozen=True)
class ExampleParams:
    alpha: float
    beta: float
    a: float
    b: float


EXAMPLE1_PARAMS = ExampleParams(alpha=0.5, beta=0.5, a=-0.5, b=0.5)
EXAMPLE2_PARAMS = ExampleParams(alpha=1e-5, beta=1e-3, a=-30.0, b=30.0)


def reproduction_sigma(alpha):
    """Penalty used in the benchmark sweeps: the largest value the ADMM
    convergence theory admits (alpha/4); it reproduces the published
    iteration counts, which the nominal default 0.1*alpha does not."""
    return 0.25 * alpha


def example1_fields(params=EXAMPLE1_PARAMS):
    """Exact solution and data fields of the constructed problem.

    y* = sin(pi x1) sin(pi x2), p* = 2 beta sin(2 pi x1) e^{x1/2} sin(4 pi x2);
    the control follows from the projection formula, the source from the
    state equation (-Lap y* = u* + yc) and the desired state from the
    adjoint equation (yd = -Lap p* + y*).  The Laplacian of p* is hand
    derived; a finite-difference test guards the formula.
    """
    alpha, beta, a, b = params.alpha, params.beta, params.a, params.b

    def y_star(x1, x2):
        return np.sin(np.pi * x1) * np.sin(np.pi * x2)

    def p_star(x1, x2):
        return 2.0 * beta * np.sin(2.0 * np.pi * x1) * np.exp(0.5 * x1) \
            * np.sin(4.0 * np.pi * x2)

    def neg_lap_p_star(x1, x2):
        osc = (20.0 * np.pi ** 2 - 0.25) * np.sin(2.0 * np.pi * x1) \
            - 2.0 * np.pi * np.cos(2.0 * np.pi * x1)
        return 2.0 * beta * np.exp(0.5 * x1) * np.sin(4.0 * np.pi * x2) * osc

    def u_star(x1, x2):
        p = p_star(x1, x2)
        return np.clip(np.sign(p) * np.maximum(np.abs(p) - beta, 0.0) / alpha,
                       a, b)

    def yc(x1, x2):
        return TWO_PI_SQ * y_star(x1, x2) - u_star(x1, x2)

    def yd(x1, x2):
        return neg_lap_p_star(x1, x2) + y_star(x1, x2)

    return {"y_star": y_star, "p_star": p_star, "u_star": u_star,
            "neg_lap_p_star": neg_lap_p_star, "yc": yc, "yd": yd}


def build_example1(level, params=EXAMPLE1_PARAMS):
    """Mesh, DiscreteProblem and exact fields of the constructed problem."""
    fields = example1_fields(params)
    m = fem.build_mesh(level)
    problem = fem.discretize(m, fields["yd"], fields["yc"],
                             params.alpha, params.beta, params.a, params.b)
    return m, problem, fields


def example2_yd(x1, x2):
    return np.sin(2.0 * np.pi * x1) * np.exp(2.0 * x1) \
        * np.sin(2.0 * np.pi * x2) / 6.0


def build_example2(level, params=EXAMPLE2_PARAMS):
    """Mesh and DiscreteProblem of the Stadler benchmark (yc = 0)."""
    m = fem.build_mesh(level)
    problem = fem.discretize(m, example2_yd, None,
                             params.alpha, params.beta, params.a, params.b)
    return m, problem


def example_params(example_id, **overrides):
    """The example's default parameters with every non-None override."""
    base = EXAMPLE1_PARAMS if example_id == "constructed" else EXAMPLE2_PARAMS
    return replace(base, **{k: v for k, v in overrides.items()
                            if v is not None})


def build_example(example_id, level, params):
    """Mesh and DiscreteProblem of either example."""
    if example_id == "constructed":
        m, problem, _ = build_example1(level, params)
        return m, problem
    return build_example2(level, params)


# Degree-5 (7-point) triangle rule; weights sum to 1 on the reference element.
_Q5_B1 = 0.470142064105115
_Q5_B2 = 0.101286507323456
_QUAD_BARY = np.array(
    [[1 / 3, 1 / 3, 1 / 3],
     [1 - 2 * _Q5_B1, _Q5_B1, _Q5_B1],
     [_Q5_B1, 1 - 2 * _Q5_B1, _Q5_B1],
     [_Q5_B1, _Q5_B1, 1 - 2 * _Q5_B1],
     [1 - 2 * _Q5_B2, _Q5_B2, _Q5_B2],
     [_Q5_B2, 1 - 2 * _Q5_B2, _Q5_B2],
     [_Q5_B2, _Q5_B2, 1 - 2 * _Q5_B2]])
_QUAD_W = np.array([0.225,
                    0.132394152788506, 0.132394152788506, 0.132394152788506,
                    0.125939180544827, 0.125939180544827, 0.125939180544827])


def integrate_elementwise(mesh, func):
    """Integral of func(x1, x2) over the mesh, degree-5 rule per element."""
    p = mesh.nodes[mesh.elements]                       # (ne, 3, 2)
    pts = np.einsum("qj,ejd->eqd", _QUAD_BARY, p)
    vals = func(pts[..., 0], pts[..., 1])
    _, _, area = fem._element_geometry(mesh)
    return float(np.einsum("e,q,eq->", area, _QUAD_W, vals))


def l2_control_error(u_h, reference, mesh, ref_mesh=None):
    """L2 distance between the P1 function u_h and a reference control.

    reference is either a callable (analytic control, integrated by the
    degree-5 rule) or an interior coefficient vector on the nested finer
    grid ref_mesh (then the difference is P1 on the fine mesh and the
    integral is exact through its mass matrix).
    """
    if callable(reference):
        full = fem.full_vector(mesh, u_h)
        nodal = full[mesh.elements]                     # (ne, 3)
        p = mesh.nodes[mesh.elements]
        pts = np.einsum("qj,ejd->eqd", _QUAD_BARY, p)
        uh_q = np.einsum("qj,ej->eq", _QUAD_BARY, nodal)
        diff = uh_q - reference(pts[..., 0], pts[..., 1])
        _, _, area = fem._element_geometry(mesh)
        return float(np.sqrt(np.einsum("e,q,eq->", area, _QUAD_W, diff ** 2)))
    if ref_mesh is None:
        raise ValueError("a fine-grid reference needs its mesh")
    if ref_mesh.level < mesh.level:
        raise ValueError("reference grid must be at least as fine")
    xy = fem.interior_coordinates(ref_mesh)
    uh_on_ref = fem.eval_p1(mesh, u_h, xy[:, 0], xy[:, 1])
    diff = np.asarray(reference) - uh_on_ref
    Mref = fem.assemble_mass(ref_mesh)
    return float(np.sqrt(diff @ (Mref @ diff)))


def compute_eoc(errors):
    """Experimental orders of convergence between consecutive (h, E) rows."""
    eocs = []
    for (h1, e1), (h2, e2) in zip(errors, errors[1:]):
        if not (np.isfinite(e1) and np.isfinite(e2)) or e1 <= 0.0 or e2 <= 0.0:
            eocs.append(None)
        else:
            eocs.append((np.log(e1) - np.log(e2)) / (np.log(h1) - np.log(h2)))
    return eocs


@dataclass
class ExperimentSpec:
    """One sweep: an example, grid levels and the solvers to run on each."""

    example_id: str
    levels: list
    # [(name, SolverConfig), ...]; "two_phase" takes a (phase1, phase2) pair
    solver_matrix: list
    alpha: float = None
    beta: float = None
    a: float = None
    b: float = None
    reference_level: int = None          # fine-grid reference (stadler)
    reference_tol: float = 1e-10

    def validate(self):
        if self.example_id not in ("constructed", "stadler"):
            raise ValueError(f"unknown example {self.example_id!r}")
        if not self.levels:
            raise ValueError("empty level list")
        if list(self.levels) != sorted(self.levels):
            raise ValueError("levels must be ascending")
        if self.reference_level is not None \
                and self.reference_level <= max(self.levels):
            raise ValueError("reference level must exceed the finest level")
        if not self.solver_matrix:
            raise ValueError("no solvers configured")
        for name, config in self.solver_matrix:
            if (name == "two_phase") != isinstance(config, tuple):
                raise ValueError(f"{name}: two_phase takes a (phase1, phase2) "
                                 "config pair, every other solver one config")
        return self

    def params(self):
        return example_params(self.example_id, alpha=self.alpha,
                              beta=self.beta, a=self.a, b=self.b)


@dataclass
class SolverCell:
    solver: str
    iterations: int
    eta: float
    wall_time: float
    converged: bool
    phase_iterations: tuple = None
    error: str = None


@dataclass
class EocRow:
    level: int
    h: float
    n_dofs: int
    E2: float
    eoc: float
    cells: list = field(default_factory=list)


def _run_cell(name, config, problem):
    t0 = time.perf_counter()
    try:
        if name == "two_phase":
            report = solve_two_phase(problem, *config)
        else:
            report = SOLVERS[name](problem, config)
        return SolverCell(name, report.iterations, report.final_eta,
                          report.wall_time, report.converged,
                          report.phase_iterations), report
    except Exception as exc:   # cell failure is recorded, table still emitted
        return SolverCell(name, 0, np.inf, time.perf_counter() - t0,
                          False, None, f"{type(exc).__name__}: {exc}"), None


def _reference_solution(spec, params):
    m_ref, p_ref = build_example2(spec.reference_level, params)
    sigma = reproduction_sigma(params.alpha)
    report = solve_two_phase(p_ref, SolverConfig(tol=1e-3, sigma=sigma),
                             SolverConfig(tol=spec.reference_tol, sigma=sigma))
    if not report.converged:
        raise RuntimeError("reference solve did not converge")
    return m_ref, report.final_state.u


def run_table(spec, jobs=1):
    """Run every (level, solver) cell of the sweep and assemble table rows.

    E2 is measured on the first configured solver's control; failed cells
    are kept in the table with their error recorded.
    """
    spec = spec.validate()
    params = spec.params()

    ref_mesh = ref_u = None
    exact = None
    if spec.example_id == "constructed":
        exact = example1_fields(params)
    elif spec.reference_level is not None:
        ref_mesh, ref_u = _reference_solution(spec, params)

    def run_level(level):
        m, problem = build_example(spec.example_id, level, params)
        cells = []
        u_first = None
        for name, config in spec.solver_matrix:
            cell, report = _run_cell(name, config, problem)
            cells.append(cell)
            if u_first is None and report is not None \
                    and report.final_state.u is not None:
                u_first = report.final_state.u
        e2 = np.nan
        if u_first is not None:
            if exact is not None:
                e2 = l2_control_error(u_first, exact["u_star"], m)
            elif ref_u is not None:
                e2 = l2_control_error(u_first, ref_u, m, ref_mesh=ref_mesh)
        return EocRow(level, m.h, m.n_interior, e2, None, cells)

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run_level, spec.levels))
    else:
        rows = [run_level(level) for level in spec.levels]

    eocs = compute_eoc([(r.h, r.E2) for r in rows])
    for row, eoc in zip(rows[1:], eocs):
        row.eoc = eoc
    return rows


def export_solution_csv(path, mesh, u_interior):
    """Nodal control values (x, y, u) for external plotting."""
    full = fem.full_vector(mesh, u_interior)
    with open(path, "w") as fh:
        fh.write("x,y,u\n")
        for (x, y), v in zip(mesh.nodes, full):
            fh.write(f"{float(x)!r},{float(y)!r},{float(v)!r}\n")
