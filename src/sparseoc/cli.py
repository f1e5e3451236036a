"""
Batch command-line front end.

Three subcommands, all driven by a JSON configuration document:

    sparseoc solve            --config cfg.json --out DIR
    sparseoc table            --config cfg.json --out DIR
    sparseoc export-matrices  --level K --out DIR

`solve` runs one (example, level, solver) and writes report.json plus a
convergence CSV (header iter,eta1..eta5,eta,Rh,inner_iters); `table` runs a
level sweep for several solvers and writes table.csv/table.json.  Exit code
0 means converged / all cells ran, 1 a solver failure, 2 a bad config.

Outputs are deterministic for a fixed config; wall-clock timings go to
columns suffixed `_nondeterministic` and are exempt from that guarantee.
"""

import argparse
import json
import logging
import sys
import numpy as np
from dataclasses import dataclass, asdict, fields

from . import mesh as fem
from .experiments import (ExperimentSpec, build_example, example_params,
                          export_solution_csv, run_table)
from .mesh import _fmt
from .solvers import SolverConfig, SOLVER_NAMES, run_solver

log = logging.getLogger("sparseoc")


class ConfigError(ValueError):
    """Configuration document failed validation."""


@dataclass
class RunConfig(SolverConfig):
    """Everything one invocation needs, round-trippable through JSON: the
    solver settings and defaults of SolverConfig, then the run's own."""

    example: str = "constructed"
    level: int = 4
    levels: list = None
    solver: str = "ihadmm"
    solvers: list = None
    phase1_tol: float = 1e-3
    phase2_tol: float = 1e-10
    reference_level: int = None

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            cfg = cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        return cfg.validate()

    def validate(self):
        if self.solver not in SOLVER_NAMES:
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.solvers is not None:
            bad = [s for s in self.solvers if s not in SOLVER_NAMES]
            if bad:
                raise ConfigError(f"unknown solvers {bad}")
        if not _is_level(self.level):
            raise ConfigError("level must be a positive integer")
        if self.levels is not None and not (
                isinstance(self.levels, list)
                and all(map(_is_level, self.levels))):
            raise ConfigError("levels must be a list of positive integers")
        if self.reference_level is not None \
                and not _is_level(self.reference_level):
            raise ConfigError("reference_level must be a positive integer")
        try:
            example_params(self.example)    # rejects an unknown example
            for name in ("tol", "phase1_tol", "phase2_tol"):
                try:
                    self.solver_config(getattr(self, name)).validate()
                except ValueError as exc:
                    # the configs differ only in tol: name the field it held
                    raise ValueError(str(exc).replace("tol", name, 1)) from exc
            if self.phase1_tol < self.phase2_tol:
                raise ValueError("phase1_tol must be >= phase2_tol")
            if self.levels is not None:
                # order of the levels and the reference level above them
                _table_spec(self).validate()
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        return self

    def solver_config(self, tol=None):
        """The SolverConfig fields of this config, tol replaced if given."""
        values = {f.name: getattr(self, f.name) for f in fields(SolverConfig)}
        if tol is not None:
            values["tol"] = tol
        return SolverConfig(**values)


def _is_level(v):
    """A grid level: a positive int that is no bool (JSON true is one)."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def _finite_or_none(v):
    """A float for strict JSON: None stands for a missing or non-finite
    value, which json.dump would write as the non-standard NaN/Infinity."""
    return None if v is None or not np.isfinite(v) else v


def load_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    return RunConfig.from_dict(data)


def cmd_solve(config_path, out_dir):
    """Run one (example, level, solver); report JSON + CSV artifacts."""
    cfg = load_config(config_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    m, problem = build_example(cfg.example, cfg.level)

    report = run_solver(cfg.solver, problem, _configs(cfg, cfg.solver))

    report.write_log(out_dir / "convergence.csv")
    export_solution_csv(out_dir / "solution.csv", m, report.final_state.u)
    last = report.eta_history[-1] if report.eta_history else None
    doc = {
        "example": cfg.example,
        "level": cfg.level,
        "solver": cfg.solver,
        "iterations": report.iterations,
        "converged": bool(report.converged),
        "final_eta": None if last is None else last.eta,
        "eta_components": None if last is None else list(last.as_tuple())[:5],
        "phase_iterations": report.phase_iterations,
        "wall_time_s_nondeterministic": report.wall_time,
        "config": cfg.to_dict(),
    }
    with open(out_dir / "report.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("solve: %s level %d solver %s: %d iterations, converged=%s",
             cfg.example, cfg.level, cfg.solver, report.iterations,
             report.converged)
    return 0 if report.converged else 1


def _configs(cfg, name):
    """SolverConfig of solver name, a (phase1, phase2) pair for two_phase."""
    if name == "two_phase":
        return (cfg.solver_config(tol=cfg.phase1_tol),
                cfg.solver_config(tol=cfg.phase2_tol))
    return cfg.solver_config()


def _table_spec(cfg):
    names = cfg.solvers if cfg.solvers else [cfg.solver]
    matrix = [(name, _configs(cfg, name)) for name in names]
    if cfg.levels is None:
        raise ConfigError("table mode needs a 'levels' list")
    return ExperimentSpec(example_id=cfg.example, levels=list(cfg.levels),
                          solver_matrix=matrix,
                          reference_level=cfg.reference_level)


def cmd_table(config_path, out_dir):
    """Run the level sweep and emit table.csv / table.json."""
    cfg = load_config(config_path)
    spec = _table_spec(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = run_table(spec)

    names = [name for name, _ in spec.solver_matrix]
    header = ["level", "h", "n_dofs", "E2", "EOC"]
    for name in names:
        header += [f"{name}_iters", f"{name}_eta",
                   f"{name}_time_s_nondeterministic"]
    lines = [",".join(header)]
    for row in rows:
        vals = [str(row.level), _fmt(row.h), str(row.n_dofs),
                _fmt(row.E2), _fmt(row.eoc)]
        for cell in row.cells:
            iters = cell.iterations if cell.phase_iterations is None else \
                "+".join(str(i) for i in cell.phase_iterations)
            vals += [str(iters), _fmt(cell.eta), _fmt(cell.wall_time)]
        lines.append(",".join(vals))
    (out_dir / "table.csv").write_text("\n".join(lines) + "\n")

    doc = []
    for row in rows:
        doc.append({
            "level": row.level, "h": row.h, "n_dofs": row.n_dofs,
            "E2": _finite_or_none(row.E2),
            "EOC": _finite_or_none(row.eoc),
            "cells": [{"solver": c.solver, "iterations": c.iterations,
                       "eta": _finite_or_none(c.eta),
                       "converged": c.converged,
                       "phase_iterations": c.phase_iterations,
                       "error": c.error,
                       "wall_time_s_nondeterministic": c.wall_time}
                      for c in row.cells]})
    with open(out_dir / "table.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    failed = [c for row in rows for c in row.cells
              if c.error is not None or not c.converged]
    log.info("table: %d rows, %d failed cells", len(rows), len(failed))
    return 1 if failed else 0


def cmd_export_matrices(level, out_dir):
    """Write K, M, W of one grid level in MatrixMarket format."""
    if not _is_level(level):
        raise ConfigError(f"level must be a positive integer, got {level}")
    out_dir.mkdir(parents=True, exist_ok=True)
    m = fem.build_mesh(level)
    fem.write_matrix_market(out_dir / "K.mtx", fem.assemble_stiffness(m))
    fem.write_matrix_market(out_dir / "M.mtx", fem.assemble_mass(m))
    fem.write_matrix_market_diagonal(out_dir / "W.mtx",
                                     fem.assemble_lumped_mass(m))
    log.info("exported K, M, W for level %d to %s", level, out_dir)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sparseoc",
        description="solvers for L1-regularized elliptic optimal control")
    levels = ["debug", "info", "warning", "error"]
    parser.add_argument("--log-level", default="warning", choices=levels)
    sub = parser.add_subparsers(dest="command", required=True)

    # accepted before or after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log-level", dest="log_level_sub", default=None,
                        choices=levels)

    p_solve = sub.add_parser("solve", parents=[common],
                             help="run one solver on one level")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True)

    p_table = sub.add_parser("table", parents=[common],
                             help="run a level/solver sweep")
    p_table.add_argument("--config", required=True)
    p_table.add_argument("--out", required=True)

    p_exp = sub.add_parser("export-matrices", parents=[common],
                           help="write K, M, W in MatrixMarket format")
    p_exp.add_argument("--level", type=int, required=True)
    p_exp.add_argument("--out", required=True)
    return parser


def main(argv=None):
    from pathlib import Path
    args = build_parser().parse_args(argv)
    level = getattr(args, "log_level_sub", None) or args.log_level
    logging.basicConfig(level=level.upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "solve":
            return cmd_solve(args.config, Path(args.out))
        if args.command == "table":
            return cmd_table(args.config, Path(args.out))
        if args.command == "export-matrices":
            return cmd_export_matrices(args.level, Path(args.out))
    except (ConfigError, OSError) as exc:   # bad config or unusable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:     # a solver gave up, e.g. a reference solve
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
