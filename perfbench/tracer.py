"""
Spans around calls into sparseoc's public functions, recorded from outside.

Tracer.install() replaces module attributes (and two class methods) with
timing wrappers and uninstall() puts the originals back; no file of the
package changes.  Each span is a tuple (name, start, end, parent, run):
parent is the index of the enclosing open span (-1 at top level) and run
numbers the traced solve it belongs to.  Spans stay in memory until
write() dumps them.

Factorizations and LU solves are attributed to their operator:

    K       the stiffness matrix problem.K
    M       the mass matrix problem.M
    saddle  the 2n x 2n block matrix the direct u-step backend factors
    G       M + sqrt(gamma) K, factored by the PMHSS preconditioner
    pdas    the reduced Newton system of each PDAS iteration

Fill is nnz(L) + nnz(U) of the SuperLU object that the splu binding in
sparseoc.linalg returns; fill_mb counts 8 bytes of value and 4 of index
per entry (computed, not measured).
"""

import collections
import functools
import json
import statistics
import time
import weakref

OPS = ("K", "M", "saddle", "G", "pdas")
BYTES_PER_FILL = 12

# spans whose self time is the u-step saddle layer's own work (the GMRES
# loop and the block algebra around the LU solves), and the solver spans
_SADDLE_LAYER = ("linalg.saddle", "linalg.gmres", "linalg.pmhss")
_SOLVER_SPANS = ("solvers.two_phase", "solvers.ihadmm", "solvers.pdas")


class Tracer:
    """Span recorder that wraps sparseoc's public bindings while installed."""

    def __init__(self):
        self.spans = []
        self.counts = collections.defaultdict(collections.Counter)
        self.run = 0
        self._open = []
        self._ops = weakref.WeakKeyDictionary()
        self._factor_op = None
        self._saved = []
        self.problem = None     # set once built: identifies K and M

    # -- span bookkeeping ------------------------------------------------

    def _begin(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, time.perf_counter(), None, parent, self.run))
        self._open.append(idx)
        return idx

    def _end(self, idx):
        name, start, _, parent, run = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, run)
        self._open.pop()

    def _traced(self, fn, name, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if after is not None:
                after(result)
            return result
        return wrapper

    def count(self, key, amount=1):
        self.counts[self.run][key] += amount

    # -- operator attribution --------------------------------------------

    def _op_of(self, A):
        if self.problem is None:
            return "other"
        if A is self.problem.K:
            return "K"
        if A is self.problem.M:
            return "M"
        for idx in reversed(self._open):
            name = self.spans[idx][0]
            if name == "linalg.saddle":
                return "saddle" if A.shape[0] == 2 * self.problem.n else "G"
            if name == "solvers.pdas":
                return "pdas"
        return "other"

    def _factorize(self, fn):
        @functools.wraps(fn)
        def wrapper(A):
            op = self._op_of(A)
            self._factor_op = op
            idx = self._begin("linalg.factor." + op)
            try:
                fact = fn(A)
            finally:
                self._end(idx)
            self._ops[fact] = op
            self.count("factor_count." + op)
            return fact
        return wrapper

    def _fact_solve(self, fn):
        @functools.wraps(fn)
        def wrapper(fact, rhs):
            idx = self._begin("linalg.solve." + self._ops.get(fact, "other"))
            try:
                return fn(fact, rhs)
            finally:
                self._end(idx)
        return wrapper

    def _splu(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            lu = fn(*args, **kwargs)
            self.count("fill_nnz." + self._factor_op, lu.L.nnz + lu.U.nnz)
            return lu
        return wrapper

    def _gmres_done(self, result):
        stats = result[1]
        self.count("gmres_iters", stats.iterations)
        # only the inexact backend acts on a missed inner target
        self.count("inner_fail_count", not stats.converged)

    # -- install / uninstall ---------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap the bindings until uninstall()."""
        from sparseoc import experiments, linalg, mesh, solvers
        if self._saved:
            raise RuntimeError("tracer already installed")
        t = self._traced
        for attr in ("build_example1", "build_example2"):
            self._patch(experiments, attr,
                        t(getattr(experiments, attr), "experiments.build"))
        self._patch(mesh, "build_mesh", t(mesh.build_mesh, "mesh.build_mesh"))
        for attr in ("assemble_stiffness", "assemble_mass",
                     "assemble_lumped_mass"):
            self._patch(mesh, attr, t(getattr(mesh, attr), "mesh.assemble"))
        self._patch(mesh, "project_field",
                    t(mesh.project_field, "mesh.project"))

        self._patch(linalg, "splu", self._splu(linalg.splu))
        factorize = self._factorize(linalg.factorize)
        mkinv = t(linalg.estimate_mkinv_norm, "linalg.mkinv_norm")
        # solvers holds its own copies of these two bindings
        for owner in (linalg, solvers):
            self._patch(owner, "factorize", factorize)
            self._patch(owner, "estimate_mkinv_norm", mkinv)
        self._patch(linalg.Factorization, "solve",
                    self._fact_solve(linalg.Factorization.solve))
        self._patch(linalg.SaddleSolver, "solve",
                    t(linalg.SaddleSolver.solve, "linalg.saddle"))
        self._patch(linalg, "gmres",
                    t(linalg.gmres, "linalg.gmres", self._gmres_done))
        self._patch(linalg, "pmhss_apply",
                    t(linalg.pmhss_apply, "linalg.pmhss",
                      lambda res: self.count("pmhss_apps")))

        for attr, name in (("admm_residuals_weighted", "prox.residual"),
                           ("kkt_residual_pdas", "prox.residual"),
                           ("grad_f", "prox.rh"),
                           ("dist_subdifferential_g", "prox.rh"),
                           ("z_update_ihadmm", "prox.zstep")):
            self._patch(solvers, attr, t(getattr(solvers, attr), name))

        self._patch(solvers, "solve_two_phase",
                    t(solvers.solve_two_phase, "solvers.two_phase"))
        self._patch(solvers, "solve_ihadmm",
                    t(solvers.solve_ihadmm, "solvers.ihadmm",
                      lambda rep: self.count("ihadmm_iters", rep.iterations)))
        self._patch(solvers, "solve_pdas",
                    t(solvers.solve_pdas, "solvers.pdas",
                      lambda rep: self.count("pdas_iters", rep.iterations)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.problem = None

    def write(self, path):
        """Dump every span as one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c
            for (_, start, end, _, _), c in zip(spans, covered)]


def run_metrics(tracer, run):
    """Per-layer metrics of one traced build-and-solve (a run id)."""
    selfs = self_times(tracer.spans)
    incl = collections.Counter()
    self_by = collections.Counter()
    calls = collections.Counter()
    solve_s = 0.0
    for (name, start, end, parent, r), own in zip(tracer.spans, selfs):
        if r != run:
            continue
        incl[name] += end - start
        self_by[name] += own
        calls[name] += 1
        if parent == -1 and name in _SOLVER_SPANS:
            solve_s += end - start
    counts = tracer.counts[run]

    m = {
        "experiments.build_s": (incl["experiments.build"], "s"),
        "mesh.assemble_s": (incl["mesh.assemble"], "s"),
        "mesh.project_s": (incl["mesh.project"], "s"),
    }
    for op in OPS:
        m[f"linalg.factor_count.{op}"] = (counts[f"factor_count.{op}"], "count")
        m[f"linalg.fill_nnz.{op}"] = (counts[f"fill_nnz.{op}"], "count")
        m[f"linalg.fill_mb.{op}"] = (
            counts[f"fill_nnz.{op}"] * BYTES_PER_FILL / 1e6, "MB")
        m[f"linalg.solve_count.{op}"] = (calls["linalg.solve." + op], "count")
    factor_s = sum(v for k, v in incl.items() if k.startswith("linalg.factor."))
    lu_solve_s = sum(v for k, v in incl.items() if k.startswith("linalg.solve."))
    solver_self = sum(self_by[k] for k in _SOLVER_SPANS)
    iters = counts["ihadmm_iters"] + counts["pdas_iters"]
    m.update({
        "linalg.factor_s": (factor_s, "s"),
        "linalg.factor_s.K": (incl["linalg.factor.K"], "s"),
        "linalg.factor_s.M": (incl["linalg.factor.M"], "s"),
        "linalg.solve_s": (lu_solve_s, "s"),
        "linalg.solve_s.K": (incl["linalg.solve.K"], "s"),
        "linalg.solve_s.M": (incl["linalg.solve.M"], "s"),
        "linalg.saddle_s": (incl["linalg.saddle"], "s"),
        "linalg.saddle_self_s": (sum(self_by[k] for k in _SADDLE_LAYER), "s"),
        "linalg.gmres_iters": (counts["gmres_iters"], "count"),
        "linalg.pmhss_apps": (counts["pmhss_apps"], "count"),
        "linalg.inner_fail_count": (counts["inner_fail_count"], "count"),
        "prox.residual_s": (incl["prox.residual"], "s"),
        "prox.residual_count": (calls["prox.residual"], "count"),
        "prox.rh_s": (incl["prox.rh"], "s"),
        "prox.zstep_s": (incl["prox.zstep"], "s"),
        "solvers.ihadmm_iters": (counts["ihadmm_iters"], "count"),
        "solvers.pdas_iters": (counts["pdas_iters"], "count"),
        "solvers.solve_s": (solve_s, "s"),
        "solvers.ihadmm_s": (incl["solvers.ihadmm"], "s"),
        "solvers.self_s": (solver_self, "s"),
        "solvers.ms_per_iter": (1e3 * solve_s / max(iters, 1), "ms"),
        "trace.coverage": (1.0 - solver_self / solve_s if solve_s else 0.0,
                           "ratio"),
    })
    return m


# counters that must repeat exactly from one solve of a workload to the next
DETERMINISTIC = tuple(
    [f"linalg.{kind}.{op}" for kind in ("factor_count", "fill_nnz",
                                        "solve_count") for op in OPS]
    + ["linalg.gmres_iters", "linalg.pmhss_apps", "solvers.ihadmm_iters",
       "solvers.pdas_iters"])


def combine(per_run):
    """Median of each metric over runs (counters are equal when deterministic)."""
    names = per_run[0].keys()
    return {name: (statistics.median(r[name][0] for r in per_run),
                   per_run[0][name][1]) for name in names}
