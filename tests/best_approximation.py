"""
Best P1 approximation of a reference control, and an EOC check gated by it.

The error order of a discrete control can only be judged on refinement
steps where the best P1 approximation of the reference itself converges at
that order: on a mesh that does not resolve the reference, every P1
function is pre-asymptotic, and its error slope says nothing about the
discretization.  E_best is the L2 error of the L2 projection of the
reference onto the interior (zero-boundary) P1 space of the coarse mesh.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from sparseoc import mesh as fem
from sparseoc.experiments import (_QUAD_BARY, _QUAD_W, compute_eoc,
                                  l2_control_error)


def best_p1_error(mesh, reference, ref_mesh=None):
    """E_best: L2 error of the L2 projection of the reference onto the
    interior P1 space of mesh, measured like `l2_control_error`.

    reference is a callable (its load vector is integrated by the degree-5
    rule that `l2_control_error` uses) or an interior coefficient vector on
    the nested finer grid ref_mesh (projected exactly through the fine mass
    matrix ref_mesh.mass).  Either way the projection minimizes the very
    norm in which E2 is measured, so E_best <= E2 for every discrete
    control.
    """
    if callable(reference):
        pts, area = fem._quadrature_points(mesh, _QUAD_BARY)
        vals = reference(pts[..., 0], pts[..., 1])
        contrib = area[:, None] * ((vals * _QUAD_W) @ _QUAD_BARY)
        load = np.zeros(mesh.n_nodes)
        np.add.at(load, mesh.elements.ravel(), contrib.ravel())
        gram = mesh.mass
        rhs = load[mesh.interior_mask]
    else:
        xy = fem.interior_coordinates(ref_mesh)
        P = fem.interpolation_matrix(mesh, xy[:, 0], xy[:, 1])
        MfP = ref_mesh.mass @ P
        gram = P.T @ MfP
        rhs = MfP.T @ np.asarray(reference)
    coeffs = spsolve(sp.csc_matrix(gram), rhs)
    return l2_control_error(coeffs, reference, mesh, ref_mesh=ref_mesh)


def _fmt_list(values, fmt):
    return [None if v is None else format(v, fmt) for v in values]


@dataclass
class GatedOrder:
    """Order check of errors E2 against best-approximation errors E_best.

    A refinement step is judged when E_best converges on it at least at
    the demanded order; the check passes when E_best <= E2 on every level
    (a guard on the projection), at least two steps are judged, and E2
    reaches the order on each of them.
    """

    levels: list
    errors: list
    best: list
    order: float
    eoc: list
    eoc_best: list
    steps: list          # indices k of the judged steps levels[k] -> levels[k+1]
    best_below: bool
    ok: bool

    def detail(self, fmt=".4f"):
        judged = [f"{self.levels[k]}->{self.levels[k + 1]}" for k in self.steps]
        return (f"E2={_fmt_list(self.errors, fmt)} "
                f"E_best={_fmt_list(self.best, fmt)} "
                f"EOC={_fmt_list(self.eoc, '.3f')} "
                f"EOC_best={_fmt_list(self.eoc_best, '.3f')} "
                f"judged steps (EOC_best >= {self.order}): {judged}"
                f"{'' if self.best_below else ' E_best > E2 somewhere'}")


# An EOC is a difference of logarithms: an exact order-p sequence gives p
# only to a few ulps, so orders are compared with this round-off slack.
EOC_ROUNDOFF = 1e-12


def _reaches(eoc, order):
    return eoc is not None and eoc >= order - EOC_ROUNDOFF


def gated_order(levels, errors, best, order):
    """Judge the EOC of errors on the steps where best converges at order;
    errors and best are listed per mesh level (h = 2^-level)."""
    h = [2.0 ** -level for level in levels]
    eoc = compute_eoc(list(zip(h, errors)))
    eoc_best = compute_eoc(list(zip(h, best)))
    steps = [k for k, x in enumerate(eoc_best) if _reaches(x, order)]
    best_below = all(b <= e * (1.0 + 1e-12) for e, b in zip(errors, best))
    ok = (best_below and len(steps) >= 2
          and all(_reaches(eoc[k], order) for k in steps))
    return GatedOrder(list(levels), list(errors), list(best), order, eoc,
                      eoc_best, steps, best_below, ok)
