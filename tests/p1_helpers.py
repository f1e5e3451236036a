"""
Point evaluation and quadrature of P1 functions, for checks in the tests.

Both are built on the package's own kernels: eval_p1 on
mesh.interpolation_matrix, the one P1 cell-location code, and
integrate_elementwise on mesh._quadrature_points with the degree-5 rule
of experiments.l2_control_error.
"""

import numpy as np

from sparseoc import mesh as fem
from sparseoc.experiments import _QUAD_BARY, _QUAD_W


def eval_p1(mesh, u_interior, x, y):
    """Evaluate the P1 function with interior coefficients u at points (x, y)."""
    x, y = np.broadcast_arrays(x, y)
    P = fem.interpolation_matrix(mesh, x.ravel(), y.ravel())
    return (P @ u_interior).reshape(x.shape)


def integrate_elementwise(mesh, func):
    """Integral of func(x1, x2) over the mesh, degree-5 rule per element."""
    pts, area = fem._quadrature_points(mesh, _QUAD_BARY)
    vals = func(pts[..., 0], pts[..., 1])
    return float(area @ (vals @ _QUAD_W))
