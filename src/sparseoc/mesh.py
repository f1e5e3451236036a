"""
Uniform P1 triangulations of the unit square and finite element assembly.

The square (0,1)^2 is meshed at level k with grid size h = 2^{-k}: each of the
n^2 cells (n = 2^k) is split along its bottom-left -> top-right diagonal into
two right triangles.  Nodes are ordered row by row (x2-major), all diagonals
point the same way, so every build is reproducible bit for bit.

Homogeneous Dirichlet conditions are imposed by eliminating boundary nodes:
the assembled operators K (stiffness of -Laplace), M (consistent mass) and
W (lumped mass, W_i = integral of the hat function phi_i) act on the
(2^k - 1)^2 interior degrees of freedom only.

Element loops are vectorized over all triangles; the scatter into COO triplets
is private per element, so the assembly is safe to run concurrently per
element block and all public functions are pure.
"""

import numpy as np
import scipy.sparse as sp
from dataclasses import dataclass
from functools import cached_property

from . import linalg


@dataclass(frozen=True)
class Mesh:
    """Uniform Friedrichs-Keller triangulation of the unit square."""

    level: int
    h: float
    nodes: np.ndarray           # (n_nodes, 2) coordinates
    elements: np.ndarray        # (n_elems, 3) node indices, CCW
    interior_mask: np.ndarray   # bool per node
    interior_index: np.ndarray  # node -> interior dof, -1 on the boundary
    n_interior: int

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]


def build_mesh(level):
    """Triangulate (0,1)^2 at grid size h = 2^{-level}."""
    if level < 1:
        raise ValueError(f"mesh level must be >= 1, got {level}")
    n = 2 ** level
    h = 1.0 / n

    side = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(side, side)          # row-major: node id = iy*(n+1) + ix
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    ix, iy = np.meshgrid(np.arange(n), np.arange(n))
    ix, iy = ix.ravel(), iy.ravel()
    bl = iy * (n + 1) + ix
    br = bl + 1
    tl = bl + (n + 1)
    tr = tl + 1
    # lower triangle (bl, br, tr), upper triangle (bl, tr, tl): both CCW
    elements = np.empty((2 * n * n, 3), dtype=np.int64)
    elements[0::2] = np.column_stack([bl, br, tr])
    elements[1::2] = np.column_stack([bl, tr, tl])

    interior_mask = ((nodes[:, 0] > 0.0) & (nodes[:, 0] < 1.0)
                     & (nodes[:, 1] > 0.0) & (nodes[:, 1] < 1.0))
    interior_index = np.full(nodes.shape[0], -1, dtype=np.int64)
    interior_index[interior_mask] = np.arange(interior_mask.sum())

    return Mesh(level=level, h=h, nodes=nodes, elements=elements,
                interior_mask=interior_mask, interior_index=interior_index,
                n_interior=int(interior_mask.sum()))


def _element_geometry(mesh):
    """Edge vectors, signed areas and P1 gradient coefficients per element."""
    p = mesh.nodes[mesh.elements]                   # (ne, 3, 2)
    # b_i, c_i of grad phi_i = (b_i, c_i) / (2A)
    b = p[:, [1, 2, 0], 1] - p[:, [2, 0, 1], 1]     # y_{i+1} - y_{i+2}
    c = p[:, [2, 0, 1], 0] - p[:, [1, 2, 0], 0]     # x_{i+2} - x_{i+1}
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    return b, c, area


def _restrict(A, mesh):
    """Slice a full-mesh operator down to interior dofs."""
    idx = np.flatnonzero(mesh.interior_mask)
    return A[idx][:, idx]


def _assemble_full(mesh, local):
    """Scatter per-element 3x3 blocks `local` (ne,3,3) into a CSR matrix."""
    rows = np.repeat(mesh.elements, 3, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, 3)).ravel()
    A = sp.coo_matrix((local.ravel(), (rows, cols)),
                      shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()
    A.sum_duplicates()
    return A


def assemble_stiffness(mesh):
    """Stiffness matrix of -Laplace on interior dofs (SPD)."""
    b, c, area = _element_geometry(mesh)
    inv4A = 1.0 / (4.0 * area)
    local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    local *= inv4A[:, None, None]
    K = _restrict(_assemble_full(mesh, local), mesh).tocsr()
    K.eliminate_zeros()
    K.sort_indices()
    return K


def assemble_mass(mesh):
    """Consistent P1 mass matrix on interior dofs, exact element
    integration."""
    _, _, area = _element_geometry(mesh)
    base = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    local = area[:, None, None] * base[None, :, :]
    M = _restrict(_assemble_full(mesh, local), mesh).tocsr()
    M.sort_indices()
    return M


def assemble_lumped_mass(mesh, interior_only=True):
    """Lumped mass W_i = integral of phi_i = (patch area)/3, as a vector."""
    _, _, area = _element_geometry(mesh)
    w = np.zeros(mesh.n_nodes)
    np.add.at(w, mesh.elements.ravel(), np.repeat(area / 3.0, 3))
    if interior_only:
        w = w[mesh.interior_mask]
    return w


def _quadrature_points(mesh, bary):
    """Points (ne, q, 2) of a rule with barycentric coordinates bary (q, 3)
    on every element, and the element areas (ne,)."""
    _, _, area = _element_geometry(mesh)
    return bary @ mesh.nodes[mesh.elements], area


# edge-midpoint quadrature on the reference triangle: exact for quadratics
_MIDPOINT_BARY = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
_MIDPOINT_WEIGHTS = np.full(3, 1.0 / 3.0)


def load_vector(mesh, f):
    """Assemble (f, phi_i) on interior dofs by the 3-point edge-midpoint
    rule."""
    pts, area = _quadrature_points(mesh, _MIDPOINT_BARY)    # (ne, 3, 2)
    fvals = f(pts[..., 0], pts[..., 1])                     # (ne, 3)
    # phi_i at quadrature point q equals the barycentric weight
    contrib = fvals @ (_MIDPOINT_WEIGHTS[:, None] * _MIDPOINT_BARY)
    contrib *= area[:, None]
    load = np.zeros(mesh.n_nodes)
    np.add.at(load, mesh.elements.ravel(), contrib.ravel())
    return load[mesh.interior_mask]


def project_field(mesh, f, factorM):
    """L2-projection of f onto the zero-boundary P1 space (coefficients);
    factorM is a factorization of the interior mass matrix."""
    return factorM.solve(load_vector(mesh, f))


def interior_coordinates(mesh):
    """Coordinates of the interior nodes in dof order."""
    return mesh.nodes[mesh.interior_mask]


def full_vector(mesh, u_interior):
    """Extend an interior coefficient vector by zero to all mesh nodes."""
    u = np.zeros(mesh.n_nodes)
    u[mesh.interior_mask] = u_interior
    return u


def interpolation_matrix(mesh, x, y):
    """Sparse P: P @ u is the P1 function with interior coefficients u at
    the points (x, y), 1-D arrays in the closed unit square.  Each point
    takes the barycentric weights of its cell's lower (xi >= eta) or upper
    triangle; on a nested finer mesh P embeds u exactly."""
    n = 2 ** mesh.level
    cx = np.clip(np.floor(x / mesh.h).astype(np.int64), 0, n - 1)
    cy = np.clip(np.floor(y / mesh.h).astype(np.int64), 0, n - 1)
    xi, eta = x / mesh.h - cx, y / mesh.h - cy
    bl = cy * (n + 1) + cx
    nodes = np.stack([bl, bl + 1, bl + n + 2, bl + n + 1], axis=1)
    weights = np.stack([1.0 - np.maximum(xi, eta),
                        np.maximum(xi - eta, 0.0),
                        np.minimum(xi, eta),
                        np.maximum(eta - xi, 0.0)], axis=1).ravel()
    rows = np.repeat(np.arange(len(x)), 4)
    cols = mesh.interior_index[nodes].ravel()
    keep = (cols >= 0) & (weights != 0.0)
    return sp.csr_matrix((weights[keep], (rows[keep], cols[keep])),
                         shape=(len(x), mesh.n_interior))


@dataclass(frozen=True)
class DiscreteProblem:
    """Assembled matrices and data for one grid level of the control problem.

    K, M are SPD on the interior dofs, W holds the lumped-mass weights
    (W_i = row sum of M over all mesh nodes), yd/yc are the projected
    desired-state and source coefficient vectors, and a < 0 < b are the
    control bounds.  The data terms M yc, M yd (read-only), their M-norms,
    the LU factorization of M and the K-solver are computed on first use
    and cached, so every solver run on the problem shares one of each.  A
    problem built by discretize holds the M factorization from the start:
    the L2 projections of yd and yc made it.  K is never factored: factorK
    is a linalg.SineSolver, which needs K to be the mesh's 5-point stencil.
    A problem built with another K must put its own K-solver (for example
    linalg.factorize(K)) into the factorK slot before a solver asks for it.
    """

    K: sp.csr_matrix
    M: sp.csr_matrix
    W: np.ndarray
    yd: np.ndarray
    yc: np.ndarray
    alpha: float
    beta: float
    a: float
    b: float
    h: float

    def __post_init__(self):
        check_params(self.alpha, self.beta, self.a, self.b)

    @property
    def n(self):
        return self.W.shape[0]

    @cached_property
    def Myc(self):
        return _frozen(self.M @ self.yc)

    @cached_property
    def Myd(self):
        return _frozen(self.M @ self.yd)

    # linalg.factorize is looked up at call time, so a wrapped one sees M
    @cached_property
    def factorM(self):
        return linalg.factorize(self.M)

    @cached_property
    def factorK(self):
        return linalg.SineSolver(self.K)

    @cached_property
    def yc_norm(self):
        """||yc||_M."""
        return float(np.sqrt(max(self.yc @ self.Myc, 0.0)))

    @cached_property
    def yd_norm(self):
        """||yd||_M."""
        return float(np.sqrt(max(self.yd @ self.Myd, 0.0)))


def _frozen(v):
    """v made read-only: a cached array is shared by every caller."""
    v.flags.writeable = False
    return v


def check_real(name, value):
    """Reject a bool (JSON true is one) or a non-finite value for name."""
    if isinstance(value, bool) or not np.isfinite(value):
        raise ValueError(f"{name} must be a finite number")


def check_params(alpha, beta, a, b):
    """Reject parameters the control problem is not posed for."""
    for name, value in (("alpha", alpha), ("beta", beta), ("a", a), ("b", b)):
        check_real(name, value)
    if not (alpha > 0 and beta > 0):
        raise ValueError("alpha and beta must be positive")
    if not (a < 0.0 < b):
        raise ValueError("control bounds must satisfy a < 0 < b")


def discretize(mesh, yd_field, yc_field, alpha, beta, a, b):
    """Assemble the DiscreteProblem for given data fields and parameters.

    M is factored once: the L2 projections of the data solve with that
    factorization, and the problem's factorM is the same object.
    """
    M = assemble_mass(mesh)
    K = assemble_stiffness(mesh)
    W = assemble_lumped_mass(mesh)
    factorM = linalg.factorize(M)
    yd = project_field(mesh, yd_field, factorM)
    if yc_field is None:
        yc = np.zeros(mesh.n_interior)
    else:
        yc = project_field(mesh, yc_field, factorM)
    problem = DiscreteProblem(K=K, M=M, W=W, yd=yd, yc=yc,
                              alpha=alpha, beta=beta, a=a, b=b, h=mesh.h)
    # the slot cached_property fills: a dataclasses.replace copy starts
    # without it, so it never solves with the LU of another M
    problem.__dict__["factorM"] = factorM
    return problem


def _fmt(v):
    """Text of one output cell: round-trip scientific notation for floats,
    empty for None, "" and non-finite floats, str() for anything else."""
    if isinstance(v, float):
        return (np.format_float_scientific(v, precision=16, trim="-")
                if np.isfinite(v) else "")
    return "" if v is None else str(v)


def write_matrix_market(path, A):
    """Write a symmetric sparse matrix in MatrixMarket coordinate format
    (1-based), as its lower triangle."""
    A = sp.coo_matrix(A)
    keep = A.row >= A.col
    rows, cols, vals = A.row[keep], A.col[keep], A.data[keep]
    order = np.lexsort((cols, rows))
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{A.shape[0]} {A.shape[1]} {len(vals)}\n")
        for i in order:
            fh.write(f"{rows[i] + 1} {cols[i] + 1} {_fmt(vals[i])}\n")


def write_matrix_market_diagonal(path, w):
    """Write a diagonal operator (vector of weights) in MatrixMarket format."""
    n = len(w)
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{n} {n} {n}\n")
        for i, v in enumerate(w):
            fh.write(f"{i + 1} {i + 1} {_fmt(v)}\n")
