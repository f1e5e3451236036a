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

On this mesh K, M and W are the Friedrichs-Keller stencils on the
N x N interior grid (N = 2^k - 1): K the 5-point [-1; -1, 4, -1; -1],
M the 7-point one that couples each dof also to its neighbours along the
diagonals, W the constant h^2.  Their CSR arrays are written straight
from those stencils, with no element loop.  They equal the element sums
bit for bit: h is dyadic, so every element's area h^2/2 and gradient is
exact and each element term is one rounding of a fixed fraction of h^2;
an off-diagonal entry of M adds two equal terms, a diagonal one of M and
an entry of W six, in sequence as a scatter would, and K's entries are
integers.  The load vectors evaluate a field once at every edge midpoint
and sum the midpoint rule per node by np.bincount over the elements.  A
mesh keeps its mass matrix M, which discretize and the fine-grid error
norm read.  The assembly is deterministic and all public functions are
pure.

The L2 projections of the data, M x = (f, phi_i), factor nothing: they run
plain CG on M, whose condition number is at most 4 on every level
(project_field).
"""

import numpy as np
import scipy.sparse as sp
from dataclasses import dataclass
from functools import cached_property
from scipy.sparse.linalg import cg

from . import linalg
from .linalg import _frozen


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

    @cached_property
    def mass(self):
        """The consistent mass matrix on the interior dofs, the 7-point
        stencil of assemble_mass (equal to the element sums bit for bit),
        made on first use and shared, not to be changed: discretize's M,
        and the fine-grid norm of experiments.l2_control_error."""
        return assemble_mass(self)


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


def _sum_equal(term, count):
    """count copies of term added one after another, as a scatter sums a
    matrix entry or node weight from equal element terms; rounding makes
    this differ from count * term."""
    total = term
    for _ in range(count - 1):
        total += term
    return total


def _stencil_matrix(mesh, stencil):
    """CSR matrix on the interior dofs whose row of grid point (r, c) holds
    v at column (r + dr, c + dc) for every ((dr, dc), v) of stencil that
    lands on the N x N interior grid.  stencil lists its offsets in
    increasing column order, so each row comes out sorted."""
    N = 2 ** mesh.level - 1
    offsets = np.array([o for o, _ in stencil])         # (S, 2)
    values = np.array([v for _, v in stencil])
    reach = np.arange(N)[:, None, None] + offsets       # (N, S, 2)
    inside = (reach >= 0) & (reach < N)
    keep = inside[:, None, :, 0] & inside[None, :, :, 1]     # (N, N, S)
    cols = (np.arange(N * N).reshape(N, N, 1)
            + offsets[:, 0] * N + offsets[:, 1])
    indptr = np.zeros(N * N + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=2).ravel(), out=indptr[1:])
    return sp.csr_matrix((np.broadcast_to(values, keep.shape)[keep],
                          cols[keep], indptr), shape=(N * N, N * N))


def _element_area(mesh):
    """h^2/2, the area of every element, exact since h is dyadic."""
    return 0.5 * mesh.h * mesh.h


def assemble_stiffness(mesh):
    """Stiffness matrix of -Laplace on interior dofs (SPD): the 5-point
    stencil [-1; -1, 4, -1; -1].  The element sums give exactly these
    integers, and the diagonal couplings, zero in every right-angled
    element, are no entries."""
    return _stencil_matrix(mesh, [((-1, 0), -1.0), ((0, -1), -1.0),
                                  ((0, 0), 4.0), ((0, 1), -1.0),
                                  ((1, 0), -1.0)])


def assemble_mass(mesh):
    """Consistent P1 mass matrix on interior dofs, exact element
    integration: the 7-point stencil, h^2/12 for the four grid neighbours
    and the two along the diagonals, h^2/2 on the diagonal.  Each entry is
    summed from its element terms (area/12 on the two elements of an
    edge, area/6 on the six of a patch) as the element scatter sums it,
    so it equals that scatter bit for bit."""
    area = _element_area(mesh)
    off = _sum_equal(area / 12.0, 2)
    return _stencil_matrix(mesh, [((-1, -1), off), ((-1, 0), off),
                                  ((0, -1), off),
                                  ((0, 0), _sum_equal(area / 6.0, 6)),
                                  ((0, 1), off), ((1, 0), off),
                                  ((1, 1), off)])


def _scatter_nodes(mesh, contrib):
    """Sum per-element vertex values `contrib` (ne*3 in the order of
    mesh.elements) into the mesh nodes and keep the interior dofs."""
    total = np.bincount(mesh.elements.ravel(), weights=contrib.ravel(),
                        minlength=mesh.n_nodes)
    return total[mesh.interior_mask]


def assemble_lumped_mass(mesh):
    """Interior lumped mass W_i = integral of phi_i = (patch area)/3 = h^2:
    six terms area/3 summed in sequence, as the element scatter sums
    them."""
    area = _element_area(mesh)
    return np.full(mesh.n_interior, _sum_equal(area / 3.0, 6))


def _quadrature_points(mesh, bary):
    """Points (ne, q, 2) of a rule with barycentric coordinates bary (q, 3)
    on every element, and the element areas (ne,), all h^2/2."""
    return (bary @ mesh.nodes[mesh.elements],
            np.full(mesh.n_elements, _element_area(mesh)))


# edge-midpoint quadrature on the reference triangle: exact for quadratics
_MIDPOINT_BARY = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
_MIDPOINT_WEIGHTS = np.full(3, 1.0 / 3.0)


def load_vector(mesh, f):
    """Assemble (f, phi_i) on interior dofs by the 3-point edge-midpoint
    rule.  f is evaluated once at each edge midpoint, on the staggered
    grids of the n(n+1) horizontal, n(n+1) vertical and n^2 diagonal
    edges (n = 2^level), and each element reads the values of its three
    edges; the midpoints are exact dyadic numbers, so an element sees the
    very values a per-element evaluation would give it."""
    n = 2 ** mesh.level
    half = (np.arange(n) + 0.5) * mesh.h
    full = np.arange(n + 1) * mesh.h
    vals = f(np.concatenate([np.tile(half, n + 1), np.tile(full, n),
                             np.tile(half, n)]),
             np.concatenate([np.repeat(full, n), np.repeat(half, n + 1),
                             np.repeat(half, n)]))
    horizontal = vals[:n * (n + 1)].reshape(n + 1, n)
    vertical = vals[n * (n + 1):2 * n * (n + 1)].reshape(n, n + 1)
    diagonal = vals[2 * n * (n + 1):].reshape(n, n)
    # per cell, in the order of _MIDPOINT_BARY: the lower triangle
    # (bl, br, tr) reads its bottom, right and diagonal edges, the upper
    # one (bl, tr, tl) its diagonal, top and left edges
    fvals = np.empty((n, n, 2, 3))
    fvals[:, :, 0, 0] = horizontal[:-1]
    fvals[:, :, 0, 1] = vertical[:, 1:]
    fvals[:, :, 0, 2] = diagonal
    fvals[:, :, 1, 0] = diagonal
    fvals[:, :, 1, 1] = horizontal[1:]
    fvals[:, :, 1, 2] = vertical[:, :-1]
    # phi_i at quadrature point q equals the barycentric weight
    contrib = fvals.reshape(-1, 3) @ (_MIDPOINT_WEIGHTS[:, None]
                                      * _MIDPOINT_BARY)
    contrib *= _element_area(mesh)
    return _scatter_nodes(mesh, contrib)


# relative residual and iteration cap of the projections' CG.  W/4 <= M <= W
# and W = h^2 on every interior node of the uniform mesh bound the condition
# number of M by 4 (a W preconditioner would be a scalar and change no
# iterate), so CG gains a factor of 3 per iteration and needs at most ~33
# for the target on any level
_PROJECTION_RTOL = 1e-15
_PROJECTION_MAX_ITER = 50


def project_field(mesh, f, M):
    """L2-projection of f onto the zero-boundary P1 space (coefficients):
    solves M x = (f, phi_i) by CG to a relative residual of
    _PROJECTION_RTOL.  Raises RuntimeError if it takes more than
    _PROJECTION_MAX_ITER iterations."""
    x, info = cg(M, load_vector(mesh, f), rtol=_PROJECTION_RTOL, atol=0.0,
                 maxiter=_PROJECTION_MAX_ITER)
    if info != 0:
        raise RuntimeError("L2 projection: CG missed its residual target "
                           f"in {_PROJECTION_MAX_ITER} iterations")
    return x


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
    control bounds.  The data terms M yc, M yd, their M-norms, the weights
    1/W, beta W and alpha/2 W (arrays read-only), the LU factorization of
    M and the grid's sine basis are computed on first use and cached, so
    every solver run on the problem shares one of each.  Only the classical
    ADMM solves with M (lam = M^{-1} lam_c), so only it makes factorM; a
    problem from discretize starts without it, since the L2 projections
    of yd and yc solve with M by CG.  The sine basis (sine, a
    linalg.SineGrid) serves every ihADMM u-step and is the K-solver,
    factorK, where K is the mesh's 5-point stencil; a problem built with
    any other K gets an LU of it as factorK instead.
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
    # and a K that is no stencil
    @cached_property
    def factorM(self):
        return linalg.factorize(self.M)

    @cached_property
    def sine(self):
        return linalg.SineGrid(self.M, self.K)

    @cached_property
    def factorK(self):
        if self.sine.stencil_error is None:
            return self.sine
        return linalg.factorize(self.K)

    # the lumped weights in the forms the proximal maps and residuals take,
    # made once per problem instead of once per iteration
    @cached_property
    def W_inv(self):
        """1 / W."""
        return _frozen(1.0 / self.W)

    @cached_property
    def beta_W(self):
        """beta W."""
        return _frozen(self.beta * self.W)

    @cached_property
    def half_alpha_W(self):
        """alpha/2 W."""
        return _frozen(0.5 * self.alpha * self.W)

    @cached_property
    def yc_norm(self):
        """||yc||_M."""
        return float(np.sqrt(max(self.yc @ self.Myc, 0.0)))

    @cached_property
    def yd_norm(self):
        """||yd||_M."""
        return float(np.sqrt(max(self.yd @ self.Myd, 0.0)))


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

    Nothing is factored: the L2 projections of the data solve with M by
    CG (project_field).  M is the mesh's own (Mesh.mass).
    """
    M = mesh.mass
    K = assemble_stiffness(mesh)
    W = assemble_lumped_mass(mesh)
    yd = project_field(mesh, yd_field, M)
    if yc_field is None:
        yc = np.zeros(mesh.n_interior)
    else:
        yc = project_field(mesh, yc_field, M)
    return DiscreteProblem(K=K, M=M, W=W, yd=yd, yc=yc,
                           alpha=alpha, beta=beta, a=a, b=b, h=mesh.h)


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
