import dataclasses
import numpy as np
import pytest
import scipy.sparse as sp

from sparseoc import linalg, mesh as fem
from sparseoc.experiments import build_example1, build_example2, example2_yd

from p1_helpers import eval_p1, integrate_elementwise


def test_mesh_counts_level1():
    m = fem.build_mesh(1)
    assert m.n_nodes == 9
    assert m.n_elements == 8
    assert m.n_interior == 1


def test_mesh_counts_level2():
    assert fem.build_mesh(2).n_interior == 9


def test_mesh_counts_level3():
    # 2 * (2^3)^2 squares-to-triangles
    assert fem.build_mesh(3).n_elements == 128


def test_mesh_interior_formula(meshes):
    for level in (1, 2, 3, 4, 5):
        m = meshes(level)
        assert m.n_interior == (2 ** level - 1) ** 2


def test_mesh_rejects_bad_level():
    with pytest.raises(ValueError):
        fem.build_mesh(0)
    with pytest.raises(ValueError):
        fem.build_mesh(-2)


def test_element_areas_positive(meshes):
    for level in (1, 3):
        m = meshes(level)
        _, _, area = fem._element_geometry(m)
        assert np.allclose(area, m.h ** 2 / 2.0)


def test_boundary_nodes_masked(meshes):
    m = meshes(3)
    on_bdy = ((m.nodes[:, 0] == 0) | (m.nodes[:, 0] == 1)
              | (m.nodes[:, 1] == 0) | (m.nodes[:, 1] == 1))
    assert not m.interior_mask[on_bdy].any()
    assert m.interior_mask[~on_bdy].all()


def test_stiffness_five_point_stencil(meshes):
    m = meshes(3)
    K = fem.assemble_stiffness(m)
    assert np.allclose(K.diagonal(), 4.0)
    # dense comparison against the finite-difference Laplacian: K = h^2 * A_fd
    nside = 2 ** 3 - 1
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(nside, nside))
    A_fd = (sp.kron(sp.identity(nside), T) + sp.kron(T, sp.identity(nside)))
    assert abs(K - A_fd).max() < 1e-13


def test_stiffness_symmetric(meshes):
    K = fem.assemble_stiffness(meshes(4))
    assert abs(K - K.T).max() == 0.0


def test_mass_entries(meshes):
    m = meshes(4)
    M = fem.assemble_mass(m)
    h2 = m.h ** 2
    assert np.allclose(M.diagonal(), h2 / 2.0)
    off = M - sp.diags(M.diagonal())
    assert np.allclose(off.data, h2 / 12.0)         # all neighbor entries
    # row sum h^2 at nodes whose whole patch is interior
    rs = np.asarray(M.sum(axis=1)).ravel()
    assert np.isclose(rs.max(), h2)


def test_lumped_mass(meshes):
    m = meshes(4)
    W = fem.assemble_lumped_mass(m)
    assert np.allclose(W, m.h ** 2)                 # full 6-triangle patches
    W_all = fem.assemble_lumped_mass(m, interior_only=False)
    assert np.isclose(W_all.sum(), 1.0)             # partition of unity
    assert W.sum() < 1.0
    # row-sum identity with the consistent mass on the interior rows whose
    # patch does not touch the boundary; the other rows lose the entries of
    # their boundary neighbours
    near = np.zeros(len(m.nodes), dtype=bool)
    near[m.elements[~m.interior_mask[m.elements].all(axis=1)]] = True
    inner = ~near[m.interior_mask]
    assert inner.sum() == (2 ** m.level - 3) ** 2
    rs = np.asarray(fem.assemble_mass(m).sum(axis=1)).ravel()
    assert np.allclose(rs[inner], W[inner])
    assert np.all(rs[~inner] < W[~inner])


def test_entry_scaling_with_h(meshes):
    K3, K4 = fem.assemble_stiffness(meshes(3)), fem.assemble_stiffness(meshes(4))
    assert np.isclose(K3.max(), K4.max())           # h-independent for -Lap
    M3, M4 = fem.assemble_mass(meshes(3)), fem.assemble_mass(meshes(4))
    assert np.isclose(M3.diagonal().max() / M4.diagonal().max(), 4.0)
    W3, W4 = fem.assemble_lumped_mass(meshes(3)), fem.assemble_lumped_mass(meshes(4))
    assert np.isclose(W3.max() / W4.max(), 4.0)


def test_norm_equivalence(meshes):
    # v'Mv <= v'Wv <= 4 v'Mv, 1000 random vectors per level
    rng = np.random.default_rng(42)
    for level in range(1, 7):
        m = meshes(level)
        M = fem.assemble_mass(m)
        W = fem.assemble_lumped_mass(m)
        Z = rng.standard_normal((1000, m.n_interior))
        a = np.einsum("ij,ij->i", Z, (M @ Z.T).T)
        b = (Z * Z) @ W
        assert np.all(a <= b * (1 + 1e-12))
        assert np.all(b <= 4.0 * a * (1 + 1e-12))


def test_l1_lumped_bound(meshes):
    # sum W_i |z_i| dominates the integral of |z_h|
    rng = np.random.default_rng(7)
    m = meshes(4)
    W = fem.assemble_lumped_mass(m)
    for _ in range(20):
        z = rng.standard_normal(m.n_interior)
        integral = integrate_elementwise(
            m, lambda x, y: np.abs(eval_p1(m, z, x, y)))
        assert integral <= np.sum(W * np.abs(z)) * (1 + 1e-9)


def test_stiffness_spd(meshes):
    # smallest eigenvalue via inverse power iteration stays positive
    from sparseoc.linalg import factorize
    for level in (2, 3, 4, 5):
        K = fem.assemble_stiffness(fem.build_mesh(level))
        f = factorize(K)
        v = np.ones(K.shape[0]) / np.sqrt(K.shape[0])
        for _ in range(60):
            w = f.solve(v)
            v = w / np.linalg.norm(w)
        lam_min = v @ (K @ v)
        assert lam_min > 0
        # for -Laplace the smallest generalized eigenvalue is ~2 pi^2,
        # so lam_min(K) ~ 2 pi^2 h^2 up to the mass factor
        assert lam_min > 2.0 * np.pi ** 2 * (2.0 ** -level) ** 2 * 0.5


def test_project_zero_and_basis(meshes):
    m = meshes(3)
    factorM = linalg.factorize(fem.assemble_mass(m))
    assert np.allclose(fem.project_field(m, lambda x, y: 0.0 * x, factorM),
                       0.0)
    # f = phi_j reproduces e_j: the midpoint rule is exact for quadratics
    j = m.n_interior // 2
    coeff = np.zeros(m.n_interior)
    coeff[j] = 1.0
    v = fem.project_field(m, lambda x, y: eval_p1(m, coeff, x, y), factorM)
    assert np.abs(v - coeff).max() < 1e-12


def test_projection_second_order(meshes):
    f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    errs = []
    for level in (3, 4, 5):
        m = meshes(level)
        v = fem.project_field(m, f, linalg.factorize(fem.assemble_mass(m)))
        xy = fem.interior_coordinates(m)
        errs.append(np.abs(v - f(xy[:, 0], xy[:, 1])).max())
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0
    assert errs[2] < 2.5e-3


@pytest.mark.parametrize("level", [2, 3, 4])
@pytest.mark.parametrize("example", ["constructed", "stadler"])
def test_data_projections_match_dense_solve(level, example):
    if example == "constructed":
        m, prob, fields = build_example1(level)
        pairs = [(prob.yd, fields["yd"]), (prob.yc, fields["yc"])]
    else:
        m, prob = build_example2(level)
        pairs = [(prob.yd, example2_yd)]
    M = prob.M.toarray()
    for got, field in pairs:
        want = np.linalg.solve(M, fem.load_vector(m, field))
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_replaced_M_gets_its_own_factorization(ex1):
    _, prob, _ = ex1(3)
    doubled = dataclasses.replace(prob, M=2 * prob.M)
    assert doubled.factorM is not prob.factorM
    x = np.random.default_rng(0).standard_normal(prob.n)
    assert np.allclose(doubled.factorM.solve(doubled.M @ x), x,
                       rtol=0, atol=1e-12)


def test_eval_p1_roundtrip(meshes):
    m = meshes(3)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(m.n_interior)
    xy = fem.interior_coordinates(m)
    assert np.allclose(eval_p1(m, u, xy[:, 0], xy[:, 1]), u)
    # boundary evaluates to zero
    assert eval_p1(m, u, np.array([0.0, 1.0]), np.array([0.3, 0.7])).max() == 0.0


def _barycentric_brute_force(mesh, u_interior, x, y):
    """The P1 function at each point, from the barycentric coordinates of
    the first element (in mesh order) that contains it."""
    u = fem.full_vector(mesh, u_interior)
    vals = np.full(len(x), np.nan)
    for i, pt in enumerate(np.column_stack([x, y])):
        for elem in mesh.elements:
            v0, v1, v2 = mesh.nodes[elem]
            l1, l2 = np.linalg.solve(np.column_stack([v1 - v0, v2 - v0]),
                                     pt - v0)
            lam = np.array([1.0 - l1 - l2, l1, l2])
            if lam.min() >= -1e-12:
                vals[i] = lam @ u[elem]
                break
    return vals


@pytest.mark.parametrize("points", ["random", "nested_nodes"])
def test_interpolation_matrix_matches_brute_force(meshes, points):
    m = meshes(2)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(m.n_interior)
    if points == "random":
        # include the square's corners and edges
        xy = np.vstack([rng.random((60, 2)), [[0.0, 0.0], [1.0, 1.0],
                                              [1.0, 0.3], [0.6, 0.0]]])
    else:
        xy = meshes(4).nodes      # every node of a nested finer mesh
    P = fem.interpolation_matrix(m, xy[:, 0], xy[:, 1])
    want = _barycentric_brute_force(m, u, xy[:, 0], xy[:, 1])
    assert P.shape == (len(xy), m.n_interior)
    assert np.all(np.isfinite(want))
    np.testing.assert_allclose(P @ u, want, rtol=0, atol=1e-14)


def test_assembly_deterministic(meshes):
    m1, m2 = fem.build_mesh(3), fem.build_mesh(3)
    K1, K2 = fem.assemble_stiffness(m1), fem.assemble_stiffness(m2)
    assert np.array_equal(K1.data, K2.data)
    assert np.array_equal(K1.indices, K2.indices)
    M1, M2 = fem.assemble_mass(m1), fem.assemble_mass(m2)
    assert np.array_equal(M1.data, M2.data)


def test_matrix_market_export(tmp_path, meshes):
    m = meshes(2)
    K = fem.assemble_stiffness(m)
    path = tmp_path / "K.mtx"
    fem.write_matrix_market(path, K)
    text = path.read_text().splitlines()
    assert text[0] == "%%MatrixMarket matrix coordinate real symmetric"
    n_rows, n_cols, nnz = map(int, text[1].split())
    assert (n_rows, n_cols) == K.shape
    assert nnz == len(text) - 2
    # reconstruct and compare
    A = np.zeros(K.shape)
    for line in text[2:]:
        i, j, v = line.split()
        i, j, v = int(i) - 1, int(j) - 1, float(v)
        A[i, j] = v
        A[j, i] = v
    assert np.abs(A - K.toarray()).max() < 1e-15

    fem.write_matrix_market(tmp_path / "K2.mtx", K)
    assert (tmp_path / "K2.mtx").read_bytes() == path.read_bytes()

    wpath = tmp_path / "W.mtx"
    fem.write_matrix_market_diagonal(wpath, fem.assemble_lumped_mass(m))
    assert wpath.read_text().startswith(
        "%%MatrixMarket matrix coordinate real general")
