import numpy as np
import pytest

from sparseoc import mesh as fem
from sparseoc.experiments import build_example2, l2_control_error

from best_approximation import best_p1_error, gated_order
from p1_helpers import eval_p1

LEVELS = (3, 4, 5, 6)
H = [2.0 ** -k for k in LEVELS]


def test_nested_interpolation_is_exact(meshes):
    # the interpolation matrix at the fine nodes embeds the coarse hats: their
    # fine Galerkin mass is the coarse mass matrix
    coarse, fine = meshes(3), meshes(5)
    xy = fem.interior_coordinates(fine)
    P = fem.interpolation_matrix(coarse, xy[:, 0], xy[:, 1])
    M = fem.assemble_mass(coarse)
    gram = P.T @ fem.assemble_mass(fine) @ P
    assert abs(gram - M).max() <= 1e-14 * abs(M).max()


def test_p1_function_has_zero_best_error(meshes):
    coarse, fine = meshes(3), meshes(6)
    u = np.random.default_rng(7).standard_normal(coarse.n_interior)
    xy = fem.interior_coordinates(fine)
    on_fine = eval_p1(coarse, u, xy[:, 0], xy[:, 1])
    scale = l2_control_error(np.zeros(coarse.n_interior), on_fine, coarse,
                             ref_mesh=fine)
    assert best_p1_error(coarse, on_fine, ref_mesh=fine) <= 1e-12 * scale
    analytic = best_p1_error(coarse, lambda x, y: eval_p1(coarse, u, x, y))
    assert analytic <= 1e-12 * scale


def test_best_error_is_below_the_nodal_interpolant(ex1, meshes):
    m, _, fields = ex1(3)
    u_star = fields["u_star"]
    xy = fem.interior_coordinates(m)
    nodal = u_star(xy[:, 0], xy[:, 1])
    assert best_p1_error(m, u_star) < l2_control_error(nodal, u_star, m)
    fine = meshes(5)
    ref = np.random.default_rng(5).standard_normal(fine.n_interior)
    coarse_nodal = eval_p1(fine, ref, xy[:, 0], xy[:, 1])
    assert best_p1_error(m, ref, ref_mesh=fine) < l2_control_error(
        coarse_nodal, ref, m, ref_mesh=fine)


def test_fine_grid_errors_assemble_the_mass_once_per_mesh(monkeypatch):
    # discretize, l2_control_error and best_p1_error all read the
    # reference mesh's cached mass matrix, and the errors are those of a
    # fresh assembly, bit for bit
    calls = []
    assemble = fem.assemble_mass
    monkeypatch.setattr(fem, "assemble_mass",
                        lambda m: calls.append(m) or assemble(m))
    fine, prob = build_example2(5)
    assert prob.M is fine.mass and calls == [fine]
    coarse = fem.build_mesh(3)
    u = np.random.default_rng(3).standard_normal(coarse.n_interior)
    xy = fem.interior_coordinates(fine)
    P = fem.interpolation_matrix(coarse, xy[:, 0], xy[:, 1])
    diff = prob.yd - P @ u
    M = assemble(fine)
    assert l2_control_error(u, prob.yd, coarse, ref_mesh=fine) \
        == float(np.sqrt(diff @ (M @ diff)))
    best_p1_error(coarse, prob.yd, ref_mesh=fine)
    assert calls == [fine]


def _best(order):
    return [0.5 * h ** order for h in H]


def test_order_one_sequence_passes():
    gate = gated_order(LEVELS, [2.0 * h for h in H], _best(1.0), 1.0)
    assert gate.ok
    assert gate.steps == [0, 1, 2]
    assert "judged steps" in gate.detail()


@pytest.mark.parametrize("errors", [
    [0.3] * 4,                                   # stalled
    [0.31, 0.3, 0.29, 0.28],                     # nearly stalled
    [h ** 0.5 for h in H],                       # order 1/2
    [2 * H[0], 2 * H[1], 2 * H[2], 2 * H[2]],    # stalls on the last step
])
def test_sequence_below_the_order_fails(errors):
    gate = gated_order(LEVELS, errors, _best(1.0), 1.0)
    assert gate.best_below and len(gate.steps) == 3
    assert not gate.ok


def test_fewer_than_two_judged_steps_fails():
    # the best approximation converges at order 1 on the last step only
    best = [0.1, 0.09, 0.08, 0.04]
    gate = gated_order(LEVELS, [2.0 * h for h in H], best, 1.0)
    assert gate.steps == [2]
    assert not gate.ok


def test_best_error_above_the_discrete_error_fails():
    errors = [2.0 * h for h in H]
    best = [e * 1.01 for e in errors]
    gate = gated_order(LEVELS, errors, best, 1.0)
    assert not gate.best_below
    assert not gate.ok
