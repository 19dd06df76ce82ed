import numpy as np
import pytest

from fcontact import (
    Convention,
    build_s_space_form,
    christoffel,
    d_deform,
    exterior_derivative_1form,
    lie_bracket,
    riemann,
    sample_points,
)
from fcontact.geom import (
    PointFrame,
    metric_compatibility_residual,
    riemann_symmetry_residuals,
)
from fcontact.structure import structure_at

from .oracles import fd_christoffel, fd_dgamma


def test_flat_metric_has_zero_connection_and_curvature(flat, flat_points):
    for p in flat_points[:3]:
        assert np.max(np.abs(christoffel(flat, p).gamma)) == 0.0
        data = riemann(flat, p)
        assert np.max(np.abs(data.riemann31)) < 1e-10
        assert np.max(np.abs(data.ricci_op)) < 1e-10


def test_christoffel_matches_finite_differences_at_origin(s11):
    p = np.zeros(3)
    gamma = christoffel(s11, p).gamma
    assert np.max(np.abs(gamma - fd_christoffel(s11, p))) < 1e-6


def test_christoffel_matches_finite_differences_r5():
    model = build_s_space_form(2, 1)
    p = np.zeros(5)
    gamma = christoffel(model, p).gamma
    assert np.max(np.abs(gamma - fd_christoffel(model, p))) < 1e-6


@pytest.mark.parametrize("seed", [3, 7])
def test_christoffel_matches_finite_differences_deformed(flat, seed):
    model = d_deform(flat, 2.0)
    (p,) = sample_points(model, 1, seed=seed)
    gamma = christoffel(model, p).gamma
    assert np.max(np.abs(gamma - fd_christoffel(model, p))) < 1e-6


def test_christoffel_matches_fd_on_all_catalog_entries():
    from fcontact import catalog_get

    for key in ("flat-contact-r3", "s-space-form:1,1", "s-space-form:2,2",
                "flat-contact-r3:deformed:2", "flat-contact-r3:deformed:0.5"):
        model = catalog_get(key).model
        for p in sample_points(model, 3, seed=11):
            gamma = christoffel(model, p).gamma
            assert np.max(np.abs(gamma - fd_christoffel(model, p))) < 1e-5, key


def test_dgamma_matches_finite_differences(flat):
    model = d_deform(flat, 3.0)
    (p,) = sample_points(model, 1, seed=5)
    frame = PointFrame(model, p)
    assert np.max(np.abs(frame.dgamma - fd_dgamma(model, p))) < 1e-6


def test_torsion_free(s22, s22_points):
    for p in s22_points:
        gamma = christoffel(s22, p).gamma
        assert np.max(np.abs(gamma - np.einsum("kij->kji", gamma))) < 1e-12


def test_metric_compatibility(flat, s11, s22, deformed, flat_points, s11_points, s22_points):
    cases = [(flat, flat_points), (s11, s11_points), (s22, s22_points)]
    cases += [(m, flat_points) for m in deformed.values()]
    for model, points in cases:
        for p in points[:4]:
            assert metric_compatibility_residual(model, p) < 1e-8


def test_riemann_symmetries_and_bianchi(s22, s22_points, deformed, flat_points):
    for model, points in [(s22, s22_points), (deformed[2.0], flat_points)]:
        for p in points[:4]:
            res = riemann_symmetry_residuals(model, p)
            assert max(res.values()) < 1e-8, res


def test_ricci_operator_is_g_symmetric(s22, s22_points):
    for p in s22_points[:4]:
        frame = PointFrame(s22, p)
        gq = frame.g @ frame.ricci_op
        assert np.max(np.abs(gq - gq.T)) < 1e-10


def test_sectional_curvature_of_xi_planes_is_one(s22, s22_points):
    # unit X in L: g(R(X, xi_a) xi_a, X) = 1 on the S-structure
    from .conftest import unit_section

    for p in s22_points[:3]:
        frame = PointFrame(s22, p)
        st = structure_at(s22, p, frame)
        X = unit_section(s22, p, seed=4)
        for a in range(s22.s):
            val = frame.curvature_operator(X, st.xi_mat[a], st.xi_mat[a]) @ frame.g @ X
            assert val == pytest.approx(1.0, abs=1e-8)


def test_lie_bracket_coordinate_fields_commute():
    dx = lambda x: np.array([1.0, 0.0], dtype=object)
    dy = lambda x: np.array([0.0, 1.0], dtype=object)
    out = lie_bracket(dx, dy, np.array([0.3, -0.4]))
    assert np.allclose(out, 0)


def test_lie_bracket_hand_oracle():
    # A = x^2 d/dy, B = d/dx on R^2: [A, B] = -2x d/dy
    A = lambda x: np.array([0.0, x[0] ** 2], dtype=object)
    B = lambda x: np.array([1.0, 0.0], dtype=object)
    p = np.array([1.7, 0.2])
    assert np.allclose(lie_bracket(A, B, p), [0.0, -2 * 1.7])


def test_lie_bracket_structure_fields_commute(s22, s22_points):
    out = lie_bracket(s22.xi_fields[0], s22.xi_fields[1], s22_points[0])
    assert np.allclose(out, 0)


def test_exterior_derivative_constant_form(flat):
    model = flat
    const_eta = lambda x: np.array([0.25, -1.0, 3.0], dtype=object)
    import dataclasses

    m = dataclasses.replace(model, eta_fields=(const_eta,))
    d = exterior_derivative_1form(m, 0, np.array([0.1, 0.2, 0.3]), Convention.PLAIN)
    assert np.allclose(d, 0)


def test_exterior_derivative_hand_oracle(flat_plain):
    # eta = cos z dx + sin z dy at z = 0: (d eta)_zy = 1, (d eta)_zx = 0 (PLAIN)
    p = np.zeros(3)
    d = exterior_derivative_1form(flat_plain, 0, p, Convention.PLAIN)
    assert d[2, 1] == pytest.approx(1.0)
    assert d[2, 0] == pytest.approx(0.0)
    assert np.max(np.abs(d + d.T)) < 1e-12


def test_exterior_derivative_equals_F_under_declared_convention(s22, s22_points):
    for p in s22_points[:5]:
        frame = PointFrame(s22, p)
        F = frame.g @ frame.f
        for a in range(s22.s):
            d = exterior_derivative_1form(s22, a, p, Convention.HALF)
            assert np.max(np.abs(F - d)) < 1e-8


def test_sample_points_deterministic_and_in_box(s22):
    pts1 = sample_points(s22, 50, seed=9)
    pts2 = sample_points(s22, 50, seed=9)
    assert all(np.array_equal(a, b) for a, b in zip(pts1, pts2))
    box = s22.domain_box
    arr = np.array(pts1)
    assert np.all(arr >= box[:, 0]) and np.all(arr <= box[:, 1])


def test_sample_points_single(flat):
    (p,) = sample_points(flat, 1, seed=0)
    assert p.shape == (3,)


def test_sample_points_large_batch_in_box(flat):
    arr = np.array(sample_points(flat, 10_000, seed=13))
    assert np.all(np.abs(arr) <= 1.0)


def test_malformed_domain_box_raises(flat):
    import dataclasses

    bad = dataclasses.replace(flat, domain_box=np.array([[1.0, -1.0]] * 3))
    with pytest.raises(ValueError):
        sample_points(bad, 3, seed=0)


def test_degenerate_metric_error():
    import dataclasses

    from fcontact.errors import DegenerateMetricError

    model = build_s_space_form(1, 1)
    singular = dataclasses.replace(model, metric_field=lambda x: np.zeros((3, 3)))
    with pytest.raises(DegenerateMetricError):
        christoffel(singular, np.zeros(3))
    near = dataclasses.replace(model, metric_field=lambda x: np.diag([1.0, 1.0, 1e-12]))
    with pytest.raises(DegenerateMetricError, match="condition number"):
        christoffel(near, np.zeros(3))
    # a small but well-conditioned metric is fine
    scaled = dataclasses.replace(model, metric_field=lambda x: 1e-6 * np.eye(3))
    assert np.max(np.abs(christoffel(scaled, np.zeros(3)).gamma)) == 0.0
