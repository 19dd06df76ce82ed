import dataclasses

import numpy as np
import pytest

from fcontact import (
    PointFrame,
    catalog_get,
    check_contact,
    check_f_axioms,
    check_normality,
    d_deform,
    killing_check,
    sample_points,
    structure_at,
)

from .conftest import twice_d_eta_residual, with_field

IDT = 1e-8


def test_axiom_battery_s_structure(s22, s22_points):
    report = check_f_axioms(s22, s22_points)
    assert report.max_residual < IDT
    assert all(report.pass_flags().values())
    assert report.rank_detected == 4
    # frames in place of the points give the identical report
    from_frames = check_f_axioms(s22, [PointFrame(s22, p) for p in s22_points])
    for field in dataclasses.fields(report):
        assert np.array_equal(getattr(report, field.name), getattr(from_frames, field.name)), field.name


def test_axiom_battery_flat(flat, flat_points):
    report = check_f_axioms(flat, flat_points)
    assert report.max_residual < IDT
    assert report.rank_detected == 2


def test_axiom_battery_plain_fixture(flat_plain, flat_points):
    # a metric f-structure with F = 2 d eta: every axiom but the contact condition holds
    report = check_f_axioms(flat_plain, flat_points)
    assert report.r_axioms < IDT and report.r_h_properties < IDT
    assert np.max(report.r_contact) > 0.1


def test_doubled_f_breaks_the_squared_axiom(flat, flat_points):
    doubled = with_field(flat, "f", lambda f, x: 2.0 * f)
    report = check_f_axioms(doubled, flat_points[:3])
    # f^2 = -I + sum xi (x) eta reads 4 f^2 against -proj: off by 3 f^2, on sides of size 4
    assert report.r_f_squared == pytest.approx(0.75)


def test_empty_point_list_rejected(flat):
    with pytest.raises(ValueError):
        check_f_axioms(flat, [])


def test_contact_convention_pinning_s_structure(s22, s22_points):
    assert np.max(check_contact(s22, s22_points)) < IDT
    assert np.min(twice_d_eta_residual(s22, s22_points)) > 0.1


def test_contact_convention_pinning_flat(flat, flat_plain, flat_points):
    assert np.max(check_contact(flat, flat_points)) < IDT
    assert np.min(twice_d_eta_residual(flat, flat_points)) > 0.1
    # the negative control satisfies F = 2 d eta, so the factor 1/2 is what F = d eta reads
    assert np.max(twice_d_eta_residual(flat_plain, flat_points)) < IDT
    assert check_contact(flat_plain, flat_points) == pytest.approx([0.5], abs=0.01)


def test_normality_s_structure(s22, s22_points):
    assert check_normality(s22, s22_points) < IDT


def test_normality_flat_fails(flat, flat_points):
    assert check_normality(flat, flat_points) > 0.1


def test_normality_preserved_by_deformation(s22, s22_points):
    deformed = d_deform(s22, 3.0)
    assert check_normality(deformed, s22_points) < IDT


def test_structure_tensors_basic_identities(s22, s22_points, flat, flat_points):
    for model, points in ((s22, s22_points), (flat, flat_points)):
        for p in points[:4]:
            st = structure_at(model, p)
            # eta_bar(xi_bar) = s
            assert st.eta_bar @ st.xi_bar == pytest.approx(model.s, abs=IDT)
            # F antisymmetric
            assert np.max(np.abs(st.F_mat + st.F_mat.T)) < IDT
            # eta_bar o f = 0 and f xi_bar = 0
            assert np.max(np.abs(st.eta_bar @ st.f_mat)) < IDT
            assert np.max(np.abs(st.f_mat @ st.xi_bar)) < IDT


def test_h_vanishes_on_s_structure(s22, s22_points):
    for p in s22_points[:4]:
        st = structure_at(s22, p)
        assert np.max(np.abs(st.h_mat)) < IDT


def test_h_eigenvalues_flat(flat, flat_points):
    for p in flat_points[:4]:
        st = structure_at(flat, p)
        eigs = np.sort(np.linalg.eigvals(st.h_mat[0]).real)
        assert np.allclose(eigs, [-1.0, 0.0, 1.0], atol=1e-8)


def test_h_operator_properties(flat, flat_points, deformed):
    # g-symmetric, traceless, anticommutes with f, annihilates xi and eta
    for model in [flat, deformed[2.0], deformed[0.5]]:
        for p in flat_points[:4]:
            st = structure_at(model, p)
            for a in range(model.s):
                h = st.h_mat[a]
                gh = st.g_mat @ h
                assert np.max(np.abs(gh - gh.T)) < IDT
                assert abs(np.trace(h)) < IDT
                assert np.max(np.abs(st.f_mat @ h + h @ st.f_mat)) < IDT
                assert np.max(np.abs(h @ st.xi_mat.T)) < IDT
                assert np.max(np.abs(st.eta_mat @ h)) < IDT


def test_product_identities_are_judged_against_their_factors(flat, flat_points):
    # |h| and |xi| are 1e5: roundoff of h xi is about 1e-6, on products of size 1e10
    model = d_deform(flat, 1e-5)
    frame = PointFrame(model, np.stack(flat_points))
    report = check_f_axioms(model, frame)
    h_xi = np.abs(frame.h_all @ frame.xi.swapaxes(1, 2)[:, None]).max()
    scale = np.abs(frame.h_all).max() * np.abs(frame.xi).max()
    assert scale > 1e9
    assert report.h_xi == pytest.approx(h_xi / scale, rel=1e-12)
    assert report.r_h_properties < 1e-14


def test_killing_iff_h_zero(flat, s11, s22, flat_points, s11_points, s22_points):
    cases = [(flat, flat_points), (s11, s11_points), (s22, s22_points)]
    for model, points in cases:
        for a in range(model.s):
            k_res = killing_check(model, a, points)
            h_norm = max(
                float(np.max(np.abs(structure_at(model, p).h_mat[a]))) for p in points
            )
            assert (k_res < IDT) == (h_norm < IDT)


def test_killing_values(s22, s22_points, flat, flat_points):
    assert killing_check(s22, 0, s22_points) < IDT
    assert killing_check(s22, 1, s22_points) < IDT
    assert killing_check(flat, 0, flat_points) > 0.1


@pytest.mark.parametrize("alpha", [-1, 2, 1.0, True])
def test_killing_check_rejects_an_alpha_that_names_no_structure_field(alpha, s22, s22_points):
    # s = 2: -1 would silently read xi_2, 2 is past the end, 1.0 and True are not integers
    with pytest.raises(ValueError, match=r"\[0, 2\)"):
        killing_check(s22, alpha, s22_points[:2])


def test_killing_check_takes_numpy_integers(s22, s22_points):
    assert killing_check(s22, np.int64(1), s22_points[:2]) == killing_check(s22, 1, s22_points[:2])


def test_zero_eta_degenerate_input_reported_not_thrown(flat, flat_points):
    # a broken model is reported through residuals, starting with eta(xi) != 1
    broken = with_field(flat, "eta", lambda eta, x: np.array([[0.0, 0.0, 0.0]], dtype=object))
    report = check_f_axioms(broken, flat_points[:3])
    assert report.r_eta_xi == pytest.approx(1.0)
    assert not report.pass_flags()["eta_xi"]


def test_rank_check_detects_excess_rank(flat, flat_points):
    # replace f by a full-rank matrix: rank residual must trip
    full = with_field(flat, "f", lambda f, x: np.eye(3))
    report = check_f_axioms(full, flat_points[:2])
    assert report.rank_detected == 3
    assert not report.pass_flags()["rank"]


def test_rank_detected_reports_the_worst_point(flat, flat_points):
    # f loses its last row at the first point only: rank 1 there, 2 elsewhere.
    # The row is scaled by x - x_first rather than branched on, because an
    # evaluator may receive every point at once.
    first = flat_points[0]

    def drop_row(f, x):
        f[2, :] = f[2, :] * (x[0] - first[0])
        return f

    report = check_f_axioms(with_field(flat, "f", drop_row), flat_points[:3])
    assert report.rank_detected == 1
    assert not report.pass_flags()["rank"]


def test_frame_of_another_model_rejected(flat, s11, flat_points):
    with pytest.raises(ValueError):
        check_normality(s11, [PointFrame(flat, flat_points[0])])


def test_structure_at_rejects_a_frame_at_another_point():
    model = catalog_get("flat-contact-r3:deformed:2").model
    p1, p2 = sample_points(model, 2, seed=0)
    with pytest.raises(ValueError, match="not at the point given"):
        structure_at(model, p1, PointFrame(model, p2))
    assert np.array_equal(structure_at(model, p2, PointFrame(model, p2)).point, p2)
