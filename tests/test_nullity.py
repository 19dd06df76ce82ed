import dataclasses
import re
import warnings

import numpy as np
import pytest

from fcontact import (
    NotApplicableError,
    PointFrame,
    catalog_get,
    catalog_list,
    check_curvature_model,
    check_f_axioms,
    check_rf_identity,
    check_ricci_model,
    check_splitting_lemma,
    f_sectional,
    fit_gssf,
    fit_nullity,
    fit_trans_s,
    h_spectrum,
    predict_deformed_nullity,
    sample_H_constancy,
    sample_points,
    spectrum_residuals,
    verify_r_xi,
)
from fcontact.errors import InsufficientSampleError, InvalidSectionError

from .conftest import on_pairs, section_defect, unit_section as section, with_field

FIT_TOL = 1e-6


# -- fit_nullity -------------------------------------------------------------


def test_fit_flat_is_zero_zero(flat, flat_points, flat_fit):
    frames = [PointFrame(flat, p) for p in flat_points]
    assert fit_nullity(flat, frames) == flat_fit
    # the sample count and rng of the sampled fit are still accepted, and unused
    assert fit_nullity(flat, frames, 7, rng=np.random.default_rng(1)) == flat_fit
    assert flat_fit.kappa == pytest.approx(0.0, abs=FIT_TOL)
    assert flat_fit.mu_determined
    assert flat_fit.mu == pytest.approx(0.0, abs=FIT_TOL)
    assert flat_fit.residual < FIT_TOL


@pytest.mark.parametrize("a", [0.5, 0.75, 2.0, 3.0])
def test_fit_matches_deformation_prediction(a, deformed_fits):
    fit = deformed_fits[a]
    pred = predict_deformed_nullity(a, s=1)
    assert fit.kappa == pytest.approx(pred.kappa, abs=FIT_TOL)
    assert fit.mu == pytest.approx(pred.mu, abs=FIT_TOL)
    assert fit.residual < FIT_TOL


def test_fit_s_structure_kappa_one_mu_free(s22_fit):
    assert s22_fit.kappa == pytest.approx(1.0, abs=FIT_TOL)
    assert not s22_fit.mu_determined
    assert s22_fit.mu is None
    assert s22_fit.residual < FIT_TOL


def test_kappa_never_exceeds_one(flat_fit, s22_fit, deformed_fits):
    for fit in [flat_fit, s22_fit, *deformed_fits.values()]:
        assert fit.kappa <= 1.0 + FIT_TOL


def test_fit_requires_nonvanishing_eta_terms(flat, flat_points):
    # zero out the structure one-forms: the kappa column collapses
    broken = with_field(flat, "eta", lambda eta, x: np.array([[0.0, 0.0, 0.0]], dtype=object))
    with pytest.raises(InsufficientSampleError):
        fit_nullity(broken, flat_points)


@pytest.mark.parametrize("key", ["s-space-form:2,2:deformed:1e-10", "s-space-form:3,3:deformed:1e-10"])
def test_column_test_is_free_of_scale(key):
    # eta, and with it the whole nullity design, is of size 1e-10 here: the
    # columns are judged against the size of their factors, not against 1
    model = catalog_get(key).model
    fit = fit_nullity(model, sample_points(model, 5, seed=0))
    assert fit.kappa == pytest.approx(1.0, abs=1e-5)
    assert not fit.mu_determined and fit.mu is None


# -- the transposed identity --------------------------------------------------


def test_r_xi_identity_deformed(deformed, deformed_fits, flat_points):
    assert verify_r_xi(deformed[2.0], deformed_fits[2.0], flat_points) < FIT_TOL


def test_r_xi_identity_s_structure(s22, s22_fit, s22_points):
    assert verify_r_xi(s22, s22_fit, s22_points) < FIT_TOL


def test_r_xi_identity_detects_wrong_kappa(deformed, deformed_fits, flat_points):
    fit = deformed_fits[2.0]
    wrong = dataclasses.replace(fit, kappa=fit.kappa + 0.1)
    assert verify_r_xi(deformed[2.0], wrong, flat_points) > 1e-2


# -- h spectrum ---------------------------------------------------------------


def plus_projector(model, fit, p):
    """``P+ = 1/2 (P_L + h / lam)``, the projector onto ``L_+`` at ``p``."""
    fr = PointFrame(model, p)
    return 0.5 * (fr.h / fit.lam - fr.f2)


def test_spectrum_flat(flat, flat_fit, flat_points):
    spec = h_spectrum(flat, flat_fit, flat_points[0])
    assert spec.lam == pytest.approx(1.0, abs=FIT_TOL)
    assert np.allclose(np.sort(spec.eigenvalues), [-1.0, 1.0], atol=FIT_TOL)
    assert spec.eigenvalue_residual < 1e-8
    p_plus = plus_projector(flat, flat_fit, flat_points[0])
    assert np.max(np.abs(p_plus @ p_plus - p_plus)) < 1e-8


def test_spectrum_deformed_a2(deformed, deformed_fits, flat_points):
    model, fit, p = deformed[2.0], deformed_fits[2.0], flat_points[0]
    spec = h_spectrum(model, fit, p)
    assert spec.lam == pytest.approx(0.5, abs=FIT_TOL)
    assert np.allclose(np.abs(spec.eigenvalues), 0.5, atol=FIT_TOL)
    from_frame = h_spectrum(model, fit, PointFrame(model, p))
    for field in dataclasses.fields(spec):
        assert np.array_equal(getattr(spec, field.name), getattr(from_frame, field.name)), field.name


def test_spectrum_residuals_over_a_batch_are_the_worst_point(deformed, deformed_fits, s22, s22_fit,
                                                              flat_points, s22_points):
    # on these models both sides stay below 1, so each point is judged on the same scale
    for model, fit, points in ((deformed[2.0], deformed_fits[2.0], flat_points), (s22, s22_fit, s22_points)):
        bogus = dataclasses.replace(fit, kappa=fit.kappa - 0.01)
        for f in (fit, bogus):
            per_point = [h_spectrum(model, f, p) for p in points]
            assert spectrum_residuals(f, PointFrame(model, np.stack(points))) == (
                max(spec.eigenvalue_residual for spec in per_point),
                max(spec.h_equal_residual for spec in per_point),
            )


def test_spectrum_s_case(s22, s22_fit, s22_points):
    spec = h_spectrum(s22, s22_fit, s22_points[0])
    assert spec.lam is None
    assert spec.eigenvalue_residual < 1e-8
    assert spec.h_equal_residual < 1e-8


def test_spectrum_inconsistency_error(flat, flat_fit, s22, s22_fit, flat_points, s22_points):
    # h^2 = (kappa - 1) f^2 fails for kappa = 1 with h != 0 (|h^2| = 1 on the
    # flat structure) and for kappa > 1 with h = 0
    bogus = dataclasses.replace(flat_fit, kappa=1.0, lam=None)
    spec = h_spectrum(flat, bogus, flat_points[0])
    assert spec.lam is None
    assert spec.eigenvalue_residual == pytest.approx(1.0)
    above = dataclasses.replace(s22_fit, kappa=1.01)
    assert h_spectrum(s22, above, s22_points[0]).eigenvalue_residual > 1e-3


# -- R(X, Y) f Z expansion ----------------------------------------------------


@pytest.mark.parametrize("a", [0.5, 2.0, 3.0])
def test_rf_identity_deformed(a, deformed, deformed_fits, flat_points):
    assert check_rf_identity(deformed[a], deformed_fits[a], flat_points) < FIT_TOL


def test_rf_identity_s_structure(s22, s22_fit, s22_points):
    assert check_rf_identity(s22, s22_fit, s22_points) < FIT_TOL


def test_rf_identity_xi_slot(deformed, deformed_fits, flat_points):
    # Z = xi: f Z = 0, so the expansion's right-hand side must vanish for every X, Y
    model, fit = deformed[2.0], deformed_fits[2.0]
    from fcontact.nullity import _rf_sides

    for p in flat_points[:4]:
        fr = PointFrame(model, p)  # a one-point frame: sides [q, l, k] on the pairs i < j
        lhs, rhs = _rf_sides(fr, fit.kappa, fit.mu_effective)
        assert lhs.shape == rhs.shape == (3, 3, 3)
        assert np.max(np.abs(lhs @ fr.xi[0])) < 1e-12
        assert np.max(np.abs(rhs @ fr.xi[0])) < FIT_TOL


# -- Ricci model ---------------------------------------------------------------


@pytest.mark.parametrize("a", [0.5, 2.0])
def test_ricci_model_deformed(a, deformed, deformed_fits, flat_points):
    assert check_ricci_model(deformed[a], deformed_fits[a], flat_points) < FIT_TOL


def test_ricci_model_flat(flat, flat_fit, flat_points):
    assert check_ricci_model(flat, flat_fit, flat_points) < FIT_TOL


def test_ricci_model_rejects_kappa_one(s22, s22_fit, s22_points):
    with pytest.raises(NotApplicableError):
        check_ricci_model(s22, s22_fit, s22_points)


# -- f-sectional curvature -------------------------------------------------------


def test_f_sectional_flat_is_zero(flat, flat_points):
    p = flat_points[0]
    assert f_sectional(flat, p, section(flat, p)) == pytest.approx(0.0, abs=1e-10)


def test_f_sectional_space_form_value(deformed, flat_points):
    p = flat_points[1]
    m = deformed[0.5]
    assert f_sectional(m, p, section(m, p, seed=3)) == pytest.approx(5.0, abs=FIT_TOL)


def test_f_sectional_s_structure(s22, s22_points, s11, s11_points):
    for model, points, expected in ((s22, s22_points, -6.0), (s11, s11_points, -3.0)):
        p = points[0]
        for seed in range(3):
            val = f_sectional(model, p, section(model, p, seed=seed))
            assert val == pytest.approx(expected, abs=FIT_TOL)


def test_f_sectional_rejects_bad_sections(flat, flat_points):
    p = flat_points[0]
    fr = PointFrame(flat, p)
    with pytest.raises(InvalidSectionError):
        f_sectional(flat, p, fr.xi[0])  # not in L
    X = section(flat, p)
    with pytest.raises(InvalidSectionError):
        f_sectional(flat, p, 2.0 * X)  # not unit
    with pytest.raises(InvalidSectionError):
        f_sectional(flat, p, [np.nan, np.nan, np.nan])  # fails every test of a section


@pytest.mark.parametrize("shape", [(2,), (4,), (1, 3)])
def test_f_sectional_rejects_a_section_of_the_wrong_shape(shape, flat, flat_points):
    # a typed error naming both shapes, not numpy's matmul or unpacking error
    named = re.escape(f"X has shape {shape}, expected (3,)")
    with pytest.raises(InvalidSectionError, match=named):
        f_sectional(flat, flat_points[0], np.ones(shape))


def test_H_constancy_deformed(deformed, flat_points):
    rep = sample_H_constancy(deformed[3.0], flat_points[:4], 30, rng=0)
    assert rep.h_spread < FIT_TOL
    assert rep.h_mean == pytest.approx(-20.0 / 9.0, abs=FIT_TOL)


def test_H_constancy_s_structure(s22, s22_points):
    rep = sample_H_constancy(s22, s22_points[:4], 30, rng=0)
    assert rep.h_spread < FIT_TOL
    assert rep.h_mean == pytest.approx(-6.0, abs=FIT_TOL)


def test_H_pure_plus_sections_give_minus_s_kappa_plus_mu(deformed, deformed_fits, flat_points):
    # X in L_+: H(X) = -s (kappa + mu)
    model, fit = deformed[2.0], deformed_fits[2.0]
    rng = np.random.default_rng(0)
    p_plus = plus_projector(model, fit, flat_points[0])
    fr = PointFrame(model, flat_points[0])
    for _ in range(10):
        v = p_plus @ rng.standard_normal(3)
        norm = np.sqrt(v @ fr.g @ v)
        if norm < 1e-6:
            continue
        X = v / norm
        expected = -model.s * (fit.kappa + fit.mu)
        assert f_sectional(model, flat_points[0], X) == pytest.approx(expected, abs=FIT_TOL)


# -- constant-H curvature model ---------------------------------------------------


def test_curvature_model_s22(s22, s22_fit, s22_points):
    rep = sample_H_constancy(s22, s22_points[:4], 20, rng=0)
    assert check_curvature_model(s22, s22_fit, rep.h_mean, s22_points) < FIT_TOL


def test_curvature_model_antisymmetry(s22, s22_fit, s22_points):
    # X = Y: both sides vanish
    fr = PointFrame(s22, s22_points[0])
    X = np.eye(6)[1]
    assert np.max(np.abs(4.0 * np.einsum("lkij,i,j,k->l", fr.riemann31, X, X, np.eye(6)[3]))) < 1e-12


def test_curvature_model_deformed_half_recorded(deformed, deformed_fits, flat_points):
    # n = 1 sits outside the constant-H theorem's hypothesis; the measured
    # residual is recorded behavior of this artifact, not a cited claim.
    r = check_curvature_model(deformed[0.5], deformed_fits[0.5], 5.0, flat_points)
    assert r < FIT_TOL


# -- the H sample against the theorem ------------------------------------------------


def test_space_form_verdict_a_half(deformed, deformed_fits, flat_points):
    # mu = kappa + 1: the splitting formula is constant, H = -s(2 kappa + 1) = 5
    fit = deformed_fits[0.5]
    rep = sample_H_constancy(deformed[0.5], flat_points[:4], 20, rng=0, fit=fit)
    assert fit.mu == pytest.approx(fit.kappa + 1.0, abs=FIT_TOL)
    assert rep.splitting_residual < FIT_TOL
    assert rep.relative_spread < FIT_TOL
    assert rep.h_mean == pytest.approx(-(2.0 * fit.kappa + 1.0), abs=FIT_TOL)
    assert rep.h_mean == pytest.approx(5.0, abs=FIT_TOL)


def test_space_form_verdict_a2_mu_not_kappa_plus_one(deformed, deformed_fits, flat_points):
    # mu = 1, kappa + 1 = 1.75; at n = 1 H is constant anyway, at -s(kappa + mu)
    fit = deformed_fits[2.0]
    rep = sample_H_constancy(deformed[2.0], flat_points[:4], 20, rng=0, fit=fit)
    assert fit.mu - (fit.kappa + 1.0) == pytest.approx(-0.75, abs=FIT_TOL)
    assert rep.splitting_residual < FIT_TOL
    assert rep.relative_spread < FIT_TOL
    assert rep.h_mean == pytest.approx(-(fit.kappa + fit.mu), abs=FIT_TOL)


def test_space_form_verdict_not_applicable_for_s_manifold(s22, s22_fit, s22_points):
    # kappa = 1: no splitting formula; constancy is the relative spread alone
    rep = sample_H_constancy(s22, s22_points[:2], 10, rng=0, fit=s22_fit)
    assert s22_fit.lam is None
    assert rep.splitting_residual is None
    assert rep.relative_spread < FIT_TOL
    assert rep.relative_spread == pytest.approx(rep.h_spread / 6.0, rel=1e-3, abs=1e-15)  # |H| = 6


def test_the_sample_without_a_fit_has_no_splitting_residual(deformed, flat_points):
    rep = sample_H_constancy(deformed[2.0], flat_points[:4], 20, rng=0)
    assert rep.splitting_residual is None


# -- splitting formula ----------------------------------------------------------------


@pytest.mark.parametrize("a", [0.75, 2.0, 3.0])
def test_splitting_lemma_deformed(a, deformed, deformed_fits, flat_points):
    rep = sample_H_constancy(deformed[a], flat_points[:4], 100, rng=0, fit=deformed_fits[a])
    assert rep.splitting_residual < FIT_TOL
    # the benchmark's traced name for the same residual
    assert check_splitting_lemma(deformed[a], deformed_fits[a], flat_points[:4], 100, rng=0) == rep.splitting_residual


def test_splitting_constant_when_mu_is_kappa_plus_one(deformed, deformed_fits, flat_points):
    # coefficient s(mu - kappa - 1) vanishes: H(X) = -s(2 kappa + 1) for all X
    rep = sample_H_constancy(deformed[0.5], flat_points, 100, rng=0, fit=deformed_fits[0.5])
    assert rep.splitting_residual < FIT_TOL
    assert rep.relative_spread < FIT_TOL


def test_splitting_rejects_kappa_one(s22, s22_fit, s22_points):
    with pytest.raises(NotApplicableError):
        check_splitting_lemma(s22, s22_fit, s22_points[:1])
    assert sample_H_constancy(s22, s22_points[:1], 10, fit=s22_fit).splitting_residual is None


def test_a_section_dependent_defect_fails_the_splitting_formula_within_the_spread(deformed, deformed_fits, flat_points):
    model, fit = deformed[0.5], deformed_fits[0.5]
    frame = PointFrame(model, np.stack(flat_points[:4]))
    clean = sample_H_constancy(model, frame, 50, rng=0, fit=fit)
    frame.riemann_pairs = frame.riemann_pairs + section_defect(frame, 3e-5)
    rep = sample_H_constancy(model, frame, 50, rng=0, fit=fit)
    assert clean.splitting_residual < 1e-12
    assert rep.relative_spread < FIT_TOL < rep.splitting_residual


def test_gssf_fit_s22(s22, s22_points):
    fit = fit_gssf(s22, s22_points)
    assert fit.residual < FIT_TOL
    assert np.max(fit.f_spread) < FIT_TOL
    assert np.max(fit.condition_residuals) < FIT_TOL
    assert fit.implied_kappa == pytest.approx(1.0, abs=FIT_TOL)
    # classical constants of the standard S-structure with H = -6, s = 2
    assert np.allclose(fit.f_constants, [0.0, -2.0, -1.0, -1.0, -1.0, -1.0, -2.0], atol=FIT_TOL)


def test_gssf_implied_kappa_matches_nullity_fit(s22, s22_points, s22_fit):
    fit = fit_gssf(s22, s22_points)
    assert fit.implied_kappa == pytest.approx(s22_fit.kappa, abs=FIT_TOL)


def test_gssf_rejects_wrong_s(s11, s11_points):
    with pytest.raises(NotApplicableError):
        fit_gssf(s11, s11_points)


@pytest.mark.parametrize("key", ["s-space-form:2,2", "s-space-form:2,2:deformed:3", "s-space-form:2,2:deformed:0.5"])
@pytest.mark.parametrize("planted", [False, True])
def test_gssf_f_spread_matches_a_per_point_lstsq_loop(key, planted):
    from fcontact import nullity as nl

    model = catalog_get(key).model
    frame = PointFrame(model, np.stack(sample_points(model, 6, seed=1)))
    if planted:  # F_1 of the third point's local fit moves by 1e-3: t1 = g(Y, Z)X - g(X, Z)Y is added
        eye, g = np.eye(model.dim), frame.g[2]
        r = frame.riemann_pairs.copy()
        r[2] += 1e-3 * on_pairs(np.einsum("li,jk->lkij", eye, g) - np.einsum("ik,lj->lkij", g, eye))
        frame.riemann_pairs = r
    system = nl._gssf_block(frame)
    design, y = system[..., :-1], system[..., -1]
    local = np.array([np.linalg.lstsq(d, v, rcond=None)[0] for d, v in zip(design, y)])
    want = local.max(axis=0) - local.min(axis=0)
    got = fit_gssf(model, frame).f_spread
    assert np.max(np.abs(got - want)) <= 1e-12
    assert (np.max(want) > 1e-5) == planted


# -- characteristic functions of nabla f ----------------------------------------------------


def test_trans_s_fit_s_structures(s11, s11_points, s22, s22_points):
    for model, points in ((s11, s11_points), (s22, s22_points)):
        fit = fit_trans_s(model, points)
        assert np.allclose(fit.alpha, 1.0, atol=FIT_TOL)
        assert np.allclose(fit.beta, 0.0, atol=FIT_TOL)
        assert fit.residual < FIT_TOL
        assert fit.t421_residual is not None and fit.t421_residual < FIT_TOL


def test_trans_s_fit_fails_on_flat(flat, flat_points):
    fit = fit_trans_s(flat, flat_points)
    assert fit.residual > 1e-2
    assert fit.t421_residual is None  # h != 0: not a Killing structure


# -- cross-cutting invariants ------------------------------------------------------------------


def test_spectral_law_all_kappa_less_one_entries(flat, flat_fit, deformed, deformed_fits, flat_points):
    cases = [(flat, flat_fit)] + [(deformed[a], deformed_fits[a]) for a in deformed]
    for model, fit in cases:
        spec = h_spectrum(model, fit, flat_points[0])
        lam = np.sqrt(1.0 - fit.kappa)
        assert np.max(np.abs(np.abs(spec.eigenvalues) - lam)) < FIT_TOL
        assert spec.h_equal_residual < 1e-8
        assert check_f_axioms(model, flat_points).h_anticommute < 1e-8  # f P+ = P- f


# -- perturbed models ------------------------------------------------------------------------


def test_doubled_f_fails_every_identity(deformed, deformed_fits, flat_points):
    # the nullity condition is homogeneous in f (A scales by 4, B by 2), so a
    # refit absorbs the doubling; the model's own (kappa, mu) = (-3, -2) no
    # longer satisfy it, and the rf and curvature-model expansions fail either way
    model, fit = deformed[0.5], deformed_fits[0.5]
    bad = with_field(model, "f", lambda f, x: 2.0 * np.asarray(f))
    refit = fit_nullity(bad, flat_points)
    assert refit.kappa == pytest.approx(fit.kappa / 4, abs=FIT_TOL)
    assert refit.mu == pytest.approx(fit.mu / 2, abs=FIT_TOL)
    assert abs(refit.kappa - fit.kappa) > 1.0
    assert verify_r_xi(bad, fit, flat_points) > 1e-2
    for f in (fit, refit):
        assert check_rf_identity(bad, f, flat_points) > 1e-2
        assert check_curvature_model(bad, f, 5.0, flat_points) > 1e-2


def test_rf_identity_flags_a_defect_on_one_basis_triple():
    from fcontact import build_s_space_form, sample_points

    model = build_s_space_form(3, 3)
    frame = PointFrame(model, np.stack(sample_points(model, 2, seed=0)))
    fit = fit_nullity(model, frame)
    assert check_rf_identity(model, fit, frame) < FIT_TOL
    # at the first point, R(e_1, e_4)e_2 gains 1e-4 in one component (and R(e_4, e_1)e_2 loses it)
    defect = np.zeros((model.dim,) * 4)
    defect[0, 2, 1, 4] += 1e-4
    defect[0, 2, 4, 1] -= 1e-4
    r = frame.riemann_pairs.copy()
    r[0] += on_pairs(defect)
    frame.riemann_pairs = r
    assert check_rf_identity(model, fit, frame) > 1e-5


@pytest.mark.parametrize("key", [
    *(entry.key for entry in catalog_list()),
    "s-space-form:3,3", "s-space-form:1,7",  # dimension 9
    "flat-contact-r3:deformed:0.5", "s-space-form:2,2:deformed:3",
])
def test_riemann31_is_antisymmetric_in_its_pair(key):
    # the premise of building the curvature, and checking every identity in R(X, Y), on the pairs i < j alone:
    # the (3,1) formula in dgamma on every (i, j) is antisymmetric, and riemann31, the pairs unpacked, equals it
    model = catalog_get(key).model
    fr = PointFrame(model, np.stack(sample_points(model, 5, seed=3)))
    gamma, dgamma = fr.gamma, fr.dgamma
    r = (np.einsum("pljki->plkij", dgamma) - np.einsum("plikj->plkij", dgamma)
         + np.einsum("plim,pmjk->plkij", gamma, gamma) - np.einsum("pljm,pmik->plkij", gamma, gamma))
    scale = max(1.0, np.max(np.abs(r)))
    assert np.max(np.abs(r + r.swapaxes(-1, -2))) <= 1e-13 * scale
    assert np.max(np.abs(fr.riemann31 - r)) <= 1e-13 * scale


@pytest.mark.parametrize("served", [False, True])
def test_a_defect_on_one_pair_fails_every_identity_in_R(served):
    # s = 2, so that the seven-function ansatz applies too
    from fcontact import build_s_space_form

    model = build_s_space_form(2, 2)
    frame = PointFrame(model, np.stack(sample_points(model, 3, seed=5)))
    fit = fit_nullity(model, frame)
    H = -3.0 * model.s

    def residuals():
        return {
            "nullity": fit_nullity(model, frame).residual,
            "rf": check_rf_identity(model, fit, frame),
            "curvature-model": check_curvature_model(model, fit, H, frame),
            "gssf": fit_gssf(model, frame).residual,
        }

    if served:  # the frame has served every check before its curvature is replaced
        assert max(residuals().values()) < FIT_TOL
    # at the second point, R(e_1, e_3)e_z1 gains 1e-4 in one component and R(e_3, e_1)e_z1 loses it:
    # the nullity condition reads R(X, Y) xi, and xi_alpha lies along e_z
    defect = np.zeros((model.dim,) * 4)
    defect[0, 4, 1, 3] += 1e-4
    defect[0, 4, 3, 1] -= 1e-4
    r = frame.riemann_pairs.copy()
    r[1] += on_pairs(defect)
    frame.riemann_pairs = r
    for name, residual in residuals().items():
        assert residual > 1e-5, name


# -- batched evaluation ----------------------------------------------------------


@pytest.mark.parametrize("key", ["s-space-form:3,3", "flat-contact-r3:deformed:0.5"])
def test_f_sectional_contraction_matches_the_five_operand_formula(key):
    from fcontact import catalog_get, sample_points
    from fcontact import nullity as nl

    model = catalog_get(key).model
    frame = PointFrame(model, np.stack(sample_points(model, 3, seed=4)))
    X = np.concatenate([nl._block_sections(np.random.default_rng(5 + i), frame.f2[i:i + 1], frame.g[i:i + 1], 50)
                        for i in range(3)])
    fX = X @ frame.f.swapaxes(-1, -2)
    want = np.einsum("pijkl,pni,pnj,pnk,pnl->pn", frame.riemann40, X, fX, fX, X)
    got = nl._f_sectional_rows(frame, X)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def _sample_H_per_point(model, points, sections, rng):
    """``sample_H_constancy`` as a loop over points: each point draws its
    sections and evaluates them, in row blocks of ``_BLOCK_ENTRIES // dim^2``,
    before the next point draws."""
    from fcontact import nullity as nl
    from fcontact.jets import _outer

    fr, rng, dim2 = PointFrame(model, np.stack(points)), np.random.default_rng(rng), model.dim**2
    fr.riemann_pairs, fr.f2  # over the batch, as the sampler reads them
    rows = nl._BLOCK_ENTRIES // dim2
    a, b = nl._pairs(model.dim).T
    values = []
    for i in range(len(points)):
        one = fr[i]
        X = nl._block_sections(rng, one.f2[None], one.g[None], sections)[0]
        r = one.riemann_pairs.reshape(len(a), dim2)
        for start in range(0, len(X), rows):
            x = X[start:start + rows]
            fx = x @ one.f.T
            u, w = _outer(x @ one.g, fx).reshape(-1, dim2), x[:, a] * fx[:, b] - x[:, b] * fx[:, a]
            values.append(np.einsum("nk,nk->n", w @ r, u))
    arr = np.concatenate(values)
    return float(arr.mean()), float(arr.max() - arr.min())


@pytest.mark.parametrize("key", ["s-space-form:3,3", "flat-contact-r3:deformed:0.5"])
@pytest.mark.parametrize("rows", [4096, 50])  # 50: groups of 2 and 5 points, and chunks of one point
def test_sample_H_constancy_matches_the_per_point_loop_bit_for_bit(key, rows, monkeypatch):
    from fcontact import catalog_get, sample_points
    from fcontact import nullity as nl

    model = catalog_get(key).model
    points = sample_points(model, 7, seed=2)
    monkeypatch.setattr(nl, "_BLOCK_ENTRIES", rows * model.dim**2)
    for sections in (1, 10, 20, 120) if rows == 50 else (1, 30, 1500, 5000):
        rep = sample_H_constancy(model, points, sections, rng=9)
        assert (rep.h_mean, rep.h_spread) == _sample_H_per_point(model, points, sections, 9), sections


def test_a_bad_row_in_a_group_of_points_raises(deformed, flat_points):
    from fcontact import nullity as nl

    model = deformed[0.5]
    frame = PointFrame(model, np.stack(flat_points[:3]))
    rng = np.random.default_rng(0)
    X = nl._block_sections(rng, frame.f2, frame.g, 5)
    assert np.all(np.isfinite(nl._f_sectional_rows(frame, X)))
    nan = np.full(3, np.nan)
    for bad in (frame.xi[1, 0] / np.sqrt(frame.g[1] @ frame.xi[1, 0] @ frame.xi[1, 0]), 2.0 * X[1, 2], nan):
        rows = X.copy()
        rows[1, 2] = bad  # not in L, not a unit vector, then NaN, at the second point only
        with pytest.raises(InvalidSectionError):
            nl._f_sectional_rows(frame, rows)


@pytest.mark.parametrize("count", [0, -1])
def test_section_counts_below_one_raise_typed_errors(count, deformed, deformed_fits, flat_points):
    model, fit = deformed[0.5], deformed_fits[0.5]
    with pytest.raises(InsufficientSampleError, match="sections_per_point"):
        sample_H_constancy(model, flat_points[:2], count)
    with pytest.raises(InsufficientSampleError, match="sections_per_point"):
        check_splitting_lemma(model, fit, flat_points[:2], count)


@pytest.mark.parametrize("count", [2.5, True, np.float64(3.0)])
def test_section_counts_that_are_not_integers_raise_typed_errors(count, deformed, deformed_fits, flat_points):
    model, fit = deformed[0.5], deformed_fits[0.5]
    named = f"sections_per_point .* got {re.escape(repr(count))}$"
    with pytest.raises(InsufficientSampleError, match=named):
        sample_H_constancy(model, flat_points[:2], count)
    with pytest.raises(InsufficientSampleError, match=named):
        check_splitting_lemma(model, fit, flat_points[:2], count)


@pytest.mark.parametrize("count", [3, np.int64(3)])
def test_section_counts_take_numpy_integers(count, deformed, flat_points):
    rep = sample_H_constancy(deformed[0.5], flat_points[:2], count, rng=0)
    assert rep == sample_H_constancy(deformed[0.5], flat_points[:2], 3, rng=0)


def test_the_H_sample_holds_less_than_one_lowered_curvature_tensor():
    # the sampler reads riemann_pairs in blocks of sections; it builds no riemann40 (P dim^4 doubles)
    import tracemalloc

    model = catalog_get("s-space-form:3,3").model
    frame = PointFrame(model, np.stack(sample_points(model, 100, seed=0)))
    for name in ("riemann_pairs", "f2", "f", "eta", "g"):  # a warm frame, as a run hands it over
        getattr(frame, name)
    for sections in (1, 100):  # one group of all points, and groups of four
        tracemalloc.start()
        try:
            sample_H_constancy(model, frame, sections, rng=0)
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak_bytes < 100 * model.dim**4 * 8, sections
    assert "riemann40" not in vars(frame) and "riemann31" not in vars(frame)


def test_checks_over_blocks_of_points_match_one_block(
    monkeypatch, deformed, deformed_fits, flat_points, s22, s22_points
):
    from fcontact import nullity as nl

    model, fit = deformed[0.5], deformed_fits[0.5]

    def results():
        frame = PointFrame(model, np.stack(flat_points))
        refit = fit_nullity(model, frame)
        gssf = fit_gssf(s22, s22_points)
        # a solution that fits no point, whose worst row is at the last point
        s22_frame = PointFrame(s22, np.stack(s22_points[::-1]))
        _, _, norms, residual = nl._systems(s22_frame, nl._gssf_block, 7 * nl._pair_entries(s22), peaks=True)
        return [
            *norms, residual(np.linspace(-1.0, 1.0, 7)),
            refit.kappa, refit.mu, refit.residual,
            verify_r_xi(model, fit, frame),
            check_rf_identity(model, fit, frame),
            check_curvature_model(model, fit, 5.0, frame),
            fit_trans_s(model, frame).residual,
            *gssf.f_constants, gssf.residual,
        ]

    whole = results()
    # blocks of 3 points (of one for trans-s), of one for s22
    monkeypatch.setattr(nl, "_BLOCK_ENTRIES", 3 * nl._pair_entries(model))
    for m, points in ((model, flat_points), (s22, s22_points)):
        frame = PointFrame(m, np.stack(points))
        for per_point in (nl._pair_entries(m), 7 * nl._pair_entries(m), m.s * m.dim**3):
            assert len(list(nl._blocks(frame, per_point))) >= 2
    assert results() == pytest.approx(whole, rel=1e-12, abs=1e-15)


def _gz_term(fr, M, N):
    """``g(M X, Z) N Y`` on basis vectors, one term at a time, laid out like ``riemann31``."""
    return np.einsum("ki,lj->lkij", fr.g @ M, N)


def _antisym(t):
    return t - t.swapaxes(-1, -2)


@pytest.mark.parametrize("key", ["s-space-form:2,2", "flat-contact-r3:deformed:0.75"])
def test_summed_curvature_sides_match_the_term_by_term_expansion(key):
    # arbitrary constants, so that every term of both expansions counts
    from fcontact import catalog_get, sample_points
    from fcontact.nullity import NullityFit, _rf_sides

    model = catalog_get(key).model
    s = model.s
    kappa, mu, H = 0.3, -1.7, 2.9
    fit = NullityFit(kappa=kappa, mu=mu, residual=0.0, condition=1.0)
    points = sample_points(model, 3, seed=6)
    want_cm = []
    for p in points:
        fr = PointFrame(model, p)
        f, h, f2, F, eb, xb = fr.f, fr.h, fr.f2, fr.F, fr.eta_bar, fr.xi_bar
        fh = f @ h
        c, k = kappa * f + mu * fh, kappa * f2 - mu * h
        pp, q = h - f2, f + fh
        half = (
            np.einsum("l,j,ki->lkij", xb, eb, fr.g @ c)
            + s * (_gz_term(fr, pp, q) + _gz_term(fr, q, pp))
            + np.einsum("k,i,lj->lkij", eb, eb, c)
        )
        lhs, rhs = _rf_sides(fr, kappa, mu)
        assert np.max(np.abs(lhs - on_pairs(np.einsum("lmij,mk->lkij", fr.riemann31, f)))) <= 1e-13
        want = on_pairs(np.einsum("lm,mkij->lkij", f, fr.riemann31) + _antisym(half))
        assert np.max(np.abs(rhs - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
        half = (
            -(H + 3 * s) * _gz_term(fr, f2, f2)
            + (H - s) * np.einsum("ik,lj->lkij", F, f)
            - 2 * s * (_gz_term(fr, h, h) - _gz_term(fr, fh, fh) - 2 * _gz_term(fr, f2, h) - 2 * _gz_term(fr, h, f2))
            + 4 * np.einsum("i,k,lj->lkij", eb, eb, k)
            - 4 * np.einsum("i,jk,l->lkij", eb, fr.g @ k, xb)
        )
        want_cm.append((4.0 * fr.riemann31, _antisym(half) + 2 * (H - s) * np.einsum("ij,lk->lkij", F, f)))
    from fcontact.tolerances import relative_residual

    want = relative_residual(want_cm)
    assert want > 1e-3  # the constants are wrong for the model, so the residual is not roundoff
    assert check_curvature_model(model, fit, H, points) == pytest.approx(want, rel=1e-12)


def test_block_sections_give_up_only_where_L_has_no_directions():
    from fcontact import nullity as nl

    f2, g = -np.stack([np.diag([1.0, 1.0, 0.0])] * 3), np.stack([np.diag([1e-5, 4e-5, 1.0])] * 3)
    rows = nl._block_sections(np.random.default_rng(0), f2, g, 4)
    assert rows.shape == (3, 4, 3) and np.allclose(np.einsum("pni,pij,pnj->pn", rows, g, rows), 1.0)
    for bad in (0.0, np.nan):  # no directions to draw at the second point of the block, then no numbers
        f2[1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientSampleError, match="could not draw"):
                nl._block_sections(np.random.default_rng(0), f2, g, 4)


def _nullity_oracle(fr):
    """Columns (A, B) and ``R(e_i, e_j) xi_alpha`` of the nullity condition on every
    (alpha, l, i, j), all pairs and every point: rows ``(P s dim^3, 2)`` and ``(P s dim^3,)``."""
    eb, f2, h = fr.eta_bar, fr.f2, fr.h_all
    a = np.einsum("pi,plj->plij", eb, f2)
    a = np.broadcast_to((a - a.swapaxes(-1, -2))[:, None], h.shape[:2] + a.shape[1:])
    b = np.einsum("pj,pali->palij", eb, h)
    b = b - b.swapaxes(-1, -2)
    y = np.einsum("plkij,pak->palij", fr.riemann31, fr.xi)
    return np.stack([a.ravel(), b.ravel()], axis=-1), y.ravel()


def _gssf_oracle(fr):
    """The seven basis tensors of the ansatz, as written in ``_gssf_block``'s docstring,
    and ``R(e_i, e_j)e_k`` at ``[p, l, k, i, j]`` on every pair: ``(rows, 7)`` and ``(rows,)``."""
    g, f, F, eta, xi = fr.g, fr.f, fr.F, fr.eta, fr.xi
    eye = np.eye(fr.model.dim)
    cols = [
        np.einsum("pjk,li->plkij", g, eye) - np.einsum("pik,lj->plkij", g, eye),
        np.einsum("pik,plj->plkij", F, f) - np.einsum("pjk,pli->plkij", F, f) + 2 * np.einsum("pij,plk->plkij", F, f),
    ]
    for a, b in ((0, 0), (1, 1), (0, 1), (1, 0)):
        ea, eb, xb = eta[:, a], eta[:, b], xi[:, b]
        cols.append(
            np.einsum("pi,pk,lj->plkij", ea, eb, eye) - np.einsum("pj,pk,li->plkij", ea, eb, eye)
            + np.einsum("pik,pj,pl->plkij", g, ea, xb) - np.einsum("pjk,pi,pl->plkij", g, ea, xb)
        )
    e1, e2 = eta[:, 0], eta[:, 1]
    w = np.einsum("pi,pj->pij", e1, e2)
    cols.append(np.einsum("pij,plk->plkij", w - w.swapaxes(1, 2),
                          np.einsum("pk,pl->plk", e2, xi[:, 0]) - np.einsum("pk,pl->plk", e1, xi[:, 1])))
    return np.stack([c.ravel() for c in cols], axis=-1), fr.riemann31.ravel()


def _trans_s_oracle(fr):
    """The template columns (alpha_i, then beta_i) and ``nabla f`` at ``[p, k, b, a]``."""
    f, f2, F, xi, eta = fr.f, fr.f2, fr.F, fr.xi, fr.eta
    ftgf = np.einsum("pma,pmn,pnb->pab", f, fr.g, f)
    alpha = np.einsum("pab,pik->pikba", ftgf, xi) + np.einsum("pib,pka->pikba", eta, f2)
    beta = np.einsum("pba,pik->pikba", F, xi) - np.einsum("pib,pka->pikba", eta, f)
    cols = np.concatenate([alpha, beta], axis=1)
    return np.moveaxis(cols, 1, -1).reshape(-1, cols.shape[1]), fr.nabla_f.ravel()


def _lstsq(design, y):
    sol, _, _, sv = np.linalg.lstsq(design, y, rcond=None)
    return sol, sv[0] / sv[-1]


def _close(got, want):
    assert np.max(np.abs(np.asarray(got) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("several_blocks", [False, True])
@pytest.mark.parametrize("noise", [0.0, 1e-3])
def test_fits_equal_lstsq_on_the_full_stacked_design(several_blocks, noise, monkeypatch):
    # the oracle: numpy's lstsq on every row of every point at once, rows built here from the frame's tensors;
    # with noise on the curvature (antisymmetric in i, j, as R(e_i, e_j) is) and nabla f no fit is
    # exact, so that every column counts
    from fcontact import nullity as nl

    cases = {key: catalog_get(key).model for key in ("flat-contact-r3:deformed:0.5", "s-space-form:2,2",
                                                      "s-space-form:2,2:deformed:3", "s-space-form:3,2")}
    frames = {key: PointFrame(m, np.stack(sample_points(m, 6, seed=3))) for key, m in cases.items()}
    draws = np.random.default_rng(1)
    for fr in frames.values():
        wrong = noise * draws.standard_normal((len(fr.point),) + (fr.model.dim,) * 4)
        fr.riemann_pairs = fr.riemann_pairs + on_pairs(wrong - wrong.swapaxes(-1, -2))
        fr.nabla_f = fr.nabla_f + noise * draws.standard_normal(fr.nabla_f.shape)
    if several_blocks:  # a block per point
        monkeypatch.setattr(nl, "_BLOCK_ENTRIES", 1)
    for key, fr in frames.items():
        model = cases[key]
        fit = fit_nullity(model, fr)
        design, y = _nullity_oracle(fr)
        if fit.mu_determined:
            sol, cond = _lstsq(design, y)
            _close([fit.kappa, fit.mu], sol)
        else:
            sol, cond = _lstsq(design[:, :1], y)
            _close(fit.kappa, sol)
        _close(fit.condition, cond)

        trans = fit_trans_s(model, fr)
        sol, cond = _lstsq(*_trans_s_oracle(fr))
        _close(np.concatenate([trans.alpha, trans.beta]), sol)
        _close(trans.condition, cond)

        if model.s == 2:
            gssf = fit_gssf(model, fr)
            sol, cond = _lstsq(*_gssf_oracle(fr))
            _close(gssf.f_constants, sol)
            _close(gssf.condition, cond)


FIT_BLOCKS = [(fit_nullity, "_nullity_block"), (fit_gssf, "_gssf_block"), (fit_trans_s, "_trans_s_block")]


def _block_builds(monkeypatch, block):
    """The number of points of each call to ``nullity.<block>`` from now on."""
    from fcontact import nullity as nl

    calls, build = [], getattr(nl, block)
    monkeypatch.setattr(nl, block, lambda fr: calls.append(len(fr.point)) or build(fr))
    return calls


@pytest.mark.parametrize("fit, block", FIT_BLOCKS)
def test_residual_from_kept_systems_equals_the_rebuilt_one_bit_for_bit(fit, block, monkeypatch, s22):
    # a one-block fit keeps its systems for the residual; a fit of a block per point builds each again
    from fcontact import nullity as nl

    frame = PointFrame(s22, np.stack(sample_points(s22, 6, seed=5)))
    noise = np.random.default_rng(0)  # so that the residuals are not roundoff
    frame.riemann_pairs = frame.riemann_pairs + 1e-3 * noise.standard_normal(frame.riemann_pairs.shape)
    frame.nabla_f = frame.nabla_f + 1e-3 * noise.standard_normal(frame.nabla_f.shape)
    calls = _block_builds(monkeypatch, block)
    kept = fit(s22, frame)
    assert calls == [6]  # one block, built once
    monkeypatch.setattr(nl, "_BLOCK_ENTRIES", 1)  # a block per point
    rebuilt = fit(s22, frame)
    assert calls[1:] == [1] * 12  # each block built once, then again
    for field in dataclasses.fields(kept):
        assert np.array_equal(getattr(rebuilt, field.name), getattr(kept, field.name)), field.name
    assert kept.residual > 1e-4


@pytest.mark.parametrize("key, count, builds", [
    ("s-space-form:2,2", 20, {"fit_nullity": [20], "fit_gssf": [20], "fit_trans_s": [20]}),
    ("s-space-form:3,3", 20, {"fit_nullity": [20], "fit_trans_s": [20]}),
    ("s-space-form:3,3", 200, {"fit_nullity": [44, 44, 44, 44, 24] * 2}),
])
def test_which_fits_are_one_block_and_keep_their_systems(key, count, builds, monkeypatch):
    # at the default 20 points a fit builds its one system once; a fit of several blocks builds each twice
    from fcontact import nullity as nl

    model = catalog_get(key).model
    frame = PointFrame(model, np.stack(sample_points(model, count, seed=0)))
    for fit, block in FIT_BLOCKS:
        if fit.__name__ in builds:
            calls = _block_builds(monkeypatch, block)
            fit(model, frame)
            assert calls == builds[fit.__name__], fit.__name__
