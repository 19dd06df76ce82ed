import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fcontact import (
    PointFrame,
    check_contact,
    check_f_axioms,
    d_deform,
    fit_nullity,
    predict_deformed_nullity,
    sample_H_constancy,
    sample_points,
)
from fcontact.catalog import catalog_get
from fcontact.deform import format_constant
from fcontact.jets import tensor_value

IDT = 1e-8
FIT_TOL = 1e-6


def fields_at(model, p):
    """Values of ``g``, ``f``, ``xi`` and ``eta`` at ``p``."""
    return [tensor_value(part) for part in model.fields(np.asarray(p, dtype=float))]


def test_identity_deformation(flat, flat_points):
    deformed = d_deform(flat, 1.0)
    for p in sample_points(flat, 20, seed=21):
        for a, b in zip(fields_at(flat, p), fields_at(deformed, p)):
            assert np.allclose(a, b, atol=1e-14)


def test_deformed_model_passes_axioms(flat, flat_points):
    deformed = d_deform(flat, 2.0)
    assert check_f_axioms(deformed, flat_points).max_residual < IDT
    assert np.max(check_contact(deformed, flat_points)) < IDT


def test_deformed_duality_consistency(flat):
    # g~(xi~_a, xi~_b) = eta~_a(xi~_b) = delta_ab
    deformed = d_deform(flat, 3.0)
    for p in sample_points(flat, 5, seed=4):
        g, _, xi, eta = fields_at(deformed, p)
        assert np.allclose(xi @ g @ xi.T, np.eye(1), atol=IDT)
        assert np.allclose(eta @ xi.T, np.eye(1), atol=IDT)


def test_prediction_values():
    pred = predict_deformed_nullity(2.0, s=1)
    assert (pred.kappa, pred.mu, pred.h_sectional) == pytest.approx((0.75, 1.0, -1.75))
    assert pred.mu != pytest.approx(pred.kappa + 1.0)

    pred = predict_deformed_nullity(0.5, s=1)
    assert (pred.kappa, pred.mu, pred.h_sectional) == pytest.approx((-3.0, -2.0, 5.0))
    assert pred.mu == pytest.approx(pred.kappa + 1.0)  # the constant-H case, H = -s(2 kappa + 1)

    pred = predict_deformed_nullity(1.0, s=1)
    assert (pred.kappa, pred.mu, pred.h_sectional) == pytest.approx((0.0, 0.0, 0.0))


def test_prediction_rejects_nonpositive_a():
    with pytest.raises(ValueError):
        predict_deformed_nullity(0.0, s=1)
    with pytest.raises(ValueError):
        d_deform(None, -1.0)
    # constants outside [1e-10, 1e10] give a degenerate metric at every point
    for a in (-2.0, 1e-300, 1e300, 5e-324, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="deformation constant"):
            predict_deformed_nullity(a, s=1)
        with pytest.raises(ValueError, match="deformation constant"):
            d_deform(None, a)


@pytest.mark.parametrize("a", [0.5, 0.75, 2.0, 3.0])
def test_fit_matches_prediction(a, deformed, deformed_fits):
    pred = predict_deformed_nullity(a, s=1)
    fit = deformed_fits[a]
    assert fit.kappa == pytest.approx(pred.kappa, abs=FIT_TOL)
    assert fit.mu == pytest.approx(pred.mu, abs=FIT_TOL)


@pytest.mark.parametrize("a", [0.5, 0.75, 2.0, 3.0])
def test_H_matches_prediction(a, deformed, flat_points):
    pred = predict_deformed_nullity(a, s=1)
    rep = sample_H_constancy(deformed[a], flat_points[:4], 25, rng=0)
    assert rep.h_spread < FIT_TOL
    assert rep.h_mean == pytest.approx(pred.h_sectional, abs=FIT_TOL)


@settings(max_examples=10, deadline=None)
@given(
    st.floats(min_value=0.3, max_value=3.0),
    st.floats(min_value=0.3, max_value=3.0),
)
def test_composition_law(a, b):
    from fcontact import build_flat_contact_r3

    flat = build_flat_contact_r3()
    once = d_deform(d_deform(flat, a), b)
    direct = d_deform(flat, a * b)
    for p in sample_points(flat, 3, seed=17):
        for u, v in zip(fields_at(once, p), fields_at(direct, p)):
            assert np.allclose(u, v, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.05, max_value=200.0), st.integers(min_value=0, max_value=2**32 - 1))
def test_deformed_catalog_models_follow_the_closed_forms(a, seed):
    model = catalog_get(f"flat-contact-r3:deformed:{format_constant(a)}").model
    points = sample_points(model, 4, seed=seed)
    pred, fit = predict_deformed_nullity(a, s=1), fit_nullity(model, points)
    rep = sample_H_constancy(model, points, 20, rng=seed, fit=fit)
    for got, want in ((fit.kappa, pred.kappa), (fit.mu, pred.mu), (rep.h_mean, pred.h_sectional)):
        assert abs(got - want) <= FIT_TOL * max(1.0, abs(want)), (got, want)
    assert rep.splitting_residual <= FIT_TOL


def test_deformation_preserves_convention_and_labels(flat, flat_points):
    # F -> a F and d eta -> a d eta, since eta o f = 0: F = d eta holds after any deformation
    for a in (1e-3, 0.5, 2.0, 1e3):
        assert np.max(check_contact(d_deform(flat, a), flat_points)) < IDT, a
    assert d_deform(flat, 2.0).label.endswith(":deformed:2")


# -- one base evaluation per frame ----------------------------------------------


def test_a_wrapped_model_runs_its_base_once_per_frame(flat, flat_points):
    calls = []

    def counted(x):
        calls.append(x)
        return flat.fields(x)

    twice = lambda m: d_deform(d_deform(m, 2.0), 0.5)
    model = twice(dataclasses.replace(flat, fields=counted))
    batch, one = PointFrame(model, np.stack(flat_points)), PointFrame(model, flat_points[0])
    for frame in (batch, one):
        frame.g, frame.f, frame.xi, frame.eta, frame.riemann31, frame.h_all, frame.d_eta
    assert len(calls) == 2
    # the counted base gives the same fields as the base itself
    plain = PointFrame(twice(flat), np.stack(flat_points))
    for name in ("g", "dg", "d2g", "f", "df", "xi", "dxi", "eta", "deta"):
        assert np.array_equal(getattr(batch, name), getattr(plain, name)), name
