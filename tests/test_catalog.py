import numpy as np
import pytest

from fcontact import (
    UnknownManifoldError,
    catalog_get,
    catalog_list,
    check_contact,
    check_f_axioms,
    fit_nullity,
    sample_H_constancy,
    sample_points,
)

IDT = 1e-8
FIT_TOL = 1e-6


def test_list_has_base_entries():
    entries = catalog_list()
    assert len(entries) >= 2
    keys = {e.key for e in entries}
    assert "flat-contact-r3" in keys
    assert "s-space-form:2,2" in keys


def test_every_catalog_entry_passes_axiom_battery():
    for entry in catalog_list():
        points = sample_points(entry.model, 20, seed=0)
        report = check_f_axioms(entry.model, points)
        assert report.max_residual < IDT, entry.key
        assert np.max(check_contact(entry.model, points)) < IDT, entry.key


def test_deformed_key_lookup():
    entry = catalog_get("flat-contact-r3:deformed:0.5")
    assert entry.expected.kappa == pytest.approx(-3.0)
    assert entry.expected.mu == pytest.approx(-2.0)
    assert entry.expected.h_sectional == pytest.approx(5.0)
    assert entry.model.label.endswith(":deformed:0.5")


def test_deformed_s_structure_key():
    entry = catalog_get("s-space-form:1,1:deformed:3")
    assert entry.expected.kappa == pytest.approx(1.0)
    assert entry.expected.mu is None
    # H = -3s is kept by the deformation (for s = 1, the fixed point of Tanno's law)
    for n, s in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 3)):
        assert catalog_get(f"s-space-form:{n},{s}:deformed:0.5").expected.h_sectional == -3.0 * s


@pytest.mark.parametrize(
    "key",
    ["nope", "s-space-form:abc", "s-space-form:0,1", "flat-contact-r3:deformed:x",
     "flat-contact-r3:deformed:-1", "flat-contact-r3:deformed:inf", "flat-contact-r3:deformed:nan",
     "flat-contact-r3:deformed:1e-300", "flat-contact-r3:deformed:1e300", "flat-contact-r3:deformed:5e-324",
     "s-space-form:4,2", "s-space-form:10,10:deformed:2",
     # read strictly: each of these once resolved to a key unlike its label
     "s-space-form:01,1", "s-space-form: 1,1", "s-space-form:+1,1", "s-space-form:1,1 ",
     "s-space-form:\u0661,1", "flat-contact-r3:deformed: 0.5", "flat-contact-r3:deformed:0_5",
     "flat-contact-r3:deformed:\u0660.5"],
)
def test_unknown_keys_raise(key):
    with pytest.raises(UnknownManifoldError):
        catalog_get(key)


def test_expected_records_reproduced_by_fits():
    for key in ("flat-contact-r3", "s-space-form:2,2", "flat-contact-r3:deformed:2",
                "s-space-form:2,2:deformed:0.5", "s-space-form:1,1:deformed:10"):
        entry = catalog_get(key)
        points = sample_points(entry.model, 6, seed=3)
        fit = fit_nullity(entry.model, points)
        exp = entry.expected
        assert fit.kappa == pytest.approx(exp.kappa, abs=FIT_TOL), key
        if exp.mu is None:
            assert not fit.mu_determined, key
        else:
            assert fit.mu == pytest.approx(exp.mu, abs=FIT_TOL), key
        rep = sample_H_constancy(entry.model, points[:3], 20, rng=0)
        assert rep.h_mean == pytest.approx(exp.h_sectional, abs=FIT_TOL), key


def test_f_squared_identity_on_s_structure():
    # f^2(dx_i) = -dx_i + sum_alpha eta_alpha(dx_i) xi_alpha, pointwise
    entry = catalog_get("s-space-form:2,2")
    from fcontact import structure_at

    for p in sample_points(entry.model, 4, seed=5):
        st = structure_at(entry.model, p)
        f2 = st.f_mat @ st.f_mat
        for i in range(2):
            e = np.zeros(6)
            e[i] = 1.0
            expected = -e + sum(
                float(st.eta_mat[a] @ e) * st.xi_mat[a] for a in range(2)
            )
            assert np.allclose(f2 @ e, expected, atol=IDT)


def test_builder_argument_validation():
    from fcontact import build_s_space_form

    with pytest.raises(ValueError):
        build_s_space_form(0, 1)
    with pytest.raises(ValueError):
        build_s_space_form(1, 0)
