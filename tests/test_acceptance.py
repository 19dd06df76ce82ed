"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import json

import numpy as np
import pytest

from fcontact import (
    catalog_get,
    check_contact,
    check_curvature_model,
    check_f_axioms,
    check_rf_identity,
    check_ricci_model,
    fit_gssf,
    fit_nullity,
    fit_trans_s,
    h_spectrum,
    killing_check,
    sample_H_constancy,
    sample_points,
    structure_at,
    verify_r_xi,
)
from fcontact.cli import RunConfig, run
from fcontact.report import emit_report

from .conftest import twice_d_eta_residual

IDT = 1e-8
FIT = 1e-6
DEFORM_AS = (0.5, 0.75, 2.0, 3.0)
BASE_KEYS = ("flat-contact-r3", "s-space-form:1,1", "s-space-form:2,2")
ALL_KEYS = BASE_KEYS + tuple(f"flat-contact-r3:deformed:{a:g}" for a in DEFORM_AS)


@pytest.fixture(scope="module")
def suite():
    """Entry -> (model, 20 seeded points, nullity fit) for every catalog key."""
    out = {}
    for key in ALL_KEYS:
        entry = catalog_get(key)
        points = sample_points(entry.model, 20, seed=0)
        fit = fit_nullity(entry.model, points)
        out[key] = (entry, points, fit)
    return out


def _announce(num, desc, body):
    try:
        body()
    except AssertionError:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc}")


def test_criterion_1_axiom_battery(suite):
    def body():
        for key in BASE_KEYS:
            entry, points, _ = suite[key]
            report = check_f_axioms(entry.model, points)
            assert report.max_residual < IDT, (key, report)
            assert all(report.pass_flags().values()), key
            # convention pinning: F = d eta holds with the 1/2 of the exterior derivative, not without
            assert np.max(check_contact(entry.model, points)) < IDT, key
            assert np.min(twice_d_eta_residual(entry.model, points)) > 0.1, key

    _announce(1, "axiom battery + convention pinning on base entries", body)


def test_criterion_2_deformed_nullity_fits(suite):
    def body():
        for a in DEFORM_AS:
            _, _, fit = suite[f"flat-contact-r3:deformed:{a:g}"]
            kappa = (a**2 - 1.0) / a**2
            mu = 2.0 * (a - 1.0) / a
            assert fit.kappa == pytest.approx(kappa, abs=FIT), a
            assert fit.mu == pytest.approx(mu, abs=FIT), a
            assert fit.residual < FIT, a

    _announce(2, "deformed flat fits match ((a^2-1)/a^2, 2(a-1)/a)", body)


def test_criterion_3_f_sectional_constancy(suite):
    def body():
        for a in DEFORM_AS:
            entry, points, fit = suite[f"flat-contact-r3:deformed:{a:g}"]
            rep = sample_H_constancy(entry.model, points[:10], sections_per_point=100, rng=0)
            assert rep.h_spread < FIT, a
            target = -(3.0 * a**2 - 2.0 * a - 1.0) / a**2
            assert rep.h_mean == pytest.approx(target, abs=FIT), a
            if a == 0.5:
                assert fit.mu == pytest.approx(fit.kappa + 1.0, abs=FIT)
                assert rep.h_mean == pytest.approx(-1.0 * (2.0 * fit.kappa + 1.0), abs=FIT)
                assert rep.h_mean == pytest.approx(5.0, abs=FIT)

    _announce(3, "H constant over 100 sections x 10 points with the predicted value", body)


def test_criterion_4_spectrum(suite):
    def body():
        for key in ("flat-contact-r3",) + tuple(
            f"flat-contact-r3:deformed:{a:g}" for a in DEFORM_AS
        ):
            entry, points, fit = suite[key]
            spec = h_spectrum(entry.model, fit, points[0])
            lam = np.sqrt(1.0 - fit.kappa)
            assert np.max(np.abs(np.abs(spec.eigenvalues) - lam)) < FIT, key
            # f P+ = P- f, with P+- = 1/2 (P_L +- h / lam), is fh + hf = 0
            report = check_f_axioms(entry.model, points)
            assert report.h_xi < IDT and report.h_anticommute < IDT, key
        # named values: flat +-1, a = 2 +-1/2
        _, pts, fit = suite["flat-contact-r3"]
        assert np.allclose(
            np.sort(h_spectrum(suite["flat-contact-r3"][0].model, fit, pts[0]).eigenvalues),
            [-1.0, 1.0],
            atol=FIT,
        )
        entry2, pts2, fit2 = suite["flat-contact-r3:deformed:2"]
        assert np.allclose(
            np.abs(h_spectrum(entry2.model, fit2, pts2[0]).eigenvalues), 0.5, atol=FIT
        )

    _announce(4, "h-spectrum is {0, +-sqrt(1-kappa)} with f-swap and h xi = 0", body)


def test_criterion_5_identity_suites(suite):
    def body():
        for key in ALL_KEYS:
            entry, points, fit = suite[key]
            assert verify_r_xi(entry.model, fit, points) < FIT, key
            assert check_rf_identity(entry.model, fit, points) < FIT, key
            if fit.kappa < 1.0 - FIT:
                assert check_ricci_model(entry.model, fit, points) < FIT, key

    _announce(5, "R(xi,X)Y, R(X,Y)fZ and Ricci identities on all catalog entries", body)


def test_criterion_6_curvature_model_and_splitting(suite):
    def body():
        entry, points, fit = suite["s-space-form:2,2"]
        rep = sample_H_constancy(entry.model, points[:5], 40, rng=0)
        assert rep.h_mean == pytest.approx(-6.0, abs=FIT)
        assert check_curvature_model(entry.model, fit, rep.h_mean, points) < FIT
        for a in (0.75, 2.0, 3.0):  # a != 1/2
            e, pts, f = suite[f"flat-contact-r3:deformed:{a:g}"]
            assert sample_H_constancy(e.model, pts[:10], 100, rng=0, fit=f).splitting_residual < FIT, a
            run_report = run(RunConfig(e.key, points=10, samples=1000))
            assert {c.name: c for c in run_report.checks}["H"].passed, a

    _announce(6, "constant-H curvature model (H = -6) and the splitting formula", body)


def test_criterion_7_example_fits(suite):
    def body():
        entry, points, _ = suite["s-space-form:2,2"]
        gssf = fit_gssf(entry.model, points)
        assert gssf.residual < FIT
        assert np.max(gssf.f_spread) < FIT
        for key in ("s-space-form:1,1", "s-space-form:2,2"):
            e, pts, _ = suite[key]
            tfit = fit_trans_s(e.model, pts)
            assert np.allclose(tfit.alpha, 1.0, atol=FIT), key
            assert np.allclose(tfit.beta, 0.0, atol=FIT), key
            assert tfit.t421_residual < FIT, key
        e, pts, _ = suite["flat-contact-r3"]
        assert fit_trans_s(e.model, pts).residual > 1e-2

    _announce(7, "gssf constancy on s=2 S-structure; trans-S alpha=1, beta=0; flat fails", body)


def test_criterion_8_killing_iff_h_zero(suite):
    def body():
        for key in ALL_KEYS:
            entry, points, _ = suite[key]
            for a in range(entry.model.s):
                k_res = killing_check(entry.model, a, points)
                h_norm = max(
                    float(np.max(np.abs(structure_at(entry.model, p).h_mat[a])))
                    for p in points
                )
                assert (k_res < IDT) == (h_norm < IDT), (key, a, k_res, h_norm)

    _announce(8, "Killing residual < 1e-8 exactly when |h_alpha| < 1e-8, all entries", body)


def test_criterion_9_determinism():
    def body():
        config = RunConfig(manifold_key="flat-contact-r3:deformed:2", seed=123, points=5, samples=100)
        first = json.loads(emit_report(run(config), "json"))
        second = json.loads(emit_report(run(config), "json"))
        for report in (first, second):
            report.pop("wall_time")
            for check in report["checks"]:
                check.pop("wall_time")
        assert first == second

    _announce(9, "identical seeds give identical JSON reports modulo wall_time", body)
