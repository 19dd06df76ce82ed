import dataclasses

import numpy as np
import pytest

from fcontact import (
    EmptyPointSetError,
    build_s_space_form,
    catalog_get,
    check_contact,
    check_curvature_model,
    check_f_axioms,
    check_normality,
    check_rf_identity,
    check_ricci_model,
    check_splitting_lemma,
    d_deform,
    fit_gssf,
    fit_nullity,
    fit_trans_s,
    h_spectrum,
    killing_check,
    riemann,
    sample_H_constancy,
    sample_points,
    verify_r_xi,
)
from fcontact.errors import DegenerateMetricError
from fcontact.geom import ManifoldModel, Point, PointFrame, as_frame
from fcontact.structure import structure_at

from .conftest import FLAT_PLAIN, on_pairs, with_field
from .oracles import fd_christoffel, fd_dgamma, fd_riemann31, sympy_riemann31


def metric_compatibility_residual(model: ManifoldModel, p: Point | PointFrame) -> float:
    """Max component of ``nabla g`` (zero for the Levi-Civita connection)."""
    frame = as_frame(model, p)
    nabla_g = (
        np.einsum("ijk->kij", frame.dg)
        - np.einsum("lki,lj->kij", frame.gamma, frame.g)
        - np.einsum("lkj,il->kij", frame.gamma, frame.g)
    )
    return float(np.max(np.abs(nabla_g)))


def riemann_symmetry_residuals(model: ManifoldModel, p: Point | PointFrame) -> dict[str, float]:
    """Antisymmetries, pair symmetry and the first Bianchi identity of R."""
    R = as_frame(model, p).riemann40
    return {
        "antisym_xy": float(np.max(np.abs(R + np.einsum("jikl->ijkl", R)))),
        "antisym_zw": float(np.max(np.abs(R + np.einsum("ijlk->ijkl", R)))),
        "pair": float(np.max(np.abs(R - np.einsum("klij->ijkl", R)))),
        "bianchi1": float(
            np.max(np.abs(R + np.einsum("jkil->ijkl", R) + np.einsum("kijl->ijkl", R)))
        ),
    }


def test_flat_metric_has_zero_connection_and_curvature(flat, flat_points):
    for p in flat_points[:3]:
        assert np.max(np.abs(PointFrame(flat, p).gamma)) == 0.0
        data = riemann(flat, p)
        assert np.max(np.abs(data.riemann31)) < 1e-10
        assert np.max(np.abs(data.ricci_op)) < 1e-10


def test_christoffel_matches_finite_differences_at_origin(s11):
    p = np.zeros(3)
    gamma = PointFrame(s11, p).gamma
    assert np.max(np.abs(gamma - fd_christoffel(s11, p))) < 1e-6


def test_christoffel_matches_finite_differences_r5():
    model = build_s_space_form(2, 1)
    p = np.zeros(5)
    gamma = PointFrame(model, p).gamma
    assert np.max(np.abs(gamma - fd_christoffel(model, p))) < 1e-6


@pytest.mark.parametrize("seed", [3, 7])
def test_christoffel_matches_finite_differences_deformed(flat, seed):
    model = d_deform(flat, 2.0)
    (p,) = sample_points(model, 1, seed=seed)
    gamma = PointFrame(model, p).gamma
    assert np.max(np.abs(gamma - fd_christoffel(model, p))) < 1e-6


def test_christoffel_matches_fd_on_all_catalog_entries():
    from fcontact import catalog_get

    for key in ("flat-contact-r3", "s-space-form:1,1", "s-space-form:2,2",
                "flat-contact-r3:deformed:2", "flat-contact-r3:deformed:0.5"):
        model = catalog_get(key).model
        for p in sample_points(model, 3, seed=11):
            gamma = PointFrame(model, p).gamma
            assert np.max(np.abs(gamma - fd_christoffel(model, p))) < 1e-5, key


def test_dgamma_matches_finite_differences(flat):
    model = d_deform(flat, 3.0)
    (p,) = sample_points(model, 1, seed=5)
    frame = PointFrame(model, p)
    assert np.max(np.abs(frame.dgamma - fd_dgamma(model, p))) < 1e-6


@pytest.mark.parametrize("key", ["flat-contact-r3:deformed:3", "s-space-form:2,2", "s-space-form:2,2:deformed:3"])
def test_riemann_pairs_match_finite_differences(key):
    model = catalog_get(key).model
    (p,) = sample_points(model, 1, seed=5)
    want = on_pairs(fd_riemann31(model, p))
    assert np.max(np.abs(want)) > 0.1
    assert np.max(np.abs(PointFrame(model, p).riemann_pairs - want)) < 1e-6


def test_torsion_free(s22, s22_points):
    for p in s22_points:
        gamma = PointFrame(s22, p).gamma
        assert np.max(np.abs(gamma - np.einsum("kij->kji", gamma))) < 1e-12


def test_metric_compatibility(flat, s11, s22, deformed, flat_points, s11_points, s22_points):
    cases = [(flat, flat_points), (s11, s11_points), (s22, s22_points)]
    cases += [(m, flat_points) for m in deformed.values()]
    for model, points in cases:
        for p in points[:4]:
            assert metric_compatibility_residual(model, p) < 1e-8


def _s11_metric(x):
    # g = eta (x) eta + 1/4 (dx^2 + dy^2), eta = 1/2 (dz - y dx)
    import sympy as sp

    eta = sp.Matrix([-x[1] / 2, 0, sp.Rational(1, 2)])
    return eta * eta.T + sp.diag(sp.Rational(1, 4), sp.Rational(1, 4), 0)


def _flat_deformed_2_metric(x):
    # a g + a (a - 1) eta (x) eta at a = 2, with g = I and eta = cos(2z) dx + sin(2z) dy
    import sympy as sp

    eta = sp.Matrix([sp.cos(2 * x[2]), sp.sin(2 * x[2]), 0])
    return 2 * sp.eye(3) + 2 * eta * eta.T


@pytest.mark.parametrize(
    "key, metric",
    [("s-space-form:1,1", _s11_metric), ("flat-contact-r3:deformed:2", _flat_deformed_2_metric)],
)
def test_riemann_matches_sympy_oracle(key, metric):
    sp = pytest.importorskip("sympy")
    from fcontact import catalog_get

    point = (sp.Rational(1, 3), sp.Rational(-1, 2), sp.Rational(1, 5))
    expected = on_pairs(sympy_riemann31(metric, point))
    got = PointFrame(catalog_get(key).model, np.array([float(c) for c in point])).riemann_pairs
    assert np.max(np.abs(expected)) > 0.1
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


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
            xi = st.xi_mat[a]
            val = np.einsum("lkij,i,j,k->l", frame.riemann31, X, xi, xi) @ frame.g @ X
            assert val == pytest.approx(1.0, abs=1e-8)


def test_lie_bracket_structure_fields_commute(s22, s22_points):
    # [xi_1, xi_2]^i = xi_1^j d_j xi_2^i - xi_2^j d_j xi_1^i, with dxi[a, i, j] = d_j xi_a^i
    frame = PointFrame(s22, s22_points[0])
    out = frame.dxi[1] @ frame.xi[0] - frame.dxi[0] @ frame.xi[1]
    assert np.allclose(out, 0)


def test_exterior_derivative_constant_form(flat):
    m = with_field(flat, "eta", lambda eta, x: np.array([[0.25, -1.0, 3.0]], dtype=object))
    d = PointFrame(m, np.array([0.1, 0.2, 0.3])).d_eta[0]
    assert np.allclose(d, 0)


def test_exterior_derivative_hand_oracle(flat):
    # eta = cos 2z dx + sin 2z dy at z = 0: (d eta)_zy = 1/2 (d_z eta_y - d_y eta_z) = 1, (d eta)_zx = 0
    p = np.zeros(3)
    d = PointFrame(flat, p).d_eta[0]
    assert d[2, 1] == pytest.approx(1.0)
    assert d[2, 0] == pytest.approx(0.0)
    assert np.max(np.abs(d + d.T)) < 1e-12


def test_exterior_derivative_equals_F(s22, s22_points):
    for p in s22_points[:5]:
        frame = PointFrame(s22, p)
        F = frame.g @ frame.f
        for a in range(s22.s):
            d = frame.d_eta[a]
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
    from fcontact.errors import DegenerateMetricError

    model = build_s_space_form(1, 1)
    singular = with_field(model, "g", lambda g, x: np.zeros((3, 3)))
    with pytest.raises(DegenerateMetricError):
        PointFrame(singular, np.zeros(3)).gamma
    near = with_field(model, "g", lambda g, x: np.diag([1.0, 1.0, 1e-12]))
    with pytest.raises(DegenerateMetricError, match="condition number"):
        PointFrame(near, np.zeros(3)).gamma
    # a small but well-conditioned metric is fine
    scaled = with_field(model, "g", lambda g, x: 1e-6 * np.eye(3))
    assert np.max(np.abs(PointFrame(scaled, np.zeros(3)).gamma)) == 0.0


# -- frames over a batch of points ---------------------------------------------

# Evaluated fields, which batched jets give bit for bit, and the arrays derived from them.
FIELDS = ("g", "dg", "d2g", "f", "df", "xi", "dxi", "eta", "deta")
DERIVED = (
    "ginv", "gamma", "dgamma", "riemann_pairs", "riemann31", "riemann40", "ricci", "ricci_op", "nabla_f",
    "F", "f2", "xi_bar", "eta_bar", "d_eta", "h_all", "h", "nijenhuis", "xi_d_eta", "normality", "proj_L",
)


@pytest.mark.parametrize(
    "model",
    [catalog_get("s-space-form:3,3").model, catalog_get("flat-contact-r3:deformed:0.5").model,
     FLAT_PLAIN],
    ids=["s-space-form:3,3", "flat-contact-r3:deformed:0.5", "flat-contact-r3-plain"],
)
def test_batch_frame_equals_the_stacked_point_frames(model):
    points = sample_points(model, 5, seed=3)
    batch = PointFrame(model, np.stack(points))
    singles = [PointFrame(model, p) for p in points]
    for name in FIELDS:
        assert np.array_equal(getattr(batch, name), np.stack([getattr(fr, name) for fr in singles])), name
    for name in DERIVED:
        want = np.stack([getattr(fr, name) for fr in singles])
        got = getattr(batch, name)
        assert got.shape == want.shape, name
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want))), name
    assert np.array_equal(batch.d_eta, np.stack([fr.d_eta for fr in singles]))
    # slices share the batch's arrays and have the shapes of one-point frames
    first, middle = batch[0], batch[1:3]
    assert first.g.shape == singles[0].g.shape
    assert np.array_equal(first.riemann31, batch.riemann31[0])
    assert np.array_equal(middle.point, np.stack(points[1:3]))
    assert np.shares_memory(middle.d2g, batch.d2g)


def test_batch_frame_rejects_malformed_points():
    model = catalog_get("flat-contact-r3").model
    for bad in (np.zeros(4), np.zeros((2, 2)), np.zeros((2, 2, 3))):
        with pytest.raises(ValueError):
            PointFrame(model, bad)
    with pytest.raises(TypeError):
        PointFrame(model, np.zeros(3))[0]


def test_one_point_operations_reject_a_batch_frame():
    model = catalog_get("flat-contact-r3:deformed:2").model
    batch = PointFrame(model, np.stack(sample_points(model, 3, seed=1)))
    fit = fit_nullity(model, batch)
    for op in (
        lambda: riemann(model, batch),
        lambda: structure_at(model, batch),
        lambda: h_spectrum(model, fit, batch),
    ):
        with pytest.raises(ValueError, match="one-point frame"):
            op()
    with pytest.raises(ValueError, match="expected one point"):
        riemann(model, batch.point)
    assert riemann(model, batch[1]).riemann31.shape == (3, 3, 3, 3)


# every operation that takes points, given a model, its nullity fit and the points
POINT_OPERATIONS = {
    "check_f_axioms": lambda m, fit, p: check_f_axioms(m, p),
    "check_contact": lambda m, fit, p: check_contact(m, p),
    "check_normality": lambda m, fit, p: check_normality(m, p),
    "killing_check": lambda m, fit, p: killing_check(m, 0, p),
    "fit_nullity": lambda m, fit, p: fit_nullity(m, p),
    "verify_r_xi": lambda m, fit, p: verify_r_xi(m, fit, p),
    "check_rf_identity": lambda m, fit, p: check_rf_identity(m, fit, p),
    "check_ricci_model": lambda m, fit, p: check_ricci_model(m, fit, p),
    "sample_H_constancy": lambda m, fit, p: sample_H_constancy(m, p, 5),
    "check_splitting_lemma": lambda m, fit, p: check_splitting_lemma(m, fit, p),
    "check_curvature_model": lambda m, fit, p: check_curvature_model(m, fit, -1.75, p),
    "fit_gssf": lambda m, fit, p: fit_gssf(m, p),
    "fit_trans_s": lambda m, fit, p: fit_trans_s(m, p),
}


@pytest.mark.parametrize("name", list(POINT_OPERATIONS))
def test_operations_on_points_reject_one_raw_point(name):
    key = "s-space-form:1,2:deformed:2" if name == "fit_gssf" else "flat-contact-r3:deformed:2"
    model = catalog_get(key).model
    fit = fit_nullity(model, sample_points(model, 3, seed=0))

    def unevaluated(x):
        raise AssertionError("a field was evaluated")

    model = dataclasses.replace(model, fields=unevaluated)
    point = np.array([0.1, -0.2, 0.3, 0.4])[:model.dim]
    with pytest.raises(ValueError, match=rf"expected points \(P, {model.dim}\)"):
        POINT_OPERATIONS[name](model, fit, point)


def test_degenerate_metric_error_names_the_first_bad_point():
    flat = catalog_get("flat-contact-r3").model
    # the metric diag(1, 1, x^2) is singular where x = 0
    model = with_field(flat, "g", lambda g, x: np.diag([1.0, 1.0, x[0] * x[0]]))
    points = np.array([[0.5, 0.0, 0.0], [0.0, 0.1, 0.2], [0.0, 0.3, 0.4]])
    with pytest.raises(DegenerateMetricError) as err:
        PointFrame(model, points).ginv
    assert np.array_equal(err.value.point, points[1])


# -- functions that take points ------------------------------------------------

POINT_FUNCTIONS = {
    "check_f_axioms": lambda model, fit, pts: check_f_axioms(model, pts),
    "check_contact": lambda model, fit, pts: check_contact(model, pts),
    "check_normality": lambda model, fit, pts: check_normality(model, pts),
    "killing_check": lambda model, fit, pts: killing_check(model, 0, pts),
    "fit_nullity": lambda model, fit, pts: fit_nullity(model, pts),
    "verify_r_xi": lambda model, fit, pts: verify_r_xi(model, fit, pts),
    "check_rf_identity": lambda model, fit, pts: check_rf_identity(model, fit, pts),
    "check_ricci_model": lambda model, fit, pts: check_ricci_model(model, fit, pts),
    "sample_H_constancy": lambda model, fit, pts: sample_H_constancy(model, pts),
    "check_splitting_lemma": lambda model, fit, pts: check_splitting_lemma(model, fit, pts),
    "check_curvature_model": lambda model, fit, pts: check_curvature_model(model, fit, 0.0, pts),
    "fit_gssf": lambda model, fit, pts: fit_gssf(model, pts),
    "fit_trans_s": lambda model, fit, pts: fit_trans_s(model, pts),
}


@pytest.mark.parametrize("name", list(POINT_FUNCTIONS))
def test_empty_point_list_raises_typed_error(name, deformed, deformed_fits, s22):
    model, fit = deformed[2.0], deformed_fits[2.0]
    if name == "fit_gssf":
        model = s22  # defined for s = 2 only
    for empty in ([], np.empty((0, model.dim))):
        with pytest.raises(EmptyPointSetError, match="no points"):
            POINT_FUNCTIONS[name](model, fit, empty)


# -- one frame per point -------------------------------------------------------


@pytest.fixture
def built_frames(monkeypatch):
    """Every frame built while the test runs."""
    built, init = [], PointFrame.__init__

    def counting_init(frame, model, point):
        init(frame, model, point)
        built.append(frame)

    monkeypatch.setattr(PointFrame, "__init__", counting_init)
    return built


@pytest.fixture
def deformed_query():
    """A model no frame is kept for yet, its fit, and a point of it."""
    model = dataclasses.replace(catalog_get("flat-contact-r3:deformed:2").model)
    return model, fit_nullity(model, sample_points(model, 4, seed=0)), sample_points(model, 1, seed=5)[0]


def point_query_arrays(model, fit, p) -> dict[str, np.ndarray]:
    """Every array that ``riemann``, ``structure_at`` and ``h_spectrum`` return at ``p``."""
    results = (riemann(model, p), structure_at(model, p), h_spectrum(model, fit, p))
    return {
        f"{type(r).__name__}.{f.name}": getattr(r, f.name)
        for r in results for f in dataclasses.fields(r)
        if isinstance(getattr(r, f.name), np.ndarray)
    }


def test_one_point_calls_at_one_point_share_one_frame(deformed_query, built_frames):
    model, fit, p = deformed_query
    got = point_query_arrays(model, fit, p)
    assert len(built_frames) == 1
    want = point_query_arrays(model, fit, PointFrame(model, p))
    assert got.keys() == want.keys()
    for name, arr in got.items():
        assert np.array_equal(arr, want[name]), name
    built_frames.clear()
    riemann(model, p.copy())  # the same point in another array
    assert built_frames == []


def test_another_point_or_model_builds_another_frame(deformed_query, built_frames):
    model, _, p = deformed_query
    zero, negative_zero = np.array([0.0, 0.2, 0.3]), np.array([-0.0, 0.2, 0.3])
    for q, m in ((p, model), (zero, model), (negative_zero, model), (negative_zero, dataclasses.replace(model))):
        riemann(m, q)
        riemann(m, q)
    assert len(built_frames) == 4
    assert [fr.point.tobytes() for fr in built_frames[1:3]] == [zero.tobytes(), negative_zero.tobytes()]


def test_a_degenerate_point_raises_on_every_call(built_frames):
    flat = catalog_get("flat-contact-r3").model
    model = with_field(flat, "g", lambda g, x: np.diag([1.0, 1.0, x[0] * x[0]]))
    for _ in range(2):
        with pytest.raises(DegenerateMetricError):
            riemann(model, np.array([0.0, 0.1, 0.2]))
    assert len(built_frames) == 1


def test_frame_arrays_are_read_only(deformed_query):
    model, fit, p = deformed_query
    returned = point_query_arrays(model, fit, p)
    frame, batch = as_frame(model, p), PointFrame(model, np.stack([p, p]))
    kept = {name: getattr(frame, name) for name in ("point", *FIELDS, *DERIVED)}
    kept.update({f"batch[0].{name}": getattr(batch[0], name) for name in ("point", *FIELDS, *DERIVED)})
    # what h_spectrum computes for its caller alone is the caller's to keep
    own = {name: returned.pop(f"SpectrumReport.{name}") for name in ("eigenvalues",)}
    for name, arr in own.items():
        assert not any(np.shares_memory(arr, k) for k in kept.values()), name
    for name, arr in {**returned, **kept}.items():
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    # a caller may still set a whole array on a frame it built
    mine = PointFrame(model, p)
    r = mine.riemann31.copy()
    r[0, 1, 0, 1] += 1.0
    mine.riemann31 = r
    assert riemann(model, mine).riemann31 is r
