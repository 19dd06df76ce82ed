"""Nullity-condition fits, h-spectra, f-sectional curvature and curvature models.

A metric f-contact manifold satisfies the (kappa, mu)-nullity condition when

    R(X, Y) xi_alpha = kappa (etab(X) f^2 Y - etab(Y) f^2 X)
                       + mu (etab(Y) h_alpha X - etab(X) h_alpha Y)

for every alpha, with ``etab = sum eta_alpha`` (and ``xib = sum xi_alpha``).
Equivalently, by the pair symmetry of R and the g-symmetry of f^2 and h,

    R(xi_alpha, X) Y = kappa (etab(Y) f^2 X - g(X, f^2 Y) xib)
                       + mu (g(X, h Y) xib - etab(Y) h X).

Both are fitted/verified here, together with: the spectrum of h on the
distribution L orthogonal to the structure fields (eigenvalues
``+-sqrt(1 - kappa)`` when kappa < 1), the R(X, Y)fZ expansion, the Ricci
operator model, constancy and value of the f-sectional curvature
``H(X) = K(X, fX)``, the constant-H curvature model, the splitting formula
for H(X) in terms of the L_+/L_- components of X, the seven-function
curvature ansatz for s = 2, and the characteristic-function fit of
``(nabla_X f) Y``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientSampleError,
    InvalidSectionError,
    NotApplicableError,
    SpectralInconsistencyError,
)
from .geom import ManifoldModel, Point, PointFrame, as_frame, as_rng
from .structure import structure_at  # noqa: F401  (re-exported)
from .tolerances import FIT_TOL, IDENTITY_TOL, SCALE_FLOOR


# ---------------------------------------------------------------------------
# Nullity fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NullityFit:
    """Least-squares (kappa, mu) of the nullity condition.

    ``mu`` is ``None`` when the mu-column of the system vanishes (all
    ``h_alpha`` numerically zero), in which case every mu satisfies the
    condition and ``mu_determined`` is False.
    """

    kappa: float
    mu: float | None
    mu_determined: bool
    residual: float
    condition: float           # condition number of the solved system
    lam: float | None = None   # sqrt(1 - kappa) when kappa < 1

    @property
    def mu_effective(self) -> float:
        """mu to plug into identities; 0 is valid whenever mu is free."""
        return self.mu if self.mu_determined else 0.0


def fit_nullity(model: ManifoldModel, points, vector_samples: int = 200, rng=0) -> NullityFit:
    """Fit (kappa, mu) by stacking the nullity condition over random samples.

    Each sample draws a point, an index alpha and Gaussian coordinate vectors
    X, Y, contributing ``dim`` linear equations
    ``R(X, Y) xi_alpha = kappa * A + mu * B``.
    """
    rng = as_rng(rng)
    data = [as_frame(model, p) for p in points]
    rows_a, rows_b, rhs = [], [], []
    for _ in range(vector_samples):
        fr = data[rng.integers(len(data))]
        alpha = int(rng.integers(model.s))
        X = rng.standard_normal(model.dim)
        Y = rng.standard_normal(model.dim)
        ebX = float(fr.eta_bar @ X)
        ebY = float(fr.eta_bar @ Y)
        h = fr.h_all[alpha]
        rows_a.append(ebX * (fr.f2 @ Y) - ebY * (fr.f2 @ X))
        rows_b.append(ebY * (h @ X) - ebX * (h @ Y))
        rhs.append(fr.curvature_operator(X, Y, fr.xi[alpha]))

    a = np.concatenate(rows_a)
    b = np.concatenate(rows_b)
    y = np.concatenate(rhs)
    scale = max(float(np.max(np.abs(y))), float(np.max(np.abs(a))), float(np.max(np.abs(b))), SCALE_FLOOR)

    a_norm = float(np.max(np.abs(a)))
    if a_norm < 1e-8:
        raise InsufficientSampleError("all eta-bar terms vanish in the sampled system")

    mu_determined = float(np.max(np.abs(b))) >= 1e-8 * max(1.0, a_norm)
    if mu_determined:
        design = np.column_stack([a, b])
    else:
        design = a[:, None]
    sol, _, _, sv = np.linalg.lstsq(design, y, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf

    misfit = float(np.max(np.abs(design @ sol - y)))
    kappa = float(sol[0])
    mu = float(sol[1]) if mu_determined else None
    lam = float(np.sqrt(1.0 - kappa)) if kappa < 1.0 - FIT_TOL else None
    return NullityFit(
        kappa=kappa,
        mu=mu,
        mu_determined=mu_determined,
        residual=misfit / scale,
        condition=cond,
        lam=lam,
    )


def verify_r_xi(model: ManifoldModel, fit: NullityFit, points, samples: int = 200, rng=0) -> float:
    """Residual of the transposed nullity identity for ``R(xi_alpha, X)Y``."""
    rng = as_rng(rng)
    kappa, mu = fit.kappa, fit.mu_effective
    worst, scale = 0.0, SCALE_FLOOR
    for fr in (as_frame(model, p) for p in points):
        for _ in range(max(1, samples // len(points))):
            alpha = int(rng.integers(model.s))
            X = rng.standard_normal(model.dim)
            Y = rng.standard_normal(model.dim)
            h = fr.h_all[alpha]
            lhs = fr.curvature_operator(fr.xi[alpha], X, Y)
            ebY = float(fr.eta_bar @ Y)
            rhs = kappa * (ebY * (fr.f2 @ X) - fr.inner(X, fr.f2 @ Y) * fr.xi_bar) + mu * (
                fr.inner(X, h @ Y) * fr.xi_bar - ebY * (h @ X)
            )
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            scale = max(scale, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1.0)
    return worst / scale


# ---------------------------------------------------------------------------
# Spectrum of h on L
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenstructure of h restricted to L at a point."""

    eigenvalues: np.ndarray            # 2n values on L
    lam: float | None                  # sqrt(1 - kappa), None in the h = 0 case
    p_l: np.ndarray                    # projector onto L
    p_plus: np.ndarray | None
    p_minus: np.ndarray | None
    h_equal_residual: float            # max_alpha |h_alpha - h_1|
    f_swap_residual: float | None      # |f P_+ - P_- f|
    eigenvalue_residual: float         # distance of spectrum to {+-lam} (or to 0)
    h_zero: bool                       # S-manifold branch (kappa ~ 1, h ~ 0)


def _l_basis(fr: PointFrame) -> np.ndarray:
    """g-orthonormal basis of L, columns of shape (dim, 2n)."""
    P = fr.proj_L
    dim, two_n = fr.model.dim, 2 * fr.model.n
    basis = []
    for i in range(dim):
        v = P[:, i].copy()
        for b in basis:
            v -= fr.inner(b, v) * b
        norm = np.sqrt(max(fr.inner(v, v), 0.0))
        if norm > 1e-8:
            basis.append(v / norm)
        if len(basis) == two_n:
            break
    if len(basis) != two_n:
        raise InsufficientSampleError("could not build a basis of L")
    return np.column_stack(basis)


def h_spectrum(model: ManifoldModel, fit: NullityFit, p: Point | PointFrame) -> SpectrumReport:
    """Spectral data of h on L; validates the +-sqrt(1 - kappa) law.

    For kappa ~ 1 the split is undefined: returns the h = 0 report, raising
    if h is not actually numerically zero.
    """
    fr = as_frame(model, p)
    h_equal = float(max(np.max(np.abs(fr.h_all[a] - fr.h_all[0])) for a in range(model.s)))
    E = _l_basis(fr)
    h_on_l = E.T @ fr.g @ fr.h @ E
    eigs = np.linalg.eigvalsh(0.5 * (h_on_l + h_on_l.T))

    if fit.kappa >= 1.0 - FIT_TOL:
        if fr.h_max > IDENTITY_TOL * 10:
            raise SpectralInconsistencyError(
                f"kappa = {fit.kappa} fitted but |h| = {fr.h_max}; "
                "kappa = 1 requires h = 0"
            )
        return SpectrumReport(
            eigenvalues=eigs,
            lam=None,
            p_l=fr.proj_L,
            p_plus=None,
            p_minus=None,
            h_equal_residual=h_equal,
            f_swap_residual=None,
            eigenvalue_residual=float(np.max(np.abs(eigs))),
            h_zero=True,
        )

    lam = float(np.sqrt(1.0 - fit.kappa))
    p_l = fr.proj_L
    p_plus = 0.5 * (p_l + fr.h / lam)
    p_minus = 0.5 * (p_l - fr.h / lam)
    ev_res = float(np.max(np.abs(np.abs(eigs) - lam)))
    f_swap = float(np.max(np.abs(fr.f @ p_plus - p_minus @ fr.f)))
    return SpectrumReport(
        eigenvalues=eigs,
        lam=lam,
        p_l=p_l,
        p_plus=p_plus,
        p_minus=p_minus,
        h_equal_residual=h_equal,
        f_swap_residual=f_swap,
        eigenvalue_residual=ev_res,
        h_zero=False,
    )


# ---------------------------------------------------------------------------
# Curvature identities
# ---------------------------------------------------------------------------


def _rf_rhs(fr: PointFrame, kappa: float, mu: float, X, Y, Z) -> np.ndarray:
    """Right-hand side of the R(X, Y)fZ expansion."""
    s = fr.model.s
    f, h, f2 = fr.f, fr.h, fr.f2
    fh = f @ h
    ebX = float(fr.eta_bar @ X)
    ebY = float(fr.eta_bar @ Y)
    ebZ = float(fr.eta_bar @ Z)
    ip = fr.inner

    out = f @ fr.curvature_operator(X, Y, Z)
    out = out + (
        kappa * (ebY * ip(f @ X, Z) - ebX * ip(f @ Y, Z))
        + mu * (ebY * ip(fh @ X, Z) - ebX * ip(fh @ Y, Z))
    ) * fr.xi_bar
    hX, hY = h @ X, h @ Y
    f2X, f2Y = f2 @ X, f2 @ Y
    fX, fY = f @ X, f @ Y
    fhX, fhY = fh @ X, fh @ Y
    out = out + s * (
        -ip(hY - f2Y, Z) * (fX + fhX)
        + ip(hX - f2X, Z) * (fY + fhY)
        - ip(fY + fhY, Z) * (hX - f2X)
        + ip(fX + fhX, Z) * (hY - f2Y)
    )
    out = out + ebZ * (
        kappa * (ebX * fY - ebY * fX) + mu * (ebX * fhY - ebY * fhX)
    )
    return out


def check_rf_identity(model: ManifoldModel, fit: NullityFit, points, samples: int = 200, rng=0) -> float:
    """Max relative residual of the R(X, Y)fZ expansion on coordinate triples."""
    rng = as_rng(rng)
    kappa, mu = fit.kappa, fit.mu_effective
    dim = model.dim
    eye = np.eye(dim)
    worst, scale = 0.0, 1.0
    data = [as_frame(model, p) for p in points]
    per_point = max(1, samples // len(data))
    for fr in data:
        for _ in range(per_point):
            i, j, k = rng.integers(dim, size=3)
            X, Y, Z = eye[i], eye[j], eye[k]
            lhs = fr.curvature_operator(X, Y, fr.f @ Z)
            rhs = _rf_rhs(fr, kappa, mu, X, Y, Z)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            scale = max(scale, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return worst / scale


def check_ricci_model(model: ManifoldModel, fit: NullityFit, points) -> float:
    """Relative deviation of the Ricci operator from its closed-form model.

    ``Q = s(2(1 - n) + n mu) f^2 + s(2(n - 1) + mu) h
    + 2 n kappa etab (x) xib`` -- valid only for kappa < 1.
    """
    if fit.kappa >= 1.0 - FIT_TOL:
        raise NotApplicableError("the Ricci model requires kappa < 1")
    if not fit.mu_determined:
        raise NotApplicableError("the Ricci model needs a determined mu")
    n, s = model.n, model.s
    worst = 0.0
    for fr in (as_frame(model, p) for p in points):
        q_model = (
            s * (2.0 * (1 - n) + n * fit.mu) * fr.f2
            + s * (2.0 * (n - 1) + fit.mu) * fr.h
            + 2.0 * n * fit.kappa * np.outer(fr.xi_bar, fr.eta_bar)
        )
        Q = fr.ricci_op
        scale = max(float(np.max(np.abs(Q))), float(np.max(np.abs(q_model))), SCALE_FLOOR)
        worst = max(worst, float(np.max(np.abs(Q - q_model))) / scale)
    return worst


# ---------------------------------------------------------------------------
# f-sectional curvature
# ---------------------------------------------------------------------------


def f_sectional(model: ManifoldModel, p: Point | PointFrame, X) -> float:
    """Sectional curvature of the plane {X, fX} for a unit X in L."""
    fr = as_frame(model, p)
    X = np.asarray(X, dtype=float)
    eta_res = float(np.max(np.abs(fr.eta @ X)))
    if eta_res > 1e-6:
        raise InvalidSectionError(f"X has eta components of size {eta_res}")
    if abs(fr.inner(X, X) - 1.0) > 1e-6:
        raise InvalidSectionError("X is not a g-unit vector")
    fX = fr.f @ X
    if abs(fr.inner(fX, fX) - 1.0) > 1e-6:
        raise InvalidSectionError("fX is not a g-unit vector")
    return fr.inner(fr.curvature_operator(X, fX, fX), X)


@dataclass
class SpaceFormReport:
    """Sampled f-sectional curvature across points and sections."""

    h_samples: list[float]
    h_mean: float
    h_spread: float


def sample_H_constancy(
    model: ManifoldModel, points, sections_per_point: int = 100, rng=0
) -> SpaceFormReport:
    """Sample H over random f-sections; report mean and spread."""
    rng = as_rng(rng)
    values = []
    for fr in (as_frame(model, p) for p in points):
        for _ in range(sections_per_point):
            values.append(f_sectional(model, fr, fr.random_unit_section(rng)))
    arr = np.asarray(values)
    return SpaceFormReport(
        h_samples=values,
        h_mean=float(arr.mean()),
        h_spread=float(arr.max() - arr.min()),
    )


def check_curvature_model(
    model: ManifoldModel, fit: NullityFit, H: float, points, samples: int = 200, rng=0
) -> float:
    """Relative residual of the constant-H curvature model.

    Compares ``4 R(X, Y)Z`` against the expansion in f^2, f, h, fh, etab and
    xib with constants (H, kappa, mu) over sampled coordinate triples.
    """
    rng = as_rng(rng)
    kappa, mu = fit.kappa, fit.mu_effective
    s = model.s
    dim = model.dim
    eye = np.eye(dim)
    worst, scale = 0.0, 1.0
    data = [as_frame(model, p) for p in points]
    per_point = max(1, samples // len(data))
    for fr in data:
        f, h, f2 = fr.f, fr.h, fr.f2
        fh = f @ h
        ip = fr.inner
        for _ in range(per_point):
            i, j, k = rng.integers(dim, size=3)
            X, Y, Z = eye[i], eye[j], eye[k]
            lhs = 4.0 * fr.curvature_operator(X, Y, Z)
            fX, fY, fZ = f @ X, f @ Y, f @ Z
            hX, hY, hZ = h @ X, h @ Y, h @ Z
            f2X, f2Y, f2Z = f2 @ X, f2 @ Y, f2 @ Z
            fhX, fhY = fh @ X, fh @ Y
            ebX, ebY, ebZ = (float(fr.eta_bar @ v) for v in (X, Y, Z))
            rhs = (H + 3 * s) * (ip(f2Y, Z) * f2X - ip(f2X, Z) * f2Y)
            rhs = rhs + (H - s) * (2 * ip(fY, X) * fZ + ip(X, fZ) * fY - ip(Y, fZ) * fX)
            rhs = rhs - 2 * s * (
                ip(hX, Z) * hY
                - ip(hY, Z) * hX
                - ip(fhX, Z) * fhY
                + ip(fhY, Z) * fhX
                - 2 * ip(f2X, Z) * hY
                + 2 * ip(f2Y, Z) * hX
                - 2 * ip(hX, Z) * f2Y
                + 2 * ip(hY, Z) * f2X
            )
            rhs = rhs + 4 * kappa * (
                ebX * ebZ * f2Y - ebX * ip(Y, f2Z) * fr.xi_bar
                - ebY * ebZ * f2X + ebY * ip(X, f2Z) * fr.xi_bar
            )
            rhs = rhs + 4 * mu * (
                ebY * ebZ * hX - ebY * ip(X, hZ) * fr.xi_bar
                - ebX * ebZ * hY + ebX * ip(Y, hZ) * fr.xi_bar
            )
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            scale = max(scale, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return worst / scale


@dataclass(frozen=True)
class SpaceFormVerdict:
    """Space-form diagnostics for a fitted (kappa, mu) manifold."""

    applicable: bool                        # kappa < 1
    n_is_one: bool                          # the iff criterion assumes n > 1
    mu_condition_residual: float | None     # |mu - (kappa + 1)|
    h_prediction_residual: float | None     # |H_mean + s(2 kappa + 1)|
    h_trace_identity_residual: float | None  # |(n+1) H - s(n - 1 - 2 mu n - 2 kappa)|
    is_space_form: bool | None              # constant H measured


def space_form_criterion(
    model: ManifoldModel, fit: NullityFit, report: SpaceFormReport
) -> SpaceFormVerdict:
    """Evaluate the constant-H criterion ``mu = kappa + 1`` (n > 1, kappa < 1)."""
    if fit.kappa >= 1.0 - FIT_TOL:
        return SpaceFormVerdict(
            applicable=False,
            n_is_one=model.n == 1,
            mu_condition_residual=None,
            h_prediction_residual=None,
            h_trace_identity_residual=None,
            is_space_form=None,
        )
    n, s = model.n, model.s
    mu = fit.mu_effective
    h_mean = report.h_mean
    return SpaceFormVerdict(
        applicable=True,
        n_is_one=n == 1,
        mu_condition_residual=abs(mu - (fit.kappa + 1.0)),
        h_prediction_residual=abs(h_mean + s * (2.0 * fit.kappa + 1.0)),
        h_trace_identity_residual=abs((n + 1) * h_mean - s * (n - 1 - 2.0 * mu * n - 2.0 * fit.kappa)),
        is_space_form=report.h_spread < FIT_TOL,
    )


def check_splitting_lemma(
    model: ManifoldModel, fit: NullityFit, p: Point | PointFrame, section_samples: int = 100, rng=0
) -> float:
    """Residual of the L_+/L_- splitting formula for H(X), kappa < 1.

    ``H(X) = -s(kappa + mu) + 4 s (kappa - mu + 1)
    (g(X_+, X_+) g(X_-, X_-) - g(X_+, f X_-)^2)`` with ``X_+- = P_+- X``.
    """
    if fit.kappa >= 1.0 - FIT_TOL:
        raise NotApplicableError("the splitting formula requires kappa < 1")
    rng = as_rng(rng)
    fr = as_frame(model, p)
    spec = h_spectrum(model, fit, fr)
    s, mu = model.s, fit.mu_effective
    worst = 0.0
    for _ in range(section_samples):
        X = fr.random_unit_section(rng)
        xp = spec.p_plus @ X
        xm = spec.p_minus @ X
        cross = fr.inner(xp, fr.f @ xm)
        formula = -s * (fit.kappa + mu) + 4.0 * s * (fit.kappa - mu + 1.0) * (
            fr.inner(xp, xp) * fr.inner(xm, xm) - cross**2
        )
        worst = max(worst, abs(f_sectional(model, fr, X) - formula))
    return worst


# ---------------------------------------------------------------------------
# Seven-function curvature ansatz (s = 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GssfFit:
    """Least-squares seven-function curvature ansatz fit (s = 2 only)."""

    f_constants: np.ndarray        # F_1..F_7
    residual: float
    condition_residuals: np.ndarray  # |F1-F3 + F5|, |F1-F3 + F6|, |F1-F3 - (F4-F7)|
    f_spread: np.ndarray           # per-constant spread across point-local fits
    condition: float

    @property
    def implied_kappa(self) -> float:
        return float(self.f_constants[0] - self.f_constants[2])


def _gssf_terms(fr: PointFrame, X, Y, Z) -> np.ndarray:
    """The seven basis tensors of the s = 2 curvature ansatz, stacked (7, dim)."""
    g_ip = fr.inner
    f = fr.f
    eta1, eta2 = fr.eta[0], fr.eta[1]
    xi1, xi2 = fr.xi[0], fr.xi[1]
    e1X, e1Y, e1Z = (float(eta1 @ v) for v in (X, Y, Z))
    e2X, e2Y, e2Z = (float(eta2 @ v) for v in (X, Y, Z))
    gXZ, gYZ = g_ip(X, Z), g_ip(Y, Z)
    fX, fY, fZ = f @ X, f @ Y, f @ Z
    t1 = gYZ * X - gXZ * Y
    t2 = g_ip(X, fZ) * fY - g_ip(Y, fZ) * fX + 2.0 * g_ip(X, fY) * fZ
    t3 = e1X * e1Z * Y - e1Y * e1Z * X + gXZ * e1Y * xi1 - gYZ * e1X * xi1
    t4 = e2X * e2Z * Y - e2Y * e2Z * X + gXZ * e2Y * xi2 - gYZ * e2X * xi2
    t5 = e1X * e2Z * Y - e1Y * e2Z * X + gXZ * e1Y * xi2 - gYZ * e1X * xi2
    t6 = e2X * e1Z * Y - e2Y * e1Z * X + gXZ * e2Y * xi1 - gYZ * e2X * xi1
    t7 = (
        e1X * e2Y * e2Z * xi1
        - e2X * e1Y * e2Z * xi1
        + e2X * e1Y * e1Z * xi2
        - e1X * e2Y * e1Z * xi2
    )
    return np.stack([t1, t2, t3, t4, t5, t6, t7])


def _gssf_system(fr: PointFrame, n_samples: int, rng) -> tuple[np.ndarray, np.ndarray]:
    dim = fr.model.dim
    rows, rhs = [], []
    for _ in range(n_samples):
        X = rng.standard_normal(dim)
        Y = rng.standard_normal(dim)
        Z = rng.standard_normal(dim)
        rows.append(_gssf_terms(fr, X, Y, Z).T)  # (dim, 7)
        rhs.append(fr.curvature_operator(X, Y, Z))
    return np.concatenate(rows), np.concatenate(rhs)


def fit_gssf(model: ManifoldModel, points, samples: int = 200, rng=0) -> GssfFit:
    """Fit the seven-function curvature ansatz (two structure vector fields)."""
    if model.s != 2:
        raise NotApplicableError("the seven-function ansatz is defined for s = 2")
    rng = as_rng(rng)
    data = [as_frame(model, p) for p in points]
    per_point = max(8, samples // len(data))

    local_fits = []
    blocks_a, blocks_y = [], []
    for fr in data:
        a, y = _gssf_system(fr, per_point, rng)
        sol, _, _, _ = np.linalg.lstsq(a, y, rcond=None)
        local_fits.append(sol)
        blocks_a.append(a)
        blocks_y.append(y)

    a = np.concatenate(blocks_a)
    y = np.concatenate(blocks_y)
    sol, _, _, sv = np.linalg.lstsq(a, y, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    scale = max(float(np.max(np.abs(y))), float(np.max(np.abs(a))), SCALE_FLOOR)
    residual = float(np.max(np.abs(a @ sol - y))) / scale

    local = np.vstack(local_fits)
    spread = local.max(axis=0) - local.min(axis=0)
    c = sol[0] - sol[2]
    conditions = np.array([abs(-sol[4] - c), abs(-sol[5] - c), abs((sol[3] - sol[6]) - c)])
    return GssfFit(
        f_constants=sol,
        residual=residual,
        condition_residuals=conditions,
        f_spread=spread,
        condition=cond,
    )


# ---------------------------------------------------------------------------
# Characteristic-function fit of (nabla_X f) Y
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransSFit:
    """Least-squares characteristic functions (alpha_i, beta_i) of nabla f."""

    alpha: np.ndarray
    beta: np.ndarray
    residual: float
    t421_residual: float | None   # R(X, xi_alpha)Y + (nabla_X f)Y, Killing case only
    condition: float


def fit_trans_s(model: ManifoldModel, points, samples: int = 200, rng=0) -> TransSFit:
    """Fit ``(nabla_X f)Y`` against the characteristic-function template.

    Template per structure index i:
    ``alpha_i (g(fX, fY) xi_i + eta_i(Y) f^2 X) + beta_i (g(fX, Y) xi_i -
    eta_i(Y) f X)``.  When every h_alpha vanishes (Killing structure fields)
    also measures the residual of ``R(X, xi_alpha)Y = -(nabla_X f)Y``.
    """
    rng = as_rng(rng)
    s, dim = model.s, model.dim
    data = [as_frame(model, p) for p in points]
    per_point = max(2, samples // len(data))

    rows, rhs = [], []
    killing = all(fr.h_max < IDENTITY_TOL * 10 for fr in data)
    t421_worst, t421_scale = 0.0, 1.0
    for fr in data:
        nabla_f = fr.nabla_f
        for _ in range(per_point):
            X = rng.standard_normal(dim)
            Y = rng.standard_normal(dim)
            fX = fr.f @ X
            cols = []
            for i in range(s):
                ei_y = float(fr.eta[i] @ Y)
                cols.append(fr.inner(fX, fr.f @ Y) * fr.xi[i] + ei_y * (fr.f2 @ X))
            for i in range(s):
                ei_y = float(fr.eta[i] @ Y)
                cols.append(fr.inner(fX, Y) * fr.xi[i] - ei_y * fX)
            rows.append(np.column_stack(cols))
            lhs = np.einsum("kba,b,a->k", nabla_f, Y, X)
            rhs.append(lhs)
            if killing:
                for alpha in range(s):
                    r = fr.curvature_operator(X, fr.xi[alpha], Y)
                    t421_worst = max(t421_worst, float(np.max(np.abs(r + lhs))))
                    t421_scale = max(t421_scale, float(np.max(np.abs(r))), float(np.max(np.abs(lhs))))

    a = np.concatenate(rows)
    y = np.concatenate(rhs)
    sol, _, _, sv = np.linalg.lstsq(a, y, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    scale = max(float(np.max(np.abs(y))), float(np.max(np.abs(a))), SCALE_FLOOR)
    residual = float(np.max(np.abs(a @ sol - y))) / scale
    return TransSFit(
        alpha=sol[:s],
        beta=sol[s:],
        residual=residual,
        t421_residual=(t421_worst / t421_scale) if killing else None,
        condition=cond,
    )
