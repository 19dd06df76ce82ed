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

Every identity above except the two involving H(X) is multilinear in its
vector arguments, so it holds for all vectors exactly when it holds on the
coordinate basis vectors.  Those identities are therefore checked, and the
fits solved, on every basis pair or triple at every point: each side is
built as a tensor with ``einsum`` and compared component by component with
``riemann31`` or ``nabla_f``.  Only H(X) (``sample_H_constancy``) and the
splitting formula, which are not multilinear, are sampled over random unit
sections of L.  Every residual is :func:`~fcontact.tolerances.relative_residual`.
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
from .tolerances import FIT_TOL, IDENTITY_TOL, relative_residual


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


def _lstsq(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares solution and the condition number of ``design``."""
    sol, _, _, sv = np.linalg.lstsq(design, y, rcond=None)
    return sol, float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf


def _reduce(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(R, Q^T y)`` for ``design = QR``: the same least-squares problem, with
    the same singular values, in at most as many rows as columns."""
    q, r = np.linalg.qr(design)
    return r, q.T @ y


def _lstsq_reduced(reduced, columns=slice(None)) -> tuple[np.ndarray, float]:
    """``_lstsq`` of the per-point systems whose ``_reduce`` forms are ``reduced``, stacked.

    Stacking the small R factors instead of the designs keeps a fit's memory
    independent of the number of tensor components.
    """
    design = np.concatenate([r[:, columns] for r, _ in reduced])
    return _lstsq(design, np.concatenate([c for _, c in reduced]))


def _antisym(t: np.ndarray) -> np.ndarray:
    """``t(X, Y) - t(Y, X)`` for a tensor laid out like ``riemann31``: [l, k, i, j]."""
    return t - t.swapaxes(-1, -2)


def _gz(fr: PointFrame, M, N) -> np.ndarray:
    """``g(M X, Z) N Y`` on basis vectors, laid out like ``riemann31``: [l, k, i, j]."""
    return np.einsum("ki,lj->lkij", fr.g @ M, N)


def _nullity_block(fr: PointFrame) -> tuple[np.ndarray, np.ndarray]:
    """Columns ``(A, B)`` and right-hand side ``R(e_i, e_j) xi_alpha`` of the
    nullity condition at ``fr``, over alpha, basis pairs i < j and components."""
    iu, ju = np.triu_indices(fr.model.dim, 1)
    a = _antisym(np.einsum("i,lj->lij", fr.eta_bar, fr.f2))
    b = _antisym(np.einsum("j,ali->alij", fr.eta_bar, fr.h_all))
    y = np.einsum("lkij,ak->alij", fr.riemann31, fr.xi)
    a = np.broadcast_to(a[:, iu, ju], b.shape[:2] + iu.shape)
    return np.column_stack([a.ravel(), b[..., iu, ju].ravel()]), y[..., iu, ju].ravel()


def fit_nullity(model: ManifoldModel, points, vector_samples: int = 200, rng=0) -> NullityFit:
    """Fit (kappa, mu) by least squares over every component of the nullity condition.

    Each point contributes ``R(e_i, e_j) xi_alpha = kappa * A + mu * B`` for
    every alpha, every basis pair ``i < j`` (both sides are antisymmetric in
    i, j) and every component.  ``vector_samples`` and ``rng`` are accepted
    for compatibility and unused.
    """
    frames = [as_frame(model, p) for p in points]
    reduced, a_norm, b_norm = [], 0.0, 0.0
    for design, y in map(_nullity_block, frames):
        a_norm, b_norm = np.maximum((a_norm, b_norm), np.max(np.abs(design), axis=0))
        reduced.append(_reduce(design, y))
    if a_norm < 1e-8:
        raise InsufficientSampleError("all eta-bar terms of the nullity system vanish")

    mu_determined = bool(b_norm >= 1e-8 * max(1.0, a_norm))
    columns = slice(None) if mu_determined else slice(1)
    sol, cond = _lstsq_reduced(reduced, columns)
    kappa = float(sol[0])
    return NullityFit(
        kappa=kappa,
        mu=float(sol[1]) if mu_determined else None,
        mu_determined=mu_determined,
        residual=relative_residual((y, design[:, columns] @ sol) for design, y in map(_nullity_block, frames)),
        condition=cond,
        lam=float(np.sqrt(1.0 - kappa)) if kappa < 1.0 - FIT_TOL else None,
    )


def verify_r_xi(model: ManifoldModel, fit: NullityFit, points) -> float:
    """Relative residual of the transposed nullity identity for ``R(xi_alpha, X)Y``.

    Compared on every basis pair (X, Y) = (e_i, e_k) and every alpha.
    """
    kappa, mu = fit.kappa, fit.mu_effective

    def sides(fr):
        k = kappa * fr.f2 - mu * fr.h_all  # (s, dim, dim)
        lhs = np.einsum("lkmi,am->alik", fr.riemann31, fr.xi)
        rhs = np.einsum("k,ali->alik", fr.eta_bar, k) - np.einsum("aik,l->alik", fr.g @ k, fr.xi_bar)
        return lhs, rhs

    return relative_residual(sides(as_frame(model, p)) for p in points)


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


def _rf_sides(fr: PointFrame, kappa: float, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the R(X, Y)fZ expansion on basis vectors, laid out like ``riemann31``.

    ``R(X, Y)fZ = f R(X, Y)Z + (kappa, mu, s) correction terms`` in f, h,
    f^2, fh, etab and xib.
    """
    f, fh = fr.f, fr.f @ fr.h
    c = kappa * f + mu * fh
    p, q = fr.h - fr.f2, f + fh
    half = (
        np.einsum("l,j,ki->lkij", fr.xi_bar, fr.eta_bar, fr.g @ c)
        + fr.model.s * (_gz(fr, p, q) + _gz(fr, q, p))
        + np.einsum("k,i,lj->lkij", fr.eta_bar, fr.eta_bar, c)
    )
    lhs = np.einsum("lmij,mk->lkij", fr.riemann31, f)
    return lhs, np.einsum("lm,mkij->lkij", f, fr.riemann31) + _antisym(half)


def check_rf_identity(model: ManifoldModel, fit: NullityFit, points) -> float:
    """Relative residual of the R(X, Y)fZ expansion on every basis triple."""
    kappa, mu = fit.kappa, fit.mu_effective
    return relative_residual(_rf_sides(as_frame(model, p), kappa, mu) for p in points)


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

    def sides(fr):
        q_model = (
            s * (2.0 * (1 - n) + n * fit.mu) * fr.f2
            + s * (2.0 * (n - 1) + fit.mu) * fr.h
            + 2.0 * n * fit.kappa * np.outer(fr.xi_bar, fr.eta_bar)
        )
        return fr.ricci_op, q_model

    return relative_residual(sides(as_frame(model, p)) for p in points)


# ---------------------------------------------------------------------------
# f-sectional curvature
# ---------------------------------------------------------------------------


def _f_sectional_rows(fr: PointFrame, X: np.ndarray) -> np.ndarray:
    """``H(X) = g(R(X, fX)fX, X)`` for each row of ``X``, all unit vectors in L."""
    fX = X @ fr.f.T
    eta_res = float(np.max(np.abs(X @ fr.eta.T)))
    if eta_res > 1e-6:
        raise InvalidSectionError(f"X has eta components of size {eta_res}")
    for name, v in (("X", X), ("fX", fX)):
        if np.max(np.abs(np.einsum("ni,ij,nj->n", v, fr.g, v) - 1.0)) > 1e-6:
            raise InvalidSectionError(f"{name} is not a g-unit vector")
    return np.einsum("ijkl,ni,nj,nk,nl->n", fr.riemann40, X, fX, fX, X)


def f_sectional(model: ManifoldModel, p: Point | PointFrame, X) -> float:
    """Sectional curvature of the plane {X, fX} for a unit X in L."""
    return float(_f_sectional_rows(as_frame(model, p), np.asarray(X, dtype=float)[None])[0])


@dataclass
class SpaceFormReport:
    """Sampled f-sectional curvature across points and sections."""

    h_mean: float
    h_spread: float


def sample_H_constancy(
    model: ManifoldModel, points, sections_per_point: int = 100, rng=0
) -> SpaceFormReport:
    """Sample H over random f-sections; report mean and spread.

    H(X) is not multilinear in X, so it is sampled: the sections of each
    point are drawn in turn and then evaluated together.
    """
    rng = as_rng(rng)
    arr = np.concatenate([
        _f_sectional_rows(fr, fr.random_unit_sections(rng, sections_per_point))
        for fr in (as_frame(model, p) for p in points)
    ])
    return SpaceFormReport(
        h_mean=float(arr.mean()),
        h_spread=float(arr.max() - arr.min()),
    )


def check_curvature_model(model: ManifoldModel, fit: NullityFit, H: float, points) -> float:
    """Relative residual of the constant-H curvature model on every basis triple.

    Compares ``4 R(X, Y)Z`` against the expansion in f^2, f, h, fh, etab and
    xib with constants (H, kappa, mu), component by component.
    """
    kappa, mu, s = fit.kappa, fit.mu_effective, model.s

    def sides(fr):
        f, h, f2 = fr.f, fr.h, fr.f2
        fh = f @ h
        k = kappa * f2 - mu * h
        half = (
            -(H + 3 * s) * _gz(fr, f2, f2)
            + (H - s) * np.einsum("ik,lj->lkij", fr.F, f)
            - 2 * s * (_gz(fr, h, h) - _gz(fr, fh, fh) - 2 * _gz(fr, f2, h) - 2 * _gz(fr, h, f2))
            + 4 * np.einsum("i,k,lj->lkij", fr.eta_bar, fr.eta_bar, k)
            - 4 * np.einsum("i,jk,l->lkij", fr.eta_bar, fr.g @ k, fr.xi_bar)
        )
        rhs = _antisym(half) + 2 * (H - s) * np.einsum("ij,lk->lkij", fr.F, f)
        return 4.0 * fr.riemann31, rhs

    return relative_residual(sides(as_frame(model, p)) for p in points)


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
    """Relative residual of the L_+/L_- splitting formula for H(X), kappa < 1.

    ``H(X) = -s(kappa + mu) + 4 s (kappa - mu + 1)
    (g(X_+, X_+) g(X_-, X_-) - g(X_+, f X_-)^2)`` with ``X_+- = P_+- X``,
    over random unit sections X (the formula is not multilinear in X).
    """
    if fit.kappa >= 1.0 - FIT_TOL:
        raise NotApplicableError("the splitting formula requires kappa < 1")
    rng = as_rng(rng)
    fr = as_frame(model, p)
    spec = h_spectrum(model, fit, fr)
    s, mu = model.s, fit.mu_effective
    X = fr.random_unit_sections(rng, section_samples)
    xp, xm = X @ spec.p_plus.T, X @ spec.p_minus.T

    def ip(u, v):
        return np.einsum("ni,ij,nj->n", u, fr.g, v)

    formula = -s * (fit.kappa + mu) + 4.0 * s * (fit.kappa - mu + 1.0) * (
        ip(xp, xp) * ip(xm, xm) - ip(xp, xm @ fr.f.T) ** 2
    )
    return relative_residual([(_f_sectional_rows(fr, X), formula)])


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


def _gssf_block(fr: PointFrame) -> tuple[np.ndarray, np.ndarray]:
    """Design (rows, 7) and right-hand side of the ansatz on basis pairs i < j at ``fr``.

    The seven basis tensors, laid out like ``riemann31`` ([l, k, i, j]):
    ``t1 = g(Y, Z)X - g(X, Z)Y``,
    ``t2 = g(X, fZ)fY - g(Y, fZ)fX + 2 g(X, fY)fZ``,
    ``t_ab = eta_a(X) eta_b(Z)Y - eta_a(Y) eta_b(Z)X + g(X, Z) eta_a(Y) xi_b
    - g(Y, Z) eta_a(X) xi_b`` for (a, b) = (1, 1), (2, 2), (1, 2), (2, 1),
    ``t7 = eta_1(X) eta_2(Y) (eta_2(Z) xi_1 - eta_1(Z) xi_2) - (X <-> Y)``.
    """
    iu, ju = np.triu_indices(fr.model.dim, 1)
    eye, eta, xi = np.eye(fr.model.dim), fr.eta, fr.xi
    t_ab = _antisym(
        np.einsum("ai,bk,lj->ablkij", eta, eta, eye) - np.einsum("ai,jk,bl->ablkij", eta, fr.g, xi)
    )
    terms = np.stack([
        _antisym(-np.einsum("ik,lj->lkij", fr.g, eye)),
        _antisym(np.einsum("ik,lj->lkij", fr.F, fr.f)) + 2.0 * np.einsum("ij,lk->lkij", fr.F, fr.f),
        t_ab[0, 0],
        t_ab[1, 1],
        t_ab[0, 1],
        t_ab[1, 0],
        _antisym(np.einsum("i,j,kl->lkij", eta[0], eta[1], np.outer(eta[1], xi[0]) - np.outer(eta[0], xi[1]))),
    ])
    return terms[..., iu, ju].reshape(7, -1).T, fr.riemann31[..., iu, ju].ravel()


def fit_gssf(model: ManifoldModel, points) -> GssfFit:
    """Fit the seven-function curvature ansatz (two structure vector fields).

    One least-squares solve over every component of ``R(e_i, e_j)e_k`` with
    ``i < j`` at every point, plus one solve per point for the spread.
    """
    if model.s != 2:
        raise NotApplicableError("the seven-function ansatz is defined for s = 2")
    frames = [as_frame(model, p) for p in points]
    reduced = [_reduce(*_gssf_block(fr)) for fr in frames]
    local = np.vstack([_lstsq(r, c)[0] for r, c in reduced])
    sol, cond = _lstsq_reduced(reduced)

    c = sol[0] - sol[2]
    conditions = np.array([abs(-sol[4] - c), abs(-sol[5] - c), abs((sol[3] - sol[6]) - c)])
    return GssfFit(
        f_constants=sol,
        residual=relative_residual((y, a @ sol) for a, y in map(_gssf_block, frames)),
        condition_residuals=conditions,
        f_spread=local.max(axis=0) - local.min(axis=0),
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


def _trans_s_block(fr: PointFrame) -> tuple[np.ndarray, np.ndarray]:
    """Template columns (alpha_1..alpha_s, beta_1..beta_s) and ``nabla f`` at ``fr``,
    over every basis pair (X, Y) = (e_a, e_b) and component k."""
    # [column, k, b, a]
    alpha_cols = np.einsum("ab,ik->ikba", fr.f.T @ fr.g @ fr.f, fr.xi) + np.einsum("ib,ka->ikba", fr.eta, fr.f2)
    beta_cols = np.einsum("ba,ik->ikba", fr.F, fr.xi) - np.einsum("ib,ka->ikba", fr.eta, fr.f)
    return np.concatenate([alpha_cols, beta_cols]).reshape(2 * fr.model.s, -1).T, fr.nabla_f.ravel()


def fit_trans_s(model: ManifoldModel, points) -> TransSFit:
    """Fit ``(nabla_X f)Y`` against the characteristic-function template.

    Template per structure index i:
    ``alpha_i (g(fX, fY) xi_i + eta_i(Y) f^2 X) + beta_i (g(fX, Y) xi_i -
    eta_i(Y) f X)``, fitted over every basis pair (X, Y) at every point.
    When every h_alpha vanishes (Killing structure fields) also measures the
    residual of ``R(X, xi_alpha)Y = -(nabla_X f)Y``.
    """
    s = model.s
    frames = [as_frame(model, p) for p in points]
    sol, cond = _lstsq_reduced([_reduce(*_trans_s_block(fr)) for fr in frames])
    t421 = None
    if all(fr.h_max < IDENTITY_TOL * 10 for fr in frames):
        t421 = relative_residual(
            (np.einsum("kbam,cm->ckba", fr.riemann31, fr.xi), -fr.nabla_f) for fr in frames
        )
    return TransSFit(
        alpha=sol[:s],
        beta=sol[s:],
        residual=relative_residual((y, a @ sol) for a, y in map(_trans_s_block, frames)),
        t421_residual=t421,
        condition=cond,
    )
