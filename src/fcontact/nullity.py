"""Nullity-condition fits, h-spectra, f-sectional curvature and curvature models.

A metric f-contact manifold satisfies the (kappa, mu)-nullity condition when

    R(X, Y) xi_alpha = kappa (etab(X) f^2 Y - etab(Y) f^2 X)
                       + mu (etab(Y) h_alpha X - etab(X) h_alpha Y)

for every alpha, with ``etab = sum eta_alpha`` (and ``xib = sum xi_alpha``).
Equivalently, by the pair symmetry of R and the g-symmetry of f^2 and h,

    R(xi_alpha, X) Y = kappa (etab(Y) f^2 X - g(X, f^2 Y) xib)
                       + mu (g(X, h Y) xib - etab(Y) h X).

Both are fitted/verified here, together with: the spectrum of h on the
distribution L orthogonal to the structure fields, through the identities
``h_alpha^2 = (kappa - 1) f^2`` (eigenvalues ``+-sqrt(1 - kappa)`` on L
when kappa < 1, ``h = 0`` when kappa = 1) and ``h_alpha = h_1``, written
once in :func:`spectrum_residuals` for one point or many, the R(X, Y)fZ
expansion, the Ricci operator model, the f-sectional curvature
``H(X) = K(X, fX)``, the constant-H curvature model, the seven-function
curvature ansatz for s = 2, and the characteristic-function fit of
``(nabla_X f) Y``.

Every identity above except H(X) itself is multilinear in its vector
arguments, so it holds for all vectors exactly when it holds on the
coordinate basis vectors.  Those identities are therefore checked, and the
fits solved, on every basis pair or triple at every point: each side is
built as a tensor with ``einsum``, over all points of one stacked
:class:`~fcontact.geom.PointFrame` at once, and compared component by
component with ``riemann31`` or ``nabla_f``.  Only H(X), which is not
multilinear, is sampled over random unit sections of L, by
:func:`sample_H_constancy`, and one sample decides everything about H: its
mean, its spread relative to its size, and, for kappa < 1, its residual
against the splitting formula ``H(X) = -s(kappa + mu) - s(mu - kappa - 1)
t(X)`` on the same sections.  That formula is the paper's theorem in closed
form: for n > 1, H is constant exactly when ``mu = kappa + 1``.  Every
residual is :func:`~fcontact.tolerances.relative_residual`.

Whether kappa is below 1 is decided once, by :func:`fit_nullity`: ``fit.lam``
is ``sqrt(1 - kappa)`` then and ``None`` otherwise, and every branch on
kappa reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSampleError, InvalidSectionError, NotApplicableError
from .geom import ManifoldModel, Point, PointFrame, as_frame, as_frames, einsum
from .jets import _outer
from .structure import structure_at  # noqa: F401  (re-exported)
from .tolerances import (
    COLUMN_CUTOFF,
    FIT_TOL,
    IDENTITY_TOL,
    SECTION_CUTOFF,
    SECTION_TOL,
    relative_residual,
)


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
    lam: float | None = None   # sqrt(1 - kappa) when kappa < 1, else None: every branch reads it

    @property
    def mu_effective(self) -> float:
        """mu to plug into identities; 0 is valid whenever mu is free."""
        return self.mu if self.mu_determined else 0.0


def _lstsq(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares solution and the condition number of ``design``."""
    sol, _, _, sv = np.linalg.lstsq(design, y, rcond=None)
    return sol, float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf


def _reduce(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(R, Q^T y)`` for ``design = QR`` at every point of a stack ``(P, rows, cols)``:
    the same least-squares problems, with the same singular values, in at most
    as many rows as columns."""
    q, r = np.linalg.qr(design)
    return r, (q.swapaxes(-1, -2) @ y[..., None])[..., 0]


def _lstsq_reduced(r: np.ndarray, c: np.ndarray, columns=slice(None)) -> tuple[np.ndarray, float]:
    """``_lstsq`` of the per-point systems whose ``_reduce`` forms are ``(r, c)``, stacked.

    Solving on the small R factors instead of the designs keeps the solve's
    size independent of the number of tensor components.
    """
    r = r[..., columns]
    return _lstsq(r.reshape(-1, r.shape[-1]), c.ravel())


def _antisym(t: np.ndarray) -> np.ndarray:
    """``t(X, Y) - t(Y, X)`` for a tensor laid out like ``riemann31``: [l, k, i, j]."""
    return t - t.swapaxes(-1, -2)


def _xz_y(*terms) -> np.ndarray:
    """``sum b(X, Z) N Y`` over ``terms`` of ``(b, N)`` with ``b[..., k, i] = b(e_i, e_k)``,
    on basis vectors laid out like ``riemann31``: [l, k, i, j].

    One contraction over the terms, so no tensor is formed per term.  For
    ``b = g M`` a term is ``g(M X, Z) N Y``.
    """
    b, n = np.stack([t[0] for t in terms]), np.stack([t[1] for t in terms])
    return einsum("t...ki,t...lj->...lkij", b, n)


# Identities whose sides hold a dim^4 tensor per point are compared on blocks
# of points whose tensors have about this many entries in all, so their
# memory does not grow with the number of points.
_BLOCK_ENTRIES = 2**15


def _blocks(fr: PointFrame, shared: str = "riemann31"):
    """``fr`` itself, or its slices of ``_BLOCK_ENTRIES / dim^4`` points when it has more.

    The ``shared`` array is computed over all of ``fr`` first, so the slices
    read it instead of computing it again block by block.
    """
    count, size = len(fr.point), max(1, _BLOCK_ENTRIES // fr.model.dim**4)
    if count <= size:
        return [fr]
    getattr(fr, shared)
    return (fr[i:i + size] for i in range(0, count, size))


def _systems(fr: PointFrame, block, shared: str = "riemann31"):
    """The per-point least-squares systems ``block(fr)`` builds, over blocks of points.

    Returns the ``_reduce`` forms of all points, stacked (``r``
    ``(P, cols, cols)`` and ``c`` ``(P, cols)``), the largest ``|entry|`` of
    each design column, and ``residual(sol, columns)``, the relative residual
    of a solution on every row.  The design of a single block is kept for the
    residual; several blocks are built again one at a time, so that memory
    does not grow with the number of points.
    """
    rs, cs, norms = [], [], []
    for b in _blocks(fr, shared):
        design, y = block(b)
        r, c = _reduce(design, y)
        rs.append(r)
        cs.append(c)
        norms.append(np.max(np.abs(design), axis=(0, 1)))
    kept = [(design, y)] if len(rs) == 1 else None

    def residual(sol, columns=slice(None)):
        systems = kept or map(block, _blocks(fr, shared))
        return relative_residual((rhs, d[..., columns] @ sol) for d, rhs in systems)

    return np.concatenate(rs), np.concatenate(cs), np.max(norms, axis=0), residual


def _per_alpha(t: np.ndarray) -> np.ndarray:
    """A ``(..., dim, dim)`` tensor broadcast against the ``(..., s, dim, dim)`` ``h_all``."""
    return t[..., None, :, :]


def _nullity_block(fr: PointFrame) -> tuple[np.ndarray, np.ndarray]:
    """Columns ``(A, B)`` and right-hand side ``R(e_i, e_j) xi_alpha`` of the
    nullity condition at each point of ``fr``, over alpha, basis pairs i < j
    and components: ``(P, rows, 2)`` and ``(P, rows)``."""
    iu, ju = np.triu_indices(fr.model.dim, 1)
    count = len(fr.point)
    a = _antisym(einsum("pi,plj->plij", fr.eta_bar, fr.f2))
    b = _antisym(einsum("pj,pali->palij", fr.eta_bar, fr.h_all))[..., iu, ju]
    y = einsum("plkij,pak->palij", fr.riemann31, fr.xi)[..., iu, ju]
    a = np.broadcast_to(a[:, None, :, iu, ju], b.shape)
    return np.stack([a.reshape(count, -1), b.reshape(count, -1)], axis=-1), y.reshape(count, -1)


def fit_nullity(model: ManifoldModel, points, vector_samples: int = 200, rng=0) -> NullityFit:
    """Fit (kappa, mu) by least squares over every component of the nullity condition.

    Each point contributes ``R(e_i, e_j) xi_alpha = kappa * A + mu * B`` for
    every alpha, every basis pair ``i < j`` (both sides are antisymmetric in
    i, j) and every component.  ``vector_samples`` and ``rng`` are accepted
    for compatibility and unused.  Here, and only here, kappa counts as below
    1 when ``1 - kappa > FIT_TOL``; ``lam`` records the outcome.
    """
    frame = as_frames(model, points)
    r, c, (a_norm, b_norm), residual = _systems(frame, _nullity_block)
    # the kappa column is judged against the size of its factors, the mu column against it
    if not a_norm > COLUMN_CUTOFF * np.abs(frame.eta_bar).max() * np.abs(frame.f2).max():
        raise InsufficientSampleError("all eta-bar terms of the nullity system vanish")

    mu_determined = bool(b_norm >= COLUMN_CUTOFF * a_norm)
    columns = slice(None) if mu_determined else slice(1)
    sol, cond = _lstsq_reduced(r, c, columns)
    kappa = float(sol[0])
    return NullityFit(
        kappa=kappa,
        mu=float(sol[1]) if mu_determined else None,
        mu_determined=mu_determined,
        residual=residual(sol, columns),
        condition=cond,
        lam=float(np.sqrt(1.0 - kappa)) if kappa < 1.0 - FIT_TOL else None,
    )


def verify_r_xi(model: ManifoldModel, fit: NullityFit, points) -> float:
    """Relative residual of the transposed nullity identity for ``R(xi_alpha, X)Y``.

    Compared on every basis pair (X, Y) = (e_i, e_k) and every alpha.
    """
    kappa, mu = fit.kappa, fit.mu_effective

    def sides(fr):
        k = kappa * _per_alpha(fr.f2) - mu * fr.h_all  # (P, s, dim, dim)
        lhs = einsum("plkmi,pam->palik", fr.riemann31, fr.xi)
        rhs = einsum("pk,pali->palik", fr.eta_bar, k) - einsum("paik,pl->palik", _per_alpha(fr.g) @ k, fr.xi_bar)
        return lhs, rhs

    return relative_residual(map(sides, _blocks(as_frames(model, points))))


# ---------------------------------------------------------------------------
# Spectrum of h on L
# ---------------------------------------------------------------------------


def spectrum_residuals(fit: NullityFit, frame: PointFrame) -> tuple[float, float]:
    """Relative residuals of ``h_alpha^2 = (kappa - 1) f^2`` and of
    ``h_alpha = h_1``, for every alpha at every point of ``frame`` (one point
    or a batch).

    As h is g-self-adjoint and ``f^2 = -I`` on L, the first says that the
    eigenvalues of every ``h_alpha`` on L are ``+-sqrt(1 - kappa)``; with
    kappa = 1 it says ``h = 0``, and with kappa > 1 it cannot hold.
    """
    h = frame.h_all
    return (
        relative_residual([(h @ h, (fit.kappa - 1.0) * _per_alpha(frame.f2))]),
        relative_residual([(h, _per_alpha(frame.h))]),
    )


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of h on L at a point, and the residuals of :func:`spectrum_residuals`."""

    eigenvalues: np.ndarray            # 2n values on L
    lam: float | None                  # sqrt(1 - kappa), None when kappa = 1
    eigenvalue_residual: float         # h_alpha^2 = (kappa - 1) f^2 for every alpha
    h_equal_residual: float            # h_alpha = h_1 for every alpha


def h_spectrum(model: ManifoldModel, fit: NullityFit, p: Point | PointFrame) -> SpectrumReport:
    """Eigenvalues of h on L at ``p``, and the residuals of the spectrum identities there."""
    fr = as_frame(model, p)
    eigs = np.sort(np.linalg.eigvals(fr.h).real)  # real, as h is g-self-adjoint
    eigenvalue_residual, h_equal_residual = spectrum_residuals(fit, fr)
    return SpectrumReport(
        eigenvalues=eigs[np.sort(np.argsort(np.abs(eigs))[model.s:])],  # less the s of h xi_alpha = 0
        lam=fit.lam,
        eigenvalue_residual=eigenvalue_residual,
        h_equal_residual=h_equal_residual,
    )


# ---------------------------------------------------------------------------
# Curvature identities
# ---------------------------------------------------------------------------


def _rf_sides(fr: PointFrame, kappa: float, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the R(X, Y)fZ expansion on basis vectors, laid out like ``riemann31``.

    ``R(X, Y)fZ = f R(X, Y)Z + (kappa, mu, s) correction terms`` in f, h,
    f^2, fh, etab and xib.
    """
    f, fh, g, s = fr.f, fr.f @ fr.h, fr.g, fr.model.s
    c = kappa * f + mu * fh
    p, q = fr.h - fr.f2, f + fh
    half = _xz_y(
        (g @ c, _outer(fr.xi_bar, fr.eta_bar)),
        (g @ p, s * q),
        (g @ q, s * p),
        (_outer(fr.eta_bar, fr.eta_bar), c),
    )
    lhs = einsum("...lmij,...mk->...lkij", fr.riemann31, f)
    return lhs, einsum("...lm,...mkij->...lkij", f, fr.riemann31) + _antisym(half)


def check_rf_identity(model: ManifoldModel, fit: NullityFit, points) -> float:
    """Relative residual of the R(X, Y)fZ expansion on every basis triple."""
    kappa, mu = fit.kappa, fit.mu_effective
    return relative_residual(_rf_sides(fr, kappa, mu) for fr in _blocks(as_frames(model, points)))


def check_ricci_model(model: ManifoldModel, fit: NullityFit, points) -> float:
    """Relative deviation of the Ricci operator from its closed-form model.

    ``Q = s(2(1 - n) + n mu) f^2 + s(2(n - 1) + mu) h
    + 2 n kappa etab (x) xib`` -- valid only for kappa < 1.
    """
    if fit.lam is None:
        raise NotApplicableError("the Ricci model requires kappa < 1")
    if not fit.mu_determined:
        raise NotApplicableError("the Ricci model needs a determined mu")
    n, s = model.n, model.s
    fr = as_frames(model, points)
    q_model = (
        s * (2.0 * (1 - n) + n * fit.mu) * fr.f2
        + s * (2.0 * (n - 1) + fit.mu) * fr.h
        + 2.0 * n * fit.kappa * einsum("pi,pj->pij", fr.xi_bar, fr.eta_bar)
    )
    return relative_residual([(fr.ricci_op, q_model)])


# ---------------------------------------------------------------------------
# f-sectional curvature
# ---------------------------------------------------------------------------


# Rows of sections checked and contracted with R at a time, over all points of
# a group: bounds the (rows, dim^2) blocks.
_SECTION_BLOCK = 4096

# Rounds of draws in a row that keep no section before ``_unit_sections`` gives up.
_DRAW_ROUNDS = 8


def _unit_sections(rng, proj_l: np.ndarray, g: np.ndarray, count: int) -> np.ndarray:
    """``count`` random g-unit vectors in L at one point, as rows: Gaussians
    projected by ``proj_l`` and normalized in the metric ``g``.

    A draw is skipped when its projection keeps less than ``SECTION_CUTOFF``
    of its Euclidean norm, so the rows are those that ``count`` draws made
    one after another would give.  ``_DRAW_ROUNDS`` rounds in a row that
    keep no draw mean that L has no directions to draw.
    """
    rows, need, misses = [], count, 0
    while need:
        z = rng.standard_normal((need, len(g)))
        v = z @ proj_l.T
        keep = np.einsum("ni,ni->n", v, v) >= SECTION_CUTOFF**2 * np.einsum("ni,ni->n", z, z)
        misses = 0 if keep.any() else misses + 1
        if misses == _DRAW_ROUNDS:
            raise InsufficientSampleError("could not draw a unit vector in L")
        norm = np.sqrt(np.maximum(np.einsum("ni,ij,nj->n", v, g, v), 0.0))
        rows.append(v[keep] / norm[keep, None])
        need -= int(keep.sum())
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


def _f_sectional_rows(fr: PointFrame, X: np.ndarray, points=slice(None)) -> np.ndarray:
    """``H(X) = g(R(X, fX)fX, X)`` for each row of ``X``, shaped ``(P, N, dim)``:
    N unit vectors in L at each of the P points ``points`` of a stacked frame,
    or at a one-point frame (P = 1, ``points`` unused).  Returns ``(P, N)``.

    H is ``(X (x) fX) R (fX (x) X)`` with ``riemann40`` as a
    ``(dim^2, dim^2)`` matrix per point.  The rows of all P points are checked
    and contracted together, in blocks of at most ``_SECTION_BLOCK`` rows in
    all (row blocks of one point when it alone has more).
    """
    at = points if fr.point.ndim == 2 else None  # a one-point frame as a batch of one
    r, f, eta, g = (getattr(fr, name)[at] for name in ("riemann40", "f", "eta", "g"))
    count, rows, dim = X.shape
    r = r.reshape(count, dim * dim, dim * dim)
    out = np.empty((count, rows))
    step = max(1, _SECTION_BLOCK // count)
    for start in range(0, rows, step):
        x = X[:, start:start + step]
        fx = x @ f.swapaxes(-1, -2)
        eta_res = float(np.max(np.abs(x @ eta.swapaxes(-1, -2))))
        if eta_res > SECTION_TOL:
            raise InvalidSectionError(f"X has eta components of size {eta_res}")
        for name, v in (("X", x), ("fX", fx)):
            if np.max(np.abs(np.einsum("pni,pij,pnj->pn", v, g, v) - 1.0)) > SECTION_TOL:
                raise InvalidSectionError(f"{name} is not a g-unit vector")
        u, w = _outer(x, fx).reshape(count, -1, dim * dim), _outer(fx, x).reshape(count, -1, dim * dim)
        out[:, start:start + step] = np.einsum("pnk,pnk->pn", u @ r, w)
    return out


def f_sectional(model: ManifoldModel, p: Point | PointFrame, X) -> float:
    """Sectional curvature of the plane {X, fX} for a unit X in L."""
    return float(_f_sectional_rows(as_frame(model, p), np.asarray(X, dtype=float)[None, None])[0, 0])


@dataclass
class SpaceFormReport:
    """Sampled f-sectional curvature across points and sections.

    ``relative_spread`` is the spread over the largest ``|H(X)|`` (at least
    1): the measure of constant H.  ``splitting_residual`` is set only when
    the sampler was given a fit with kappa < 1 (``fit.lam``).
    """

    h_mean: float
    h_spread: float
    relative_spread: float
    splitting_residual: float | None = None   # H(X) against the splitting formula


def _splitting_rows(fr: PointFrame, X: np.ndarray, fit: NullityFit, points: slice) -> np.ndarray:
    """The closed form of ``H(X)`` for kappa < 1, for rows ``X`` shaped
    ``(P, N, dim)`` at the P points ``points`` of a stacked frame.

    ``H(X) = -s(kappa + mu) - s(mu - kappa - 1) t(X)`` with
    ``t(X) = 1 - (g(X, hX)^2 + g(X, fhX)^2) / (1 - kappa)``, which is
    ``4 (|X_+|^2 |X_-|^2 - g(X_+, f X_-)^2)`` for the components
    ``X_+- = 1/2 (X +- hX / lam)`` of X in ``L_+`` and ``L_-``, given
    ``h^2 = (1 - kappa) I`` on L (the ``spectrum`` check).  It is the
    f-analogue of the curvature of a contact (kappa, mu)-space (Blair,
    Koufogiorgos and Papantoniou, Israel J. Math. 91, 1995).  At n = 1,
    ``t = 0``; for n > 1, ``t`` takes every value in [0, 1], so H is constant
    exactly when ``mu = kappa + 1``.
    """
    g, h, f = fr.g[points], fr.h[points], fr.f[points]
    s, kappa, mu = fr.model.s, fit.kappa, fit.mu_effective
    gx = X @ g  # g(X, .) per row
    t = 1.0 - (np.einsum("pni,pni->pn", gx, X @ h.swapaxes(-1, -2)) ** 2
               + np.einsum("pni,pni->pn", gx, X @ (f @ h).swapaxes(-1, -2)) ** 2) / fit.lam**2
    return -s * (kappa + mu) - s * (mu - kappa - 1.0) * t


def sample_H_constancy(
    model: ManifoldModel, points, sections_per_point: int = 100, rng=0, fit: NullityFit | None = None
) -> SpaceFormReport:
    """Sample H over random f-sections; report mean and spread, and with a
    ``fit`` whose kappa is below 1 the residual of the splitting formula.

    H(X) is not multilinear in X, so it is sampled.  The points draw their
    sections in order, each all of its own before the next, from the one
    stream ``rng``: the grouping below does not change which sections a seed
    gives.  The sections are evaluated a group at a time, once the group is
    drawn: as many whole points as have at most ``_SECTION_BLOCK`` rows in
    all, or one point, in row blocks, when it alone has more.  The splitting
    formula (``_splitting_rows``) is evaluated on the same rows.
    """
    if sections_per_point < 1:
        raise InsufficientSampleError(f"sections_per_point must be at least 1, got {sections_per_point}")
    fr, rng = as_frames(model, points), np.random.default_rng(rng)
    lam = None if fit is None else fit.lam
    count, group = len(fr.point), max(1, _SECTION_BLOCK // sections_per_point)
    values, pairs = [], []
    for start in range(0, count, group):
        # dropped before the next group draws: memory holds one group's sections
        members, at = range(start, min(start + group, count)), slice(start, start + group)
        X = np.stack([_unit_sections(rng, fr.proj_L[i], fr.g[i], sections_per_point) for i in members])
        values.append(_f_sectional_rows(fr, X, at))
        if lam is not None:
            pairs.append((values[-1], _splitting_rows(fr, X, fit, at)))
        del X
    arr = np.concatenate(values, axis=None)
    return SpaceFormReport(
        h_mean=float(arr.mean()),
        h_spread=float(arr.max() - arr.min()),
        relative_spread=relative_residual([(arr.max(), arr.min())]),
        splitting_residual=None if lam is None else relative_residual(pairs),
    )


def check_curvature_model(model: ManifoldModel, fit: NullityFit, H: float, points) -> float:
    """Relative residual of the constant-H curvature model on every basis triple.

    Compares ``4 R(X, Y)Z`` against the expansion in f^2, f, h, fh, etab and
    xib with constants (H, kappa, mu), component by component.
    """
    kappa, mu, s = fit.kappa, fit.mu_effective, model.s

    def sides(fr):
        f, h, f2, g = fr.f, fr.h, fr.f2, fr.g
        fh = f @ h
        k = kappa * f2 - mu * h
        half = _xz_y(
            (g @ f2, 4 * s * h - (H + 3 * s) * f2),
            (g @ h, 4 * s * f2 - 2 * s * h),
            (g @ fh, 2 * s * fh),
            (fr.F.swapaxes(1, 2), (H - s) * f),
            (_outer(fr.eta_bar, fr.eta_bar), 4 * k),
        ) - 4 * einsum("pi,pjk,pl->plkij", fr.eta_bar, g @ k, fr.xi_bar)
        rhs = _antisym(half) + 2 * (H - s) * einsum("pij,plk->plkij", fr.F, f)
        return 4.0 * fr.riemann31, rhs

    return relative_residual(map(sides, _blocks(as_frames(model, points))))


def check_splitting_lemma(
    model: ManifoldModel, fit: NullityFit, points, section_samples: int = 100, rng=0
) -> float:
    """Relative residual of the splitting formula for H(X) (kappa < 1) over
    ``section_samples`` random unit sections at each of ``points``: the
    ``splitting_residual`` of :func:`sample_H_constancy`."""
    if fit.lam is None:
        raise NotApplicableError("the splitting formula requires kappa < 1")
    return sample_H_constancy(model, points, section_samples, rng, fit).splitting_residual


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
    """Design ``(P, rows, 7)`` and right-hand side of the ansatz on basis pairs i < j.

    The seven basis tensors, laid out like ``riemann31`` ([l, k, i, j]):
    ``t1 = g(Y, Z)X - g(X, Z)Y``,
    ``t2 = g(X, fZ)fY - g(Y, fZ)fX + 2 g(X, fY)fZ``,
    ``t_ab = eta_a(X) eta_b(Z)Y - eta_a(Y) eta_b(Z)X + g(X, Z) eta_a(Y) xi_b
    - g(Y, Z) eta_a(X) xi_b`` for (a, b) = (1, 1), (2, 2), (1, 2), (2, 1),
    ``t7 = eta_1(X) eta_2(Y) (eta_2(Z) xi_1 - eta_1(Z) xi_2) - (X <-> Y)``.
    """
    iu, ju = np.triu_indices(fr.model.dim, 1)
    count = len(fr.point)
    eye, eta, xi = np.eye(fr.model.dim), fr.eta, fr.xi
    t_ab = _antisym(
        einsum("pai,pbk,lj->pablkij", eta, eta, eye) - einsum("pai,pjk,pbl->pablkij", eta, fr.g, xi)
    )
    eta1, eta2, xi1, xi2 = eta[:, 0], eta[:, 1], xi[:, 0], xi[:, 1]
    terms = np.stack([
        _antisym(-einsum("pik,lj->plkij", fr.g, eye)),
        _antisym(einsum("pik,plj->plkij", fr.F, fr.f)) + 2.0 * einsum("pij,plk->plkij", fr.F, fr.f),
        t_ab[:, 0, 0],
        t_ab[:, 1, 1],
        t_ab[:, 0, 1],
        t_ab[:, 1, 0],
        _antisym(einsum("pi,pj,pkl->plkij", eta1, eta2, _outer(eta2, xi1) - _outer(eta1, xi2))),
    ], axis=1)
    design = terms[..., iu, ju].reshape(count, 7, -1).swapaxes(1, 2)
    return design, fr.riemann31[..., iu, ju].reshape(count, -1)


def fit_gssf(model: ManifoldModel, points) -> GssfFit:
    """Fit the seven-function curvature ansatz (two structure vector fields).

    One least-squares solve over every component of ``R(e_i, e_j)e_k`` with
    ``i < j`` at every point, plus one solve per point for the spread.
    """
    if model.s != 2:
        raise NotApplicableError("the seven-function ansatz is defined for s = 2")
    r, c, _, residual = _systems(as_frames(model, points), _gssf_block)
    local = np.vstack([_lstsq(r_p, c_p)[0] for r_p, c_p in zip(r, c)])
    sol, cond = _lstsq_reduced(r, c)

    k = sol[0] - sol[2]
    conditions = np.array([abs(-sol[4] - k), abs(-sol[5] - k), abs((sol[3] - sol[6]) - k)])
    return GssfFit(
        f_constants=sol,
        residual=residual(sol),
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
    """Template columns (alpha_1..alpha_s, beta_1..beta_s) and ``nabla f`` at
    each point of ``fr``, over every basis pair (X, Y) = (e_a, e_b) and component k."""
    count = len(fr.point)
    # [point, k, b, a, column]
    ftgf = fr.f.swapaxes(1, 2) @ fr.g @ fr.f
    alpha_cols = einsum("pab,pik->pkbai", ftgf, fr.xi) + einsum("pib,pka->pkbai", fr.eta, fr.f2)
    beta_cols = einsum("pba,pik->pkbai", fr.F, fr.xi) - einsum("pib,pka->pkbai", fr.eta, fr.f)
    columns = np.concatenate([alpha_cols, beta_cols], axis=-1)
    return columns.reshape(count, -1, 2 * fr.model.s), fr.nabla_f.reshape(count, -1)


def fit_trans_s(model: ManifoldModel, points) -> TransSFit:
    """Fit ``(nabla_X f)Y`` against the characteristic-function template.

    Template per structure index i:
    ``alpha_i (g(fX, fY) xi_i + eta_i(Y) f^2 X) + beta_i (g(fX, Y) xi_i -
    eta_i(Y) f X)``, fitted over every basis pair (X, Y) at every point.
    When every h_alpha vanishes (Killing structure fields) also measures the
    residual of ``R(X, xi_alpha)Y = -(nabla_X f)Y``.
    """
    s = model.s
    fr = as_frames(model, points)
    r, c, _, residual = _systems(fr, _trans_s_block, "nabla_f")
    sol, cond = _lstsq_reduced(r, c)
    t421 = None
    if relative_residual([(fr.h_all, 0.0)]) <= IDENTITY_TOL:
        t421 = relative_residual(
            (einsum("pkbam,pcm->pckba", b.riemann31, b.xi), -b.nabla_f[:, None]) for b in _blocks(fr)
        )
    return TransSFit(
        alpha=sol[:s],
        beta=sol[s:],
        residual=residual(sol),
        t421_residual=t421,
        condition=cond,
    )
