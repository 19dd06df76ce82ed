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
fits solved, on every basis pair or triple at every point, over all points
of one stacked :class:`~fcontact.geom.PointFrame` at once, block by block of
points, and compared component by component with ``riemann31`` or
``nabla_f``.  The identities in ``R(X, Y)`` -- the nullity condition, the
R(X, Y)fZ expansion, the constant-H curvature model and the seven-function
ansatz -- are compared on the pairs ``(e_i, e_j)`` with ``i < j`` alone, and
these are exhaustive: ``R(X, Y) = -R(Y, X)``, and every other side is
antisymmetric in X, Y by construction (a term minus its swap, or a factor
``R(X, Y)`` or ``F(X, Y)``), so both sides at ``(e_j, e_i)`` are those at
``(e_i, e_j)`` negated, and at ``(e_i, e_i)`` both vanish.  Their sides are
laid out pair-major, ``[..., q, l, k]`` for component l of the vector at
``(e_i, e_j, e_k)`` on pair q: ``R(e_i, e_j)`` is gathered from
``riemann31`` (:func:`_curvature_pairs`) as one matrix per pair, so that
``R f``, ``f R`` and ``R xi`` are batched matrix products, and the
``g(MX, Z) NY`` terms are antisymmetrized on the pairs (:func:`_xz_y`).  The
identities in ``R(xi_alpha, X)Y`` and ``nabla f`` have no such symmetry and
are built as tensors with ``einsum`` on every pair.  Only H(X), which is not
multilinear, is sampled over random unit sections of L, by
:func:`sample_H_constancy`, also from ``riemann31`` and in blocks of sections
under the same budget, and one sample decides everything about H: its
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
    peak,
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


def _reduce(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(R, Q^T y)`` for ``design = QR`` at every point of a stack ``(P, rows, cols)``:
    the same least-squares problems, with the same singular values, in at most
    as many rows as columns."""
    q, r = np.linalg.qr(design)
    return r, (q.swapaxes(-1, -2) @ y[..., None])[..., 0]


def _lstsq_reduced(r: np.ndarray, c: np.ndarray, columns=slice(None)) -> tuple[np.ndarray, float]:
    """Least-squares solution, and the condition number of its design, of the
    per-point systems whose ``_reduce`` forms are ``(r, c)``, stacked.

    Solving on the small R factors instead of the designs keeps the solve's
    size independent of the number of tensor components.
    """
    r = r[..., columns]
    sol, _, _, sv = np.linalg.lstsq(r.reshape(-1, r.shape[-1]), c.ravel(), rcond=None)
    return sol, float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf


def _pairs(dim: int) -> np.ndarray:
    """The basis pairs ``i < j`` as rows ``(i, j)``, in the order of ``np.triu_indices``: ``(q, 2)``.

    Not ``np.transpose(np.triu_indices(dim, 1))``: that takes 15 us against
    2.4 us (Xeon, numpy 2.4), and nullity, rf and curvature-model each take
    their pairs once per block: about 40 us more on the 3 ms ``check`` of
    ``flat-contact-r3:deformed:0.5`` at 4 points and 2000 samples.
    """
    r = np.arange(dim)
    return np.array((r[:, None] < r).nonzero()).T


def _curvature_pairs(fr: PointFrame, ij: np.ndarray) -> np.ndarray:
    """``R(e_i, e_j)`` as a matrix ``[l, k]`` on each pair of ``ij``, gathered from
    ``riemann31``: ``[..., q, l, k]``, pair-major.  A new array, the caller's to keep."""
    return fr.riemann31.swapaxes(-1, -3).swapaxes(-2, -4)[..., ij[:, 0], ij[:, 1], :, :]


def _xz_y(ij: np.ndarray, *terms) -> np.ndarray:
    """``sum b(X, Z) N Y - b(Y, Z) N X`` over ``terms`` of ``(b, N)`` with
    ``b[..., k, i] = b(e_i, e_k)``, on the pairs ``(X, Y) = (e_i, e_j)`` of ``ij``:
    ``[..., q, l, k]``, pair-major.

    Both halves of the antisymmetric sum are one batched matrix product per
    pair: ``[N e_j, N e_i]`` (columns over the terms) times ``[b(e_i, .), -b(e_j, .)]``,
    so no tensor is formed per term or over the pairs ``i > j``.  For
    ``b = g M`` a term is ``g(M X, Z) N Y``.
    """
    # [..., i, term, k] and [..., j, term, l]
    b, n = (np.concatenate([t[side][..., None, :, :] for t in terms], axis=-3).swapaxes(-1, -3).swapaxes(-1, -2)
            for side in (0, 1))
    v = b.take(ij, axis=-3)  # [..., q, 2, term, k]: b(e_i, .), then b(e_j, .)
    v[..., 1, :, :] *= -1.0
    u = n.take(ij[:, ::-1], axis=-3)  # N e_j, then N e_i
    u, v = (t.reshape(t.shape[:-3] + (-1, t.shape[-1])) for t in (u, v))  # [..., q, 2 * terms, .]
    return u.swapaxes(-1, -2) @ v


# Identities are compared on blocks of points, so that their memory does not
# grow with the number of points: a block holds about this many entries in
# the largest array the identity allocates.  Per point that array has
# ``q dim^2`` entries (``q = dim(dim - 1)/2`` pairs, ``_pair_entries``) for
# nullity, rf and curvature-model: the curvature gathered on the pairs, or
# one side; ``7 q dim^2`` for the gssf design; ``s dim^3`` for r-xi and
# t421, and ``2 s dim^3`` for the trans-s design.  The H sample has ``dim^2``
# entries per section (a row of ``gX (x) fX``), so it draws and evaluates
# ``_BLOCK_ENTRIES // dim^2`` sections at a time.  A block's temporaries peak
# at a few such arrays: at most 1.5 MB at dim 9, where 20 points take two
# blocks, and 0.8 MB for gssf at dims 6 and 8.  A larger budget makes the
# 20-point runs of the dim-9 keys one block, but no faster (2-vCPU Xeon,
# numpy 2.4).
_BLOCK_ENTRIES = 2**15


def _blocks(fr: PointFrame, per_point: int, shared: str = "riemann31"):
    """``fr`` itself, or its slices of ``_BLOCK_ENTRIES / per_point`` points when it has more.

    ``per_point`` is the number of entries per point of the largest array the
    identity allocates.  The ``shared`` array is computed over all of ``fr``
    first, so the slices read it instead of computing it again block by block.
    """
    count, size = len(fr.point), max(1, _BLOCK_ENTRIES // per_point)
    if count <= size:
        return [fr]
    getattr(fr, shared)
    return (fr[i:i + size] for i in range(0, count, size))


def _pair_entries(model: ManifoldModel) -> int:
    """Entries per point of one side laid out on the pairs: ``q dim^2``."""
    return model.dim**3 * (model.dim - 1) // 2


def _systems(fr: PointFrame, block, per_point: int, shared: str = "riemann31", peaks: bool = False):
    """The per-point least-squares systems ``block(fr)`` builds, over blocks of points.

    Returns the ``_reduce`` forms of all points, stacked (``r``
    ``(P, cols, cols)`` and ``c`` ``(P, cols)``), the largest ``|entry|`` of
    each design column when ``peaks`` is set (else ``None``), and
    ``residual(sol, columns)``, the relative residual of a solution on every
    row.  The design of a single block is kept for the residual; several
    blocks are built again one at a time, so that memory does not grow with
    the number of points.
    """
    rs, cs, norms, system = [], [], [], None
    for b in _blocks(fr, per_point, shared):
        system = None  # the last block's system is dropped before the next is built
        system = design, y = block(b)
        r, c = _reduce(design, y)
        rs.append(r)
        cs.append(c)
        if peaks:  # column by column: a reduction that keeps the short column axis is slow
            norms.append([peak(design[..., j]) for j in range(design.shape[-1])])
        del design, y
    kept = [system] if len(rs) == 1 else None

    def residual(sol, columns=slice(None)):
        def pairs():
            for design, y in kept or map(block, _blocks(fr, per_point, shared)):
                yield y, design[..., columns] @ sol
                del design, y  # before the next block is built

        return relative_residual(pairs(), overwrite=True)

    return np.concatenate(rs), np.concatenate(cs), np.max(norms, axis=0) if peaks else None, residual


def _per_alpha(t: np.ndarray) -> np.ndarray:
    """A ``(..., dim, dim)`` tensor broadcast against the ``(..., s, dim, dim)`` ``h_all``."""
    return t[..., None, :, :]


def _nullity_block(fr: PointFrame) -> tuple[np.ndarray, np.ndarray]:
    """Columns ``(A, B)`` and right-hand side ``R(e_i, e_j) xi_alpha`` of the
    nullity condition at each point of ``fr``, over basis pairs i < j, alpha
    and components: ``(P, rows, 2)`` and ``(P, rows)``."""
    count, dim, s = len(fr.point), fr.model.dim, fr.model.s
    ij = _pairs(dim)
    # A = etab(X) f^2 Y - (X <-> Y) and B_alpha = -(etab(X) h_alpha Y - (X <-> Y)), as one
    # term whose N stacks f^2 and the -h_alpha along its rows: [p, q, 1 + s, l]
    n = np.concatenate([fr.f2[:, None], -fr.h_all], axis=1).reshape(count, -1, dim)
    ab = _xz_y(ij, (fr.eta_bar[:, None], n)).reshape(count, len(ij), 1 + s, dim)
    y = fr.xi[:, None] @ _curvature_pairs(fr, ij).swapaxes(-1, -2)  # [p, q, alpha, l]
    design = np.empty(y.shape + (2,))
    design[..., 0] = ab[:, :, :1]
    design[..., 1] = ab[:, :, 1:]
    return design.reshape(count, -1, 2), y.reshape(count, -1)


def fit_nullity(model: ManifoldModel, points, vector_samples: int = 200, rng=0) -> NullityFit:
    """Fit (kappa, mu) by least squares over every component of the nullity condition.

    Each point contributes ``R(e_i, e_j) xi_alpha = kappa * A + mu * B`` for
    every alpha, every basis pair ``i < j`` (both sides are antisymmetric in
    i, j) and every component.  ``vector_samples`` and ``rng`` are accepted
    for compatibility and unused.  Here, and only here, kappa counts as below
    1 when ``1 - kappa > FIT_TOL``; ``lam`` records the outcome.
    """
    frame = as_frames(model, points)
    r, c, (a_norm, b_norm), residual = _systems(frame, _nullity_block, _pair_entries(model), peaks=True)
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

    return relative_residual(map(sides, _blocks(as_frames(model, points), model.s * model.dim**3)), overwrite=True)


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
    """Both sides of the R(X, Y)fZ expansion on the basis pairs i < j, ``[..., q, l, k]``
    (``_xz_y``), at one point or over a batch.

    ``R(X, Y)fZ = f R(X, Y)Z + (kappa, mu, s) correction terms`` in f, h,
    f^2, fh, etab and xib.  Both are new arrays, the caller's to keep.
    """
    f, fh, g, s = fr.f, fr.f @ fr.h, fr.g, fr.model.s
    c = kappa * f + mu * fh
    p, q = fr.h - fr.f2, f + fh
    ij = _pairs(fr.model.dim)
    rhs = _xz_y(
        ij,
        (g @ c, _outer(fr.xi_bar, fr.eta_bar)),
        (g @ p, s * q),
        (g @ q, s * p),
        (_outer(fr.eta_bar, fr.eta_bar), c),
    )
    r, f = _curvature_pairs(fr, ij), f[..., None, :, :]
    lhs = r @ f
    rhs += f @ r
    return lhs, rhs


def check_rf_identity(model: ManifoldModel, fit: NullityFit, points) -> float:
    """Relative residual of the R(X, Y)fZ expansion on every basis triple."""
    kappa, mu = fit.kappa, fit.mu_effective
    blocks = _blocks(as_frames(model, points), _pair_entries(model))
    return relative_residual((_rf_sides(fr, kappa, mu) for fr in blocks), overwrite=True)


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


def _f_sectional_rows(r31: np.ndarray, f: np.ndarray, eta: np.ndarray, g: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``H(X) = g(R(X, fX)fX, X)`` for each row of ``X``, shaped ``(P, N, dim)``:
    N unit vectors in L at each of P points, whose ``riemann31``, ``f``,
    ``eta`` and ``g`` are the other arguments, each over the same leading
    point axis.  Returns ``(P, N)``.

    H is ``(gX (x) fX) R (X (x) fX)`` with ``riemann31[p]`` as a
    ``(dim^2, dim^2)`` matrix, rows ``(l, k)`` and columns ``(i, j)``.  A row
    that is not a g-unit vector in L, or holds a NaN, raises.
    """
    count, rows, dim = X.shape
    fx = X @ f.swapaxes(-1, -2)
    eta_res = peak(X @ eta.swapaxes(-1, -2))
    if not eta_res <= SECTION_TOL:  # a NaN fails too
        raise InvalidSectionError(f"X has eta components of size {eta_res}")
    for name, v in (("X", X), ("fX", fx)):
        if not peak(np.einsum("pni,pij,pnj->pn", v, g, v) - 1.0) <= SECTION_TOL:
            raise InvalidSectionError(f"{name} is not a g-unit vector")
    u, w = _outer(X @ g, fx).reshape(count, rows, -1), _outer(X, fx).reshape(count, rows, -1)
    return np.einsum("pnk,pnk->pn", u @ r31.reshape(count, dim * dim, dim * dim), w)


def f_sectional(model: ManifoldModel, p: Point | PointFrame, X) -> float:
    """Sectional curvature of the plane {X, fX} for a unit X in L."""
    fr = as_frame(model, p)
    arrays = (a[None] for a in (fr.riemann31, fr.f, fr.eta, fr.g))  # a batch of one point
    return float(_f_sectional_rows(*arrays, np.asarray(X, dtype=float)[None, None])[0, 0])


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
    stream ``rng``: the blocking below does not change which sections a seed
    gives.  The sections are drawn and evaluated ``rows = _BLOCK_ENTRIES //
    dim^2`` at a time at most: a group of as many whole points as that holds,
    or one point in chunks of ``rows`` when it alone has more.  The splitting
    formula (``_splitting_rows``) is evaluated on the same rows.
    """
    if isinstance(sections_per_point, bool) or not isinstance(sections_per_point, (int, np.integer)) \
            or sections_per_point < 1:
        raise InsufficientSampleError(
            f"sections_per_point must be an integer of at least 1, got {sections_per_point!r}")
    fr, rng = as_frames(model, points), np.random.default_rng(rng)
    lam = None if fit is None else fit.lam
    rows = max(1, _BLOCK_ENTRIES // model.dim**2)
    count, group, chunk = len(fr.point), max(1, rows // sections_per_point), min(rows, sections_per_point)
    values, pairs = [], []
    for start in range(0, count, group):
        at = slice(start, min(start + group, count))
        arrays = fr.riemann31[at], fr.f[at], fr.eta[at], fr.g[at]
        for first in range(0, sections_per_point, chunk):  # once, unless the group is one point
            n = min(chunk, sections_per_point - first)
            X = np.stack([_unit_sections(rng, fr.proj_L[i], fr.g[i], n) for i in range(at.start, at.stop)])
            values.append(_f_sectional_rows(*arrays, X))
            if lam is not None:
                pairs.append((values[-1], _splitting_rows(fr, X, fit, at)))
            del X  # before the next rows are drawn: memory holds one block's sections
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
        ij = _pairs(model.dim)
        rhs = _xz_y(
            ij,
            (g @ f2, 4 * s * h - (H + 3 * s) * f2),
            (g @ h, 4 * s * f2 - 2 * s * h),
            (g @ fh, 2 * s * fh),
            (fr.F.swapaxes(1, 2), (H - s) * f),
            (_outer(fr.eta_bar, fr.eta_bar), 4 * k),
            # -4 etab(X) g(kY, Z) xib, antisymmetrized as +4 g(kX, Z) etab(Y) xib
            ((g @ k).swapaxes(1, 2), 4 * _outer(fr.xi_bar, fr.eta_bar)),
        )
        rhs += (2 * (H - s) * fr.F[:, ij[:, 0], ij[:, 1], None, None]) * f[:, None]
        lhs = _curvature_pairs(fr, ij)
        lhs *= 4.0
        return lhs, rhs

    return relative_residual(map(sides, _blocks(as_frames(model, points), _pair_entries(model))), overwrite=True)


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

    The seven basis tensors, on the pairs as ``_xz_y`` lays them out ([q, l, k]):
    ``t1 = g(Y, Z)X - g(X, Z)Y``,
    ``t2 = g(X, fZ)fY - g(Y, fZ)fX + 2 g(X, fY)fZ``,
    ``t_ab = eta_a(X) eta_b(Z)Y - eta_a(Y) eta_b(Z)X + g(X, Z) eta_a(Y) xi_b
    - g(Y, Z) eta_a(X) xi_b`` for (a, b) = (1, 1), (2, 2), (1, 2), (2, 1),
    ``t7 = eta_1(X) eta_2(Y) (eta_2(Z) xi_1 - eta_1(Z) xi_2) - (X <-> Y)``.
    The ``g(MX, Z) NY`` parts of t1 to t6 are one ``_xz_y`` over a column
    axis, with two terms per column (t1 and t2 have one, and a zero).
    """
    count, dim = len(fr.point), fr.model.dim
    ij = _pairs(dim)
    g, f, eta, xi = fr.g, fr.f, fr.eta, fr.xi
    a, b = [0, 1, 0, 1], [0, 1, 1, 0]  # (a, b) of t3..t6
    eye, zero = np.broadcast_to(np.eye(dim), (count, 2, dim, dim)), np.zeros((count, 2, dim, dim))
    gs = np.broadcast_to(g[:, None], (count, 4, dim, dim))
    xz = _xz_y(
        ij,
        (np.concatenate([g[:, None], fr.F.swapaxes(1, 2)[:, None], _outer(eta[:, b], eta[:, a])], axis=1),
         np.concatenate([-eye[:, :1], f[:, None], eye, eye], axis=1)),
        (np.concatenate([zero, gs], axis=1), np.concatenate([zero, _outer(xi[:, b], eta[:, a])], axis=1)),
    )  # [p, column, q, l, k]
    xz[:, 1] += (2.0 * fr.F[:, ij[:, 0], ij[:, 1], None, None]) * f[:, None]
    e1, e2 = eta[:, 0, ij], eta[:, 1, ij]  # [p, q, (i, j)]
    t7 = (e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])[..., None, None] * (
        _outer(xi[:, 0], eta[:, 1]) - _outer(xi[:, 1], eta[:, 0]))[:, None]
    design = np.concatenate([xz, t7[:, None]], axis=1).reshape(count, 7, -1).swapaxes(1, 2)
    return design, _curvature_pairs(fr, ij).reshape(count, -1)


def fit_gssf(model: ManifoldModel, points) -> GssfFit:
    """Fit the seven-function curvature ansatz (two structure vector fields).

    One least-squares solve over every component of ``R(e_i, e_j)e_k`` with
    ``i < j`` at every point, plus every point's own solve, batched, for the spread.
    """
    if model.s != 2:
        raise NotApplicableError("the seven-function ansatz is defined for s = 2")
    r, c, _, residual = _systems(as_frames(model, points), _gssf_block, 7 * _pair_entries(model))
    # lstsq's cutoff, passed by position: the ``rtol`` keyword needs numpy 2
    local = (np.linalg.pinv(r, np.finfo(float).eps * max(r.shape[-2:])) @ c[..., None])[..., 0]
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
    r, c, _, residual = _systems(fr, _trans_s_block, 2 * s * model.dim**3, "nabla_f")
    sol, cond = _lstsq_reduced(r, c)
    t421 = None
    if relative_residual([(fr.h_all, 0.0)]) <= IDENTITY_TOL:
        t421 = relative_residual(
            ((-b.nabla_f[:, None], einsum("pkbam,pcm->pckba", b.riemann31, b.xi))
             for b in _blocks(fr, s * model.dim**3)),
            overwrite=True,
        )
    return TransSFit(
        alpha=sol[:s],
        beta=sol[s:],
        residual=residual(sol),
        t421_residual=t421,
        condition=cond,
    )
