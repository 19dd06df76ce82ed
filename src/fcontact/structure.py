"""Pointwise structure tensors and the axiom battery for metric f-manifolds.

The defining identities checked here, for ``alpha, beta = 1..s``:

* ``eta_alpha(xi_beta) = delta``, ``f xi_alpha = 0``, ``eta_alpha o f = 0``,
* ``f^2 = -I + sum eta_alpha (x) xi_alpha``,
* ``g(fX, fY) = g(X, Y) - sum eta_alpha(X) eta_alpha(Y)``,
* contact condition ``F = d eta_alpha``, where ``F(X, Y) = g(X, fY)`` and
  ``d`` is Blair's exterior derivative (:mod:`fcontact.geom`),
* normality ``[f, f] + 2 sum xi_alpha (x) d eta_alpha = 0``.

The operators ``h_alpha = 1/2 L_{xi_alpha} f`` are always computed from Lie
derivatives, never assumed zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import ManifoldModel, Point, PointFrame, as_frame, as_frames
from .tolerances import IDENTITY_TOL, RANK_THRESHOLD, relative_residual


@dataclass(frozen=True)
class StructureTensors:
    """All structure tensors of a metric f-manifold at one point.

    ``normality`` holds the full normality tensor
    ``[f, f] + 2 sum xi_alpha (x) d eta_alpha`` with ``normality[k, i, j]``
    the component ``k`` of its value on ``(e_i, e_j)``; ``d_eta[a]`` is
    ``d eta_alpha`` (``PointFrame.d_eta``).
    """

    point: np.ndarray
    g_mat: np.ndarray          # (dim, dim)
    f_mat: np.ndarray          # (dim, dim)
    F_mat: np.ndarray          # (dim, dim), F_ij = g(e_i, f e_j)
    d_eta: np.ndarray          # (s, dim, dim)
    h_mat: np.ndarray          # (s, dim, dim)
    normality: np.ndarray      # (dim, dim, dim)
    xi_mat: np.ndarray         # (s, dim)
    eta_mat: np.ndarray        # (s, dim)
    xi_bar: np.ndarray         # (dim,)
    eta_bar: np.ndarray        # (dim,)


def structure_at(model: ManifoldModel, p: Point | PointFrame, frame: PointFrame | None = None) -> StructureTensors:
    """Every structure tensor of ``model`` at ``p``, read from ``frame`` when given.

    A ``frame`` at another point than ``p`` raises ``ValueError``.
    """
    fr = as_frame(model, p if frame is None else frame)
    if frame is not None:
        point = p.point if isinstance(p, PointFrame) else np.asarray(p, dtype=float)
        if not np.array_equal(fr.point, point, equal_nan=True):
            raise ValueError(f"the frame is at {fr.point}, not at the point given, {point}")
    return StructureTensors(
        point=fr.point,
        g_mat=fr.g,
        f_mat=fr.f,
        F_mat=fr.F,
        d_eta=fr.d_eta,
        h_mat=fr.h_all,
        normality=fr.normality,
        xi_mat=fr.xi,
        eta_mat=fr.eta,
        xi_bar=fr.xi_bar,
        eta_bar=fr.eta_bar,
    )


@dataclass(frozen=True)
class AxiomReport:
    """Relative residuals of the metric f-manifold axioms over every point."""

    r_eta_xi: float
    r_f_xi: float
    r_eta_f: float
    r_f_squared: float
    r_compat: float
    r_contact: np.ndarray      # per alpha
    r_rank: float              # normalized (2n+1)-th singular value of f
    rank_detected: int
    expected_rank: int
    h_symmetry: float          # g-self-adjointness of every h_alpha
    h_trace: float
    h_anticommute: float       # fh = -hf
    h_xi: float                # h_alpha xi_beta = 0
    eta_h: float               # eta_alpha o h_beta = 0

    def pass_flags(self, tol: float = IDENTITY_TOL) -> dict[str, bool]:
        return {
            "eta_xi": self.r_eta_xi <= tol,
            "f_xi": self.r_f_xi <= tol,
            "eta_f": self.r_eta_f <= tol,
            "f_squared": self.r_f_squared <= tol,
            "compat": self.r_compat <= tol,
            "contact": bool(np.all(self.r_contact <= tol)),
            "rank": self.r_rank <= tol and self.rank_detected == self.expected_rank,
            "h_properties": self.r_h_properties <= tol,
        }

    @property
    def r_axioms(self) -> float:
        """Worst residual of the f-structure axioms proper, rank included."""
        return max(self.r_eta_xi, self.r_f_xi, self.r_eta_f, self.r_f_squared, self.r_compat, self.r_rank)

    @property
    def r_h_properties(self) -> float:
        """Worst residual of the algebraic properties of the h_alpha."""
        return max(self.h_symmetry, self.h_trace, self.h_anticommute, self.h_xi, self.eta_h)

    @property
    def max_residual(self) -> float:
        return max(self.r_axioms, float(np.max(self.r_contact)), self.r_h_properties)


def check_f_axioms(model: ManifoldModel, points) -> AxiomReport:
    """Run the full axiom battery over ``points`` and report its residuals.

    Each identity is evaluated on the tensors of all points stacked along a
    leading axis, as the two sides of one :func:`relative_residual`, so a NaN
    at any point propagates into its residual.  The identities that set a
    product to zero (``f xi``, ``eta o f``, ``tr h``, ``h xi``, ``eta o h``)
    are judged against the product of their factors' largest components as
    well.  The rank residual is the (2n+1)-th singular value of ``f``
    relative to its largest.
    """
    frame = as_frames(model, points)
    dim, s, two_n = model.dim, model.s, 2 * model.n
    f, g, xi, eta, f2, h = frame.f, frame.g, frame.xi, frame.eta, frame.f2, frame.h_all  # h is (points, s, dim, dim)
    xi_t, eta_t = np.swapaxes(xi, 1, 2), np.swapaxes(eta, 1, 2)

    sv = np.linalg.svd(f, compute_uv=False)
    ranks = np.sum(sv > RANK_THRESHOLD * sv[:, :1], axis=1)
    gh = g[:, None] @ h
    f_size, xi_size, eta_size, h_size = (float(np.max(np.abs(t))) for t in (f, xi, eta, h))
    return AxiomReport(
        r_eta_xi=relative_residual([(eta @ xi_t, np.eye(s))]),
        r_f_xi=relative_residual([(f @ xi_t, 0.0)], f_size * xi_size),
        r_eta_f=relative_residual([(eta @ f, 0.0)], eta_size * f_size),
        r_f_squared=relative_residual([(f2, np.einsum("pai,paj->pij", xi, eta) - np.eye(dim))]),
        r_compat=relative_residual([(np.swapaxes(f, 1, 2) @ g @ f, g - eta_t @ eta)]),
        r_contact=check_contact(model, frame),
        r_rank=float(np.max(sv[:, two_n] / sv[:, 0])) if dim > two_n else 0.0,
        rank_detected=int(ranks[np.argmax(np.abs(ranks - two_n))]),  # the point furthest from 2n
        expected_rank=two_n,
        h_symmetry=relative_residual([(gh, np.swapaxes(gh, 2, 3))]),
        h_trace=relative_residual([(np.trace(h, axis1=2, axis2=3), 0.0)], h_size),
        h_anticommute=relative_residual([(f[:, None] @ h, -(h @ f[:, None]))]),
        h_xi=relative_residual([(h @ xi_t[:, None], 0.0)], h_size * xi_size),
        eta_h=relative_residual([(eta[:, None] @ h, 0.0)], eta_size * h_size),
    )


def check_contact(model: ManifoldModel, points) -> np.ndarray:
    """Per-alpha relative residual of ``F = d eta_alpha`` over ``points``."""
    frame = as_frames(model, points)
    return np.array([relative_residual([(frame.F, frame.d_eta[:, a])]) for a in range(model.s)])


def check_normality(model: ManifoldModel, points) -> float:
    """Relative residual of ``[f, f] = -2 sum xi_alpha (x) d eta_alpha`` over ``points``."""
    fr = as_frames(model, points)
    return relative_residual([(fr.nijenhuis, -2.0 * fr.xi_d_eta)])


def killing_check(model: ManifoldModel, alpha: int, points) -> float:
    """Relative residual of ``L_{xi_alpha} g = 0`` over ``points``.

    ``(L_xi g)_ij = xi^m d_m g_ij + g_mj d_i xi^m + g_im d_j xi^m``; the
    structure field is Killing iff this vanishes, which happens iff
    ``h_alpha = 0``.  The first term is compared with minus the other two.
    ``alpha`` names the structure field ``xi_alpha``: an integer in ``[0, s)``;
    anything else raises ``ValueError``.
    """
    if isinstance(alpha, bool) or not isinstance(alpha, (int, np.integer)) or not 0 <= alpha < model.s:
        raise ValueError(f"alpha must be an integer in [0, {model.s}), got {alpha!r}")
    fr = as_frames(model, points)
    dxi = fr.dxi[:, alpha]
    return relative_residual([(
        np.einsum("pm,pijm->pij", fr.xi[:, alpha], fr.dg),
        -np.einsum("pmj,pmi->pij", fr.g, dxi) - np.einsum("pim,pmj->pij", fr.g, dxi),
    )])
