"""Pointwise structure tensors and the axiom battery for metric f-manifolds.

The defining identities checked here, for ``alpha, beta = 1..s``:

* ``eta_alpha(xi_beta) = delta``, ``f xi_alpha = 0``, ``eta_alpha o f = 0``,
* ``f^2 = -I + sum eta_alpha (x) xi_alpha``,
* ``g(fX, fY) = g(X, Y) - sum eta_alpha(X) eta_alpha(Y)``,
* contact condition ``F = d eta_alpha`` under the model's declared
  exterior-derivative convention, where ``F(X, Y) = g(X, fY)``,
* normality ``[f, f] + 2 sum xi_alpha (x) d eta_alpha = 0``.

The operators ``h_alpha = 1/2 L_{xi_alpha} f`` are always computed from Lie
derivatives, never assumed zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geom import Convention, ManifoldModel, Point, PointFrame, as_frame
from .tolerances import IDENTITY_TOL, relative_residual

RANK_THRESHOLD = 1e-6  # relative singular-value cutoff for rank(f)


@dataclass(frozen=True)
class StructureTensors:
    """All structure tensors of a metric f-manifold at one point.

    ``normality`` holds the full normality tensor
    ``[f, f] + 2 sum xi_alpha (x) d eta_alpha`` with ``normality[k, i, j]``
    the component ``k`` of its value on ``(e_i, e_j)``; ``d_eta`` is stored
    under the model's declared convention.
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
    """Every structure tensor of ``model`` at ``p``, read from ``frame`` when given."""
    fr = as_frame(model, p if frame is None else frame)
    return StructureTensors(
        point=fr.point,
        g_mat=fr.g,
        f_mat=fr.f,
        F_mat=fr.F,
        d_eta=fr.d_eta(),
        h_mat=fr.h_all,
        normality=fr.normality,
        xi_mat=fr.xi,
        eta_mat=fr.eta,
        xi_bar=fr.xi_bar,
        eta_bar=fr.eta_bar,
    )


@dataclass(frozen=True)
class AxiomReport:
    """Max-over-points residuals of the metric f-manifold axioms."""

    r_eta_xi: float
    r_f_xi: float
    r_eta_f: float
    r_f_squared: float
    r_compat: float
    r_contact: np.ndarray      # per alpha
    r_rank: float              # normalized (2n+1)-th singular value of f
    rank_detected: int
    expected_rank: int
    tolerance: float = IDENTITY_TOL
    h_symmetry: float = 0.0    # g-self-adjointness of every h_alpha
    h_trace: float = 0.0
    h_anticommute: float = 0.0  # fh + hf
    h_xi: float = 0.0          # h_alpha xi_beta
    eta_h: float = 0.0         # eta_alpha o h_beta

    def pass_flags(self, tol: float | None = None) -> dict[str, bool]:
        tol = self.tolerance if tol is None else tol
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
    """Run the full axiom battery over ``points`` and report max residuals."""
    points = list(points)
    if not points:
        raise ValueError("check_f_axioms needs a nonempty point list")
    dim, s, two_n = model.dim, model.s, 2 * model.n
    eye = np.eye(dim)

    r_eta_xi = r_f_xi = r_eta_f = r_f2 = r_compat = r_rank = 0.0
    h_sym = h_tr = h_anti = h_xi = eta_h = 0.0
    r_contact = np.zeros(s)
    rank_detected = two_n  # of the point whose rank is furthest from 2n

    for fr in (as_frame(model, p) for p in points):
        f, g, xi, eta = fr.f, fr.g, fr.xi, fr.eta

        r_eta_xi = max(r_eta_xi, float(np.max(np.abs(eta @ xi.T - np.eye(s)))))
        r_f_xi = max(r_f_xi, float(np.max(np.abs(f @ xi.T))))
        r_eta_f = max(r_eta_f, float(np.max(np.abs(eta @ f))))

        proj = sum(np.outer(xi[a], eta[a]) for a in range(s))
        r_f2 = max(r_f2, float(np.max(np.abs(fr.f2 + eye - proj))))

        compat = f.T @ g @ f - g + eta.T @ eta
        r_compat = max(r_compat, float(np.max(np.abs(compat))))

        d_eta = fr.d_eta()
        for a in range(s):
            r_contact[a] = max(r_contact[a], float(np.max(np.abs(fr.F - d_eta[a]))))

        sv = np.linalg.svd(f, compute_uv=False)
        rank = int(np.sum(sv > RANK_THRESHOLD * sv[0]))
        if abs(rank - two_n) > abs(rank_detected - two_n):
            rank_detected = rank
        if dim > two_n:
            r_rank = max(r_rank, float(sv[two_n] / sv[0]))

        for h in fr.h_all:
            gh = g @ h
            h_sym = max(h_sym, float(np.max(np.abs(gh - gh.T))))
            h_tr = max(h_tr, abs(float(np.trace(h))))
            h_anti = max(h_anti, float(np.max(np.abs(f @ h + h @ f))))
            h_xi = max(h_xi, float(np.max(np.abs(h @ xi.T))))
            eta_h = max(eta_h, float(np.max(np.abs(eta @ h))))

    return AxiomReport(
        r_eta_xi=r_eta_xi,
        r_f_xi=r_f_xi,
        r_eta_f=r_eta_f,
        r_f_squared=r_f2,
        r_compat=r_compat,
        r_contact=r_contact,
        r_rank=r_rank,
        rank_detected=rank_detected,
        expected_rank=two_n,
        h_symmetry=h_sym,
        h_trace=h_tr,
        h_anticommute=h_anti,
        h_xi=h_xi,
        eta_h=eta_h,
    )


def check_contact(model: ManifoldModel, points, convention: Convention | None = None) -> np.ndarray:
    """Per-alpha max residual of ``F - d eta_alpha`` under ``convention``.

    ``None`` uses the model's declared convention.
    """
    res = np.zeros(model.s)
    for fr in (as_frame(model, p) for p in points):
        d_eta = fr.d_eta(convention)
        for a in range(model.s):
            res[a] = max(res[a], float(np.max(np.abs(fr.F - d_eta[a]))))
    return res


def check_normality(model: ManifoldModel, points) -> float:
    """Max component of the normality tensor over ``points``."""
    return max(float(np.max(np.abs(as_frame(model, p).normality))) for p in points)


def killing_check(model: ManifoldModel, alpha: int, points) -> float:
    """Relative residual of ``L_{xi_alpha} g = 0`` over ``points``.

    ``(L_xi g)_ij = xi^m d_m g_ij + g_mj d_i xi^m + g_im d_j xi^m``; the
    structure field is Killing iff this vanishes, which happens iff
    ``h_alpha = 0``.  The first term is compared with minus the other two.
    """

    def sides(fr):
        dxi = fr.dxi[alpha]
        return (
            np.einsum("m,ijm->ij", fr.xi[alpha], fr.dg),
            -np.einsum("mj,mi->ij", fr.g, dxi) - np.einsum("im,mj->ij", fr.g, dxi),
        )

    return relative_residual(sides(as_frame(model, p)) for p in points)
