"""Coordinate-chart manifold models and Levi-Civita / curvature machinery.

A :class:`ManifoldModel` bundles the metric, the rank-``2n`` structure tensor
``f``, the ``s`` structure vector fields ``xi_alpha`` and dual one-forms
``eta_alpha`` as *field evaluators*: callables mapping a coordinate array to
componentwise values.  Evaluators must accept coordinates that are
:class:`~fcontact.jets.Jet` scalars, which is how every derivative in this
package is obtained.

Sign conventions (pinned operationally by the test suite):

* curvature operator ``R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z -
  nabla_[X,Y] Z``; in coordinates ``R(e_i, e_j)e_k = R^l_kij e_l`` with
  ``R^l_kij = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk -
  Gamma^l_jm Gamma^m_ik``,
* ``Ric(X, Y) = trace(Z -> R(Z, X)Y)`` and ``g(QX, Y) = Ric(X, Y)``.

Under these choices the built-in S-structure fits ``kappa = +1``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import jets
from .errors import DegenerateMetricError, InsufficientSampleError
from .tolerances import METRIC_CONDITION_MAX

Point = np.ndarray
FieldEvaluator = Callable[[np.ndarray], np.ndarray]


class Convention(str, enum.Enum):
    """Exterior-derivative factor a model satisfies ``F = d eta`` under.

    ``PLAIN``: ``(d eta)_ij = d_i eta_j - d_j eta_i``.  ``HALF``: half of that.
    """

    HALF = "half"
    PLAIN = "plain"


@dataclass(frozen=True)
class ManifoldModel:
    """Chart description of a (2n+s)-dimensional metric f-manifold.

    Immutable and safely shareable: every operation in this package is a pure
    function of the model and its points, so evaluation may be parallelized
    over points; reductions in the library itself are ordered and
    deterministic for a fixed seed.  Wherever an operation takes points it
    also accepts :class:`PointFrame` s of the same model, which lets a caller
    evaluate each point once and share it between operations.
    """

    n: int
    s: int
    metric_field: FieldEvaluator
    f_field: FieldEvaluator
    xi_fields: tuple[FieldEvaluator, ...]
    eta_fields: tuple[FieldEvaluator, ...]
    domain_box: np.ndarray = field(repr=False)  # (dim, 2) sampling intervals
    d_convention: Convention = Convention.HALF
    label: str = ""

    @property
    def dim(self) -> int:
        return 2 * self.n + self.s


# ---------------------------------------------------------------------------
# Per-point evaluation frame
# ---------------------------------------------------------------------------


class PointFrame:
    """All field values, derivatives, curvature and structure tensors of a model
    at one point, each computed on first use and then kept.

    Evaluates every field once on jet-seeded coordinates and exposes float
    arrays.  Derivative indices always come last: ``dg[i, j, k] = d_k g_ij``,
    ``d2g[i, j, k, l] = d_k d_l g_ij``, ``df[i, j, k] = d_k f^i_j``.  The
    cached arrays are shared with every caller and must not be modified.
    """

    def __init__(self, model: ManifoldModel, point: Point):
        self.model = model
        self.point = np.asarray(point, dtype=float)
        self._x = jets.variables(self.point)

    # -- raw field data ----------------------------------------------------

    @cached_property
    def _g_raw(self):
        return self.model.metric_field(self._x)

    @cached_property
    def g(self):
        return jets.tensor_value(self._g_raw)

    @cached_property
    def dg(self):
        return jets.tensor_jacobian(self._g_raw, self.model.dim)

    @cached_property
    def d2g(self):
        return jets.tensor_hessian(self._g_raw, self.model.dim)

    @cached_property
    def ginv(self):
        """Inverse metric; a singular ``g``, or one whose condition number
        (in the max-row-sum norm) exceeds ``METRIC_CONDITION_MAX``, raises."""
        g = self.g
        try:
            ginv = np.linalg.inv(g)
        except np.linalg.LinAlgError as exc:
            raise DegenerateMetricError(self.point) from exc
        cond = np.abs(g).sum(axis=1).max() * np.abs(ginv).sum(axis=1).max()
        if not cond <= METRIC_CONDITION_MAX:
            raise DegenerateMetricError(self.point, f"metric condition number {cond:.3g} is too large")
        return ginv

    @cached_property
    def _f_raw(self):
        return self.model.f_field(self._x)

    @cached_property
    def f(self):
        return jets.tensor_value(self._f_raw)

    @cached_property
    def df(self):
        return jets.tensor_jacobian(self._f_raw, self.model.dim)

    @cached_property
    def _xi_raw(self):
        return [xi(self._x) for xi in self.model.xi_fields]

    @cached_property
    def xi(self):
        return np.stack([jets.tensor_value(v) for v in self._xi_raw])

    @cached_property
    def dxi(self):
        return np.stack([jets.tensor_jacobian(v, self.model.dim) for v in self._xi_raw])

    @cached_property
    def _eta_raw(self):
        return [eta(self._x) for eta in self.model.eta_fields]

    @cached_property
    def eta(self):
        return np.stack([jets.tensor_value(v) for v in self._eta_raw])

    @cached_property
    def deta(self):
        return np.stack([jets.tensor_jacobian(v, self.model.dim) for v in self._eta_raw])

    # -- connection and curvature ------------------------------------------

    @cached_property
    def gamma(self):
        """Christoffel symbols ``gamma[k, i, j] = Gamma^k_ij``."""
        dg = self.dg
        # Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij)
        bracket = (
            np.einsum("jli->lij", dg)
            + np.einsum("ilj->lij", dg)
            - np.einsum("ijl->lij", dg)
        )
        return 0.5 * np.einsum("kl,lij->kij", self.ginv, bracket)

    @cached_property
    def dgamma(self):
        """``dgamma[k, i, j, m] = d_m Gamma^k_ij``."""
        dg, d2g, ginv = self.dg, self.d2g, self.ginv
        # d_m g^kl = -g^ka (d_m g_ab) g^bl
        dginv = -np.einsum("ka,abm,bl->klm", ginv, dg, ginv)
        bracket = (
            np.einsum("jli->lij", dg)
            + np.einsum("ilj->lij", dg)
            - np.einsum("ijl->lij", dg)
        )
        dbracket = (
            np.einsum("jlim->lijm", d2g)
            + np.einsum("iljm->lijm", d2g)
            - np.einsum("ijlm->lijm", d2g)
        )
        return 0.5 * (
            np.einsum("klm,lij->kijm", dginv, bracket)
            + np.einsum("kl,lijm->kijm", ginv, dbracket)
        )

    @cached_property
    def riemann31(self):
        """``riemann31[l, k, i, j]`` = component ``l`` of ``R(e_i, e_j)e_k``."""
        gamma, dgamma = self.gamma, self.dgamma
        return (
            np.einsum("ljki->lkij", dgamma)
            - np.einsum("likj->lkij", dgamma)
            + np.einsum("lim,mjk->lkij", gamma, gamma)
            - np.einsum("ljm,mik->lkij", gamma, gamma)
        )

    @cached_property
    def riemann40(self):
        """``riemann40[i, j, k, l] = g(R(e_i, e_j)e_k, e_l)``."""
        return np.einsum("ml,mkij->ijkl", self.g, self.riemann31)

    @cached_property
    def ricci(self):
        """``ricci[a, b] = trace(Z -> R(Z, e_a)e_b)``."""
        return np.einsum("mbma->ab", self.riemann31)

    @cached_property
    def ricci_op(self):
        return self.ginv @ self.ricci

    @cached_property
    def nabla_f(self):
        """Covariant derivative ``nabla_f[k, b, a]`` = comp. k of ``(nabla_a f)e_b``."""
        return (
            self.df
            + np.einsum("kam,mb->kba", self.gamma, self.f)
            - np.einsum("mab,km->kba", self.gamma, self.f)
        )

    def curvature_operator(self, X, Y, Z):
        """The vector ``R(X, Y)Z`` at this point."""
        return np.einsum("lkij,i,j,k->l", self.riemann31, X, Y, Z)

    def inner(self, u, v):
        return float(u @ self.g @ v)

    # -- structure tensors ---------------------------------------------------

    @cached_property
    def F(self):
        """``F[i, j] = g(e_i, f e_j)``."""
        return self.g @ self.f

    @cached_property
    def f2(self):
        return self.f @ self.f

    @cached_property
    def xi_bar(self):
        return self.xi.sum(axis=0)

    @cached_property
    def eta_bar(self):
        return self.eta.sum(axis=0)

    def d_eta(self, convention: Convention | None = None):
        """``d_eta[a, i, j] = (d eta_a)_ij`` under ``convention`` (None: the model's)."""
        plain = np.einsum("aij->aji", self.deta) - self.deta  # d_i eta_j - d_j eta_i
        conv = self.model.d_convention if convention is None else convention
        return 0.5 * plain if conv is Convention.HALF else plain

    @cached_property
    def h_all(self):
        """``h_all[a] = h_alpha = 1/2 L_{xi_alpha} f``, from Lie derivatives."""
        # (L_xi f)^i_j = xi^m d_m f^i_j - f^m_j d_m xi^i + f^i_m d_j xi^m
        f, df, xi, dxi = self.f, self.df, self.xi, self.dxi
        return 0.5 * (
            np.einsum("am,ijm->aij", xi, df)
            - np.einsum("mj,aim->aij", f, dxi)
            + np.einsum("im,amj->aij", f, dxi)
        )

    @property
    def h(self):
        return self.h_all[0]

    @cached_property
    def h_max(self) -> float:
        return float(np.max(np.abs(self.h_all)))

    @cached_property
    def normality(self):
        """``normality[k, i, j]``: component k of ``[f, f] + 2 sum xi_a (x) d eta_a`` on (e_i, e_j)."""
        f, df = self.f, self.df
        # N^k_ij = f^m_i d_m f^k_j - f^m_j d_m f^k_i + f^k_m (d_j f^m_i - d_i f^m_j)
        nijenhuis = (
            np.einsum("mi,kjm->kij", f, df)
            - np.einsum("mj,kim->kij", f, df)
            + np.einsum("km,mij->kij", f, df)
            - np.einsum("km,mji->kij", f, df)
        )
        return nijenhuis + 2.0 * np.einsum("ak,aij->kij", self.xi, self.d_eta())

    @property
    def proj_L(self):
        """Projector onto L: ``-f^2 = I - sum xi_alpha (x) eta_alpha``."""
        return -self.f2

    def random_unit_sections(self, rng, count: int) -> np.ndarray:
        """``count`` random g-unit vectors in L, as rows (projected Gaussians, normalized).

        Draws whose projection has norm below 1e-3 are skipped, so the rows
        are those that ``count`` draws made one after another would give.
        """
        P, rows, need = self.proj_L, [], count
        while need:
            v = rng.standard_normal((need, self.model.dim)) @ P.T
            norm = np.sqrt(np.maximum(np.einsum("ni,ij,nj->n", v, self.g, v), 0.0))
            keep = norm >= 1e-3
            if not keep.any():
                raise InsufficientSampleError("could not draw a unit vector in L")
            rows.append(v[keep] / norm[keep, None])
            need -= int(keep.sum())
        return np.concatenate(rows)


def as_frame(model: ManifoldModel, p: Point | PointFrame) -> PointFrame:
    """``p`` itself when it is a frame of ``model``, else a new frame at ``p``."""
    if isinstance(p, PointFrame):
        if p.model is not model:
            raise ValueError("the PointFrame belongs to a different model")
        return p
    return PointFrame(model, p)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureData:
    """Riemann tensor (3,1) and (4,0) forms plus the Ricci operator."""

    riemann31: np.ndarray
    riemann40: np.ndarray
    ricci_op: np.ndarray


def riemann(model: ManifoldModel, p: Point | PointFrame) -> CurvatureData:
    """Curvature tensor and Ricci operator at ``p``."""
    frame = as_frame(model, p)
    return CurvatureData(frame.riemann31, frame.riemann40, frame.ricci_op)


def sample_points(model: ManifoldModel, count: int, seed) -> list[Point]:
    """Deterministic uniform samples from the model's domain box; ``seed`` is
    anything ``np.random.default_rng`` takes, a ``Generator`` being used as is."""
    box = np.asarray(model.domain_box, dtype=float)
    if box.ndim != 2 or box.shape != (model.dim, 2) or np.any(box[:, 1] <= box[:, 0]):
        raise ValueError(f"empty or malformed domain box: {box!r}")
    draws = np.random.default_rng(seed).uniform(box[:, 0], box[:, 1], size=(count, model.dim))
    return [draws[i] for i in range(count)]
