"""Coordinate-chart manifold models and Levi-Civita / curvature machinery.

A :class:`ManifoldModel` describes the metric, the rank-``2n`` structure
tensor ``f``, the ``s`` structure vector fields ``xi_alpha`` and dual
one-forms ``eta_alpha`` by one *field evaluator*, ``fields(x) -> (g, f, xi,
eta)``: a callable mapping a coordinate array to the componentwise values of
all four, so that subexpressions they share are built once.  It must accept
coordinates that are :class:`~fcontact.jets.Jet` scalars, which is how every
derivative in this package is obtained.  Those jets may carry a whole batch
of points, so the evaluator must not branch on coordinate values.

A :class:`PointFrame` runs a model's evaluator once, at one point or at a
batch of points, and keeps every array it computes, batch axis first,
read-only.
Every operation that takes points turns them into one such frame with
:func:`as_frames`; an operation that takes one point uses :func:`as_frame`,
which hands one-point calls made one after another at the same raw point the
same frame.

Conventions (pinned operationally by the test suite):

* the exterior derivative of a one-form is Blair's, ``2 d eta(X, Y) =
  X eta(Y) - Y eta(X) - eta([X, Y])``, so ``(d eta)_ij = 1/2 (d_i eta_j -
  d_j eta_i)``; the contact condition reads ``F = d eta_alpha`` under it,
* curvature operator ``R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z -
  nabla_[X,Y] Z``; in coordinates ``R(e_i, e_j)e_k = R^l_kij e_l`` with
  ``R^l_kij = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk -
  Gamma^l_jm Gamma^m_ik``,
* ``Ric(X, Y) = trace(Z -> R(Z, X)Y)`` and ``g(QX, Y) = Ric(X, Y)``.

Under these choices the built-in S-structure fits ``kappa = +1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import jets
from .errors import DegenerateMetricError, EmptyPointSetError
from .tolerances import METRIC_CONDITION_MAX

Point = np.ndarray
# ``fields(x) -> (g, f, xi, eta)``, shaped (dim, dim), (dim, dim), (s, dim) and
# (s, dim): ``g[i, j]``, ``f[i, j] = f^i_j``, ``xi[a, i] = xi_a^i`` and
# ``eta[a, i] = eta_a(e_i)``.  Entries are jets or plain numbers.
FieldEvaluator = Callable[[np.ndarray], tuple]


# Contractions with an operand above this many entries go through
# ``optimize=True``, which numpy 2 runs as batched matrix products at a fixed
# cost of about 40-50 us per call.  On a 2-vCPU Xeon (numpy 2.4) plain
# ``np.einsum`` of the frame's contractions was faster up to about 900
# entries and ``optimize`` from about 3000 (2.5-9x at 15000), so one-point
# frames stay on the plain path and a batch of points takes the other.
OPTIMIZE_SIZE = 2048


def einsum(subscripts: str, *operands):
    """``np.einsum`` of several operands, contracted through BLAS when one is large."""
    for op in operands:
        if op.size > OPTIMIZE_SIZE:
            return np.einsum(subscripts, *operands, optimize=True)
    return np.einsum(subscripts, *operands)


@dataclass(frozen=True)
class ManifoldModel:
    """Chart description of a (2n+s)-dimensional metric f-manifold.

    Immutable and safely shareable: every operation in this package is a pure
    function of the model and its points; reductions in the library itself
    are ordered and deterministic for a fixed seed.  Wherever an operation
    takes points it also accepts a :class:`PointFrame` of the same model,
    which lets a caller evaluate its points once and share them between
    operations.  ``fields`` (a :data:`FieldEvaluator`) must be a pure
    function of its coordinates: one-point operations repeated at the same
    point reuse the first evaluation (:func:`as_frame`).
    """

    n: int
    s: int
    fields: FieldEvaluator
    domain_box: np.ndarray = field(repr=False)  # (dim, 2) sampling intervals
    label: str = ""

    @property
    def dim(self) -> int:
        return 2 * self.n + self.s

    def metric_field(self, x):
        """``g`` alone, ``fields(x)[0]``.  The stage replay of ``perfbench/tracing.py``
        times the metric through it and requires ``PointFrame.g`` to equal it bit for bit."""
        return self.fields(x)[0]


# ---------------------------------------------------------------------------
# Per-point evaluation frame
# ---------------------------------------------------------------------------


# The fields every other array of a frame is computed from.
_FIELDS = ("g", "dg", "d2g", "f", "df", "xi", "dxi", "eta", "deta")


def _read_only(value):
    """``value``, with each array in it (or it, if an array) made read-only."""
    for arr in value if isinstance(value, tuple) else (value,):
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return value


class _kept(cached_property):
    """A ``cached_property`` whose arrays are made read-only once computed.

    Frames are shared between callers (:func:`as_frame`), so an array one
    caller wrote into would silently change every other caller's results.
    """

    def __get__(self, instance, owner=None):
        value = super().__get__(instance, owner)
        return value if instance is None else _read_only(value)


class PointFrame:
    """All field values, derivatives, curvature and structure tensors of a model
    at one point or at a batch of points, each computed on first use and then kept.

    ``point`` is one point ``(dim,)`` or a batch ``(P, dim)``.  The model's
    evaluator runs once on jet-seeded coordinates, for the whole batch in one
    pass, on first use of any field, and every field is exposed as float
    arrays whose leading axes are the batch shape:
    ``g`` is ``(dim, dim)`` at one point and ``(P, dim, dim)`` over a batch.
    Derivative indices always come last: ``dg[..., i, j, k] = d_k g_ij``,
    ``d2g[..., i, j, k, l] = d_k d_l g_ij``, ``df[..., i, j, k] = d_k f^i_j``.
    ``frame[i]`` and ``frame[i:j]`` are the frames of ``point[i]`` and
    ``point[i:j]``: they share the arrays computed so far and evaluate no
    field again.  The kept arrays, ``point`` among them, are shared with every
    caller and read-only: writing into one raises ``ValueError``.  A caller
    may still set a whole new array on a frame it built itself
    (``frame.riemann31 = r``).  The model's evaluator must be a pure
    function of its coordinates, as a frame may serve many calls.
    """

    def __init__(self, model: ManifoldModel, point: Point):
        self.model = model
        self.point = _read_only(np.array(point, dtype=float))
        if self.point.ndim not in (1, 2) or self.point.shape[-1] != model.dim:
            raise ValueError(f"expected a point ({model.dim},) or points (P, {model.dim}), got {self.point.shape}")
        self._x = jets.variables(self.point)

    def __getitem__(self, index) -> "PointFrame":
        if self.point.ndim != 2:
            raise TypeError("only a frame over a batch of points can be indexed")
        for name in _FIELDS:
            getattr(self, name)
        sub = object.__new__(PointFrame)
        sub.model = self.model
        vars(sub).update(
            (name, value[index]) for name, value in vars(self).items()
            if isinstance(value, np.ndarray) and not name.startswith("_")
        )
        return sub

    def _first(self, flags):
        """Index of the first point whose flag (one per point) is set; ``()`` at one point."""
        return int(np.argmax(flags)) if self.point.ndim == 2 else ()

    # -- field data ----------------------------------------------------------

    @_kept
    def _fields(self):
        """The nine ``_FIELDS`` arrays, from one run of the model's evaluator on
        the frame's jets: ``g`` to second order, ``f``, ``xi`` and ``eta`` to first."""
        g, *rest = self.model.fields(self._x)
        dim, batch = self.model.dim, self.point.shape[:-1]
        parts = jets.tensor_parts(g, dim, 2, batch)
        for tensor in rest:
            parts += jets.tensor_parts(tensor, dim, 1, batch)
        return parts

    # one kept property per part of ``_fields``, named as in ``_FIELDS``
    g, dg, d2g, f, df, xi, dxi, eta, deta = (_kept(lambda self, i=i: self._fields[i]) for i in range(len(_FIELDS)))

    @_kept
    def ginv(self):
        """Inverse metric; a singular ``g``, or one whose condition number
        (in the max-row-sum norm) exceeds ``METRIC_CONDITION_MAX``, at any
        point raises."""
        g = self.g
        try:
            ginv = np.linalg.inv(g)
        except np.linalg.LinAlgError as exc:
            raise DegenerateMetricError(self.point[self._first(np.linalg.det(g) == 0.0)]) from exc
        cond = np.abs(g).sum(axis=-1).max(axis=-1) * np.abs(ginv).sum(axis=-1).max(axis=-1)
        if not (cond <= METRIC_CONDITION_MAX).all():  # a NaN fails too
            i = self._first(~(cond <= METRIC_CONDITION_MAX))
            raise DegenerateMetricError(self.point[i], f"metric condition number {cond[i]:.3g} is too large")
        return ginv

    # -- connection and curvature ------------------------------------------

    @_kept
    def _bracket(self):
        """``_bracket[..., l, i, j] = d_i g_jl + d_j g_il - d_l g_ij``, so that
        ``Gamma^k_ij = 1/2 g^kl _bracket_lij``."""
        dg = self.dg
        return (
            np.einsum("...jli->...lij", dg)
            + np.einsum("...ilj->...lij", dg)
            - np.einsum("...ijl->...lij", dg)
        )

    @_kept
    def gamma(self):
        """Christoffel symbols ``gamma[..., k, i, j] = Gamma^k_ij``."""
        return 0.5 * einsum("...kl,...lij->...kij", self.ginv, self._bracket)

    @_kept
    def dgamma(self):
        """``dgamma[..., k, i, j, m] = d_m Gamma^k_ij``."""
        dg, d2g, ginv, bracket = self.dg, self.d2g, self.ginv, self._bracket
        # d_m g^kl = -g^ka (d_m g_ab) g^bl
        dginv = -einsum("...ka,...abm,...bl->...klm", ginv, dg, ginv)
        # summed in place: over a batch each of these arrays is as large as d2g
        dbracket = np.einsum("...jlim->...lijm", d2g) + np.einsum("...iljm->...lijm", d2g)
        dbracket -= np.einsum("...ijlm->...lijm", d2g)
        out = einsum("...kl,...lijm->...kijm", ginv, dbracket)
        del dbracket
        out += einsum("...klm,...lij->...kijm", dginv, bracket)
        out *= 0.5
        return out

    @_kept
    def riemann31(self):
        """``riemann31[..., l, k, i, j]`` = component ``l`` of ``R(e_i, e_j)e_k``."""
        gamma, dgamma = self.gamma, self.dgamma
        # C order, so that the H sample reads each point's R as a (dim^2, dim^2) matrix without a copy
        out = np.subtract(np.einsum("...ljki->...lkij", dgamma), np.einsum("...likj->...lkij", dgamma), order="C")
        out += einsum("...lim,...mjk->...lkij", gamma, gamma)
        out -= einsum("...ljm,...mik->...lkij", gamma, gamma)
        return out

    @_kept
    def riemann40(self):
        """``riemann40[..., i, j, k, l] = g(R(e_i, e_j)e_k, e_l)``."""
        return einsum("...ml,...mkij->...ijkl", self.g, self.riemann31)

    @_kept
    def ricci(self):
        """``ricci[..., a, b] = trace(Z -> R(Z, e_a)e_b)``."""
        return np.einsum("...mbma->...ab", self.riemann31)

    @_kept
    def ricci_op(self):
        return self.ginv @ self.ricci

    @_kept
    def nabla_f(self):
        """Covariant derivative ``nabla_f[..., k, b, a]`` = comp. k of ``(nabla_a f)e_b``."""
        return (
            self.df
            + einsum("...kam,...mb->...kba", self.gamma, self.f)
            - einsum("...mab,...km->...kba", self.gamma, self.f)
        )

    def curvature_operator(self, X, Y, Z):
        """The vector ``R(X, Y)Z`` at each point of the frame."""
        return np.einsum("...lkij,...i,...j,...k->...l", self.riemann31, X, Y, Z)

    # -- structure tensors ---------------------------------------------------

    @_kept
    def F(self):
        """``F[..., i, j] = g(e_i, f e_j)``."""
        return self.g @ self.f

    @_kept
    def f2(self):
        return self.f @ self.f

    @_kept
    def xi_bar(self):
        return self.xi.sum(axis=-2)

    @_kept
    def eta_bar(self):
        return self.eta.sum(axis=-2)

    @_kept
    def d_eta(self):
        """``d_eta[..., a, i, j] = (d eta_a)_ij = 1/2 (d_i eta_a,j - d_j eta_a,i)``."""
        return 0.5 * (self.deta.swapaxes(-1, -2) - self.deta)

    @_kept
    def h_all(self):
        """``h_all[..., a] = h_alpha = 1/2 L_{xi_alpha} f``, from Lie derivatives."""
        # (L_xi f)^i_j = xi^m d_m f^i_j - f^m_j d_m xi^i + f^i_m d_j xi^m
        f, df, xi, dxi = self.f, self.df, self.xi, self.dxi
        return 0.5 * (
            einsum("...am,...ijm->...aij", xi, df)
            - einsum("...mj,...aim->...aij", f, dxi)
            + einsum("...im,...amj->...aij", f, dxi)
        )

    @property
    def h(self):
        return self.h_all[..., 0, :, :]

    @_kept
    def nijenhuis(self):
        """``nijenhuis[..., k, i, j]``: component k of ``[f, f](e_i, e_j)``."""
        f, df = self.f, self.df
        # N^k_ij = f^m_i d_m f^k_j - f^m_j d_m f^k_i + f^k_m (d_j f^m_i - d_i f^m_j)
        return (
            einsum("...mi,...kjm->...kij", f, df)
            - einsum("...mj,...kim->...kij", f, df)
            + einsum("...km,...mij->...kij", f, df)
            - einsum("...km,...mji->...kij", f, df)
        )

    @_kept
    def xi_d_eta(self):
        """``sum xi_alpha (x) d eta_alpha``, laid out like ``nijenhuis``."""
        return einsum("...ak,...aij->...kij", self.xi, self.d_eta)

    @_kept
    def normality(self):
        """``normality[..., k, i, j]``: component k of ``[f, f] + 2 sum xi_a (x) d eta_a`` on (e_i, e_j)."""
        return self.nijenhuis + 2.0 * self.xi_d_eta

    @_kept
    def proj_L(self):
        """Projector onto L: ``-f^2 = I - sum xi_alpha (x) eta_alpha``."""
        return -self.f2


def _check_model(frame: PointFrame, model: ManifoldModel) -> None:
    if frame.model is not model:
        raise ValueError("the PointFrame belongs to a different model")


# The frame the last ``as_frame`` call built from a raw point.
_last_frame: PointFrame | None = None


def as_frame(model: ManifoldModel, p: Point | PointFrame) -> PointFrame:
    """``p`` itself when it is a one-point frame of ``model``, else the frame at ``p``.

    The last frame built here from a raw point is kept and returned again
    while the calls name the same model object and a point of the same
    shape and float64 bytes, so one-point operations called one after
    another at one point (``riemann``, ``structure_at``, ``h_spectrum``,
    ...) evaluate its fields and derived arrays once.  This relies on the
    model's field evaluator being a pure function of its coordinates.
    ``-0.0`` and ``0.0`` are different points here.  Frames built with
    ``PointFrame`` itself, and frames passed in, are never kept.
    """
    global _last_frame
    if isinstance(p, PointFrame):
        _check_model(p, model)
        if p.point.ndim != 1:
            raise ValueError("expected a one-point frame; use frame[i]")
        return p
    point = np.asarray(p, dtype=float)
    last = _last_frame
    if (last is not None and last.model is model and last.point.shape == point.shape
            and last.point.tobytes() == point.tobytes()):
        return last
    if point.ndim != 1:
        raise ValueError(f"expected one point ({model.dim},), got {point.shape}")
    _last_frame = frame = PointFrame(model, point)
    return frame


def as_frames(model: ManifoldModel, points) -> PointFrame:
    """One frame over all of ``points``, the input of every operation that takes points.

    ``points`` is a frame of ``model`` over a batch of points, returned as it
    is, or a sequence of points and one-point frames, whose points are
    stacked into a new frame.  No points at all raise
    :class:`EmptyPointSetError`, and one raw point, a 1-D array, raises
    ``ValueError``: pass ``[p]``.
    """
    if isinstance(points, PointFrame):
        _check_model(points, model)
        if points.point.ndim == 2:
            return points
        points = [points]
    items = list(points)
    if not items:
        raise EmptyPointSetError("no points given: every check needs at least one point")
    for p in items:
        if isinstance(p, PointFrame):
            _check_model(p, model)
    stacked = np.stack([p.point if isinstance(p, PointFrame) else p for p in items])
    if stacked.ndim != 2:
        raise ValueError(f"expected points (P, {model.dim}), got {stacked.shape}; pass [p] for one point")
    return PointFrame(model, stacked)


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
