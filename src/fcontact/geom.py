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

Every contraction a frame makes is a batched matrix product: its operands
are reshaped so that the summed index is the inner dimension of ``@``, and
the result is read in the documented index order through a transposed view
(single-operand ``np.einsum``) where needed.  The same code runs at one point
and over a batch, whose axis ``@`` broadcasts.

The curvature is built on the basis pairs ``i < j`` alone, as
``riemann_pairs`` (one matrix per pair), from its lowered form in ``d2g``
and the Christoffel symbols: its build forms no array over all ``(i, j)``
and no derivative of ``g^{-1}``, and every check reads it.  ``riemann31`` is
``riemann_pairs`` unpacked, so the frame has one curvature formula, and
``riemann40`` is ``riemann31`` lowered; they serve :func:`riemann`.
``dgamma`` is kept for the stage replay of ``perfbench/tracing.py`` alone,
which also reads ``riemann31``; its build holds one temporary as large as
its result.  A check run builds none of these three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
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


@cache
def _pairs(dim: int) -> np.ndarray:
    """The basis pairs ``i < j`` as rows ``(i, j)``, in the order of ``np.triu_indices``
    (by ``i``, then ``j``): ``(q, 2)`` with ``q = dim (dim - 1) / 2``.  Made once per
    dimension and read-only, as every curvature array and check on the pairs reads it."""
    r = np.arange(dim)
    return _read_only(np.array((r[:, None] < r).nonzero()).T)


@cache
def _ricci_signs(dim: int) -> np.ndarray:
    """``(dim, q dim)``: ``+1`` at ``[j, (q, i)]`` and ``-1`` at ``[i, (q, j)]`` for each
    pair ``q = (i, j)``, as ``R(e_i, e_j) = R_q`` and ``R(e_j, e_i) = -R_q``, so that
    its product with the pairs ``[(q, l), k]`` is ``sum_m R^m_k(m, a)`` at ``[a, k]``."""
    ij, q = _pairs(dim), np.arange(dim * (dim - 1) // 2)
    signs = np.zeros((dim, len(q), dim))
    signs[ij[:, 1], q, ij[:, 0]] = 1.0
    signs[ij[:, 0], q, ij[:, 1]] = -1.0
    return _read_only(signs.reshape(dim, -1))


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
    (``frame.riemann_pairs = r``).  The model's evaluator must be a pure
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

    def _shape(self, *axes):
        """The batch shape followed by ``axes``: the shape to view a kept array
        in as a stack of matrices for ``@``."""
        return self.point.shape[:-1] + axes

    @_kept
    def gamma(self):
        """Christoffel symbols ``gamma[..., k, i, j] = Gamma^k_ij``."""
        d = self.model.dim
        return 0.5 * (self.ginv @ self._bracket.reshape(self._shape(d, d * d))).reshape(self._shape(d, d, d))

    @_kept
    def dgamma(self):
        """``dgamma[..., k, i, j, m] = d_m Gamma^k_ij``, for the stage replay of
        ``perfbench/tracing.py``: no curvature array is built from it.

        Besides its result the build holds one array of that size: ``d_m
        _bracket``, whose buffer then takes the second product.
        """
        dg, d2g, ginv, bracket = self.dg, self.d2g, self.ginv, self._bracket
        d = self.model.dim
        # dginv[..., k, l, m] = d_m g^kl = -g^ka (d_m g_ab) g^bl
        dginv = -(ginv.swapaxes(-1, -2)[..., None, :, :] @ (ginv @ dg.reshape(self._shape(d, d * d))).reshape(
            self._shape(d, d, d)))
        buf = np.einsum("...jlim->...lijm", d2g) + np.einsum("...iljm->...lijm", d2g)
        buf -= np.einsum("...ijlm->...lijm", d2g)  # d_m _bracket[..., l, i, j]
        out = ginv @ buf.reshape(self._shape(d, d**3))
        # [..., k, (i, j), m]: _bracket^T times d_m g^kl, for each k
        prod = np.matmul(bracket.reshape(self._shape(1, d, d * d)).swapaxes(-1, -2), dginv,
                         out=buf.reshape(self._shape(d, d * d, d)))
        out += prod.reshape(out.shape)
        out *= 0.5
        return out.reshape(self._shape(d, d, d, d))

    @_kept
    def riemann_pairs(self):
        """``riemann_pairs[..., q, l, k]`` = component ``l`` of ``R(e_i, e_j)e_k`` on
        the pair ``q = (i, j)``, ``i < j``, of ``_pairs(dim)``: one matrix ``[l, k]``
        per pair, the curvature every check reads.

        Built from the lowered form ``R_ijkl = g(R(e_i, e_j)e_k, e_l)``,

            R_ijkl = 1/2 (d_i d_k g_jl - d_j d_k g_il - d_i d_l g_jk + d_j d_l g_ik)
                     + Gamma_{m,jl} Gamma^m_ik - Gamma_{m,il} Gamma^m_jk,

        with ``Gamma_{m,ij} = 1/2 _bracket[m, i, j]``, raised by ``g^{-1}``.  The
        pairs ``(i, j > i)`` of one ``i`` are one run of ``q``, so each run reads
        its second derivatives and Christoffel symbols as views of ``d2g``,
        ``_bracket`` and ``gamma``: each ``Gamma Gamma`` term is one batched
        product, and the raise one more, written into the result.  Nothing
        is built over all ``(i, j)``, and no derivative of ``g^{-1}``.
        """
        d = self.model.dim
        out = np.empty(self._shape(d * (d - 1) // 2, d, d))
        h = self.d2g.swapaxes(-3, -2)  # [..., a, b, l, k] = d_b d_k g_al
        low = self._bracket.swapaxes(-3, -2).swapaxes(-1, -2)  # [..., a, l, m] = 2 Gamma_{m,al}
        up = self.gamma.swapaxes(-3, -2)  # [..., a, m, k] = Gamma^m_ak
        half_ginv = 0.5 * self.ginv[..., None, :, :]
        start = 0
        for i in range(d - 1):
            j, stop = slice(i + 1, None), start + d - 1 - i
            # twice R_ijkl at [..., j, l, k], for every j > i
            lowered = h[..., j, i, :, :] - h[..., i, j, :, :]
            lowered -= lowered.swapaxes(-1, -2)
            lowered += low[..., j, :, :] @ up[..., i:i + 1, :, :]
            lowered -= low[..., i:i + 1, :, :] @ up[..., j, :, :]
            np.matmul(half_ginv, lowered, out=out[..., start:stop, :, :])
            start = stop
        return out

    @_kept
    def riemann31(self):
        """``riemann31[..., l, k, i, j]`` = component ``l`` of ``R(e_i, e_j)e_k``:
        ``riemann_pairs`` unpacked, with ``R(e_j, e_i) = -R(e_i, e_j)`` and
        ``R(e_i, e_i) = 0``.  No check reads it; ``riemann40``, ``geom.riemann``
        and the stage replay of ``perfbench/tracing.py`` do."""
        d, ij = self.model.dim, _pairs(self.model.dim)
        out = np.zeros(self._shape(d, d, d, d))
        by_pair = out.swapaxes(-1, -3).swapaxes(-2, -4)  # a view, [..., i, j, l, k]
        pairs = self.riemann_pairs
        by_pair[..., ij[:, 0], ij[:, 1], :, :] = pairs
        by_pair[..., ij[:, 1], ij[:, 0], :, :] = -pairs
        return out

    @_kept
    def riemann40(self):
        """``riemann40[..., i, j, k, l] = g(R(e_i, e_j)e_k, e_l)``."""
        d = self.model.dim
        # [..., l, k, i, j] = g_ml R^m_kij
        lowered = self.g.swapaxes(-1, -2) @ self.riemann31.reshape(self._shape(d, d**3))
        return np.einsum("...lkij->...ijkl", lowered.reshape(self._shape(d, d, d, d)))

    @_kept
    def ricci(self):
        """``ricci[..., a, b] = trace(Z -> R(Z, e_a)e_b) = sum_m R^m_bma``: a signed
        gather of ``riemann_pairs``, as one product with ``_ricci_signs``."""
        d = self.model.dim
        return _ricci_signs(d) @ self.riemann_pairs.reshape(self._shape(-1, d))

    @_kept
    def ricci_op(self):
        return self.ginv @ self.ricci

    @_kept
    def nabla_f(self):
        """Covariant derivative ``nabla_f[..., k, b, a]`` = comp. k of ``(nabla_a f)e_b``."""
        gamma, f, d = self.gamma, self.f, self.model.dim
        # Gamma^k_am f^m_b - f^k_m Gamma^m_ab, each at [..., k, a, b]
        out = self.df + (gamma.reshape(self._shape(d * d, d)) @ f).reshape(self._shape(d, d, d)).swapaxes(-1, -2)
        out -= (f @ gamma.reshape(self._shape(d, d * d))).reshape(self._shape(d, d, d)).swapaxes(-1, -2)
        return out

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
        f, df, xi, dxi = self.f[..., None, :, :], self.df, self.xi, self.dxi  # f broadcast over alpha
        d = self.model.dim
        lie = (xi @ df.reshape(self._shape(d * d, d)).swapaxes(-1, -2)).reshape(dxi.shape)
        lie -= dxi @ f
        lie += f @ dxi
        return 0.5 * lie

    @property
    def h(self):
        return self.h_all[..., 0, :, :]

    @_kept
    def nijenhuis(self):
        """``nijenhuis[..., k, i, j]``: component k of ``[f, f](e_i, e_j)``."""
        f, df, d = self.f, self.df, self.model.dim
        # N^k_ij = f^m_i d_m f^k_j - f^m_j d_m f^k_i + f^k_m (d_j f^m_i - d_i f^m_j)
        a = df @ f[..., None, :, :]  # [..., k, j, i] = f^m_i d_m f^k_j
        c = (f @ df.reshape(self._shape(d, d * d))).reshape(df.shape)  # [..., k, i, j] = f^k_m d_j f^m_i
        out = a.swapaxes(-1, -2) - a
        out += c
        out -= c.swapaxes(-1, -2)
        return out

    @_kept
    def xi_d_eta(self):
        """``sum xi_alpha (x) d eta_alpha``, laid out like ``nijenhuis``."""
        d, s = self.model.dim, self.model.s
        return (self.xi.swapaxes(-1, -2) @ self.d_eta.reshape(self._shape(s, d * d))).reshape(self._shape(d, d, d))

    @_kept
    def normality(self):
        """``normality[..., k, i, j]``: component k of ``[f, f] + 2 sum xi_a (x) d eta_a`` on (e_i, e_j)."""
        return self.nijenhuis + 2.0 * self.xi_d_eta


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
