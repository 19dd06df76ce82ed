"""D-homothetic deformations and their closed-form (kappa, mu, H) laws.

A D-homothetic deformation of constant ``a > 0`` replaces

    f -> f,   xi_alpha -> xi_alpha / a,   eta_alpha -> a eta_alpha,
    g -> a g + a (a - 1) sum eta_alpha (x) eta_alpha,

and maps metric f-manifolds to metric f-manifolds.  Deforming a model whose
curvature annihilates the structure fields (``R(X, Y) xi_alpha = 0``, i.e.
kappa = mu = 0) yields a (kappa, mu)-nullity structure with

    kappa = (a^2 - 1) / a^2,   mu = 2 (a - 1) / a,
    H = -s (kappa + mu) = -s (3 a^2 - 2 a - 1) / a^2,

and ``mu = kappa + 1`` exactly when ``a = 1/2``.

A deformed model's field evaluator is a lazy wrapper that runs the base
model's evaluator once per call, so jet payloads (hence exact second
derivatives of the deformed metric) flow through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NotApplicableError
from .geom import Convention, ManifoldModel
from .tolerances import METRIC_CONDITION_MAX


def check_constant(a: float) -> float:
    """``a`` as a float, if it is a usable deformation constant; else ``ValueError``.

    The deformed flat metric has eigenvalues ``a`` and ``a^2``, so its
    condition number is ``max(a, 1/a)``: outside
    ``[1/METRIC_CONDITION_MAX, METRIC_CONDITION_MAX]`` every point is degenerate.
    """
    a = float(a)
    if not 1.0 / METRIC_CONDITION_MAX <= a <= METRIC_CONDITION_MAX:
        raise ValueError(
            f"deformation constant must be finite and in [{1.0 / METRIC_CONDITION_MAX:g}, "
            f"{METRIC_CONDITION_MAX:g}], got {a}"
        )
    return a


def format_constant(a: float) -> str:
    """``a`` as it appears in keys and labels: ``:g`` form ("2", "0.5") where that
    reads back as ``a``, else ``repr``, which always does."""
    short = f"{a:g}"
    return short if float(short) == a else repr(a)


def _rescale(model: ManifoldModel, g_scale, c, xi_scale, eta_scale, **changes) -> ManifoldModel:
    """``g -> g_scale g + c sum eta (x) eta``, ``xi -> xi_scale xi``, ``eta -> eta_scale eta``."""
    base = model.fields

    def fields(x):
        g, f, xi, eta = base(x)
        eta = np.asarray(eta)
        extra = sum(np.outer(e, e) for e in eta)
        return g_scale * np.asarray(g) + c * extra, f, xi_scale * np.asarray(xi), eta_scale * eta

    return replace(model, fields=fields, **changes)


def d_deform(model: ManifoldModel, a: float) -> ManifoldModel:
    """Return the D-homothetically deformed model (lazy field composition)."""
    a = check_constant(a)
    suffix = f"deformed:{format_constant(a)}"
    return _rescale(model, a, a * (a - 1.0), 1.0 / a, a,
                    label=f"{model.label}:{suffix}" if model.label else suffix)


@dataclass(frozen=True)
class ExpectedFit:
    """Known (kappa, mu, H) of a model; ``mu`` is None where the fit leaves it free (h = 0)."""

    kappa: float
    mu: float | None
    h_sectional: float


def predict_deformed_nullity(a: float, s: int) -> ExpectedFit:
    """Predicted (kappa, mu, H) when the base model satisfies R(X, Y)xi = 0."""
    a = check_constant(a)
    kappa = (a**2 - 1.0) / a**2
    mu = 2.0 * (a - 1.0) / a
    h = -s * (3.0 * a**2 - 2.0 * a - 1.0) / a**2
    return ExpectedFit(kappa=kappa, mu=mu, h_sectional=h)


def convention_normalize(model: ManifoldModel) -> ManifoldModel:
    """Rescale a PLAIN-convention model into an equivalent HALF one.

    ``eta' = 2 eta``, ``xi' = xi / 2``, ``g' = g + 3 sum eta (x) eta``,
    ``f' = f``; the result satisfies the f-manifold axioms and ``F = d eta``
    under the HALF convention.
    """
    if model.d_convention is not Convention.PLAIN:
        raise NotApplicableError("model already uses the HALF convention")
    return _rescale(model, 1.0, 3.0, 0.5, 2.0, d_convention=Convention.HALF,
                    label=f"{model.label}:normalized" if model.label else "normalized")
