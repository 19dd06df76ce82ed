"""Closed-form built-in manifolds used as ground truth by every check.

Two base families:

* ``s-space-form:n,s`` -- the standard S-structure on R^(2n+s) with
  coordinates (x_1..x_n, y_1..y_n, z_1..z_s):
  ``eta_alpha = 1/2 (dz_alpha - sum_i y_i dx_i)``, ``xi_alpha = 2 d/dz_alpha``,
  ``g = sum eta_alpha (x) eta_alpha + 1/4 sum_i (dx_i^2 + dy_i^2)``,
  ``f(dx_i) = -dy_i``, ``f(dy_i) = dx_i + y_i sum_alpha dz_alpha``,
  ``f(dz_alpha) = 0``.  Normal, h = 0, kappa = 1, constant f-sectional
  curvature -3s.  Convention: HALF.

* ``flat-contact-r3`` -- the flat structure on Euclidean R^3 with
  ``eta = cos(2z) dx + sin(2z) dy``, ``xi`` its metric dual, and f mapping the
  orthonormal frame {xi, e, d/dz} by ``f xi = 0``, ``f e = d/dz``,
  ``f d/dz = -e`` where ``e = -sin(2z) dx + cos(2z) dy``.  Curvature vanishes
  identically, so kappa = mu = 0; h has eigenvalues {0, +1, -1}.  Convention:
  HALF (the rotation rate 2 is what makes the h-eigenvalues +-sqrt(1 - kappa)
  and the deformation laws come out exactly).

``build_flat_contact_r3_plain`` provides the rotation-rate-1 sibling, which
satisfies ``F = d eta`` under the PLAIN convention instead.  It is a valid
metric f-contact model and the natural input for
:func:`fcontact.deform.convention_normalize`, but it is not normalized the
way the nullity theory expects (its h-eigenvalues are +-1/2), so it is not a
catalog entry.

Deformed entries use keys like ``flat-contact-r3:deformed:0.5``; the constant
must lie in ``[1e-10, 1e10]`` (see :func:`fcontact.deform.check_constant`).
Keys are read strictly: ``n`` and ``s`` are ASCII ``[1-9][0-9]*``, and the
constant is ASCII, without ``_`` (``float`` reads ``0_5`` as 5) or
surrounding whitespace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import jets
from .deform import ExpectedFit, check_constant, d_deform, predict_deformed_nullity
from .errors import UnknownManifoldError
from .geom import Convention, ManifoldModel

# Largest dimension of a catalog key: a run holds several (points, dim^4)
# arrays, so its memory grows about as dim^4.  At dim 9, `fcontact check
# --points 1000 --samples 200` peaks at 282-300 MB of RSS (s-space-form:3,3,
# 4,1 and 1,7 on x86-64 Linux, numpy 2.4).
MAX_DIM = 9


@dataclass(frozen=True)
class CatalogEntry:
    """A catalog key, its model (which carries ``n``, ``s`` and the convention)
    and the values a fit should reproduce."""

    key: str
    model: ManifoldModel
    expected: ExpectedFit


def _default_box(dim: int) -> np.ndarray:
    return np.tile(np.array([-1.0, 1.0]), (dim, 1))


def build_s_space_form(n: int, s: int) -> ManifoldModel:
    """The standard S-structure on R^(2n+s); h = 0 and kappa fits to 1."""
    if n < 1 or s < 1:
        raise ValueError("need n >= 1 and s >= 1")
    dim = 2 * n + s

    def eta_alpha(alpha):
        def eta(x):
            out = np.zeros(dim, dtype=object)
            for i in range(n):
                out[i] = -0.5 * x[n + i]
            out[2 * n + alpha] = 0.5
            return out

        return eta

    def xi_alpha(alpha):
        def xi(x):
            out = np.zeros(dim, dtype=object)
            out[2 * n + alpha] = 2.0
            return out

        return xi

    etas = tuple(eta_alpha(a) for a in range(s))
    xis = tuple(xi_alpha(a) for a in range(s))

    base_diag = np.diag([0.25] * (2 * n) + [0.0] * s)

    def metric(x):
        out = sum(np.outer(e(x), e(x)) for e in etas)
        return out + base_diag

    def f_field(x):
        out = np.zeros((dim, dim), dtype=object)
        for i in range(n):
            out[n + i, i] = -1.0             # f(dx_i) = -dy_i
            out[i, n + i] = 1.0              # f(dy_i) = dx_i + y_i sum_a dz_a
            for a in range(s):
                out[2 * n + a, n + i] = x[n + i]
        return out

    return ManifoldModel(
        n=n,
        s=s,
        metric_field=metric,
        f_field=f_field,
        xi_fields=xis,
        eta_fields=etas,
        domain_box=_default_box(dim),
        d_convention=Convention.HALF,
        label=f"s-space-form:{n},{s}",
    )


def _flat_contact_r3(rate: float, convention: Convention, label: str) -> ManifoldModel:
    def eta(x):
        return np.array([jets.cos(rate * x[2]), jets.sin(rate * x[2]), 0.0], dtype=object)

    def xi(x):
        return np.array([jets.cos(rate * x[2]), jets.sin(rate * x[2]), 0.0], dtype=object)

    def metric(x):
        return np.eye(3)

    def f_field(x):
        c, s_ = jets.cos(rate * x[2]), jets.sin(rate * x[2])
        out = np.zeros((3, 3), dtype=object)
        out[2, 0] = -s_       # f(dx) = -sin(rz) dz
        out[2, 1] = c         # f(dy) =  cos(rz) dz
        out[0, 2] = s_        # f(dz) = sin(rz) dx - cos(rz) dy
        out[1, 2] = -c
        return out

    return ManifoldModel(
        n=1,
        s=1,
        metric_field=metric,
        f_field=f_field,
        xi_fields=(xi,),
        eta_fields=(eta,),
        domain_box=_default_box(3),
        d_convention=convention,
        label=label,
    )


def build_flat_contact_r3() -> ManifoldModel:
    """Flat metric f-contact structure on R^3 (kappa = mu = 0, HALF)."""
    return _flat_contact_r3(2.0, Convention.HALF, "flat-contact-r3")


def build_flat_contact_r3_plain() -> ManifoldModel:
    """Rotation-rate-1 flat structure satisfying F = d eta under PLAIN."""
    return _flat_contact_r3(1.0, Convention.PLAIN, "flat-contact-r3-plain")


def _base_entry(key: str) -> CatalogEntry:
    if key == "flat-contact-r3":
        return CatalogEntry(
            key=key,
            model=build_flat_contact_r3(),
            expected=ExpectedFit(0.0, 0.0, 0.0),  # curvature vanishes identically
        )
    if key.startswith("s-space-form:"):
        match = re.fullmatch(r"([1-9][0-9]*),([1-9][0-9]*)", key.split(":", 1)[1])
        if match is None:
            raise UnknownManifoldError(key)
        n, s = int(match[1]), int(match[2])
        if 2 * n + s > MAX_DIM:
            raise UnknownManifoldError(f"{key}: dimension {2 * n + s} is above the largest, {MAX_DIM}")
        return CatalogEntry(
            key=key,
            model=build_s_space_form(n, s),
            expected=ExpectedFit(1.0, None, -3.0 * s),  # normal; mu unconstrained since h = 0
        )
    raise UnknownManifoldError(key)


def catalog_get(key: str) -> CatalogEntry:
    """Resolve a catalog key, including ``...:deformed:a`` suffixes."""
    if ":deformed:" in key:
        base_key, a_str = key.rsplit(":deformed:", 1)
        try:
            if not a_str.isascii() or "_" in a_str or a_str != a_str.strip():
                raise ValueError("the constant must be ASCII, without '_' or surrounding whitespace")
            a = check_constant(float(a_str))
        except ValueError as exc:
            raise UnknownManifoldError(f"{key}: {exc}") from exc
        base = _base_entry(base_key)
        if base_key == "flat-contact-r3":
            expected = predict_deformed_nullity(a, base.model.s)
        else:
            # the deformation keeps the normal structure (kappa = 1, mu free) and
            # H = -3s: for s = 1, -3 is the fixed point of Tanno's law
            # c' = (c + 3)/a - 3; for s > 1 the sampled H matches -3s to roundoff
            expected = base.expected
        return CatalogEntry(key=key, model=d_deform(base.model, a), expected=expected)
    return _base_entry(key)


def catalog_list() -> list[CatalogEntry]:
    """The base entries every test suite starts from."""
    return [
        catalog_get("flat-contact-r3"),
        catalog_get("s-space-form:1,1"),
        catalog_get("s-space-form:2,2"),
    ]
