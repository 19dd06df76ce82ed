"""Closed-form built-in manifolds used as ground truth by every check.

Two base families:

* ``s-space-form:n,s`` -- the standard S-structure on R^(2n+s) with
  coordinates (x_1..x_n, y_1..y_n, z_1..z_s):
  ``eta_alpha = 1/2 (dz_alpha - sum_i y_i dx_i)``, ``xi_alpha = 2 d/dz_alpha``,
  ``g = sum eta_alpha (x) eta_alpha + 1/4 sum_i (dx_i^2 + dy_i^2)``,
  ``f(dx_i) = -dy_i``, ``f(dy_i) = dx_i + y_i sum_alpha dz_alpha``,
  ``f(dz_alpha) = 0``.  Normal, h = 0, kappa = 1, constant f-sectional
  curvature -3s.

* ``flat-contact-r3`` -- the flat structure on Euclidean R^3 with
  ``eta = cos(2z) dx + sin(2z) dy``, ``xi`` its metric dual, and f mapping the
  orthonormal frame {xi, e, d/dz} by ``f xi = 0``, ``f e = d/dz``,
  ``f d/dz = -e`` where ``e = -sin(2z) dx + cos(2z) dy``.  Curvature vanishes
  identically, so kappa = mu = 0; h has eigenvalues {0, +1, -1}.  With
  rotation rate 2, ``F = d eta`` holds, h has the eigenvalues
  +-sqrt(1 - kappa), and the deformation laws come out exactly.

Both satisfy ``F = d eta_alpha`` with Blair's exterior derivative
(:mod:`fcontact.geom`).

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
from .geom import ManifoldModel

# Largest dimension of a catalog key: a run holds several (points, dim^4)
# arrays, so its memory grows about as dim^4.  At dim 9, `fcontact check
# --points 1000 --samples 200` peaks at 279-289 MB of RSS (s-space-form:3,3
# 279, 4,1 289 and 1,7 289 MB on x86-64 Linux, Python 3.11, numpy 2.4, with
# NUMPY_MADVISE_HUGEPAGE=0 so that 2 MB pages do not move it).
MAX_DIM = 9


@dataclass(frozen=True)
class CatalogEntry:
    """A catalog key, its model (which carries ``n`` and ``s``) and the values a
    fit should reproduce."""

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
    xi = np.zeros((s, dim))
    xi[:, 2 * n:] = 2.0 * np.eye(s)                 # xi_alpha = 2 d/dz_alpha
    base_diag = np.diag([0.25] * (2 * n) + [0.0] * s)

    def fields(x):
        eta = np.zeros((s, dim), dtype=object)
        f = np.zeros((dim, dim), dtype=object)
        for i in range(n):
            eta[:, i] = -0.5 * x[n + i]
            f[n + i, i] = -1.0                      # f(dx_i) = -dy_i
            f[i, n + i] = 1.0                       # f(dy_i) = dx_i + y_i sum_a dz_a
            f[2 * n:, n + i] = x[n + i]
        for a in range(s):
            eta[a, 2 * n + a] = 0.5
        # g = sum_alpha eta_alpha (x) eta_alpha + base_diag, summed over the nonzero entries of
        # each eta_alpha only, in the order of the full sum: the same values and derivatives
        # (some zero derivatives differ in sign), from a fifth of the products on s-space-form:3,3
        g = np.zeros((dim, dim), dtype=object)
        for a, e in enumerate(eta):
            nz = [*range(n), 2 * n + a]
            g[np.ix_(nz, nz)] += np.outer(e[nz], e[nz])
        return g + base_diag, f, xi, eta

    return ManifoldModel(
        n=n,
        s=s,
        fields=fields,
        domain_box=_default_box(dim),
        label=f"s-space-form:{n},{s}",
    )


def build_flat_contact_r3() -> ManifoldModel:
    """Flat metric f-contact structure on R^3 (kappa = mu = 0)."""
    def fields(x):
        c, s_ = jets.cos(2.0 * x[2]), jets.sin(2.0 * x[2])
        eta = np.array([[c, s_, 0.0]], dtype=object)
        f = np.zeros((3, 3), dtype=object)
        f[2, 0] = -s_         # f(dx) = -sin(2z) dz
        f[2, 1] = c           # f(dy) =  cos(2z) dz
        f[0, 2] = s_          # f(dz) = sin(2z) dx - cos(2z) dy
        f[1, 2] = -c
        return np.eye(3), f, eta, eta  # g = I, so xi has the components of eta

    return ManifoldModel(
        n=1,
        s=1,
        fields=fields,
        domain_box=_default_box(3),
        label="flat-contact-r3",
    )


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
