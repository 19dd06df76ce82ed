"""Second-order jet scalars: exact forward-mode first and second derivatives.

A :class:`Jet` carries a value together with its gradient and Hessian with
respect to the chart coordinates.  Arithmetic propagates both derivative
orders exactly (to roundoff), so a single evaluation of a metric component
built from jets yields ``g``, ``dg`` and ``d2g`` at once -- enough for
Christoffel symbols and the curvature tensor without any finite-difference
step-size tuning.

Field evaluators written against this module must use the math functions
exported here (``sin``, ``cos``, ...) instead of ``numpy``'s, so that plain
floats and jets evaluate through the same code path.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

import numpy as np

from .errors import SingularJetError

__all__ = [
    "Jet",
    "variables",
    "value",
    "gradient",
    "hessian",
    "tensor_value",
    "tensor_jacobian",
    "tensor_hessian",
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
]


class Jet:
    """A scalar with exact first- and second-order derivative payloads.

    ``val`` is a float, ``grad`` a ``(dim,)`` array of first partials and
    ``hess`` a symmetric ``(dim, dim)`` array of second partials.  Instances
    are treated as immutable: every operation allocates fresh arrays.
    """

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess):
        self.val = float(val)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    # -- helpers ---------------------------------------------------------

    def _chain(self, f0, f1, f2):
        """Apply a smooth scalar function via the second-order chain rule."""
        g = self.grad
        return Jet(f0, f1 * g, f1 * self.hess + f2 * np.outer(g, g))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.grad + other.grad, self.hess + other.hess)
        if isinstance(other, Real):
            return Jet(self.val + other, self.grad, self.hess)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val - other.val, self.grad - other.grad, self.hess - other.hess)
        if isinstance(other, Real):
            return Jet(self.val - other, self.grad, self.hess)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, Real):
            return Jet(other - self.val, -self.grad, -self.hess)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet):
            cross = np.outer(self.grad, other.grad)
            return Jet(
                self.val * other.val,
                self.val * other.grad + other.val * self.grad,
                self.val * other.hess + other.val * self.hess + cross + cross.T,
            )
        if isinstance(other, Real):
            other = float(other)
            return Jet(self.val * other, self.grad * other, self.hess * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        if isinstance(other, Real):
            return self * (1.0 / float(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, Real):
            return self._reciprocal() * float(other)
        return NotImplemented

    def _reciprocal(self):
        v = self.val
        if v == 0.0:
            raise SingularJetError("reciprocal of a jet with value 0")
        return self._chain(1.0 / v, -1.0 / v**2, 2.0 / v**3)

    def __neg__(self):
        return Jet(-self.val, -self.grad, -self.hess)

    def __pos__(self):
        return self

    def __pow__(self, p):
        if isinstance(p, Integral):
            p = int(p)
            if p == 0:
                return Jet(1.0, np.zeros_like(self.grad), np.zeros_like(self.hess))
            if p == 1:
                return self
            if p < 0:
                return self._reciprocal() ** -p
            return self._chain(self.val**p, p * self.val ** (p - 1), p * (p - 1) * self.val ** (p - 2))
        if isinstance(p, Real):
            if self.val <= 0.0:
                raise ValueError("fractional power of a non-positive jet value")
            p = float(p)
            return self._chain(self.val**p, p * self.val ** (p - 1), p * (p - 1) * self.val ** (p - 2))
        return NotImplemented

    def __repr__(self):
        return f"Jet({self.val!r})"


def variables(coords):
    """Seed chart coordinates as jets: unit gradients, zero Hessians."""
    x = np.asarray(coords, dtype=float)
    dim = x.shape[0]
    eye = np.eye(dim)
    zero = np.zeros((dim, dim))
    return np.array([Jet(x[i], eye[i], zero) for i in range(dim)], dtype=object)


# -- scalar extraction ----------------------------------------------------


def value(x):
    return x.val if isinstance(x, Jet) else float(x)


def gradient(x, dim):
    return x.grad if isinstance(x, Jet) else np.zeros(dim)


def hessian(x, dim):
    return x.hess if isinstance(x, Jet) else np.zeros((dim, dim))


# -- tensor extraction -----------------------------------------------------


def tensor_value(arr):
    """Values of an array whose entries may be jets or plain numbers."""
    a = np.asarray(arr)
    if a.dtype != object:
        return a.astype(float)
    out = np.empty(a.shape, dtype=float)
    for idx in np.ndindex(a.shape):
        out[idx] = value(a[idx])
    return out


def tensor_jacobian(arr, dim):
    """First partials, derivative index last: ``out[..., k] = d_k entry``."""
    a = np.asarray(arr)
    out = np.zeros(a.shape + (dim,), dtype=float)
    if a.dtype != object:
        return out
    for idx in np.ndindex(a.shape):
        out[idx] = gradient(a[idx], dim)
    return out


def tensor_hessian(arr, dim):
    """Second partials, derivative indices last: ``out[..., k, l]``."""
    a = np.asarray(arr)
    out = np.zeros(a.shape + (dim, dim), dtype=float)
    if a.dtype != object:
        return out
    for idx in np.ndindex(a.shape):
        out[idx] = hessian(a[idx], dim)
    return out


# -- math functions dispatching on jets ------------------------------------


def _lift(x, f0, f1, f2, plain):
    if isinstance(x, Jet):
        return x._chain(f0(x.val), f1(x.val), f2(x.val))
    return plain(x)


def sin(x):
    return _lift(x, math.sin, math.cos, lambda v: -math.sin(v), math.sin)


def cos(x):
    return _lift(x, math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v), math.cos)


def tan(x):
    if isinstance(x, Jet):
        return sin(x) / cos(x)
    return math.tan(x)


def exp(x):
    return _lift(x, math.exp, math.exp, math.exp, math.exp)


def log(x):
    return _lift(x, math.log, lambda v: 1.0 / v, lambda v: -1.0 / v**2, math.log)


def sqrt(x):
    if isinstance(x, Jet):
        return x**0.5
    return math.sqrt(x)
