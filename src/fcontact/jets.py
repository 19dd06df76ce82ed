"""Second-order jet scalars: exact forward-mode first and second derivatives.

A :class:`Jet` carries a value together with its gradient and Hessian with
respect to the chart coordinates.  Arithmetic propagates both derivative
orders exactly (to roundoff), so a single evaluation of a metric component
built from jets yields ``g``, ``dg`` and ``d2g`` at once -- enough for
Christoffel symbols and the curvature tensor without any finite-difference
step-size tuning.

A jet may also hold a batch of points (vector forward mode): its payloads
then carry a leading batch axis, and one evaluation of a field on batched
coordinates (:func:`variables` of a ``(P, dim)`` array) gives the field at
all ``P`` points at once.  Tests that a value is zero or non-positive
(reciprocal, fractional powers, ``log``) are made point by point and raise
if any point fails.

A model's field evaluator (``ManifoldModel.fields``, which returns ``g``,
``f``, ``xi`` and ``eta`` from one call) written against this module must
use the math functions exported here (``sin``, ``cos``, ...) instead of
``numpy``'s, so that plain floats and jets evaluate through the same code
path.  An evaluator may receive a batch of points, so it must not branch on
coordinate values.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

import numpy as np

from .errors import SingularJetError

__all__ = [
    "Jet",
    "variables",
    "tensor_parts",
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

    At one point ``val`` is a float, ``grad`` a ``(dim,)`` array of first
    partials and ``hess`` a symmetric ``(dim, dim)`` array of second partials.
    A jet over a batch of ``P`` points carries the batch axis in front:
    ``val`` ``(P,)``, ``grad`` ``(P, dim)`` and ``hess`` ``(P, dim, dim)``.
    Instances are treated as immutable: every operation allocates fresh
    arrays.
    """

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess):
        if type(val) is not float:
            val = np.asarray(val, dtype=float) if isinstance(val, np.ndarray) and val.ndim else float(val)
        self.val = val
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    # -- helpers ---------------------------------------------------------

    def _chain(self, f0, f1, f2):
        """Apply a smooth scalar function via the second-order chain rule."""
        g, f1 = self.grad, _col(f1)
        return Jet(f0, f1 * g, _col(f1) * self.hess + _col(_col(f2)) * _outer(g, g))

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
            cross = _outer(self.grad, other.grad)
            a, b = self.val, other.val
            a1, b1 = _col(a), _col(b)
            a2, b2 = _col(a1), _col(b1)
            return Jet(
                a * b,
                a1 * other.grad + b1 * self.grad,
                a2 * other.hess + b2 * self.hess + cross + cross.swapaxes(-1, -2),
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
        if _any(v == 0.0):
            raise SingularJetError("reciprocal of a jet with value 0")
        return self._chain(1.0 / v, -1.0 / v**2, 2.0 / v**3)

    def __neg__(self):
        return Jet(-self.val, -self.grad, -self.hess)

    def __pos__(self):
        return self

    def __pow__(self, p):
        # an integral exponent takes the integer path whatever its type, as for
        # floats: (-0.5) ** 2.0 == 0.25
        if isinstance(p, Integral) or (isinstance(p, Real) and float(p).is_integer()):
            p = int(p)
            if p == 0:
                return Jet(np.ones(np.shape(self.val)), np.zeros_like(self.grad), np.zeros_like(self.hess))
            if p == 1:
                return self
            if p < 0:
                return self._reciprocal() ** -p
            return self._chain(self.val**p, p * self.val ** (p - 1), p * (p - 1) * self.val ** (p - 2))
        if isinstance(p, Real):
            if _any(self.val <= 0.0):
                raise ValueError("fractional power of a non-positive jet value")
            p = float(p)
            return self._chain(self.val**p, p * self.val ** (p - 1), p * (p - 1) * self.val ** (p - 2))
        return NotImplemented

    def __repr__(self):
        return f"Jet({self.val!r})"


def _col(v):
    """``v`` with a trailing axis when it is a batch of values, so it scales a
    batch of gradients point by point; a float is returned as it is."""
    return v[..., None] if isinstance(v, np.ndarray) else v


def _outer(u, v):
    """``u (x) v`` over the last axis, point by point over any batch axes."""
    return u[..., :, None] * v[..., None, :]


def _any(test) -> bool:
    """Whether an elementwise ``test`` holds at any point (a bool at one point)."""
    return bool(test.any()) if isinstance(test, np.ndarray) else test


def variables(coords):
    """Seed chart coordinates as jets: unit gradients, zero Hessians.

    ``coords`` is one point ``(dim,)`` or a batch ``(P, dim)``; the ``dim``
    jets then carry the batch axis.
    """
    x = np.asarray(coords, dtype=float)
    dim, batch = x.shape[-1], x.shape[:-1]
    eye = np.eye(dim)
    if batch:
        eye = np.broadcast_to(eye, batch + (dim, dim))
    zero = np.zeros(batch + (dim, dim))
    return np.array([Jet(x[..., i], eye[..., i, :], zero) for i in range(dim)], dtype=object)


# -- tensor extraction -----------------------------------------------------


def tensor_parts(arr, dim: int, order: int = 2, batch: tuple = ()):
    """Values and partials of an array whose entries may be jets or plain numbers.

    Returns ``(value, jacobian, hessian)`` cut to ``order + 1`` arrays, with
    derivative indices last (``jacobian[..., k] = d_k entry``) and the jets'
    ``batch`` shape (``()`` at one point) first.  Entries that are plain
    numbers are broadcast over the batch and have zero partials.
    """
    a = np.asarray(arr)
    batch = tuple(batch)
    tails = ((), (dim,), (dim, dim))[: order + 1]
    if a.dtype != object:
        values = np.empty(batch + a.shape)
        values[...] = a
        return (values, *(np.zeros(batch + a.shape + tail) for tail in tails[1:]))
    outs = [np.zeros(batch + (a.size,) + tail) for tail in tails]
    lead = (slice(None),) * len(batch)
    for i, x in enumerate(a.flat):
        at = lead + (i,)
        if not isinstance(x, Jet):
            outs[0][at] = x
            continue
        outs[0][at] = x.val
        if order:
            outs[1][at] = x.grad
            if order > 1:
                outs[2][at] = x.hess
    return tuple(out.reshape(batch + a.shape + tail) for out, tail in zip(outs, tails))


def tensor_value(arr):
    """Values of an array whose entries may be jets or plain numbers."""
    return tensor_parts(arr, 0, 0)[0]


def tensor_jacobian(arr, dim):
    """First partials, derivative index last: ``out[..., k] = d_k entry``."""
    return tensor_parts(arr, dim, 1)[1]


def tensor_hessian(arr, dim):
    """Second partials, derivative indices last: ``out[..., k, l]``."""
    return tensor_parts(arr, dim, 2)[2]


# -- math functions dispatching on jets ------------------------------------


def _lift(x, plain, parts):
    """``plain(x)`` of a number; of a jet, the chain rule with ``parts(m, v)``,
    the function and its two derivatives at the jet's value ``v``, where ``m``
    is ``math`` at one point and ``numpy`` over a batch."""
    if not isinstance(x, Jet):
        return plain(x)
    return x._chain(*parts(np if isinstance(x.val, np.ndarray) else math, x.val))


def sin(x):
    return _lift(x, math.sin, lambda m, v: (m.sin(v), m.cos(v), -m.sin(v)))


def cos(x):
    return _lift(x, math.cos, lambda m, v: (m.cos(v), -m.sin(v), -m.cos(v)))


def tan(x):
    if isinstance(x, Jet):
        return sin(x) / cos(x)
    return math.tan(x)


def exp(x):
    return _lift(x, math.exp, lambda m, v: (m.exp(v),) * 3)


def log(x):
    if isinstance(x, Jet) and _any(x.val <= 0.0):
        raise ValueError("log of a non-positive jet value")
    return _lift(x, math.log, lambda m, v: (m.log(v), 1.0 / v, -1.0 / v**2))


def sqrt(x):
    if isinstance(x, Jet):
        return x**0.5
    return math.sqrt(x)
