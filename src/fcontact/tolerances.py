"""Every tolerance and cutoff of the library, and the one residual scale.

Residuals of identities are :func:`relative_residual`: the largest
component of ``lhs - rhs`` over ``max(RESIDUAL_FLOOR, largest component of
either side)``.  An identity that sets a product to zero, such as
``h xi = 0``, is judged against the product of its factors' largest
components as well (``|h| |xi|``, the ``scale`` of ``relative_residual``):
its result is roundoff on that size, not on the size of the result.  Two
tolerances judge them:

* ``IDENTITY_TOL`` -- identities that hold exactly by construction: the
  axiom battery, the contact condition, the h properties, Killing fields and
  normality.  A structure field counts as Killing (``h_alpha = 0``) when the
  relative size of ``h_alpha`` is within it.
* ``FIT_TOL`` -- least-squares fits and identities built from fitted
  constants.  It also decides the one branch of the theory: a fitted kappa
  is below 1 when ``1 - kappa > FIT_TOL`` (``NullityFit.lam`` is set), and
  the ``kappa = 1`` branch is taken otherwise.

The cutoffs, each relative to the scale named:

* ``RESIDUAL_FLOOR`` -- the smallest scale of a residual: sides of size 1 or
  more are judged relatively, smaller ones absolutely.
* ``METRIC_CONDITION_MAX`` -- the largest condition number of ``g`` a point
  may have before its metric counts as degenerate.
* ``RANK_THRESHOLD`` -- a singular value of ``f`` counts towards its rank
  when it is at least this fraction of the largest one.
* ``COLUMN_CUTOFF`` -- the kappa column of the nullity design vanishes when
  its largest entry is at most this times the size of its factors,
  ``max |eta_bar| max |f^2|``, and the mu column when its largest entry is
  below this times the kappa column's: both tests are free of scale, so a
  strongly deformed model, whose ``eta`` is small, is fitted as any other.
* ``SECTION_CUTOFF`` -- a Gaussian draw gives a section of L when its
  projection onto L keeps at least this fraction of its Euclidean norm.
* ``SECTION_TOL`` -- a vector handed to ``H(X)`` must be a g-unit vector in
  L to within this: ``|eta_alpha(X)|`` and ``|g(X, X) - 1|`` for ``X`` and
  ``fX``, relative to the unit length.
"""

import numpy as np

IDENTITY_TOL = 1e-8
FIT_TOL = 1e-6
RESIDUAL_FLOOR = 1.0
METRIC_CONDITION_MAX = 1e10
RANK_THRESHOLD = 1e-6
COLUMN_CUTOFF = 1e-8
SECTION_CUTOFF = 1e-3
SECTION_TOL = 1e-6


def relative_residual(pairs, scale: float = RESIDUAL_FLOOR) -> float:
    """Residual of an identity ``lhs = rhs`` over every component of every pair.

    ``pairs`` yields ``(lhs, rhs)`` arrays, usually one pair per point; a side
    may be a scalar, such as 0 for an identity ``lhs = 0``.  The residual is
    the largest ``|lhs - rhs|`` divided by the largest ``|lhs|`` or ``|rhs|``
    component, but never by less than ``RESIDUAL_FLOOR = 1`` or ``scale``:
    sides of size 1 or more are judged relatively, smaller ones absolutely, so
    identities whose sides vanish (flat curvature, Killing fields) do not
    divide roundoff by roundoff.  ``scale`` is the size of the factors of a
    product identity; it can only raise the divisor.  A NaN anywhere gives NaN, which fails every tolerance; no
    pairs at all give 0.
    """
    diff, size = 0.0, max(RESIDUAL_FLOOR, scale)
    for lhs, rhs in pairs:
        d = float(np.abs(lhs - rhs).max())
        if d > diff or d != d:  # a NaN is taken, and then nothing is greater
            diff = d
        size = max(size, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    return diff / size
