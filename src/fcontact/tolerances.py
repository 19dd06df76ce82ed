"""Tolerances, the metric conditioning cutoff and the one residual scale.

``IDENTITY_TOL`` judges identities that hold exactly by construction (the
axiom battery, the contact condition, Killing fields, normality, ``h = 0``);
``FIT_TOL`` judges least-squares fits and identities built from fitted
constants.  ``METRIC_CONDITION_MAX`` is the largest condition number of ``g``
a point may have before its metric counts as degenerate.
"""

import numpy as np

IDENTITY_TOL = 1e-8
FIT_TOL = 1e-6
RESIDUAL_FLOOR = 1.0
METRIC_CONDITION_MAX = 1e10


def relative_residual(pairs) -> float:
    """Residual of an identity ``lhs = rhs`` over every component of every pair.

    ``pairs`` yields ``(lhs, rhs)`` arrays, usually one pair per point.  The
    residual is the largest ``|lhs - rhs|`` divided by the largest ``|lhs|``
    or ``|rhs|`` component, but never by less than ``RESIDUAL_FLOOR = 1``:
    sides of size 1 or more are judged relatively, smaller ones absolutely,
    so identities whose sides vanish (flat curvature, Killing fields) do not
    divide roundoff by roundoff.  A NaN anywhere gives NaN, which fails every
    tolerance; no pairs at all give 0.
    """
    diffs, sizes = [0.0], [RESIDUAL_FLOOR]
    for lhs, rhs in pairs:
        diffs.append(np.max(np.abs(lhs - rhs)))
        sizes.extend((np.max(np.abs(lhs)), np.max(np.abs(rhs))))
    return float(np.max(diffs) / np.max(sizes))
