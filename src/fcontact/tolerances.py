"""Tolerances and the residual scale floor shared by every check.

``IDENTITY_TOL`` judges identities that hold exactly by construction (the
axiom battery, the contact condition, Killing fields, normality, ``h = 0``);
``FIT_TOL`` judges least-squares fits and identities built from fitted
constants.  ``SCALE_FLOOR`` is the smallest scale a relative residual is
divided by.
"""

IDENTITY_TOL = 1e-8
FIT_TOL = 1e-6
SCALE_FLOOR = 1e-12
