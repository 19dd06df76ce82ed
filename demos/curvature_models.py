"""Curvature identities and model fits on the S-structure.

Verifies, on the six-dimensional S-structure (n = 2, s = 2):

* the nullity fit gives kappa = 1 with mu unconstrained (h = 0),
* the f-sectional curvature is the constant -3s = -6,
* the full constant-H curvature model holds with H = -6,
* the curvature matches the seven-function ansatz of generalized
  S-space-forms, with the constancy conditions satisfied,
* (nabla_X f)Y fits the characteristic-function template with
  alpha_i = 1, beta_i = 0, and R(X, xi)Y = -(nabla_X f)Y.
"""

import numpy as np

from fcontact import (
    build_flat_contact_r3,
    build_s_space_form,
    check_curvature_model,
    check_rf_identity,
    fit_gssf,
    fit_nullity,
    fit_trans_s,
    sample_H_constancy,
    sample_points,
    verify_r_xi,
)

model = build_s_space_form(2, 2)
points = sample_points(model, 8, seed=0)

fit = fit_nullity(model, points)
mu = "unconstrained" if not fit.mu_determined else f"{fit.mu:.6f}"
print(f"nullity fit: kappa = {fit.kappa:.12f}, mu = {mu}, residual = {fit.residual:.2e}")

rep = sample_H_constancy(model, points[:5], 40, rng=0)
print(f"f-sectional curvature: mean = {rep.h_mean:.9f}, spread = {rep.h_spread:.2e}")

print(f"R(xi, X)Y identity residual:   {verify_r_xi(model, fit, points):.2e}")
print(f"R(X, Y)fZ expansion residual:  {check_rf_identity(model, fit, points):.2e}")
print(f"constant-H curvature model:    "
      f"{check_curvature_model(model, fit, rep.h_mean, points):.2e}")

gssf = fit_gssf(model, points)
print(f"seven-function ansatz: F = {np.round(gssf.f_constants, 9)}")
print(f"   residual = {gssf.residual:.2e}, spread across points = {np.max(gssf.f_spread):.2e}")
print(f"   constancy conditions = {np.round(gssf.condition_residuals, 12)}, "
      f"implied kappa = {gssf.implied_kappa:.9f}")

trans = fit_trans_s(model, points)
print(f"characteristic functions: alpha = {np.round(trans.alpha, 9)}, "
      f"beta = {np.round(trans.beta, 9)}")
print(f"   residual = {trans.residual:.2e}, R(X, xi)Y = -(nabla_X f)Y residual = "
      f"{trans.t421_residual:.2e}")

flat = build_flat_contact_r3()
fpts = sample_points(flat, 8, seed=0)
bad = fit_trans_s(flat, fpts)
print(f"\nflat structure is NOT trans-S: template residual = {bad.residual:.2e}")
