"""D-homothetic deformation sweep against the closed-form laws.

Starting from the flat structure (kappa = mu = 0), each deformation constant
a produces a nullity structure with kappa = (a^2-1)/a^2, mu = 2(a-1)/a and
constant f-sectional curvature H = -s(3a^2-2a-1)/a^2.  The fits below are
pure least squares on numerically computed curvature; the predictions come
from the closed forms.  a = 1/2 is the special value where mu = kappa + 1.
"""

from fcontact import (
    build_flat_contact_r3,
    build_flat_contact_r3_plain,
    convention_normalize,
    d_deform,
    fit_nullity,
    h_spectrum,
    predict_deformed_nullity,
    sample_H_constancy,
    sample_points,
)
from fcontact.tolerances import FIT_TOL

flat = build_flat_contact_r3()
points = sample_points(flat, 8, seed=0)

print(f"{'a':>5} | {'kappa fit':>12} {'kappa pred':>12} | {'mu fit':>12} {'mu pred':>12} "
      f"| {'H mean':>10} {'H pred':>10} | {'lambda':>7}")
for a in (0.5, 0.75, 1.0, 2.0, 3.0, 4.0):
    model = d_deform(flat, a)
    fit = fit_nullity(model, points)
    pred = predict_deformed_nullity(a, s=1)
    rep = sample_H_constancy(model, points[:4], 25, rng=0)
    spec = h_spectrum(model, fit, points[0]) if fit.kappa < 1 - 1e-6 else None
    lam = f"{spec.lam:7.4f}" if spec else "   n/a "
    star = "  <- space form with mu = kappa + 1" if abs(pred.mu - (pred.kappa + 1.0)) <= FIT_TOL else ""
    print(f"{a:5.2f} | {fit.kappa:12.8f} {pred.kappa:12.8f} | {fit.mu:12.8f} {pred.mu:12.8f} "
          f"| {rep.h_mean:10.6f} {pred.h_sectional:10.6f} | {lam}{star}")

print()
print("Convention normalization: the PLAIN-convention flat structure, rescaled")
print("to HALF (eta' = 2 eta, xi' = xi/2, g' = g + 3 eta x eta), lands on the")
print("same (kappa, mu, H) as the closed-form deformation law at a = 4:")
norm = convention_normalize(build_flat_contact_r3_plain())
fit = fit_nullity(norm, points)
rep = sample_H_constancy(norm, points[:4], 25, rng=0)
pred = predict_deformed_nullity(4.0, s=1)
print(f"   normalized fit: kappa={fit.kappa:.8f}, mu={fit.mu:.8f}, H={rep.h_mean:.6f}")
print(f"   a = 4 law:      kappa={pred.kappa:.8f}, mu={pred.mu:.8f}, H={pred.h_sectional:.6f}")
