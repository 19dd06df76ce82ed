"""Tour of the built-in structures and the axiom battery.

Builds both catalog families, checks every metric f-manifold axiom and the
contact condition, and inspects the h-operators.
"""

import numpy as np

from fcontact import (
    build_flat_contact_r3,
    build_s_space_form,
    check_contact,
    check_f_axioms,
    check_normality,
    killing_check,
    sample_points,
    structure_at,
)

for model in (build_flat_contact_r3(), build_s_space_form(2, 2)):
    points = sample_points(model, 20, seed=0)
    print(f"== {model.label}  (dim {model.dim}, n={model.n}, s={model.s})")

    report = check_f_axioms(model, points)
    print(f"   worst axiom residual over 20 points: {report.max_residual:.2e}")
    print(f"   pass flags: {report.pass_flags()}")

    # The contact condition, with d eta(X, Y) = 1/2 (X eta(Y) - Y eta(X) - eta([X, Y])).
    print(f"   relative residual of F = d_eta: {np.max(check_contact(model, points)):.2e}")

    # Normality separates S-manifolds from merely metric f-contact ones.
    print(f"   relative residual of normality: {check_normality(model, points):.2e}")

    # h_alpha = 1/2 L_xi f vanishes exactly when xi is Killing.
    st = structure_at(model, points[0])
    eigs = np.sort(np.linalg.eigvals(st.h_mat[0]).real)
    print(f"   h_1 eigenvalues: {np.round(eigs, 10)}")
    print(f"   Killing residual for xi_1: {killing_check(model, 0, points):.2e}")
    print()
