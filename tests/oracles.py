"""Oracles independent of the jet-algebra code paths.

These exist only for tests: they recompute connection data from plain float
evaluations of the metric with central differences, or symbolically with
sympy from a metric written out by hand, so an error in the jet algebra
cannot hide in both routes.
"""

import numpy as np

from fcontact import jets


def metric_values(model, p):
    return jets.tensor_value(model.metric_field(np.asarray(p, dtype=float)))


def fd_metric_jacobian(model, p, step=1e-5):
    dim = model.dim
    dg = np.zeros((dim, dim, dim))
    p = np.asarray(p, dtype=float)
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = step
        dg[:, :, k] = (metric_values(model, p + e) - metric_values(model, p - e)) / (2 * step)
    return dg


def fd_christoffel(model, p, step=1e-5):
    """Central-difference Levi-Civita coefficients gamma[k, i, j]."""
    g = metric_values(model, p)
    ginv = np.linalg.inv(g)
    dg = fd_metric_jacobian(model, p, step)
    bracket = (
        np.einsum("jli->lij", dg)
        + np.einsum("ilj->lij", dg)
        - np.einsum("ijl->lij", dg)
    )
    return 0.5 * np.einsum("kl,lij->kij", ginv, bracket)


def fd_dgamma(model, p, step=1e-4):
    """Central differences of the exact-jet Christoffel symbols."""
    from fcontact.geom import PointFrame

    dim = model.dim
    p = np.asarray(p, dtype=float)
    out = np.zeros((dim, dim, dim, dim))
    for m in range(dim):
        e = np.zeros(dim)
        e[m] = step
        gp = PointFrame(model, p + e).gamma
        gm = PointFrame(model, p - e).gamma
        out[:, :, :, m] = (gp - gm) / (2 * step)
    return out


def sympy_riemann31(metric, point):
    """``riemann31[l, k, i, j] = R^l_kij`` of ``metric`` at ``point``, with sympy.

    ``metric`` maps a tuple of sympy coordinate symbols to a sympy Matrix.  The
    Christoffel symbols ``Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij)``
    are formed and differentiated symbolically, then evaluated at ``point``
    (rationals) to 30 digits; ``R^l_kij = d_i Gamma^l_jk - d_j Gamma^l_ik +
    Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik``.
    """
    import sympy as sp

    dim = len(point)
    x = sp.symbols(f"x0:{dim}")
    g = sp.Matrix(metric(x))
    ginv = g.inv()
    r = range(dim)
    gamma = [[[sum(ginv[k, l] * (g[j, l].diff(x[i]) + g[i, l].diff(x[j]) - g[i, j].diff(x[l])) for l in r) / 2
               for j in r] for i in r] for k in r]
    at = dict(zip(x, point))
    G = np.array([[[sp.N(gamma[k][i][j].subs(at), 30) for j in r] for i in r] for k in r], dtype=object)
    dG = np.array([[[[sp.N(gamma[k][i][j].diff(x[m]).subs(at), 30) for m in r] for j in r] for i in r] for k in r],
                  dtype=object)
    out = np.zeros((dim,) * 4)
    for l, k, i, j in np.ndindex(*out.shape):
        val = dG[l, j, k, i] - dG[l, i, k, j] + sum(G[l, i, m] * G[m, j, k] - G[l, j, m] * G[m, i, k] for m in r)
        out[l, k, i, j] = float(val)
    return out
