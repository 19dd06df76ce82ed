import dataclasses

import numpy as np
import pytest

from fcontact import (
    ManifoldModel,
    PointFrame,
    build_flat_contact_r3,
    build_s_space_form,
    d_deform,
    fit_nullity,
    jets,
    sample_points,
)
from fcontact import nullity as nl
from fcontact.tolerances import relative_residual

DEFORM_AS = (0.5, 0.75, 2.0, 3.0)


@pytest.fixture(scope="session")
def flat():
    return build_flat_contact_r3()


def _flat_plain_fields(x):
    # the flat structure of the catalog at rotation rate 1: eta = cos z dx + sin z dy,
    # g = I and f e = d/dz, f d/dz = -e for e = -sin z dx + cos z dy
    c, s = jets.cos(x[2]), jets.sin(x[2])
    eta = np.array([[c, s, 0.0]], dtype=object)
    f = np.array([[0.0, 0.0, s], [0.0, 0.0, -c], [-s, c, 0.0]], dtype=object)
    return np.eye(3), f, eta, eta


# A negative control for the factor 1/2 of the exterior derivative: a metric
# f-structure whose F is twice d eta, so it satisfies F = d eta only under
# the convention without the 1/2.
FLAT_PLAIN = ManifoldModel(n=1, s=1, fields=_flat_plain_fields, domain_box=np.tile([-1.0, 1.0], (3, 1)),
                           label="flat-contact-r3-plain")


@pytest.fixture(scope="session")
def flat_plain():
    return FLAT_PLAIN


@pytest.fixture(scope="session")
def s11():
    return build_s_space_form(1, 1)


@pytest.fixture(scope="session")
def s22():
    return build_s_space_form(2, 2)


@pytest.fixture(scope="session")
def flat_points(flat):
    return sample_points(flat, 8, seed=0)


@pytest.fixture(scope="session")
def s11_points(s11):
    return sample_points(s11, 8, seed=1)


@pytest.fixture(scope="session")
def s22_points(s22):
    return sample_points(s22, 8, seed=2)


@pytest.fixture(scope="session")
def deformed(flat):
    return {a: d_deform(flat, a) for a in DEFORM_AS}


@pytest.fixture(scope="session")
def deformed_fits(deformed, flat_points):
    return {a: fit_nullity(m, flat_points) for a, m in deformed.items()}


@pytest.fixture(scope="session")
def flat_fit(flat, flat_points):
    return fit_nullity(flat, flat_points)


@pytest.fixture(scope="session")
def s22_fit(s22, s22_points):
    return fit_nullity(s22, s22_points)


def twice_d_eta_residual(model, points):
    """Per-alpha residual of ``F = 2 d eta_alpha``: the contact condition without
    the 1/2 of the exterior derivative, which no catalog model satisfies."""
    frame = PointFrame(model, np.stack(points))
    return np.array([relative_residual([(frame.F, 2.0 * frame.d_eta[:, a])]) for a in range(model.s)])


def rng_points(model, count, seed):
    return sample_points(model, count, seed=seed)


def unit_section(model, p, seed=0):
    """A random g-unit vector in L at p."""
    fr = PointFrame(model, p)
    return nl._unit_sections(np.random.default_rng(seed), fr.proj_L, fr.g, 1)[0]


def section_defect(frame, size):
    """A ``riemann31`` defect over the points of ``frame`` that adds
    ``size (1 + 0.01 (a.X)^2 (a.fX)^2)`` to H(X): ``size`` times the Gauss
    tensor of g (the same on every section) plus a small part that depends on
    the section, with the last index of ``g(R(e_i, e_j)e_k, e_l)`` raised.
    The nullity fit absorbs the Gauss part: kappa moves by ``size``."""
    g, a = frame.g, np.array([0.3, -0.5, 0.8])
    gauss = np.einsum("pil,pjk->pijkl", g, g) - np.einsum("pik,pjl->pijkl", g, g)
    d40 = size * (gauss + 0.01 * np.einsum("i,j,k,l->ijkl", a, a, a, a))
    return np.einsum("plm,pijkm->plkij", frame.ginv, d40)


PARTS = ("g", "f", "xi", "eta")


def with_field(model, part, change):
    """``model`` with a defect planted in one part of its fields: ``part``
    (``"g"``, ``"f"``, ``"xi"`` or ``"eta"``, as ``model.fields`` returns them)
    becomes ``change(value, x)`` of its value and the coordinates."""
    index, base = PARTS.index(part), model.fields

    def fields(x):
        out = list(base(x))
        out[index] = change(out[index], x)
        return tuple(out)

    return dataclasses.replace(model, fields=fields)
