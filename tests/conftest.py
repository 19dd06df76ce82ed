import numpy as np
import pytest

from fcontact import (
    PointFrame,
    build_flat_contact_r3,
    build_flat_contact_r3_plain,
    build_s_space_form,
    d_deform,
    fit_nullity,
    sample_points,
)
from fcontact import nullity as nl

DEFORM_AS = (0.5, 0.75, 2.0, 3.0)


@pytest.fixture(scope="session")
def flat():
    return build_flat_contact_r3()


@pytest.fixture(scope="session")
def flat_plain():
    return build_flat_contact_r3_plain()


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


def rng_points(model, count, seed):
    return sample_points(model, count, seed=seed)


def unit_section(model, p, seed=0):
    """A random g-unit vector in L at p."""
    fr = PointFrame(model, p)
    return nl._unit_sections(np.random.default_rng(seed), fr.proj_L, fr.g, 1)[0]
