import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fcontact import jets
from fcontact.errors import SingularJetError

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
nonzero = st.floats(min_value=0.2, max_value=10).map(lambda v: v)


def seed2(x, y):
    u, v = jets.variables([x, y])
    return u, v


def test_variables_seeding():
    x = jets.variables([1.5, -2.0, 0.25])
    assert [v.val for v in x] == [1.5, -2.0, 0.25]
    assert np.allclose(x[1].grad, [0, 1, 0])
    assert np.allclose(x[2].hess, 0)


def test_polynomial_derivatives():
    # w = x^2 y + 3 x: dw = (2xy + 3, x^2), d2w = [[2y, 2x], [2x, 0]]
    x, y = seed2(2.0, 5.0)
    w = x**2 * y + 3 * x
    assert w.val == pytest.approx(4 * 5 + 6)
    assert np.allclose(w.grad, [2 * 2 * 5 + 3, 4.0])
    assert np.allclose(w.hess, [[10.0, 4.0], [4.0, 0.0]])


def test_trig_chain_rule():
    # w = sin(x y): full second-order expansion at a generic point
    a, b = 0.7, -1.3
    x, y = seed2(a, b)
    w = jets.sin(x * y)
    s, c = math.sin(a * b), math.cos(a * b)
    assert w.val == pytest.approx(s)
    assert np.allclose(w.grad, [c * b, c * a])
    expected_hess = [
        [-s * b * b, c - s * a * b],
        [c - s * a * b, -s * a * a],
    ]
    assert np.allclose(w.hess, expected_hess)


def test_division_and_reciprocal():
    x, y = seed2(3.0, 2.0)
    w = x / y
    assert w.val == pytest.approx(1.5)
    assert np.allclose(w.grad, [1 / 2, -3 / 4])
    # d2/dy2 (x/y) = 2x/y^3
    assert w.hess[1, 1] == pytest.approx(2 * 3 / 8)


def test_reciprocal_at_zero_raises_typed_error():
    x, y = seed2(3.0, 0.0)
    with pytest.raises(SingularJetError):
        x / y
    with pytest.raises(SingularJetError):
        1.0 / y
    with pytest.raises(SingularJetError):
        y**-2


def test_low_integer_powers_at_zero():
    (x,) = jets.variables([0.0])
    w = x**1
    assert (w.val, w.grad[0], w.hess[0, 0]) == (0.0, 1.0, 0.0)
    w = x**0
    assert (w.val, w.grad[0], w.hess[0, 0]) == (1.0, 0.0, 0.0)
    # a negative power away from zero still has the exact derivatives
    (x,) = jets.variables([2.0])
    w = x**-2
    assert w.val == pytest.approx(0.25)
    assert w.grad[0] == pytest.approx(-0.25)
    assert w.hess[0, 0] == pytest.approx(6 / 16)


def test_sqrt_exp_log():
    (x,) = jets.variables([4.0])
    r = jets.sqrt(x)
    assert r.val == pytest.approx(2.0)
    assert r.grad[0] == pytest.approx(0.25)
    assert r.hess[0, 0] == pytest.approx(-1 / 32)
    e = jets.exp(x)
    assert e.hess[0, 0] == pytest.approx(math.exp(4.0))
    l = jets.log(x)
    assert l.grad[0] == pytest.approx(0.25)
    assert l.hess[0, 0] == pytest.approx(-1 / 16)


def test_integer_pow_at_negative_base():
    (x,) = jets.variables([-2.0])
    w = x**3
    assert w.val == pytest.approx(-8.0)
    assert w.grad[0] == pytest.approx(12.0)
    assert w.hess[0, 0] == pytest.approx(-12.0)


def test_fractional_pow_rejects_nonpositive():
    (x,) = jets.variables([-1.0])
    with pytest.raises(ValueError):
        x**0.5


@pytest.mark.parametrize("p", [2.0, -1.0, np.float64(3)], ids=["2.0", "-1.0", "float64(3)"])
def test_integral_float_pow_takes_the_integer_path(p):
    # floats raise a negative base to an integral float power, and so must jets
    coords = np.array([[-0.5, 0.3], [0.7, -1.2]])
    for point in (coords[0], coords):
        x, y = jets.variables(point)
        for u, u0 in ((x, point[..., 0]), (y, point[..., 1])):
            w, want = u**p, u ** int(p)
            assert np.array_equal(w.val, np.power(u0, float(p)))
            for got, exact in ((w.val, want.val), (w.grad, want.grad), (w.hess, want.hess)):
                assert np.array_equal(got, exact)


def test_plain_floats_pass_through():
    assert jets.sin(0.5) == pytest.approx(math.sin(0.5))
    value, grad, hess = jets.tensor_parts([2.5], 3)
    assert value[0] == 2.5
    assert np.all(grad == 0) and np.all(hess == 0)


@given(finite, finite, finite, finite)
def test_product_rule(a, b, ga, gb):
    u = jets.Jet(a, [ga], [[0.0]])
    v = jets.Jet(b, [gb], [[0.0]])
    w = u * v
    assert w.val == pytest.approx(a * b, abs=1e-9)
    assert w.grad[0] == pytest.approx(a * gb + b * ga, abs=1e-9)
    assert w.hess[0, 0] == pytest.approx(2 * ga * gb, abs=1e-9)


@given(finite)
def test_pythagorean_identity_is_constant(x0):
    (x,) = jets.variables([x0])
    w = jets.sin(x) ** 2 + jets.cos(x) ** 2
    assert w.val == pytest.approx(1.0)
    assert abs(w.grad[0]) < 1e-12
    assert abs(w.hess[0, 0]) < 1e-12


def test_object_array_interop():
    x = jets.variables([1.0, 2.0])
    eta = np.array([x[0], 0.5], dtype=object)
    mat = np.outer(eta, eta)
    vals = jets.tensor_value(mat)
    assert np.allclose(vals, [[1.0, 0.5], [0.5, 0.25]])
    jac = jets.tensor_jacobian(mat, 2)
    assert jac[0, 0, 0] == pytest.approx(2.0)  # d/dx of x^2
    assert jac[0, 1, 0] == pytest.approx(0.5)  # d/dx of 0.5 x
    assert np.allclose(jac[1, 1], 0)


def test_tensor_extraction_handles_float_arrays():
    g = np.eye(3)
    assert np.allclose(jets.tensor_value(g), g)
    assert np.allclose(jets.tensor_jacobian(g, 3), 0)
    assert np.allclose(jets.tensor_hessian(g, 3), 0)


# -- jets over a batch of points -----------------------------------------------


def test_batch_jets_equal_the_point_jets():
    points = np.array([[0.3, -1.2], [1.5, 0.4], [-0.7, 2.0]])

    def w(x, y):
        return jets.sin(x * y) / (1.0 + x**2) + jets.exp(y) * jets.cos(x) - jets.sqrt(y * y + 1.0) + x**-3

    x, y = jets.variables(points)
    batch = w(x, y)
    assert batch.val.shape == (3,) and batch.grad.shape == (3, 2) and batch.hess.shape == (3, 2, 2)
    for i, p in enumerate(points):
        one = w(*jets.variables(p))
        assert isinstance(one.val, float)
        # numpy's exp may differ from math.exp in the last bit
        for got, want in ((batch.val[i], one.val), (batch.grad[i], one.grad), (batch.hess[i], one.hess)):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_batch_reciprocal_raises_if_any_point_is_zero():
    x, y = jets.variables(np.array([[3.0, 2.0], [1.0, 0.0], [2.0, 5.0]]))
    with pytest.raises(SingularJetError):
        x / y
    with pytest.raises(SingularJetError):
        1.0 / y
    with pytest.raises(SingularJetError):
        y**-2
    x, y = jets.variables(np.array([[3.0, 2.0], [2.0, 5.0]]))
    assert np.array_equal((x / y).val, [1.5, 0.4])


def test_batch_fractional_power_rejects_any_nonpositive_point():
    (x,) = jets.variables(np.array([[4.0], [-1.0], [9.0]]))
    with pytest.raises(ValueError):
        x**0.5
    with pytest.raises(ValueError):
        jets.sqrt(x)
    with pytest.raises(ValueError):
        jets.log(x)
    (x,) = jets.variables(np.array([[4.0], [9.0]]))
    assert np.array_equal(jets.sqrt(x).val, [2.0, 3.0])


def test_batch_extraction_broadcasts_plain_entries():
    x, y = jets.variables(np.array([[1.0, 2.0], [3.0, 4.0]]))
    arr = np.array([[x * y, 0.5], [0.5, 1]], dtype=object)
    value, jac, hess = jets.tensor_parts(arr, 2, 2, batch=(2,))
    assert value.shape == (2, 2, 2) and jac.shape == (2, 2, 2, 2) and hess.shape == (2, 2, 2, 2, 2)
    assert np.array_equal(value[:, 0, 0], [2.0, 12.0])
    assert np.array_equal(value[:, 1, 1], [1.0, 1.0])
    assert np.array_equal(jac[1, 0, 0], [4.0, 3.0])
    assert np.array_equal(hess[0, 0, 0], [[0.0, 1.0], [1.0, 0.0]])
    assert not jac[:, 1].any() and not hess[:, 1].any()
