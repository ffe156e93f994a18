import math

import numpy as np
import pytest

from bsann.mapping import (
    DomainMap,
    from_x,
    jacobians,
    make_arctan_map,
    to_x,
    truncated_map,
)
from reference import transform_derivatives


def test_length_places_strike_at_quantile():
    dmap = make_arctan_map(10.0, 0.6)
    assert dmap.length == pytest.approx(7.2654253, abs=1e-6)
    assert dmap.length == pytest.approx(10.0 / math.tan(0.3 * math.pi), rel=1e-15)
    assert to_x(dmap, 10.0) == pytest.approx(0.6, abs=1e-12)


def test_arctan_map_basic_points():
    dmap = make_arctan_map(10.0, 0.6)
    assert to_x(dmap, 0.0) == 0.0
    assert to_x(dmap, dmap.length) == pytest.approx(0.5, abs=1e-14)
    assert from_x(dmap, 0.0) == 0.0
    assert from_x(dmap, 0.5) == pytest.approx(dmap.length, rel=1e-14)


def test_round_trip_and_monotonicity():
    dmap = make_arctan_map(10.0, 0.6)
    xs = np.linspace(0.0, 0.999, 200)
    s = np.asarray(from_x(dmap, xs))
    assert np.all(np.diff(s) > 0.0)
    back = np.asarray(to_x(dmap, s))
    assert np.allclose(back, xs, atol=1e-12)


def test_surrogate_point_is_far_field():
    dmap = make_arctan_map(10.0, 0.6)
    assert from_x(dmap, dmap.right_eval_point) > 1e7


def test_domain_errors():
    dmap = make_arctan_map(10.0, 0.6)
    with pytest.raises(ValueError):
        from_x(dmap, 1.0)
    with pytest.raises(ValueError):
        from_x(dmap, np.array([0.5, 1.2]))
    with pytest.raises(ValueError):
        to_x(dmap, -0.5)
    with pytest.raises(ValueError):
        jacobians(dmap, 1.0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_arctan_map(-1.0, 0.6)
    with pytest.raises(ValueError):
        make_arctan_map(10.0, 1.2)
    with pytest.raises(ValueError):
        truncated_map(0.0)
    with pytest.raises(ValueError):
        DomainMap(kind="spherical")


def test_truncated_map_is_identity():
    dmap = truncated_map(15.0)
    xs = np.linspace(0.0, 15.0, 7)
    assert np.array_equal(np.asarray(to_x(dmap, xs)), xs)
    s = from_x(dmap, xs)
    assert np.array_equal(s, xs)
    s[0] = 99.0  # the result is a new array, not a view of the input
    assert xs[0] == 0.0
    upsilon, theta = jacobians(dmap, xs)
    assert np.array_equal(upsilon, np.ones(7))
    assert np.array_equal(theta, np.zeros(7))


def test_jacobian_frozen_values():
    dmap = make_arctan_map(10.0, 0.6)
    upsilon, theta = jacobians(dmap, np.array([0.0, 0.5]))
    assert upsilon[0] == pytest.approx(dmap.length * math.pi / 2.0, rel=1e-14)
    assert theta[0] == 0.0
    assert upsilon[1] == pytest.approx(dmap.length * math.pi, rel=1e-14)
    assert theta[1] == pytest.approx(-1.0 / dmap.length, rel=1e-14)


def test_upsilon_is_map_derivative():
    dmap = make_arctan_map(10.0, 0.6)
    h = 1e-7
    xs = np.array([0.1, 0.35, 0.5, 0.72, 0.9])
    fd = (from_x(dmap, xs + h) - from_x(dmap, xs - h)) / (2.0 * h)
    assert jacobians(dmap, xs)[0] == pytest.approx(fd, rel=1e-6)


def test_theta_matches_derivative_identity():
    # theta = -upsilon'(x) / upsilon(x)^2, the second-derivative chain term
    dmap = make_arctan_map(10.0, 0.6)
    h = 1e-6
    xs = np.array([0.15, 0.4, 0.55, 0.8])
    up = jacobians(dmap, xs + h)[0]
    down = jacobians(dmap, xs - h)[0]
    ups, theta = jacobians(dmap, xs)
    expect = -(up - down) / (2.0 * h) / (ups * ups)
    assert theta == pytest.approx(expect, rel=1e-6)


def test_transform_recovers_price_derivatives_of_polynomials():
    # evaluate u(S) = sum c_k S^k through the map and convert x-derivatives back
    dmap = make_arctan_map(10.0, 0.6)
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(20):
        coeffs = rng.uniform(-1.0, 1.0, 4)

        def u(s):
            return coeffs[0] + coeffs[1] * s + coeffs[2] * s ** 2 + coeffs[3] * s ** 3

        x = rng.uniform(0.05, 0.8, 3)
        s = from_x(dmap, x)
        ux = (u(from_x(dmap, x + h)) - u(from_x(dmap, x - h))) / (2.0 * h)
        uxx = (u(from_x(dmap, x + h)) - 2.0 * u(s) + u(from_x(dmap, x - h))) / (h * h)
        d1, d2 = transform_derivatives(ux, uxx, *jacobians(dmap, x))
        want_d1 = coeffs[1] + 2.0 * coeffs[2] * s + 3.0 * coeffs[3] * s ** 2
        want_d2 = 2.0 * coeffs[2] + 6.0 * coeffs[3] * s
        assert d1 == pytest.approx(want_d1, rel=1e-5, abs=1e-7)
        assert d2 == pytest.approx(want_d2, rel=1e-3, abs=1e-5)


def test_identity_jacobians_leave_derivatives_alone():
    d1 = np.array([-0.3, 2.5, 0.0])
    d2 = np.array([0.9, -1.25, 4.0])
    got = transform_derivatives(d1, d2, *jacobians(truncated_map(15.0), np.array([0.0, 3.0, 15.0])))
    assert np.array_equal(got[0], d1) and np.array_equal(got[1], d2)
