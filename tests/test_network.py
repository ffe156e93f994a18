import numpy as np
import pytest

from bsann.network import (
    IDENTITY,
    SIGMOID,
    NetworkParams,
    _sigmoid_arr,
    eval_batch,
    forward,
    init_params,
    load_params_csv,
    param_grad,
    save_params_csv,
)


def random_params(rng, n, scale=0.5):
    return NetworkParams.from_flat(rng.uniform(-scale, scale, 3 * n + 1), n)


def test_init_is_seed_deterministic():
    a = init_params(20, seed=7)
    b = init_params(20, seed=7)
    assert np.array_equal(a.to_flat(), b.to_flat())
    c = init_params(20, seed=8)
    assert not np.array_equal(a.to_flat(), c.to_flat())


def test_init_size_and_range():
    params = init_params(20, seed=0, scale=0.01)
    assert params.size == 61
    assert params.n_hidden == 20
    flat = params.to_flat()
    assert flat.size == 61
    assert np.all(np.abs(flat) <= 0.01)
    # matches numpy's seeded generator directly
    expected = np.random.default_rng(0).uniform(-0.01, 0.01, 61)
    assert np.array_equal(flat, expected)


def test_flat_round_trip():
    rng = np.random.default_rng(11)
    params = random_params(rng, 6)
    again = NetworkParams.from_flat(params.to_flat(), 6)
    assert np.array_equal(params.to_flat(), again.to_flat())


def test_params_validation():
    # not 1-d, not 3n+1 long, and n = 0
    for bad in (np.zeros((2, 10)), np.zeros(9), np.zeros(1)):
        with pytest.raises(ValueError):
            NetworkParams(bad)
    with pytest.raises(ValueError):
        NetworkParams.from_flat(np.zeros(9), 3)  # needs 10
    with pytest.raises(ValueError):
        NetworkParams.from_flat(np.zeros((2, 10)), 3)
    with pytest.raises(ValueError):
        NetworkParams.from_flat(np.zeros(1), 0)


def test_params_store_a_read_only_copy():
    source = np.arange(7.0)
    params = NetworkParams.from_flat(source, 2)
    source[0] = -1.0
    assert params.flat[0] == 0.0
    assert not params.flat.flags.writeable
    with pytest.raises(ValueError):
        params.flat[0] = 1.0
    flat = params.to_flat()
    assert flat.flags.writeable and not np.shares_memory(flat, params.flat)
    flat[0] = 5.0
    assert params.flat[0] == 0.0


def test_csv_round_trip_is_bit_exact(tmp_path):
    params = init_params(13, seed=5, scale=0.7)
    path = tmp_path / "params.csv"
    save_params_csv(params, path)
    back = load_params_csv(path)
    assert np.array_equal(params.to_flat(), back.to_flat())
    header = path.read_text().splitlines()[0]
    assert header == "name,value"


def test_forward_matches_eval_batch():
    rng = np.random.default_rng(2)
    params = random_params(rng, 5)
    xs = rng.uniform(-1.5, 1.5, 7)
    val, d1, d2 = eval_batch(params, xs)
    for i, x in enumerate(xs):
        net = forward(params, float(x))
        assert net.value == pytest.approx(val[i], abs=1e-14)
        assert net.d1 == pytest.approx(d1[i], abs=1e-14)
        assert net.d2 == pytest.approx(d2[i], abs=1e-14)


@pytest.mark.parametrize("activation", [IDENTITY, SIGMOID])
def test_input_derivatives_match_finite_differences(activation):
    rng = np.random.default_rng(17)
    h = 1e-5
    for _ in range(40):
        n = int(rng.integers(2, 9))
        params = random_params(rng, n)
        x = float(rng.uniform(-2.0, 2.0))
        net = forward(params, x, activation)
        up = forward(params, x + h, activation)
        down = forward(params, x - h, activation)
        fd1 = (up.value - down.value) / (2.0 * h)
        # second derivative from the analytic first derivative: the plain
        # second difference of the value loses too much to roundoff
        fd2 = (up.d1 - down.d1) / (2.0 * h)
        assert np.isclose(fd1, net.d1, rtol=1e-4, atol=1e-8)
        assert np.isclose(fd2, net.d2, rtol=1e-4, atol=1e-8)


def test_sigmoid_head_wraps_identity_head():
    rng = np.random.default_rng(23)
    params = random_params(rng, 4)
    xs = rng.uniform(-1.0, 1.0, 5)
    raw_val, raw_d1, _ = eval_batch(params, xs, IDENTITY)
    val, d1, _ = eval_batch(params, xs, SIGMOID)
    s = _sigmoid_arr(raw_val)
    assert val == pytest.approx(s, abs=1e-14)
    assert d1 == pytest.approx(s * (1.0 - s) * raw_d1, abs=1e-12)


@pytest.mark.parametrize("target", ["value", "d1", "d2"])
@pytest.mark.parametrize("activation", [IDENTITY, SIGMOID])
def test_parameter_gradients_match_finite_differences(target, activation):
    rng = np.random.default_rng(31)
    h = 1e-5
    for _ in range(20):
        n = int(rng.integers(2, 6))
        params = random_params(rng, n)
        x = float(rng.uniform(-2.0, 2.0))
        grad = param_grad(params, x, target=target, output_activation=activation).to_flat()
        flat = params.to_flat()
        fd = np.empty_like(flat)
        for j in range(flat.size):
            up = flat.copy()
            up[j] += h
            down = flat.copy()
            down[j] -= h
            fp = getattr(forward(NetworkParams.from_flat(up, n), x, activation), target)
            fm = getattr(forward(NetworkParams.from_flat(down, n), x, activation), target)
            fd[j] = (fp - fm) / (2.0 * h)
        assert np.allclose(fd, grad, rtol=1e-4, atol=1e-8)


def test_rejects_unknown_activation():
    params = init_params(3, seed=0)
    with pytest.raises(ValueError):
        eval_batch(params, np.array([0.0]), "relu")
    with pytest.raises(ValueError):
        param_grad(params, 0.0, output_activation="tanh")


def test_param_grad_rejects_unknown_target():
    params = init_params(3, seed=0)
    with pytest.raises(ValueError):
        param_grad(params, 0.0, target="d3")
