import re

import numpy as np
import numpy.testing as npt
import pytest

from floodwatch.errors import NumericError
from floodwatch.numerics import sigmoid
from floodwatch.rbm import (
    CdConfig,
    RbmKind,
    RbmParams,
    cd1_step,
    energy_bernoulli,
    energy_gaussian,
    hidden_given_visible,
    init_rbm,
    train_rbm,
    visible_given_hidden,
)
from oracles import (
    enum_hidden_conditional,
    enum_visible_conditional,
    loop_cd1_step,
    naive_cd1_step,
    naive_energy_bernoulli,
    naive_energy_gaussian,
    sample_binary,
)

FOUR_PATTERNS = np.array([
    [1, 1, 1, 0, 0, 0],
    [0, 0, 0, 1, 1, 1],
    [1, 0, 1, 0, 1, 0],
    [0, 1, 0, 1, 0, 1],
], dtype=np.float64)


def random_params(kind, num_visible, num_hidden, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return RbmParams(
        kind=kind,
        weights=rng.normal(0.0, scale, (num_visible, num_hidden)),
        visible_bias=rng.normal(0.0, scale, num_visible),
        hidden_bias=rng.normal(0.0, scale, num_hidden),
    )


def test_energy_bernoulli_single_unit():
    params = RbmParams(kind=RbmKind.BERNOULLI_BERNOULLI, weights=[[0.5]],
                       visible_bias=[0.1], hidden_bias=[0.2])
    assert energy_bernoulli(params, [1], [1]) == pytest.approx(-0.8, abs=1e-15)


def test_energy_bernoulli_all_zero_states():
    params = random_params(RbmKind.BERNOULLI_BERNOULLI, 4, 3, seed=0)
    assert energy_bernoulli(params, np.zeros(4), np.zeros(3)) == 0.0


def test_energy_bernoulli_matches_naive_oracle():
    rng = np.random.default_rng(11)
    for seed in range(30):
        params = random_params(RbmKind.BERNOULLI_BERNOULLI, 3, 2, seed=seed)
        v = rng.integers(0, 2, 3).astype(float)
        h = rng.integers(0, 2, 2).astype(float)
        expected = naive_energy_bernoulli(params.weights.tolist(),
                                          params.visible_bias.tolist(),
                                          params.hidden_bias.tolist(),
                                          v.tolist(), h.tolist())
        assert energy_bernoulli(params, v, h) == pytest.approx(expected, abs=1e-12)


def test_energy_bernoulli_hidden_permutation_invariant():
    params = random_params(RbmKind.BERNOULLI_BERNOULLI, 4, 3, seed=3)
    v = np.array([1.0, 0.0, 1.0, 1.0])
    h = np.array([1.0, 0.0, 1.0])
    perm = [2, 0, 1]
    permuted = RbmParams(kind=params.kind, weights=params.weights[:, perm],
                         visible_bias=params.visible_bias,
                         hidden_bias=params.hidden_bias[perm])
    assert energy_bernoulli(params, v, h) == pytest.approx(
        energy_bernoulli(permuted, v, h[perm]), abs=1e-12)


def test_energy_gaussian_at_visible_bias():
    params = random_params(RbmKind.GAUSSIAN_BERNOULLI, 5, 3, seed=1)
    assert energy_gaussian(params, params.visible_bias.copy(),
                           np.zeros(3)) == pytest.approx(0.0, abs=1e-12)


def test_energy_gaussian_pure_quadratic():
    params = RbmParams(kind=RbmKind.GAUSSIAN_BERNOULLI, weights=[[0.0]],
                       visible_bias=[0.0], hidden_bias=[0.0])
    assert energy_gaussian(params, [2.0], [0]) == pytest.approx(2.0, abs=1e-15)


def test_energy_gaussian_matches_naive_oracle():
    rng = np.random.default_rng(12)
    for seed in range(30):
        params = random_params(RbmKind.GAUSSIAN_BERNOULLI, 4, 3, seed=100 + seed)
        v = rng.normal(size=4)
        h = rng.integers(0, 2, 3).astype(float)
        expected = naive_energy_gaussian(params.weights.tolist(),
                                         params.visible_bias.tolist(),
                                         params.hidden_bias.tolist(),
                                         v.tolist(), h.tolist())
        assert energy_gaussian(params, v, h) == pytest.approx(expected, abs=1e-12)


def test_hidden_given_visible_zero_parameters():
    params = RbmParams(kind=RbmKind.BERNOULLI_BERNOULLI,
                       weights=np.zeros((3, 4)), visible_bias=np.zeros(3),
                       hidden_bias=np.zeros(4))
    npt.assert_allclose(hidden_given_visible(params, [1, 0, 1]), 0.5)


def test_hidden_given_visible_saturates():
    params = RbmParams(kind=RbmKind.BERNOULLI_BERNOULLI,
                       weights=np.zeros((2, 2)), visible_bias=np.zeros(2),
                       hidden_bias=np.array([100.0, 100.0]))
    npt.assert_allclose(hidden_given_visible(params, [0, 0]), 1.0, atol=1e-12)


def test_hidden_conditional_matches_enumeration():
    # conditionals from the sigmoid formula against exhaustive exp(-E)/Z
    rng = np.random.default_rng(21)
    for seed in range(10):
        params = random_params(RbmKind.BERNOULLI_BERNOULLI, 3, 2, seed=200 + seed)
        v = rng.integers(0, 2, 3).astype(float)
        expected = enum_hidden_conditional(params.weights.tolist(),
                                           params.visible_bias.tolist(),
                                           params.hidden_bias.tolist(),
                                           v.tolist())
        npt.assert_allclose(hidden_given_visible(params, v), expected, atol=1e-10)


def test_visible_conditional_matches_enumeration():
    rng = np.random.default_rng(22)
    for seed in range(10):
        params = random_params(RbmKind.BERNOULLI_BERNOULLI, 2, 2, seed=300 + seed)
        h = rng.integers(0, 2, 2).astype(float)
        expected = enum_visible_conditional(params.weights.tolist(),
                                            params.visible_bias.tolist(),
                                            params.hidden_bias.tolist(),
                                            h.tolist())
        npt.assert_allclose(visible_given_hidden(params, h), expected, atol=1e-10)


def test_visible_given_hidden_bernoulli_zero_parameters():
    params = RbmParams(kind=RbmKind.BERNOULLI_BERNOULLI,
                       weights=np.zeros((3, 2)), visible_bias=np.zeros(3),
                       hidden_bias=np.zeros(2))
    npt.assert_allclose(visible_given_hidden(params, [1, 0]), 0.5)


def test_visible_given_hidden_gaussian_returns_bias_mean():
    params = RbmParams(kind=RbmKind.GAUSSIAN_BERNOULLI,
                       weights=np.zeros((3, 2)),
                       visible_bias=np.array([0.3, -1.2, 2.5]),
                       hidden_bias=np.zeros(2))
    npt.assert_array_equal(visible_given_hidden(params, [1, 1]),
                           params.visible_bias)


def test_probabilities_strictly_inside_unit_interval():
    params = random_params(RbmKind.BERNOULLI_BERNOULLI, 6, 5, seed=9, scale=3.0)
    probs = hidden_given_visible(params, np.ones(6))
    assert np.all(probs > 0.0) and np.all(probs < 1.0)


def test_sigmoid_overflow_safe():
    xs = np.array([-1e6, -708.0, -30.0, 0.0, 30.0, 708.0, 1e6])
    out = sigmoid(xs)
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(0.0, abs=1e-200)
    assert out[-1] == pytest.approx(1.0, abs=1e-15)


def test_sample_binary_degenerate_probs():
    rng = np.random.default_rng(0)
    npt.assert_array_equal(sample_binary(np.zeros(8), rng), np.zeros(8))
    npt.assert_array_equal(sample_binary(np.ones(8), rng), np.ones(8))


def test_sample_binary_law_of_large_numbers():
    rng = np.random.default_rng(123)
    draws = sample_binary(np.full(10_000, 0.5), rng)
    assert abs(draws.mean() - 0.5) < 0.02


def test_cd1_step_zero_learning_rate():
    params = random_params(RbmKind.BERNOULLI_BERNOULLI, 6, 4, seed=4)
    updated, error = cd1_step(params, FOUR_PATTERNS, 0.0, np.random.default_rng(5))
    npt.assert_array_equal(updated.weights, params.weights)
    npt.assert_array_equal(updated.visible_bias, params.visible_bias)
    npt.assert_array_equal(updated.hidden_bias, params.hidden_bias)
    assert error >= 0.0


def test_cd1_step_deterministic():
    params = random_params(RbmKind.BERNOULLI_BERNOULLI, 6, 4, seed=4)
    first = cd1_step(params, FOUR_PATTERNS, 0.05, np.random.default_rng(5))
    second = cd1_step(params, FOUR_PATTERNS, 0.05, np.random.default_rng(5))
    npt.assert_array_equal(first[0].weights, second[0].weights)
    assert first[1] == second[1]


def random_batch(kind, size, seed):
    rng = np.random.default_rng(seed)
    if kind is RbmKind.GAUSSIAN_BERNOULLI:
        return rng.normal(0.0, 1.0, (size, 6))
    return (rng.random((size, 6)) < 0.5).astype(np.float64)


@pytest.mark.parametrize("kind", list(RbmKind))
@pytest.mark.parametrize("size", [1, 5, 32])
@pytest.mark.parametrize("learning_rate", [0.0, 0.05])
def test_cd1_step_matches_composed_oracle(kind, size, learning_rate):
    for seed in range(4):
        params = random_params(kind, 6, 4, seed=seed)
        batch = random_batch(kind, size, seed + 100)
        updated, error = cd1_step(params, batch, learning_rate, np.random.default_rng(seed))
        weights, visible_bias, hidden_bias, want_error = naive_cd1_step(
            params, batch, learning_rate, np.random.default_rng(seed))
        npt.assert_array_equal(updated.weights, weights)
        npt.assert_array_equal(updated.visible_bias, visible_bias)
        npt.assert_array_equal(updated.hidden_bias, hidden_bias)
        assert error == want_error
        assert updated.kind is kind


@pytest.mark.parametrize("kind", list(RbmKind))
@pytest.mark.parametrize("size", [1, 5])
def test_cd1_step_matches_loop_oracle(kind, size):
    # the same seeded uniforms draw the hidden states in both
    for seed in range(3):
        params = random_params(kind, 6, 4, seed=seed)
        batch = random_batch(kind, size, seed + 100)
        updated, error = cd1_step(params, batch, 0.05, np.random.default_rng(seed))
        uniforms = np.random.default_rng(seed).random((size, 4))
        weights, visible_bias, hidden_bias, want_error = loop_cd1_step(
            kind.value, params.weights.tolist(), params.visible_bias.tolist(),
            params.hidden_bias.tolist(), batch.tolist(), 0.05, uniforms.tolist())
        npt.assert_allclose(updated.weights, weights, rtol=1e-12)
        npt.assert_allclose(updated.visible_bias, visible_bias, rtol=1e-12)
        npt.assert_allclose(updated.hidden_bias, hidden_bias, rtol=1e-12)
        assert error == pytest.approx(want_error, rel=1e-12)


@pytest.mark.parametrize("kind", list(RbmKind))
def test_train_rbm_matches_oracle_loop(kind):
    # 20 rows in batches of 6: the last batch of each epoch holds 2 rows
    params = random_params(kind, 6, 4, seed=3, scale=0.1)
    data = random_batch(kind, 20, seed=4)
    config = CdConfig(learning_rate=0.05, epochs=3, batch_size=6)
    trained, trace = train_rbm(params, data, config, np.random.default_rng(9))

    rng = np.random.default_rng(9)
    current = params
    want_trace = []
    for _ in range(config.epochs):
        squared_sum = 0.0
        for start in range(0, len(data), config.batch_size):
            batch = data[start:start + config.batch_size]
            *arrays, error = naive_cd1_step(current, batch, config.learning_rate, rng)
            current = RbmParams(kind, *arrays)
            squared_sum += error * len(batch)
        want_trace.append(squared_sum / len(data))
    npt.assert_array_equal(trained.weights, current.weights)
    npt.assert_array_equal(trained.visible_bias, current.visible_bias)
    npt.assert_array_equal(trained.hidden_bias, current.hidden_bias)
    npt.assert_array_equal(trace, want_trace)


def test_cd1_step_rejects_non_finite_batch():
    params = random_params(RbmKind.GAUSSIAN_BERNOULLI, 6, 4, seed=1)
    batch = random_batch(RbmKind.GAUSSIAN_BERNOULLI, 5, seed=2)
    batch[3, 2] = np.nan
    with pytest.raises(NumericError, match="^CD-1 update produced non-finite weights$"):
        cd1_step(params, batch, 0.05, np.random.default_rng(0))


def test_train_rbm_names_the_batch_with_non_finite_data():
    params = random_params(RbmKind.GAUSSIAN_BERNOULLI, 6, 4, seed=1)
    data = random_batch(RbmKind.GAUSSIAN_BERNOULLI, 12, seed=2)
    data[7, 0] = np.inf
    config = CdConfig(learning_rate=0.05, epochs=2, batch_size=3)
    with pytest.raises(NumericError,
                       match="^epoch 0, batch 2: CD-1 update produced non-finite weights$"):
        train_rbm(params, data, config, np.random.default_rng(0))


def test_diverging_train_rbm_names_epoch_and_batch():
    # a learning rate this large overflows the reconstruction error or
    # the weights within a few steps; no RuntimeWarning may escape on the
    # way (pyproject turns them into errors)
    params = random_params(RbmKind.GAUSSIAN_BERNOULLI, 6, 4, seed=1)
    data = random_batch(RbmKind.GAUSSIAN_BERNOULLI, 12, seed=2)
    config = CdConfig(learning_rate=1e100, epochs=50, batch_size=3)
    with pytest.raises(NumericError) as info:
        train_rbm(params, data, config, np.random.default_rng(0))
    assert re.fullmatch(r"epoch \d+, batch \d: CD-1 (update produced non-finite "
                        r"(weights|visible bias|hidden bias)|reconstruction error is not finite)",
                        str(info.value))


def test_rbm_params_coerces_kind():
    params = RbmParams(kind="bernoulli", weights=np.zeros((2, 1)),
                       visible_bias=np.zeros(2), hidden_bias=np.zeros(1))
    assert params.kind is RbmKind.BERNOULLI_BERNOULLI
    npt.assert_array_equal(visible_given_hidden(params, [1.0]), [0.5, 0.5])


@pytest.mark.parametrize("kind", [None, "poisson", 3, "BERNOULLI_BERNOULLI"])
def test_rbm_params_rejects_unknown_kind(kind):
    with pytest.raises(ValueError, match="is not a valid RbmKind"):
        RbmParams(kind=kind, weights=np.zeros((2, 1)),
                  visible_bias=np.zeros(2), hidden_bias=np.zeros(1))


def test_train_rbm_zero_epochs():
    params = init_rbm(RbmKind.BERNOULLI_BERNOULLI, 6, 4, np.random.default_rng(1))
    config = CdConfig(learning_rate=0.05, epochs=0, batch_size=1)
    trained, trace = train_rbm(params, FOUR_PATTERNS, config, np.random.default_rng(0))
    npt.assert_array_equal(trained.weights, params.weights)
    assert trace.size == 0


def test_train_rbm_deterministic_traces():
    params = init_rbm(RbmKind.BERNOULLI_BERNOULLI, 6, 4, np.random.default_rng(1))
    config = CdConfig(learning_rate=0.05, epochs=20, batch_size=1)
    _, first = train_rbm(params, FOUR_PATTERNS, config, np.random.default_rng(7))
    _, second = train_rbm(params, FOUR_PATTERNS, config, np.random.default_rng(7))
    npt.assert_array_equal(first, second)


def test_train_rbm_error_trace_trends_down():
    # last-quartile mean vs first-quartile mean on the 4-pattern dataset
    params = init_rbm(RbmKind.BERNOULLI_BERNOULLI, 6, 4, np.random.default_rng(0))
    config = CdConfig(learning_rate=0.05, epochs=200, batch_size=1)
    _, trace = train_rbm(params, FOUR_PATTERNS, config, np.random.default_rng(0))
    quarter = len(trace) // 4
    assert np.mean(trace[-quarter:]) <= np.mean(trace[:quarter])


def test_init_rbm_seeded():
    a = init_rbm(RbmKind.GAUSSIAN_BERNOULLI, 8, 16, np.random.default_rng(42))
    b = init_rbm(RbmKind.GAUSSIAN_BERNOULLI, 8, 16, np.random.default_rng(42))
    npt.assert_array_equal(a.weights, b.weights)
    npt.assert_array_equal(a.visible_bias, np.zeros(8))
    npt.assert_array_equal(a.hidden_bias, np.zeros(16))
    assert a.weights.std() < 0.05
