import numpy as np
import numpy.testing as npt

from floodwatch.dbn import DbnModel, new_dbn, pretrain, transform
from floodwatch.rbm import (
    CdConfig,
    RbmKind,
    RbmParams,
    hidden_given_visible,
    train_rbm,
)

# 4 binary patterns standardized per column (each column has mean 0.5,
# std 0.5, so entries become exactly +1/-1) for the Gaussian first layer.
PATTERNS = (np.array([
    [1, 1, 1, 0, 0, 0],
    [0, 0, 0, 1, 1, 1],
    [1, 0, 1, 0, 1, 0],
    [0, 1, 0, 1, 0, 1],
], dtype=np.float64) - 0.5) / 0.5


def zero_dbn(sizes):
    layers = []
    for k in range(len(sizes) - 1):
        kind = RbmKind.GAUSSIAN_BERNOULLI if k == 0 else RbmKind.BERNOULLI_BERNOULLI
        layers.append(RbmParams(kind=kind,
                                weights=np.zeros((sizes[k], sizes[k + 1])),
                                visible_bias=np.zeros(sizes[k]),
                                hidden_bias=np.zeros(sizes[k + 1])))
    return DbnModel(layers=layers)


def test_new_dbn_structure():
    dbn = new_dbn([8, 6, 4], np.random.default_rng(0))
    assert len(dbn.layers) == 2
    assert dbn.layers[0].kind is RbmKind.GAUSSIAN_BERNOULLI
    assert dbn.layers[0].num_visible == 8 and dbn.layers[0].num_hidden == 6
    assert dbn.layers[1].kind is RbmKind.BERNOULLI_BERNOULLI
    assert dbn.layers[1].num_visible == 6 and dbn.layers[1].num_hidden == 4
    assert dbn.input_dim == 8 and dbn.code_dim == 4


def test_new_dbn_seeded():
    a = new_dbn([8, 16, 8], np.random.default_rng(42))
    b = new_dbn([8, 16, 8], np.random.default_rng(42))
    for la, lb in zip(a.layers, b.layers):
        npt.assert_array_equal(la.weights, lb.weights)


def test_pretrain_single_layer_equals_train_rbm():
    dbn = new_dbn([6, 4], np.random.default_rng(3))
    config = CdConfig(learning_rate=0.05, epochs=25, batch_size=2)
    trained_dbn, traces = pretrain(dbn, PATTERNS, config, np.random.default_rng(9))
    direct, trace = train_rbm(dbn.layers[0], PATTERNS, config, np.random.default_rng(9))
    npt.assert_array_equal(trained_dbn.layers[0].weights, direct.weights)
    npt.assert_array_equal(trained_dbn.layers[0].visible_bias, direct.visible_bias)
    npt.assert_array_equal(trained_dbn.layers[0].hidden_bias, direct.hidden_bias)
    npt.assert_array_equal(traces[0], trace)


def test_pretrain_zero_epochs_leaves_model_unchanged():
    dbn = new_dbn([6, 4, 3], np.random.default_rng(3))
    config = CdConfig(learning_rate=0.05, epochs=0, batch_size=1)
    trained, traces = pretrain(dbn, PATTERNS, config, np.random.default_rng(0))
    for before, after in zip(dbn.layers, trained.layers):
        npt.assert_array_equal(before.weights, after.weights)
    assert all(t.size == 0 for t in traces)


def test_pretrain_two_layer_traces_improve():
    dbn = new_dbn([6, 4, 3], np.random.default_rng(0))
    config = CdConfig(learning_rate=0.05, epochs=200, batch_size=1)
    _, traces = pretrain(dbn, PATTERNS, config, np.random.default_rng(0))
    assert len(traces) == 2
    for trace in traces:
        assert trace[-1] < trace[0]


def test_pretrain_never_mutates_earlier_layers():
    # greedy property: layer k's bytes are fixed before layer k+1 trains
    dbn = new_dbn([6, 4, 3], np.random.default_rng(1))
    config = CdConfig(learning_rate=0.05, epochs=30, batch_size=1)
    full, _ = pretrain(dbn, PATTERNS, config, np.random.default_rng(5))
    first_only = DbnModel(layers=[dbn.layers[0]])
    partial, _ = pretrain(first_only, PATTERNS, config, np.random.default_rng(5))
    npt.assert_array_equal(full.layers[0].weights, partial.layers[0].weights)
    npt.assert_array_equal(full.layers[0].visible_bias,
                           partial.layers[0].visible_bias)
    npt.assert_array_equal(full.layers[0].hidden_bias,
                           partial.layers[0].hidden_bias)


def test_transform_single_layer_is_hidden_conditional():
    dbn = new_dbn([6, 4], np.random.default_rng(8))
    v = PATTERNS[0]
    npt.assert_array_equal(transform(dbn, v),
                           hidden_given_visible(dbn.layers[0], v))


def test_transform_zero_parameters_gives_half():
    dbn = zero_dbn([6, 4, 3])
    npt.assert_allclose(transform(dbn, PATTERNS[1]), 0.5)


def test_transform_matches_manual_composition():
    dbn = new_dbn([6, 4, 3], np.random.default_rng(17))
    v = PATTERNS[2]
    step1 = hidden_given_visible(dbn.layers[0], v)
    step2 = hidden_given_visible(dbn.layers[1], step1)
    npt.assert_array_equal(transform(dbn, v), step2)


def test_transform_output_dim_and_range():
    dbn = new_dbn([6, 5, 2], np.random.default_rng(2))
    out = transform(dbn, PATTERNS)
    assert out.shape == (4, 2)
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_transform_deterministic():
    dbn = new_dbn([6, 4], np.random.default_rng(5))
    a = transform(dbn, PATTERNS[3])
    b = transform(dbn, PATTERNS[3])
    npt.assert_array_equal(a, b)
