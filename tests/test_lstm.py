import numpy as np
import numpy.testing as npt
import pytest

from floodwatch.errors import InputError
from floodwatch.lstm import (
    PARAM_FIELDS,
    LstmModel,
    LstmState,
    TrainConfig,
    Workspace,
    backward,
    backward_bptt,
    cell_forward,
    clip_gradients,
    forward,
    grad_check,
    gradcheck_instance,
    gradient_global_norm,
    init_lstm,
    loss_mse,
    predict_sequence_batch,
    sequence_forward,
    stack,
    train_lstm,
    zero_state,
)
from oracles import naive_lstm_cell, naive_mse


def zero_model(input_dim, hidden_dim):
    n, d = hidden_dim, input_dim
    return LstmModel(input_dim=d, hidden_dim=n,
                     w_f=np.zeros((n, n + d)), w_i=np.zeros((n, n + d)),
                     w_c=np.zeros((n, n + d)), w_o=np.zeros((n, n + d)),
                     b_f=np.zeros(n), b_i=np.zeros(n), b_c=np.zeros(n),
                     b_o=np.zeros(n), w_y=np.zeros((d, n)), b_y=np.zeros(d))


def test_cell_forward_zero_parameters():
    model = zero_model(2, 3)
    state, gates = cell_forward(model, [0.7, -0.3], zero_state(3))
    npt.assert_allclose(gates.forget, 0.5)
    npt.assert_allclose(gates.input, 0.5)
    npt.assert_allclose(gates.output, 0.5)
    npt.assert_array_equal(gates.candidate, np.zeros(3))
    npt.assert_array_equal(state.cell, np.zeros(3))
    npt.assert_array_equal(state.hidden, np.zeros(3))


def test_cell_forward_forget_bias_carries_cell_state():
    # single unit, all weights zero, b_f=10, previous cell state 2:
    # f = sigmoid(10), C = f*2, o = 0.5, h = 0.5*tanh(C)
    model = zero_model(1, 1)
    model.b_f = np.array([10.0])
    prev = LstmState(hidden=np.zeros(1), cell=np.array([2.0]))
    state, gates = cell_forward(model, [0.0], prev)
    assert gates.forget[0] == pytest.approx(0.9999546, abs=1e-7)
    assert state.cell[0] == pytest.approx(1.9999092, abs=1e-7)
    assert gates.output[0] == pytest.approx(0.5, abs=1e-15)
    assert state.hidden[0] == pytest.approx(0.48201, abs=1e-4)


def test_cell_forward_matches_naive_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d, n = 3, 4
        model = LstmModel(
            input_dim=d, hidden_dim=n,
            w_f=rng.normal(0, 0.8, (n, n + d)), w_i=rng.normal(0, 0.8, (n, n + d)),
            w_c=rng.normal(0, 0.8, (n, n + d)), w_o=rng.normal(0, 0.8, (n, n + d)),
            b_f=rng.normal(0, 0.8, n), b_i=rng.normal(0, 0.8, n),
            b_c=rng.normal(0, 0.8, n), b_o=rng.normal(0, 0.8, n),
            w_y=rng.normal(0, 0.8, (d, n)), b_y=rng.normal(0, 0.8, d))
        x = rng.normal(size=d)
        prev = LstmState(hidden=rng.normal(size=n), cell=rng.normal(size=n))
        state, gates = cell_forward(model, x, prev)
        h, c, f, i, c_tilde, o = naive_lstm_cell(
            model.w_f.tolist(), model.w_i.tolist(), model.w_c.tolist(),
            model.w_o.tolist(), model.b_f.tolist(), model.b_i.tolist(),
            model.b_c.tolist(), model.b_o.tolist(),
            x.tolist(), prev.hidden.tolist(), prev.cell.tolist())
        npt.assert_allclose(state.hidden, h, atol=1e-12)
        npt.assert_allclose(state.cell, c, atol=1e-12)
        npt.assert_allclose(gates.forget, f, atol=1e-12)
        npt.assert_allclose(gates.input, i, atol=1e-12)
        npt.assert_allclose(gates.candidate, c_tilde, atol=1e-12)
        npt.assert_allclose(gates.output, o, atol=1e-12)


def test_gate_ranges_and_cell_recurrence():
    model, xs, _ = gradcheck_instance(5, input_dim=2, hidden_dim=4, steps=12)
    _, cache = sequence_forward(model, xs)
    for arr in (cache.forget, cache.input_gate, cache.output_gate):
        assert np.all(arr > 0.0) and np.all(arr < 1.0)
    assert np.all(np.abs(cache.candidate) < 1.0)
    assert np.all(np.abs(cache.hidden) < 1.0)
    prev_cell = np.vstack([cache.init_cell, cache.cell[:-1]])
    identity = cache.cell - cache.forget * prev_cell - cache.input_gate * cache.candidate
    npt.assert_allclose(identity, 0.0, atol=1e-15)


def test_sequence_forward_zero_model_predicts_bias():
    model = zero_model(2, 3)
    model.b_y = np.array([0.4, -0.2])
    preds, _ = sequence_forward(model, np.random.default_rng(0).normal(size=(6, 2)))
    npt.assert_array_equal(preds, np.tile(model.b_y, (6, 1)))


def test_sequence_forward_single_step_is_cell_plus_readout():
    model, xs, _ = gradcheck_instance(3)
    preds, _ = sequence_forward(model, xs[:1])
    state, _ = cell_forward(model, xs[0], zero_state(model.hidden_dim))
    npt.assert_array_equal(preds[0], model.w_y @ state.hidden + model.b_y)


def test_sequence_forward_deterministic():
    model, xs, _ = gradcheck_instance(8)
    a, _ = sequence_forward(model, xs)
    b, _ = sequence_forward(model, xs)
    npt.assert_array_equal(a, b)


def test_loss_mse_examples():
    assert loss_mse([[1.0, 2.0]], [[1.0, 2.0]]) == 0.0
    assert loss_mse([[2.0]], [[0.0]]) == 4.0
    with pytest.raises(InputError):
        loss_mse([[1.0]], [[1.0, 2.0]])


def test_loss_mse_matches_naive_oracle():
    rng = np.random.default_rng(31)
    pred = rng.normal(size=(7, 3))
    target = rng.normal(size=(7, 3))
    assert loss_mse(pred, target) == pytest.approx(
        naive_mse(pred.tolist(), target.tolist()), abs=1e-12)


def test_backward_zero_gradient_at_minimum():
    model = zero_model(2, 3)
    xs = np.random.default_rng(1).normal(size=(5, 2))
    preds, cache = sequence_forward(model, xs)
    grads = backward_bptt(model, cache, preds)
    for name in PARAM_FIELDS:
        npt.assert_array_equal(getattr(grads, name), 0.0)


def test_backward_single_step_readout_gradient():
    # one step: dL/dW_y = outer((2/D)(pred - target), h_1)
    model, xs, targets = gradcheck_instance(13)
    preds, cache = sequence_forward(model, xs[:1])
    grads = backward_bptt(model, cache, targets[:1])
    expected = np.outer((2.0 / model.input_dim) * (preds[0] - targets[0]),
                        cache.hidden[0])
    npt.assert_allclose(grads.w_y, expected, atol=1e-12)


def test_grad_check_zero_on_flat_loss():
    # targets equal the predictions of an all-zero model, so both the
    # analytic and numeric b_y-free gradients vanish identically
    model = zero_model(1, 2)
    xs = np.zeros((3, 1))
    preds, _ = sequence_forward(model, xs)
    assert grad_check(model, xs, preds) == pytest.approx(0.0, abs=1e-9)


def test_grad_check_small_instance():
    model, xs, targets = gradcheck_instance(0, input_dim=2, hidden_dim=3, steps=4)
    assert grad_check(model, xs, targets) < 1e-5


def test_grad_check_detects_sabotage():
    model, xs, targets = gradcheck_instance(0)
    _, cache = sequence_forward(model, xs)
    grads = backward_bptt(model, cache, targets)
    grads.w_f[0, 0] += 1.0
    assert grad_check(model, xs, targets, analytic=grads) > 0.1


def test_clip_gradients_bounds_global_norm():
    model, xs, targets = gradcheck_instance(2)
    _, cache = sequence_forward(model, xs)
    grads = backward_bptt(model, cache, targets)
    for max_norm in (0.01, 0.5, 5.0):
        clipped = clip_gradients(grads, max_norm)
        assert gradient_global_norm(clipped) <= max_norm + 1e-12


def make_sequences(count=6, steps=5, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.normal(size=(steps, dim)), rng.normal(size=(steps, dim)))
            for _ in range(count)]


def test_train_lstm_zero_learning_rate():
    model = init_lstm(2, 4, np.random.default_rng(0))
    config = TrainConfig(learning_rate=0.0, epochs=5, gradient_clip=5.0)
    trained, trace = train_lstm(model, make_sequences(), config)
    for name in PARAM_FIELDS:
        npt.assert_array_equal(getattr(trained, name), getattr(model, name))
    assert trace.size == 5
    npt.assert_allclose(trace, trace[0])


def test_train_lstm_zero_epochs():
    model = init_lstm(2, 4, np.random.default_rng(0))
    config = TrainConfig(learning_rate=0.01, epochs=0, gradient_clip=5.0)
    trained, trace = train_lstm(model, make_sequences(), config)
    for name in PARAM_FIELDS:
        npt.assert_array_equal(getattr(trained, name), getattr(model, name))
    assert trace.size == 0


def test_train_lstm_deterministic():
    model = init_lstm(2, 4, np.random.default_rng(3))
    config = TrainConfig(learning_rate=0.01, epochs=10, gradient_clip=5.0)
    a, trace_a = train_lstm(model, make_sequences(), config)
    b, trace_b = train_lstm(model, make_sequences(), config)
    for name in PARAM_FIELDS:
        npt.assert_array_equal(getattr(a, name), getattr(b, name))
    npt.assert_array_equal(trace_a, trace_b)


def test_init_lstm_forget_bias_and_shapes():
    model = init_lstm(8, 32, np.random.default_rng(42))
    npt.assert_array_equal(model.b_f, np.ones(32))
    npt.assert_array_equal(model.b_i, np.zeros(32))
    assert model.w_f.shape == (32, 40)
    assert model.w_y.shape == (8, 32)


def test_train_config_validation():
    with pytest.raises(InputError):
        TrainConfig(learning_rate=0.01, epochs=1, gradient_clip=0.0)


def naive_sequence(model, xs, hidden, cell):
    """Oracle cell iterated over one sequence: per step (h, c, [f, i, o, g])."""
    steps = []
    for x in xs:
        hidden, cell, f, i, g, o = naive_lstm_cell(
            model.w_f.tolist(), model.w_i.tolist(), model.w_c.tolist(),
            model.w_o.tolist(), model.b_f.tolist(), model.b_i.tolist(),
            model.b_c.tolist(), model.b_o.tolist(), list(x), hidden, cell)
        steps.append((hidden, cell, [f, i, o, g]))
    return steps


def test_batched_kernel_matches_naive_oracle():
    model, _, _ = gradcheck_instance(21, input_dim=3, hidden_dim=4)
    inputs = np.random.default_rng(21).normal(size=(6, 4, 3))   # (T, B, D)
    work = Workspace(inputs, model.hidden_dim)
    preds = forward(stack(model), work)
    for b in range(4):
        steps = naive_sequence(model, inputs[:, b].tolist(), [0.0] * 4, [0.0] * 4)
        for t, (h, c, gates) in enumerate(steps):
            npt.assert_allclose(work.hidden[t + 1, b], h, atol=1e-12)
            npt.assert_allclose(work.cell[t + 1, b], c, atol=1e-12)
            npt.assert_allclose(work.gates[t, :, b], gates, atol=1e-12)
            npt.assert_allclose(preds[t, b], model.w_y @ h + model.b_y, atol=1e-12)
    # the history-free prediction path runs the same step function
    npt.assert_allclose(predict_sequence_batch(model, inputs.transpose(1, 0, 2)),
                        preds[-1], atol=1e-12)

    # B = 1 from a nonzero initial state
    rng = np.random.default_rng(22)
    init = LstmState(hidden=rng.normal(size=4), cell=rng.normal(size=4))
    single, cache = sequence_forward(model, inputs[:, 0], init)
    steps = naive_sequence(model, inputs[:, 0].tolist(), init.hidden.tolist(),
                           init.cell.tolist())
    for t, (h, c, _) in enumerate(steps):
        npt.assert_allclose(cache.hidden[t], h, atol=1e-12)
        npt.assert_allclose(cache.cell[t], c, atol=1e-12)
        npt.assert_allclose(single[t], model.w_y @ h + model.b_y, atol=1e-12)


def test_batched_backward_matches_finite_differences():
    # summed per-sequence MSE over a B = 3 batch, relative error as in grad_check
    model, _, _ = gradcheck_instance(4, input_dim=2, hidden_dim=3)
    rng = np.random.default_rng(4)
    inputs = rng.normal(size=(5, 3, 2))
    targets = rng.normal(size=(5, 3, 2))
    scale = inputs.shape[0] * inputs.shape[2]

    def summed_loss(m):
        preds = forward(stack(m), Workspace(inputs, m.hidden_dim))
        return float(np.sum((preds - targets) ** 2)) / scale

    work = Workspace(inputs, model.hidden_dim)
    preds = forward(stack(model), work)
    grads = backward(stack(model), work, 2.0 * (preds - targets) / scale)
    eps = 1e-5
    worst = 0.0
    for name in PARAM_FIELDS:
        flat = getattr(model, name).ravel()
        analytic = getattr(grads, name).ravel()
        for k in range(flat.size):
            original = flat[k]
            flat[k] = original + eps
            loss_plus = summed_loss(model)
            flat[k] = original - eps
            loss_minus = summed_loss(model)
            flat[k] = original
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            denom = max(abs(analytic[k]), abs(numeric), 1e-12)
            worst = max(worst, abs(analytic[k] - numeric) / denom)
    assert worst < 1e-5


def test_train_lstm_mixed_lengths_sums_per_sequence_gradients():
    # one epoch at learning rate 1 with clipping out of reach: the step
    # taken is exactly the summed gradient
    model, _, _ = gradcheck_instance(6, input_dim=2, hidden_dim=3)
    rng = np.random.default_rng(6)
    sequences = [(rng.normal(size=(steps, 2)), rng.normal(size=(steps, 2)))
                 for steps in (5, 3, 5, 4, 3)]
    config = TrainConfig(learning_rate=1.0, epochs=1, gradient_clip=1e9)
    trained, trace = train_lstm(model, sequences, config)

    losses = []
    expected = {name: np.zeros_like(getattr(model, name)) for name in PARAM_FIELDS}
    for xs, targets in sequences:
        preds, cache = sequence_forward(model, xs)
        losses.append(loss_mse(preds, targets))
        grads = backward_bptt(model, cache, targets)
        for name in PARAM_FIELDS:
            expected[name] += getattr(grads, name)
    assert trace[0] == pytest.approx(np.mean(losses), abs=1e-12)
    for name in PARAM_FIELDS:
        npt.assert_allclose(getattr(model, name) - getattr(trained, name),
                            expected[name], rtol=0, atol=1e-12)
