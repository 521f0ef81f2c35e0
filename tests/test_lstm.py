from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest

from floodwatch import cli, lstm
from floodwatch.errors import NumericError
from floodwatch.lstm import (
    PARAM_FIELDS,
    PLATEAU_EPOCHS,
    PLATEAU_TOL,
    LstmModel,
    TrainConfig,
    Workspace,
    _loss,
    at_plateau,
    backward,
    clip_gradients,
    forward,
    grad_check,
    gradcheck_instance,
    gradient_global_norm,
    init_lstm,
    param_shapes,
    predict_sequence_batch,
    train_lstm,
)
from oracles import lstm_run, naive_lstm_cell, naive_mse


def zero_model(input_dim, hidden_dim):
    n, d = hidden_dim, input_dim
    return LstmModel(input_dim=d, hidden_dim=n,
                     w_f=np.zeros((n, n + d)), w_i=np.zeros((n, n + d)),
                     w_c=np.zeros((n, n + d)), w_o=np.zeros((n, n + d)),
                     b_f=np.zeros(n), b_i=np.zeros(n), b_c=np.zeros(n),
                     b_o=np.zeros(n), w_y=np.zeros((d, n)), b_y=np.zeros(d))


def loss_and_grads(model, xs, targets):
    """``_loss`` and ``backward`` on one (T, D) sequence as a B = 1 batch."""
    work = Workspace(np.asarray(xs, dtype=np.float64)[:, None, :], model.hidden_dim)
    loss, d_pred = _loss(model, work, np.asarray(targets, dtype=np.float64)[:, None, :])
    return loss, backward(model, work, d_pred), work


def test_cell_forward_zero_parameters():
    model = zero_model(2, 3)
    work = lstm_run(model, [[0.7, -0.3]])
    forget, input_gate, output_gate, candidate = work.gates[0, :, 0]
    npt.assert_allclose(forget, 0.5)
    npt.assert_allclose(input_gate, 0.5)
    npt.assert_allclose(output_gate, 0.5)
    npt.assert_array_equal(candidate, np.zeros(3))
    npt.assert_array_equal(work.cell[1, 0], np.zeros(3))
    npt.assert_array_equal(work.hidden[1, 0], np.zeros(3))


def test_cell_forward_forget_bias_carries_cell_state():
    # single unit, all weights zero, b_f=10, previous cell state 2:
    # f = sigmoid(10), C = f*2, o = 0.5, h = 0.5*tanh(C)
    model = zero_model(1, 1)
    model.b_f = np.array([10.0])
    work = lstm_run(model, [[0.0]], hidden=0.0, cell=2.0)
    forget, _, output_gate, _ = work.gates[0, :, 0]
    assert forget[0] == pytest.approx(0.9999546, abs=1e-7)
    assert work.cell[1, 0, 0] == pytest.approx(1.9999092, abs=1e-7)
    assert output_gate[0] == pytest.approx(0.5, abs=1e-15)
    assert work.hidden[1, 0, 0] == pytest.approx(0.48201, abs=1e-4)


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
        h_prev, c_prev = rng.normal(size=n), rng.normal(size=n)
        work = lstm_run(model, x[None, :], h_prev, c_prev)
        h, c, f, i, c_tilde, o = naive_lstm_cell(
            model.w_f.tolist(), model.w_i.tolist(), model.w_c.tolist(),
            model.w_o.tolist(), model.b_f.tolist(), model.b_i.tolist(),
            model.b_c.tolist(), model.b_o.tolist(),
            x.tolist(), h_prev.tolist(), c_prev.tolist())
        npt.assert_allclose(work.hidden[1, 0], h, atol=1e-12)
        npt.assert_allclose(work.cell[1, 0], c, atol=1e-12)
        npt.assert_allclose(work.gates[0, :, 0], [f, i, o, c_tilde], atol=1e-12)


def test_gate_ranges_and_cell_recurrence():
    model, xs, _ = gradcheck_instance(5, input_dim=2, hidden_dim=4, steps=12)
    work = lstm_run(model, xs)
    forget, input_gate, output_gate, candidate = (work.gates[:, k, 0] for k in range(4))
    cell, hidden = work.cell[1:, 0], work.hidden[1:, 0]
    for arr in (forget, input_gate, output_gate):
        assert np.all(arr > 0.0) and np.all(arr < 1.0)
    assert np.all(np.abs(candidate) < 1.0)
    assert np.all(np.abs(hidden) < 1.0)
    prev_cell = np.vstack([work.cell[0, 0], cell[:-1]])
    identity = cell - forget * prev_cell - input_gate * candidate
    npt.assert_allclose(identity, 0.0, atol=1e-15)


def test_sequence_forward_zero_model_predicts_bias():
    model = zero_model(2, 3)
    model.b_y = np.array([0.4, -0.2])
    work = lstm_run(model, np.random.default_rng(0).normal(size=(6, 2)))
    npt.assert_array_equal(work.preds[:, 0], np.tile(model.b_y, (6, 1)))


def test_sequence_forward_single_step_is_cell_plus_readout():
    model, xs, _ = gradcheck_instance(3)
    work = lstm_run(model, xs[:1])
    npt.assert_array_equal(work.preds[0, 0], model.w_y @ work.hidden[1, 0] + model.b_y)


def test_sequence_forward_deterministic():
    model, xs, _ = gradcheck_instance(8)
    npt.assert_array_equal(lstm_run(model, xs).preds, lstm_run(model, xs).preds)


def test_loss_mse_examples():
    # an all-zero model predicts its readout bias at every step
    model = zero_model(2, 1)
    model.b_y = np.array([1.0, 2.0])
    assert loss_and_grads(model, [[0.0, 0.0]], [[1.0, 2.0]])[0] == 0.0
    model = zero_model(1, 1)
    model.b_y = np.array([2.0])
    assert loss_and_grads(model, [[0.0]], [[0.0]])[0] == 4.0


def test_loss_mse_matches_naive_oracle():
    # _loss is the mean over the batch of each sequence's MSE
    model, _, _ = gradcheck_instance(31, input_dim=3, hidden_dim=4)
    rng = np.random.default_rng(31)
    inputs = rng.normal(size=(7, 4, 3))
    targets = rng.normal(size=(7, 4, 3))
    work = Workspace(inputs, model.hidden_dim)
    loss, d_pred = _loss(model, work, targets)
    preds = work.preds
    expected = np.mean([naive_mse(preds[:, b].tolist(), targets[:, b].tolist())
                        for b in range(4)])
    assert loss == pytest.approx(expected, abs=1e-12)
    npt.assert_allclose(d_pred, 2.0 * (preds - targets) / (7 * 3), atol=1e-15)


def test_backward_zero_gradient_at_minimum():
    model = zero_model(2, 3)
    xs = np.random.default_rng(1).normal(size=(5, 2))
    preds = lstm_run(model, xs).preds[:, 0]
    _, grads, _ = loss_and_grads(model, xs, preds)
    for name in PARAM_FIELDS:
        npt.assert_array_equal(getattr(grads, name), 0.0)


def test_backward_single_step_readout_gradient():
    # one step: dL/dW_y = outer((2/D)(pred - target), h_1)
    model, xs, targets = gradcheck_instance(13)
    _, grads, work = loss_and_grads(model, xs[:1], targets[:1])
    expected = np.outer((2.0 / model.input_dim) * (work.preds[0, 0] - targets[0]),
                        work.hidden[1, 0])
    npt.assert_allclose(grads.w_y, expected, atol=1e-12)


def test_grad_check_zero_on_flat_loss():
    # targets equal the predictions of an all-zero model, so both the
    # analytic and numeric b_y-free gradients vanish identically
    model = zero_model(1, 2)
    xs = np.zeros((3, 1))
    preds = lstm_run(model, xs).preds[:, 0]
    assert grad_check(model, xs, preds) == pytest.approx(0.0, abs=1e-9)


def test_grad_check_small_instance():
    model, xs, targets = gradcheck_instance(0, input_dim=2, hidden_dim=3, steps=4)
    assert grad_check(model, xs, targets) < 1e-5


def test_grad_check_detects_sabotage(monkeypatch):
    # a wrong analytic gradient, swapped in where grad_check looks it up
    def sabotaged(model, work, d_pred):
        grads = backward(model, work, d_pred)
        grads.w_f[0, 0] += 1.0
        return grads

    monkeypatch.setattr(lstm, "backward", sabotaged)
    model, xs, targets = gradcheck_instance(0)
    assert grad_check(model, xs, targets) > 0.1


def test_grad_check_rejects_non_finite_gradient(monkeypatch):
    # a NaN entry must not vanish in the running max of the errors
    def poisoned(model, work, d_pred):
        grads = backward(model, work, d_pred)
        grads.vector[0] = np.nan
        return grads

    monkeypatch.setattr(lstm, "backward", poisoned)
    with pytest.raises(NumericError, match="gradient"):
        grad_check(*gradcheck_instance(0))


def test_grad_check_covers_the_trainers_loss_gradient(monkeypatch, capsys):
    # a wrong dL/dy in the loss train_lstm steps on must fail the check
    def scaled(model, work, targets):
        loss, d_pred = _loss(model, work, targets)
        return loss, 1.5 * d_pred

    monkeypatch.setattr(lstm, "_loss", scaled)
    assert grad_check(*gradcheck_instance(0)) > 0.1
    assert cli.main(["gradcheck"]) == 1
    assert float(capsys.readouterr().out) > 0.1


def test_clip_gradients_bounds_global_norm():
    model, xs, targets = gradcheck_instance(2)
    _, grads, _ = loss_and_grads(model, xs, targets)
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


def noisy_constant_sequences(count=20, steps=5, dim=2, seed=0):
    # targets are noise around 0.5, independent of the inputs: the loss
    # falls to the noise variance and stays there
    rng = np.random.default_rng(seed)
    return [(rng.normal(size=(steps, dim)), 0.5 + 0.1 * rng.normal(size=(steps, dim)))
            for _ in range(count)]


def test_train_lstm_stops_at_plateau():
    model = init_lstm(2, 4, np.random.default_rng(1))
    sequences = noisy_constant_sequences()
    config = TrainConfig(learning_rate=0.01, epochs=200, gradient_clip=5.0)
    trained, trace = train_lstm(model, sequences, config)
    assert PLATEAU_EPOCHS < len(trace) < config.epochs
    stop = len(trace) - 1
    assert at_plateau(trace, stop)
    assert not any(at_plateau(trace, epoch) for epoch in range(stop))
    # no step after the check: the last entry is the returned model's loss
    losses = [np.mean((lstm_run(trained, xs).preds[:, 0] - targets) ** 2)
              for xs, targets in sequences]
    assert trace[-1] == pytest.approx(np.mean(losses), rel=1e-12)

    again, trace_again = train_lstm(model, sequences, config)
    npt.assert_array_equal(again.vector, trained.vector)
    npt.assert_array_equal(trace_again, trace)


def test_train_lstm_plateau_check_starts_after_its_window():
    # at learning rate 0 the loss never falls: every epoch from
    # PLATEAU_EPOCHS on is a plateau, and none before it is checked
    model = init_lstm(2, 4, np.random.default_rng(0))
    for epochs, expected in ((PLATEAU_EPOCHS, PLATEAU_EPOCHS),
                             (PLATEAU_EPOCHS + 5, PLATEAU_EPOCHS + 1)):
        config = TrainConfig(learning_rate=0.0, epochs=epochs, gradient_clip=5.0)
        trained, trace = train_lstm(model, make_sequences(), config)
        assert trace.size == expected
        npt.assert_array_equal(trained.vector, model.vector)


def test_train_lstm_runs_backward_only_before_a_step():
    # one backward pass per step, none at the stop epoch
    model = init_lstm(2, 4, np.random.default_rng(0))
    for epochs, steps in ((PLATEAU_EPOCHS, PLATEAU_EPOCHS),
                          (PLATEAU_EPOCHS + 5, PLATEAU_EPOCHS)):
        config = TrainConfig(learning_rate=0.0, epochs=epochs, gradient_clip=5.0)
        with mock.patch.object(lstm, "backward", wraps=lstm.backward) as spy:
            train_lstm(model, make_sequences(), config)
        assert spy.call_count == steps


def test_at_plateau_compares_with_the_loss_a_window_earlier():
    trace = np.array([1.0] * 5 + [0.5] * 20)
    stops = [epoch for epoch in range(trace.size) if at_plateau(trace, epoch)]
    assert stops[0] == 5 + PLATEAU_EPOCHS
    # relative tolerance: a fall of just under PLATEAU_TOL is a plateau
    for fall, expected in ((0.9 * PLATEAU_TOL, True), (1.1 * PLATEAU_TOL, False)):
        trace = np.full(PLATEAU_EPOCHS + 1, 4.0)
        trace[-1] = 4.0 * (1.0 - fall)
        assert at_plateau(trace, PLATEAU_EPOCHS) is expected


def test_init_lstm_forget_bias_and_shapes():
    model = init_lstm(8, 32, np.random.default_rng(42))
    npt.assert_array_equal(model.b_f, np.ones(32))
    npt.assert_array_equal(model.b_i, np.zeros(32))
    assert model.w_f.shape == (32, 40)
    assert model.w_y.shape == (8, 32)


def test_named_views_partition_the_vector():
    # distinct values written through the views fill every entry of the
    # vector once: none is left out and none is written twice
    model = init_lstm(3, 4, np.random.default_rng(0))
    model.vector.fill(-1.0)
    start = 0
    for name, shape in param_shapes(3, 4).items():
        assert getattr(model, name).shape == shape
        setattr(model, name, np.arange(start, start + np.prod(shape)).reshape(shape))
        start += np.prod(shape)
    npt.assert_array_equal(np.sort(model.vector), np.arange(start))


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
    preds = forward(model, work)
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
    h_init, c_init = rng.normal(size=4), rng.normal(size=4)
    work = lstm_run(model, inputs[:, 0], h_init, c_init)
    steps = naive_sequence(model, inputs[:, 0].tolist(), h_init.tolist(), c_init.tolist())
    for t, (h, c, _) in enumerate(steps):
        npt.assert_allclose(work.hidden[t + 1, 0], h, atol=1e-12)
        npt.assert_allclose(work.cell[t + 1, 0], c, atol=1e-12)
        npt.assert_allclose(work.preds[t, 0], model.w_y @ h + model.b_y, atol=1e-12)


def test_batched_backward_matches_finite_differences():
    # summed per-sequence MSE over a B = 3 batch, relative error as in grad_check
    model, _, _ = gradcheck_instance(4, input_dim=2, hidden_dim=3)
    rng = np.random.default_rng(4)
    inputs = rng.normal(size=(5, 3, 2))
    targets = rng.normal(size=(5, 3, 2))
    scale = inputs.shape[0] * inputs.shape[2]

    def summed_loss(m):
        preds = forward(m, Workspace(inputs, m.hidden_dim))
        return float(np.sum((preds - targets) ** 2)) / scale

    work = Workspace(inputs, model.hidden_dim)
    preds = forward(model, work)
    grads = backward(model, work, 2.0 * (preds - targets) / scale)
    eps = 1e-5
    worst = 0.0
    for name in PARAM_FIELDS:
        view, analytic = getattr(model, name), getattr(grads, name)
        for k in np.ndindex(view.shape):
            original = view[k]
            view[k] = original + eps
            loss_plus = summed_loss(model)
            view[k] = original - eps
            loss_minus = summed_loss(model)
            view[k] = original
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            denom = max(abs(analytic[k]), abs(numeric), 1e-12)
            worst = max(worst, abs(analytic[k] - numeric) / denom)
    assert worst < 1e-5


def test_train_lstm_batch_step_sums_per_sequence_gradients():
    # one epoch at learning rate 1 with clipping out of reach: the step
    # taken is exactly the summed gradient
    model, _, _ = gradcheck_instance(6, input_dim=2, hidden_dim=3)
    rng = np.random.default_rng(6)
    sequences = [(rng.normal(size=(5, 2)), rng.normal(size=(5, 2))) for _ in range(5)]
    config = TrainConfig(learning_rate=1.0, epochs=1, gradient_clip=1e9)
    trained, trace = train_lstm(model, sequences, config)

    losses = []
    expected = {name: np.zeros_like(getattr(model, name)) for name in PARAM_FIELDS}
    for xs, targets in sequences:
        loss, grads, _ = loss_and_grads(model, xs, targets)
        losses.append(loss)
        for name in PARAM_FIELDS:
            expected[name] += getattr(grads, name)
    assert trace[0] == pytest.approx(np.mean(losses), abs=1e-12)
    for name in PARAM_FIELDS:
        npt.assert_allclose(getattr(model, name) - getattr(trained, name),
                            expected[name], rtol=0, atol=1e-12)
