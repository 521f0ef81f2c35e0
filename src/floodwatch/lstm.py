"""LSTM sequence model for one-step-ahead prediction.

Implements the standard gated cell

    f_t = sigmoid(W_f [h_{t-1}, x_t] + b_f)          forget gate
    i_t = sigmoid(W_i [h_{t-1}, x_t] + b_i)          input gate
    g_t = tanh   (W_c [h_{t-1}, x_t] + b_c)          candidate cell
    c_t = f_t * c_{t-1} + i_t * g_t                  cell state
    o_t = sigmoid(W_o [h_{t-1}, x_t] + b_o)          output gate
    h_t = o_t * tanh(c_t)

with an affine readout y_t = W_y h_t + b_y at every step, mean-squared
error loss, exact backpropagation through time, central-difference
gradient checking, and full-batch gradient descent with global-norm
clipping. Everything is plain float64 numpy and deterministic.

One batched kernel (``forward``/``backward`` over a ``Workspace``) does
all the work. The gate matrices are stacked gate-major in the order
[f, i, o, g] (Appleyard et al., arXiv:1604.01946), each with its bias as
an extra row that meets a constant 1 appended to [h_{t-1}, x_t], so a
step is one broadcast matmul that writes a contiguous (4, B, N) block.
The sigmoid gates use sigmoid(x) = 0.5 * tanh(x / 2) + 0.5 with the
exact factor 0.5 folded into their stacked weights, so one tanh covers
all four gates.
``train_lstm`` runs the kernel once per group of equal-length sequences;
``cell_forward``, ``sequence_forward`` and ``backward_bptt`` are its
B = 1 case, and ``predict_sequence_batch`` runs its step function
keeping no history.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .numerics import require_finite
# Not called here any more; kept importable because the benchmark's trace
# table (perfbench/spans.py) wraps ``floodwatch.lstm.sigmoid``.
from .numerics import sigmoid  # noqa: F401

PARAM_FIELDS = ("w_f", "w_i", "w_c", "w_o",
                "b_f", "b_i", "b_c", "b_o",
                "w_y", "b_y")


@dataclass
class LstmModel:
    """Gate weights over the concatenation [h_prev, x], plus the readout.

    Each gate matrix is hidden_dim x (hidden_dim + input_dim); the
    readout maps hidden states back to input_dim-sized predictions.
    """

    input_dim: int
    hidden_dim: int
    w_f: np.ndarray
    w_i: np.ndarray
    w_c: np.ndarray
    w_o: np.ndarray
    b_f: np.ndarray
    b_i: np.ndarray
    b_c: np.ndarray
    b_o: np.ndarray
    w_y: np.ndarray
    b_y: np.ndarray

    def __post_init__(self):
        n, d = self.hidden_dim, self.input_dim
        if n < 1 or d < 1:
            raise InputError("input_dim and hidden_dim must be at least 1")
        shapes = {"w_f": (n, n + d), "w_i": (n, n + d), "w_c": (n, n + d),
                  "w_o": (n, n + d), "b_f": (n,), "b_i": (n,), "b_c": (n,),
                  "b_o": (n,), "w_y": (d, n), "b_y": (d,)}
        for name in PARAM_FIELDS:
            arr = np.array(getattr(self, name), dtype=np.float64)
            setattr(self, name, arr)
            if arr.shape != shapes[name]:
                raise InputError(f"{name} must have shape {shapes[name]}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise InputError(f"{name} contains non-finite entries")


@dataclass
class LstmState:
    """Recurrent state carried between steps: hidden output and cell state."""

    hidden: np.ndarray
    cell: np.ndarray


@dataclass
class Gates:
    """Gate activations of one step."""

    forget: np.ndarray
    input: np.ndarray
    candidate: np.ndarray
    output: np.ndarray


@dataclass
class LstmGrads:
    """Loss gradients, one array per model parameter."""

    w_f: np.ndarray
    w_i: np.ndarray
    w_c: np.ndarray
    w_o: np.ndarray
    b_f: np.ndarray
    b_i: np.ndarray
    b_c: np.ndarray
    b_o: np.ndarray
    w_y: np.ndarray
    b_y: np.ndarray


@dataclass
class TrainConfig:
    """Hyperparameters for full-batch LSTM training."""

    learning_rate: float
    epochs: int
    sequence_length: int
    rng_seed: int
    gradient_clip: float

    def __post_init__(self):
        if self.learning_rate < 0:
            raise InputError("learning_rate must be non-negative")
        if self.epochs < 0:
            raise InputError("epochs must be non-negative")
        if self.sequence_length < 2:
            raise InputError("sequence_length must be at least 2")
        if not self.gradient_clip > 0:
            raise InputError("gradient_clip must be positive")


def zero_state(hidden_dim: int) -> LstmState:
    return LstmState(hidden=np.zeros(hidden_dim), cell=np.zeros(hidden_dim))


def init_lstm(input_dim: int, hidden_dim: int, rng: np.random.Generator) -> LstmModel:
    """Random model: weights N(0, 0.1/sqrt(N+D)), zero biases except b_f = 1.

    The forget-gate bias starts at one so early training does not erase
    the cell state.
    """
    n, d = hidden_dim, input_dim
    scale = 0.1 / np.sqrt(n + d)
    return LstmModel(
        input_dim=d, hidden_dim=n,
        w_f=rng.normal(0.0, scale, (n, n + d)),
        w_i=rng.normal(0.0, scale, (n, n + d)),
        w_c=rng.normal(0.0, scale, (n, n + d)),
        w_o=rng.normal(0.0, scale, (n, n + d)),
        b_f=np.ones(n), b_i=np.zeros(n), b_c=np.zeros(n), b_o=np.zeros(n),
        w_y=rng.normal(0.0, scale, (d, n)),
        b_y=np.zeros(d),
    )


# Per-gate factor folded into the stacked weights, kernel order [f, i, o, g]:
# the sigmoid gates take tanh(x / 2), the candidate tanh(x).
_SIGMOID_HALF = np.array([0.5, 0.5, 0.5, 1.0])


@dataclass
class Stack:
    """A model's parameters laid out for the kernel, gate order [f, i, o, g]."""

    w: np.ndarray         # (4, N + D + 1, N): W^T with the bias as last row, scaled
    w_hidden: np.ndarray  # (4, N, N), unscaled, maps gate gradients to dh_{t-1}
    w_y: np.ndarray       # (D, N)
    b_y: np.ndarray       # (D,)


def stack(model: LstmModel) -> Stack:
    """Lay ``model`` out for the kernel (once per parameter set)."""
    gates = np.stack([model.w_f, model.w_i, model.w_o, model.w_c])  # (4, N, N+D)
    biases = np.stack([model.b_f, model.b_i, model.b_o, model.b_c])
    w = np.concatenate([gates.transpose(0, 2, 1), biases[:, None, :]], axis=1)
    w *= _SIGMOID_HALF[:, None, None]
    return Stack(w=w,
                 w_hidden=np.ascontiguousarray(gates[:, :, :model.hidden_dim]),
                 w_y=model.w_y, b_y=model.b_y)


class Workspace:
    """Per-step activations of one time-major (T, B, D) input batch.

    Allocated once and reused by every forward/backward over the same
    inputs. ``gates[t]`` and ``tanh_cell[t]`` belong to step t; ``cell``
    and ``hidden`` hold the initial state at index 0, so step t reads
    index t and writes index t + 1.
    """

    def __init__(self, inputs: np.ndarray, hidden_dim: int):
        steps, batch, dim = inputs.shape
        n = hidden_dim
        self.inputs = inputs
        self.gates = np.empty((steps, 4, batch, n))
        self.cell = np.zeros((steps + 1, batch, n))
        self.tanh_cell = np.empty((steps, batch, n))
        self.hidden = np.zeros((steps + 1, batch, n))
        self.preds = np.empty((steps, batch, dim))
        self.z = np.ones((batch, n + dim + 1))      # [h_{t-1}, x_t, 1] of one step
        self.d_gates = np.empty((4, batch, n))      # gradient buffers of one step
        self.scratch = np.empty((4, batch, n))

    def load_z(self, t: int):
        n = self.hidden.shape[2]
        self.z[:, :n] = self.hidden[t]
        self.z[:, n:-1] = self.inputs[t]


def _step(params: Stack, z, gates, cell_prev, cell, tanh_cell, hidden):
    """One step for the whole batch; writes gates, cell, tanh(cell) and
    hidden in place. ``cell`` may be ``cell_prev``."""
    np.matmul(z, params.w, out=gates)
    np.tanh(gates, out=gates)
    sigmoids = gates[:3]
    sigmoids *= 0.5
    sigmoids += 0.5
    forget, input_gate, output_gate, candidate = gates
    np.multiply(forget, cell_prev, out=cell)
    cell += input_gate * candidate
    np.tanh(cell, out=tanh_cell)
    np.multiply(output_gate, tanh_cell, out=hidden)


def forward(params: Stack, work: Workspace) -> np.ndarray:
    """Run the recurrence over ``work.inputs`` from the state at index 0
    and read out every step; returns ``work.preds`` (T, B, D)."""
    for t in range(work.inputs.shape[0]):
        work.load_z(t)
        _step(params, work.z, work.gates[t], work.cell[t], work.cell[t + 1],
              work.tanh_cell[t], work.hidden[t + 1])
    np.matmul(work.hidden[1:], params.w_y.T, out=work.preds)
    work.preds += params.b_y
    return work.preds


def backward(params: Stack, work: Workspace, d_pred: np.ndarray) -> LstmGrads:
    """Parameter gradients given dL/dy (T, B, D) for the activations in
    ``work``, summed over the batch.

    Reverse-mode sweep: the cell path carries d_cell * forget backwards,
    the hidden path re-enters through the recurrent gate weights. Weight
    gradients accumulate step by step, so no (T, ...) gradient history
    is kept.
    """
    steps, batch, dim = d_pred.shape
    n = work.hidden.shape[2]
    flat_dy = d_pred.reshape(-1, dim)
    d_w_y = flat_dy.T @ work.hidden[1:].reshape(-1, n)
    d_b_y = flat_dy.sum(axis=0)
    d_w = np.zeros((4, n + dim + 1, n))   # gate order [f, i, o, g], bias last
    step_w = np.empty_like(d_w)
    d_hidden = np.zeros((batch, n))
    d_cell = np.zeros((batch, n))
    da, scratch = work.d_gates, work.scratch
    for t in reversed(range(steps)):
        gates = work.gates[t]
        forget, input_gate, output_gate, candidate = gates
        tanh_c = work.tanh_cell[t]
        np.matmul(d_pred[t], params.w_y, out=scratch[0])
        d_hidden += scratch[0]
        np.multiply(d_hidden, tanh_c, out=da[2])
        d_cell += d_hidden * output_gate * (1.0 - tanh_c * tanh_c)
        np.multiply(d_cell, work.cell[t], out=da[0])
        np.multiply(d_cell, candidate, out=da[1])
        np.multiply(d_cell, input_gate, out=da[3])
        # through the nonlinearities: sigmoid' = s(1 - s), tanh' = 1 - g^2
        sigmoids = gates[:3]
        np.subtract(1.0, sigmoids, out=scratch[:3])
        scratch[:3] *= sigmoids
        da[:3] *= scratch[:3]
        da[3] *= 1.0 - candidate * candidate

        work.load_z(t)
        np.matmul(work.z.T, da, out=step_w)
        d_w += step_w
        np.matmul(da, params.w_hidden, out=scratch)
        np.sum(scratch, axis=0, out=d_hidden)
        d_cell *= forget
    d_gate_w, d_gate_b = d_w[:, :-1].transpose(0, 2, 1), d_w[:, -1]
    return LstmGrads(w_f=d_gate_w[0], w_i=d_gate_w[1], w_o=d_gate_w[2], w_c=d_gate_w[3],
                     b_f=d_gate_b[0], b_i=d_gate_b[1], b_o=d_gate_b[2], b_c=d_gate_b[3],
                     w_y=d_w_y, b_y=d_b_y)


class SequenceCache:
    """Forward record of one sequence for ``backward_bptt``: its B = 1
    workspace and (T, N) views of the gates and states (first axis = time)."""

    def __init__(self, work: Workspace):
        self.work = work
        self.preds = work.preds[:, 0]
        self.forget, self.input_gate, self.output_gate, self.candidate = (
            work.gates[:, k, 0] for k in range(4))
        self.cell = work.cell[1:, 0]
        self.hidden = work.hidden[1:, 0]
        self.init_cell = work.cell[0, 0]


def sequence_forward(model: LstmModel, xs,
                     init: LstmState | None = None) -> tuple[np.ndarray, SequenceCache]:
    """Run the cell over a sequence and read out a prediction at every step.

    ``xs`` is a (T, input_dim) array or list of vectors. Returns the
    (T, input_dim) prediction matrix and the cache for backward_bptt.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != model.input_dim:
        raise InputError(
            f"xs must be (T, {model.input_dim}), got shape {xs.shape}"
        )
    if xs.shape[0] == 0:
        raise InputError("xs must contain at least one step")
    work = Workspace(xs[:, None, :], model.hidden_dim)
    if init is not None:
        n = model.hidden_dim
        if init.hidden.shape != (n,) or init.cell.shape != (n,):
            raise InputError("previous state does not match hidden_dim")
        require_finite(init.hidden, "previous hidden state")
        require_finite(init.cell, "previous cell state")
        work.hidden[0, 0] = init.hidden
        work.cell[0, 0] = init.cell
    preds = forward(stack(model), work)
    finite = (np.isfinite(work.cell[1:, 0]).all(axis=1)
              & np.isfinite(work.hidden[1:, 0]).all(axis=1))
    if not finite.all():
        raise NumericError(f"step {int(np.argmin(finite))}: non-finite cell or hidden state")
    return preds[:, 0].copy(), SequenceCache(work)


def cell_forward(model: LstmModel, x, prev: LstmState) -> tuple[LstmState, Gates]:
    """One step of the gated recurrence; returns the new state and the gates."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.input_dim,):
        raise InputError(f"x must have shape ({model.input_dim},), got {x.shape}")
    _, cache = sequence_forward(model, x[None, :], prev)
    return (LstmState(hidden=cache.hidden[0], cell=cache.cell[0]),
            Gates(forget=cache.forget[0], input=cache.input_gate[0],
                  candidate=cache.candidate[0], output=cache.output_gate[0]))


def loss_mse(pred, target) -> float:
    """Mean over all steps and dimensions of the squared prediction error."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise InputError(f"prediction shape {pred.shape} != target shape {target.shape}")
    if pred.size == 0:
        raise InputError("loss needs at least one step")
    return float(np.mean((pred - target) ** 2))


def backward_bptt(model: LstmModel, cache: SequenceCache, targets) -> LstmGrads:
    """Exact gradients of loss_mse(preds, targets) w.r.t. every parameter."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != cache.preds.shape:
        raise InputError(
            f"targets shape {targets.shape} != predictions shape {cache.preds.shape}"
        )
    steps, dim = targets.shape
    d_pred = 2.0 * (cache.preds - targets) / (steps * dim)
    grads = backward(stack(model), cache.work, d_pred[:, None, :])
    for name in PARAM_FIELDS:
        require_finite(getattr(grads, name), f"gradient of {name}")
    return grads


def grad_check(model: LstmModel, xs, targets, eps: float = 1e-5,
               analytic: LstmGrads | None = None) -> float:
    """Max relative error of the analytic gradients vs central differences.

    Relative error per entry is |a - n| / max(|a|, |n|, 1e-12). Pass
    ``analytic`` to check a candidate gradient instead of the one
    computed by backward_bptt; the numeric side only ever calls
    sequence_forward and loss_mse.
    """
    if not eps > 0:
        raise InputError("eps must be positive")
    if analytic is None:
        _, cache = sequence_forward(model, xs)
        analytic = backward_bptt(model, cache, targets)

    work = copy.deepcopy(model)
    worst = 0.0
    for name in PARAM_FIELDS:
        flat = getattr(work, name).ravel()
        grad_flat = getattr(analytic, name).ravel()
        for k in range(flat.size):
            original = flat[k]
            flat[k] = original + eps
            loss_plus = loss_mse(sequence_forward(work, xs)[0], targets)
            flat[k] = original - eps
            loss_minus = loss_mse(sequence_forward(work, xs)[0], targets)
            flat[k] = original
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            denom = max(abs(grad_flat[k]), abs(numeric), 1e-12)
            worst = max(worst, abs(grad_flat[k] - numeric) / denom)
    return worst


def gradcheck_instance(seed: int, input_dim: int = 2, hidden_dim: int = 3,
                       steps: int = 5) -> tuple[LstmModel, np.ndarray, np.ndarray]:
    """Seeded random model and sequence sized for finite-difference checks.

    Parameters are drawn at scale 0.5 rather than the small training
    initialization: near-zero gradient entries sit at the noise floor of
    central differences, which would inflate the relative error for
    reasons unrelated to backprop correctness.
    """
    rng = np.random.default_rng(seed)
    d, n = input_dim, hidden_dim
    scale = 0.5
    model = LstmModel(
        input_dim=d, hidden_dim=n,
        w_f=rng.normal(0.0, scale, (n, n + d)),
        w_i=rng.normal(0.0, scale, (n, n + d)),
        w_c=rng.normal(0.0, scale, (n, n + d)),
        w_o=rng.normal(0.0, scale, (n, n + d)),
        b_f=rng.normal(0.0, scale, n),
        b_i=rng.normal(0.0, scale, n),
        b_c=rng.normal(0.0, scale, n),
        b_o=rng.normal(0.0, scale, n),
        w_y=rng.normal(0.0, scale, (d, n)),
        b_y=rng.normal(0.0, scale, d),
    )
    xs = rng.normal(size=(steps, d))
    targets = rng.normal(size=(steps, d))
    return model, xs, targets


def gradient_global_norm(grads: LstmGrads) -> float:
    """Euclidean norm over every gradient entry of every parameter."""
    total = 0.0
    for name in PARAM_FIELDS:
        arr = getattr(grads, name)
        total += float(np.sum(arr * arr))
    return float(np.sqrt(total))


def clip_gradients(grads: LstmGrads, max_norm: float) -> LstmGrads:
    """Scale all gradients down together so the global norm is at most max_norm."""
    norm = gradient_global_norm(grads)
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    return LstmGrads(**{name: getattr(grads, name) * scale for name in PARAM_FIELDS})


def apply_gradients(model: LstmModel, grads: LstmGrads, learning_rate: float) -> LstmModel:
    updated = {name: getattr(model, name) - learning_rate * getattr(grads, name)
               for name in PARAM_FIELDS}
    return LstmModel(input_dim=model.input_dim, hidden_dim=model.hidden_dim, **updated)


def predict_sequence_batch(model: LstmModel, inputs) -> np.ndarray:
    """Final-step predictions (B, D) for a (B, T, D) batch of sequences
    from zero initial state; only one step of activations is kept."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3 or inputs.shape[2] != model.input_dim:
        raise InputError(
            f"inputs must be (B, T, {model.input_dim}), got shape {inputs.shape}"
        )
    batch, steps, dim = inputs.shape
    n = model.hidden_dim
    params = stack(model)
    z = np.zeros((batch, n + dim + 1))
    z[:, -1] = 1.0
    hidden = z[:, :n]   # each step writes h_t where the next step reads it
    gates = np.empty((4, batch, n))
    cell = np.zeros((batch, n))
    tanh_cell = np.empty((batch, n))
    for t in range(steps):
        z[:, n:-1] = inputs[:, t]
        _step(params, z, gates, cell, cell, tanh_cell, hidden)
    return hidden @ model.w_y.T + model.b_y


def _length_groups(model: LstmModel, sequences) -> list[tuple[list[int], Workspace, np.ndarray]]:
    """Validate (inputs, targets) pairs and batch them by length: per
    group, the original indices, a workspace over the time-major inputs
    and the time-major targets."""
    if not sequences:
        raise InputError("sequences must not be empty")
    by_length: dict[int, list[tuple[int, np.ndarray, np.ndarray]]] = {}
    for index, pair in enumerate(sequences):
        xs = np.asarray(pair[0], dtype=np.float64)
        targets = np.asarray(pair[1], dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != model.input_dim:
            raise InputError(
                f"sequence {index}: inputs must be (T, {model.input_dim}), "
                f"got shape {xs.shape}"
            )
        if targets.shape != xs.shape:
            raise InputError(
                f"sequence {index}: targets shape {targets.shape} != inputs "
                f"shape {xs.shape}"
            )
        if xs.shape[0] == 0:
            raise InputError(f"sequence {index} is empty")
        by_length.setdefault(xs.shape[0], []).append((index, xs, targets))
    return [([index for index, _, _ in group],
             Workspace(np.stack([xs for _, xs, _ in group], axis=1), model.hidden_dim),
             np.stack([targets for _, _, targets in group], axis=1))
            for group in by_length.values()]


def _loss_and_grads(model: LstmModel, groups) -> tuple[float, LstmGrads]:
    """Mean per-sequence loss and the gradient of the summed loss."""
    params = stack(model)
    loss_sum = 0.0
    total = None
    for indices, work, targets in groups:
        steps, _, dim = targets.shape
        preds = forward(params, work)
        bad = ~np.isfinite(preds).all(axis=(0, 2))
        if bad.any():
            raise NumericError(
                f"sequence {indices[int(np.argmax(bad))]}: non-finite forward output"
            )
        d_pred = preds - targets
        loss_sum += float(np.sum(d_pred * d_pred)) / (steps * dim)
        d_pred *= 2.0
        d_pred /= steps * dim
        grads = backward(params, work, d_pred)
        total = grads if total is None else LstmGrads(
            **{name: getattr(total, name) + getattr(grads, name) for name in PARAM_FIELDS})
    return loss_sum / sum(len(indices) for indices, _, _ in groups), total


def train_lstm(model: LstmModel, sequences,
               config: TrainConfig) -> tuple[LstmModel, np.ndarray]:
    """Full-batch gradient descent on the summed per-sequence MSE.

    Each epoch records the mean per-sequence loss at the current
    parameters, clips the gradient of the summed loss to
    config.gradient_clip by global norm, and takes one plain descent
    step. Clipping the sum (not the mean) makes the norm bound, not the
    sequence count, set the worst-case step size. There is no
    stochasticity: identical inputs produce bit-identical trained
    parameters.
    """
    groups = _length_groups(model, sequences)
    trace = np.zeros(config.epochs)
    current = model
    for epoch in range(config.epochs):
        try:
            loss, grads = _loss_and_grads(current, groups)
        except NumericError as exc:
            raise NumericError(f"epoch {epoch}: {exc}") from exc
        if not np.isfinite(loss):
            raise NumericError(f"epoch {epoch}: non-finite loss")
        for name in PARAM_FIELDS:
            require_finite(getattr(grads, name), f"epoch {epoch}: gradient of {name}")
        trace[epoch] = loss
        grads = clip_gradients(grads, config.gradient_clip)
        current = apply_gradients(current, grads, config.learning_rate)
    return current, trace
