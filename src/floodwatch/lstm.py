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
all the work. A model's parameters, and its gradients, are one vector
holding the gate matrices gate-major in the order [f, i, o, g]
(Appleyard et al., arXiv:1604.01946), then the gate biases, then the
readout. The kernel takes the gate matrices transposed, each with its
bias as an extra row that meets a constant 1 appended to [h_{t-1}, x_t],
so a step is one broadcast matmul that writes a contiguous (4, B, N) block.
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
import functools
import math
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


def param_shapes(input_dim: int, hidden_dim: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in parameter-vector order: the gate weights
    over [h_prev, x], then the gate biases, each in the kernel's gate order
    [f, i, o, g] ("c" names the candidate g), then the readout."""
    n, d = hidden_dim, input_dim
    gate, bias = (n, n + d), (n,)
    return {"w_f": gate, "w_i": gate, "w_o": gate, "w_c": gate,
            "b_f": bias, "b_i": bias, "b_o": bias, "b_c": bias,
            "w_y": (d, n), "b_y": (d,)}


@functools.cache
def _layout(input_dim: int, hidden_dim: int) -> tuple[dict[str, tuple], int]:
    """(start, shape) of every parameter in the vector, and its length."""
    layout, start = {}, 0
    for name, shape in param_shapes(input_dim, hidden_dim).items():
        layout[name] = (start, shape)
        start += math.prod(shape)
    return layout, start


def _param(name: str) -> property:
    """A parameter name as a writable view into ``vector``; assignment
    copies into the vector after a shape check."""

    def put(model, value):
        view = model.view(name)
        value = np.asarray(value, dtype=np.float64)
        if value.shape != view.shape:
            raise InputError(f"{name} must have shape {view.shape}, got {value.shape}")
        view[...] = value

    return property(lambda model: model.view(name), put)


class LstmModel:
    """Gate weights over the concatenation [h_prev, x], plus the readout,
    held as one float64 ``vector`` in the kernel's layout.

    The vector holds the gate weights (4, N, N + D) and the gate biases
    (4, N), both in gate order [f, i, o, g], then the readout w_y (D, N)
    and b_y (D); see ``param_shapes``. Each PARAM_FIELDS name is a view
    computed on access, never stored, so copies keep their own vector.
    Gradients are instances too, so norm, clipping and update are single
    vector operations.
    """

    w_f, w_i, w_c, w_o, b_f, b_i, b_c, b_o, w_y, b_y = map(_param, PARAM_FIELDS)

    def __init__(self, input_dim: int, hidden_dim: int, **params):
        if hidden_dim < 1 or input_dim < 1:
            raise InputError("input_dim and hidden_dim must be at least 1")
        if params.keys() != set(PARAM_FIELDS):
            raise TypeError(f"LstmModel takes exactly the parameters {PARAM_FIELDS}")
        self.input_dim, self.hidden_dim = input_dim, hidden_dim
        self.vector = np.empty(_layout(input_dim, hidden_dim)[1])
        for name in PARAM_FIELDS:
            setattr(self, name, params[name])
        if not np.isfinite(self.vector).all():
            raise InputError("LSTM parameters contain non-finite entries")

    @classmethod
    def from_vector(cls, input_dim: int, hidden_dim: int, vector: np.ndarray) -> LstmModel:
        """Wrap ``vector`` as is (no copy, no checks), as gradients are built."""
        model = cls.__new__(cls)
        model.input_dim, model.hidden_dim, model.vector = input_dim, hidden_dim, vector
        return model

    def view(self, first: str, count: int = 1) -> np.ndarray:
        """View of parameter ``first``, or of ``count`` same-shaped
        parameters stacked from it (``view("w_f", 4)`` is all gate weights)."""
        start, shape = _layout(self.input_dim, self.hidden_dim)[0][first]
        block = self.vector[start:start + count * math.prod(shape)]
        return block.reshape(shape if count == 1 else (count, *shape))


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
class TrainConfig:
    """Hyperparameters for full-batch LSTM training."""

    learning_rate: float
    epochs: int
    gradient_clip: float

    def __post_init__(self):
        if self.learning_rate < 0:
            raise InputError("learning_rate must be non-negative")
        if self.epochs < 0:
            raise InputError("epochs must be non-negative")
        if not self.gradient_clip > 0:
            raise InputError("gradient_clip must be positive")


def zero_state(hidden_dim: int) -> LstmState:
    return LstmState(hidden=np.zeros(hidden_dim), cell=np.zeros(hidden_dim))


def init_lstm(input_dim: int, hidden_dim: int, rng: np.random.Generator) -> LstmModel:
    """Random model: weights N(0, 0.1/sqrt(N+D)), zero biases except b_f = 1.

    The forget-gate bias starts at one so early training does not erase
    the cell state. Weights are drawn in PARAM_FIELDS order.
    """
    scale = 0.1 / np.sqrt(hidden_dim + input_dim)
    shapes = param_shapes(input_dim, hidden_dim)
    params = {name: rng.normal(0.0, scale, shapes[name]) if name.startswith("w_")
              else np.zeros(shapes[name]) for name in PARAM_FIELDS}
    params["b_f"] += 1.0
    return LstmModel(input_dim=input_dim, hidden_dim=hidden_dim, **params)


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
    gates = model.view("w_f", 4)     # (4, N, N + D)
    biases = model.view("b_f", 4)    # (4, N)
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


def backward(params: Stack, work: Workspace, d_pred: np.ndarray) -> LstmModel:
    """Parameter gradients given dL/dy (T, B, D) for the activations in
    ``work``, summed over the batch, as a model-shaped gradient vector.

    Reverse-mode sweep: the cell path carries d_cell * forget backwards,
    the hidden path re-enters through the recurrent gate weights. Weight
    gradients accumulate step by step, so no (T, ...) gradient history
    is kept.
    """
    steps, batch, dim = d_pred.shape
    n = work.hidden.shape[2]
    grads = LstmModel.from_vector(dim, n, np.empty(_layout(dim, n)[1]))
    flat_dy = d_pred.reshape(-1, dim)
    np.matmul(flat_dy.T, work.hidden[1:].reshape(-1, n), out=grads.w_y)
    np.sum(flat_dy, axis=0, out=grads.b_y)
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
    grads.view("w_f", 4)[...] = d_w[:, :-1].transpose(0, 2, 1)
    grads.view("b_f", 4)[...] = d_w[:, -1]
    return grads


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


def backward_bptt(model: LstmModel, cache: SequenceCache, targets) -> LstmModel:
    """Exact gradients of loss_mse(preds, targets) w.r.t. every parameter."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != cache.preds.shape:
        raise InputError(
            f"targets shape {targets.shape} != predictions shape {cache.preds.shape}"
        )
    steps, dim = targets.shape
    d_pred = 2.0 * (cache.preds - targets) / (steps * dim)
    grads = backward(stack(model), cache.work, d_pred[:, None, :])
    require_finite(grads.vector, "gradient")
    return grads


def grad_check(model: LstmModel, xs, targets, eps: float = 1e-5,
               analytic: LstmModel | None = None) -> float:
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
    flat, grad_flat = work.vector, analytic.vector
    worst = 0.0
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
    shapes = param_shapes(input_dim, hidden_dim)
    model = LstmModel(input_dim=input_dim, hidden_dim=hidden_dim,
                      **{name: rng.normal(0.0, 0.5, shapes[name]) for name in PARAM_FIELDS})
    xs = rng.normal(size=(steps, input_dim))
    targets = rng.normal(size=(steps, input_dim))
    return model, xs, targets


def gradient_global_norm(grads: LstmModel) -> float:
    """Euclidean norm over every gradient entry of every parameter."""
    return float(np.sqrt(np.sum(grads.vector * grads.vector)))


def clip_gradients(grads: LstmModel, max_norm: float) -> LstmModel:
    """Scale all gradients down together so the global norm is at most max_norm."""
    norm = gradient_global_norm(grads)
    if norm <= max_norm:
        return grads
    return LstmModel.from_vector(grads.input_dim, grads.hidden_dim,
                                 grads.vector * (max_norm / norm))


def apply_gradients(model: LstmModel, grads: LstmModel, learning_rate: float):
    """One descent step, in place."""
    model.vector -= learning_rate * grads.vector


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


def _loss_and_grads(model: LstmModel, groups) -> tuple[float, LstmModel]:
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
        if total is None:
            total = grads
        else:
            total.vector += grads.vector
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
    current = copy.deepcopy(model)
    for epoch in range(config.epochs):
        try:
            loss, grads = _loss_and_grads(current, groups)
        except NumericError as exc:
            raise NumericError(f"epoch {epoch}: {exc}") from exc
        if not np.isfinite(loss):
            raise NumericError(f"epoch {epoch}: non-finite loss")
        require_finite(grads.vector, f"epoch {epoch}: gradient")
        trace[epoch] = loss
        apply_gradients(current, clip_gradients(grads, config.gradient_clip),
                        config.learning_rate)
    return current, trace
