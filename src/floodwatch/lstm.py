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
clipping that stops at its loss plateau. Everything is plain float64
numpy and deterministic.

One batched kernel (``forward``/``backward`` over a ``Workspace``) does
all the work, reading the model's parameter vector in place. The vector
holds, gate-major in the order [f, i, o, g] (Appleyard et al.,
arXiv:1604.01946), one row-major (N, N + D + 1) block [W_g | b_g] per
gate, then the readout. The kernel reads the blocks transposed, a view,
so that each bias meets a constant 1 appended to [h_{t-1}, x_t] and a
step is one broadcast matmul that writes a contiguous (4, B, N) block.
The sigmoid gates use sigmoid(x) = 0.5 * tanh(x / 2) + 0.5, so one tanh
covers all four gates.
``train_lstm`` runs the kernel on all its sequences as one batch and
steps on ``_loss``; ``grad_check`` differences that same ``_loss`` over
a B = 1 ``Workspace``, and ``predict_sequence_batch`` runs the step
function keeping no history.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .numerics import require_finite
# Not called here any more; kept importable because the benchmark's trace
# table (perfbench/spans.py) wraps ``floodwatch.lstm.sigmoid``.
from .numerics import sigmoid  # noqa: F401

PARAM_FIELDS = ("w_f", "w_i", "w_c", "w_o",
                "b_f", "b_i", "b_c", "b_o",
                "w_y", "b_y")

# Early-stopping window (epochs) and relative tolerance; see ``at_plateau``.
PLATEAU_EPOCHS = 10
PLATEAU_TOL = 1e-3


def param_shapes(input_dim: int, hidden_dim: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape: the gate weights over [h_prev, x], then the
    gate biases, each in the kernel's gate order [f, i, o, g] ("c" names
    the candidate g), then the readout."""
    n, d = hidden_dim, input_dim
    gate, bias = (n, n + d), (n,)
    return {"w_f": gate, "w_i": gate, "w_o": gate, "w_c": gate,
            "b_f": bias, "b_i": bias, "b_o": bias, "b_c": bias,
            "w_y": (d, n), "b_y": (d,)}


def _param(name: str) -> property:
    """A parameter name as a writable view into ``vector``; assignment
    copies into the vector. W_g is its gate block's first N + D columns
    and b_g the last; the readout follows the gate blocks."""
    kind, unit = name.split("_")

    def get(model):
        if unit != "y":
            block = model.gates["fioc".index(unit)]
            return block[:, :-1] if kind == "w" else block[:, -1]
        n, d = model.hidden_dim, model.input_dim
        readout = model.vector[model.gates.size:]
        return readout[:d * n].reshape(d, n) if kind == "w" else readout[d * n:]

    def put(model, value):
        get(model)[...] = value

    return property(get, put)


class LstmModel:
    """Gate weights over the concatenation [h_prev, x], plus the readout,
    held as one float64 ``vector`` in the kernel's layout.

    The vector holds the gate blocks [W_g | b_g] (4, N, N + D + 1) in gate
    order [f, i, o, g], then the readout w_y (D, N) and b_y (D). Each
    PARAM_FIELDS name is a view computed on access, never stored, so
    copies keep their own vector. Gradients are instances too, so norm,
    clipping and update are single vector operations.
    """

    w_f, w_i, w_c, w_o, b_f, b_i, b_c, b_o, w_y, b_y = map(_param, PARAM_FIELDS)

    def __init__(self, input_dim: int, hidden_dim: int, **params):
        self.input_dim, self.hidden_dim = input_dim, hidden_dim
        n, d = hidden_dim, input_dim
        self.vector = np.empty(4 * n * (n + d + 1) + d * (n + 1))
        for name in PARAM_FIELDS:
            setattr(self, name, params[name])

    @classmethod
    def from_vector(cls, input_dim: int, hidden_dim: int, vector: np.ndarray) -> LstmModel:
        """Wrap ``vector`` as is (no copy, no checks), as gradients are built."""
        model = cls.__new__(cls)
        model.input_dim, model.hidden_dim, model.vector = input_dim, hidden_dim, vector
        return model

    @property
    def gates(self) -> np.ndarray:
        """The gate blocks [W_g | b_g], a (4, N, N + D + 1) view."""
        n = self.hidden_dim
        width = n + self.input_dim + 1
        return self.vector[:4 * n * width].reshape(4, n, width)


@dataclass
class TrainConfig:
    """Hyperparameters for full-batch LSTM training."""

    learning_rate: float
    epochs: int
    gradient_clip: float


def init_lstm(input_dim: int, hidden_dim: int, rng: np.random.Generator) -> LstmModel:
    """Random model: weights N(0, 0.1/sqrt(N+D)), zero biases except b_f = 1.

    The forget-gate bias starts at one so early training does not erase
    the cell state. Weights are drawn in PARAM_FIELDS order. The readout
    bias b_y starts at zero here; ``detector.fit_detailed`` then sets it
    to the mean training code.
    """
    scale = 0.1 / np.sqrt(hidden_dim + input_dim)
    shapes = param_shapes(input_dim, hidden_dim)
    params = {name: rng.normal(0.0, scale, shapes[name]) if name.startswith("w_")
              else np.zeros(shapes[name]) for name in PARAM_FIELDS}
    params["b_f"] += 1.0
    return LstmModel(input_dim=input_dim, hidden_dim=hidden_dim, **params)


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


def _step(w, z, gates, cell_prev, cell, tanh_cell, hidden):
    """One step for the whole batch with the transposed gate blocks ``w``;
    writes gates, cell, tanh(cell) and hidden in place. ``cell`` may be
    ``cell_prev``."""
    np.matmul(z, w, out=gates)
    sigmoids = gates[:3]
    sigmoids *= 0.5                 # sigmoid(x) = 0.5 * tanh(x / 2) + 0.5, halving exact
    np.tanh(gates, out=gates)
    sigmoids *= 0.5
    sigmoids += 0.5
    forget, input_gate, output_gate, candidate = gates
    np.multiply(forget, cell_prev, out=cell)
    cell += input_gate * candidate
    np.tanh(cell, out=tanh_cell)
    np.multiply(output_gate, tanh_cell, out=hidden)


def forward(model: LstmModel, work: Workspace) -> np.ndarray:
    """Run the recurrence over ``work.inputs`` from the state at index 0
    and read out every step; returns ``work.preds`` (T, B, D)."""
    w = model.gates.transpose(0, 2, 1)
    for t in range(work.inputs.shape[0]):
        work.load_z(t)
        _step(w, work.z, work.gates[t], work.cell[t], work.cell[t + 1],
              work.tanh_cell[t], work.hidden[t + 1])
    np.matmul(work.hidden[1:], model.w_y.T, out=work.preds)
    work.preds += model.b_y
    return work.preds


def backward(model: LstmModel, work: Workspace, d_pred: np.ndarray) -> LstmModel:
    """Parameter gradients given dL/dy (T, B, D) for the activations in
    ``work``, summed over the batch, as a model-shaped gradient vector.

    Reverse-mode sweep: the cell path carries d_cell * forget backwards,
    the hidden path re-enters through the recurrent gate weights. Weight
    gradients accumulate step by step, so no (T, ...) gradient history
    is kept.
    """
    steps, batch, dim = d_pred.shape
    n = work.hidden.shape[2]
    grads = LstmModel.from_vector(dim, n, np.empty_like(model.vector))
    flat_dy = d_pred.reshape(-1, dim)
    np.matmul(flat_dy.T, work.hidden[1:].reshape(-1, n), out=grads.w_y)
    np.sum(flat_dy, axis=0, out=grads.b_y)
    d_w = np.zeros((4, n + dim + 1, n))   # transposed gate blocks, as the kernel reads them
    w_hidden = model.gates[:, :, :n]      # maps gate gradients to dh_{t-1}
    step_w = np.empty_like(d_w)
    d_hidden = np.zeros((batch, n))
    d_cell = np.zeros((batch, n))
    da, scratch = work.d_gates, work.scratch
    for t in reversed(range(steps)):
        gates = work.gates[t]
        forget, input_gate, output_gate, candidate = gates
        tanh_c = work.tanh_cell[t]
        np.matmul(d_pred[t], model.w_y, out=scratch[0])
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
        np.matmul(da, w_hidden, out=scratch)
        np.sum(scratch, axis=0, out=d_hidden)
        d_cell *= forget
    grads.gates.transpose(0, 2, 1)[...] = d_w
    return grads


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


def predict_sequence_batch(model: LstmModel, inputs) -> np.ndarray:
    """Final-step predictions (B, D) for a (B, T, D) batch of sequences
    from zero initial state; only one step of activations is kept."""
    inputs = np.asarray(inputs, dtype=np.float64)
    batch, steps, dim = inputs.shape
    n = model.hidden_dim
    w = model.gates.transpose(0, 2, 1)
    z = np.zeros((batch, n + dim + 1))
    z[:, -1] = 1.0
    hidden = z[:, :n]   # each step writes h_t where the next step reads it
    gates = np.empty((4, batch, n))
    cell = np.zeros((batch, n))
    tanh_cell = np.empty((batch, n))
    for t in range(steps):
        z[:, n:-1] = inputs[:, t]
        _step(w, z, gates, cell, cell, tanh_cell, hidden)
    return hidden @ model.w_y.T + model.b_y


def _loss(model: LstmModel, work: Workspace, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean per-sequence loss and dL/dy of the summed loss over the batch
    in ``work``, whose activations stay there for ``backward``."""
    steps, count, dim = targets.shape
    with np.errstate(over="ignore", invalid="ignore"):     # checked here and in train_lstm
        preds = forward(model, work)
        bad = ~np.isfinite(preds).all(axis=(0, 2))
        if bad.any():
            raise NumericError(f"sequence {int(np.argmax(bad))}: non-finite forward output")
        d_pred = preds - targets
        loss = float(np.sum(d_pred * d_pred)) / (steps * dim) / count
        d_pred *= 2.0
        d_pred /= steps * dim
    return loss, d_pred


def grad_check(model: LstmModel, xs, targets, eps: float = 1e-5) -> float:
    """Max relative error of ``backward``'s gradient of ``_loss`` vs central
    differences of ``_loss``, for one (T, D) sequence as a B = 1 batch.

    These are the functions ``train_lstm`` steps on. Relative error per
    entry is |a - n| / max(|a|, |n|, 1e-12).
    """
    work = Workspace(np.asarray(xs, dtype=np.float64)[:, None, :], model.hidden_dim)
    targets = np.asarray(targets, dtype=np.float64)[:, None, :]
    analytic = backward(model, work, _loss(model, work, targets)[1]).vector
    require_finite(analytic, "gradient")

    probe = copy.deepcopy(model)
    flat = probe.vector
    worst = 0.0
    for k in range(flat.size):
        original = flat[k]
        flat[k] = original + eps
        loss_plus = _loss(probe, work, targets)[0]
        flat[k] = original - eps
        loss_minus = _loss(probe, work, targets)[0]
        flat[k] = original
        numeric = (loss_plus - loss_minus) / (2.0 * eps)
        denom = max(abs(analytic[k]), abs(numeric), 1e-12)
        worst = max(worst, abs(analytic[k] - numeric) / denom)
    return worst


def at_plateau(trace: np.ndarray, epoch: int) -> bool:
    """Whether the loss at ``epoch`` fell by less than PLATEAU_TOL of the
    loss PLATEAU_EPOCHS epochs before it (never before that many epochs)."""
    if epoch < PLATEAU_EPOCHS:
        return False
    before = trace[epoch - PLATEAU_EPOCHS]
    return bool(before - trace[epoch] < PLATEAU_TOL * before)


def train_lstm(model: LstmModel, sequences,
               config: TrainConfig) -> tuple[LstmModel, np.ndarray]:
    """Full-batch gradient descent on the summed per-sequence MSE.

    ``sequences`` holds (inputs, targets) pairs, each a (T, input_dim)
    array, all of one length T; they are stacked into one time-major
    batch that every epoch runs forward and backward. Each epoch records
    the mean per-sequence loss at the current parameters, clips the
    gradient of the summed loss to config.gradient_clip by global norm,
    and takes one plain descent step. Clipping the sum (not the mean)
    makes the norm bound, not the sequence count, set the worst-case step
    size.

    Training ends after config.epochs epochs, or earlier at the first
    epoch where ``at_plateau`` holds (early stopping on the training
    loss, after Prechelt, "Early Stopping -- But When?", 1998). Then the
    parameters whose loss was just recorded are returned, with no
    backward pass or step after the check, and the trace holds the
    epochs run. The rule reads only the trace, and there is no
    stochasticity: identical inputs produce bit-identical trained
    parameters and traces.
    """
    work = Workspace(np.stack([xs for xs, _ in sequences], axis=1, dtype=np.float64),
                     model.hidden_dim)
    targets = np.stack([ys for _, ys in sequences], axis=1, dtype=np.float64)
    trace = np.zeros(config.epochs)
    current = copy.deepcopy(model)
    for epoch in range(config.epochs):
        try:
            loss, d_pred = _loss(current, work, targets)
        except NumericError as exc:
            raise NumericError(f"epoch {epoch}: {exc}") from exc
        if not np.isfinite(loss):
            raise NumericError(f"epoch {epoch}: non-finite loss")
        trace[epoch] = loss
        if at_plateau(trace, epoch):
            return current, trace[:epoch + 1]
        grads = backward(current, work, d_pred)
        require_finite(grads.vector, f"epoch {epoch}: gradient")
        current.vector -= config.learning_rate * clip_gradients(
            grads, config.gradient_clip).vector
    return current, trace
