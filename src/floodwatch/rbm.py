"""Restricted Boltzmann machine layers.

Energy functions, exact unit conditionals, Bernoulli sampling and one-step
contrastive divergence (CD-1) training for a single layer. A layer is
either Bernoulli-Bernoulli (binary visible units) or Gaussian-Bernoulli
(real-valued visible units with fixed unit variance, for standardized
continuous inputs); hidden units are always binary.

All functions are pure: they never mutate their inputs and return fresh
parameter objects, so trained layers are safe to share read-only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .numerics import require_finite, sigmoid

WEIGHT_INIT_STD = 0.01


class RbmKind(enum.Enum):
    """Visible-layer model of an RBM layer."""

    BERNOULLI_BERNOULLI = "bernoulli"
    GAUSSIAN_BERNOULLI = "gaussian"


@dataclass
class RbmParams:
    """Parameters of one RBM layer.

    ``weights`` is num_visible x num_hidden; ``visible_bias`` and
    ``hidden_bias`` hold the per-unit offsets. Arrays are copied on
    construction and treated as immutable afterwards.
    """

    kind: RbmKind
    weights: np.ndarray
    visible_bias: np.ndarray
    hidden_bias: np.ndarray

    def __post_init__(self):
        self.weights = np.array(self.weights, dtype=np.float64)
        self.visible_bias = np.array(self.visible_bias, dtype=np.float64)
        self.hidden_bias = np.array(self.hidden_bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise InputError("weights must be a 2-d matrix")
        num_v, num_h = self.weights.shape
        if num_v < 1 or num_h < 1:
            raise InputError("an RBM needs at least one visible and one hidden unit")
        if self.visible_bias.shape != (num_v,):
            raise InputError(
                f"visible_bias must have shape ({num_v},), got {self.visible_bias.shape}"
            )
        if self.hidden_bias.shape != (num_h,):
            raise InputError(
                f"hidden_bias must have shape ({num_h},), got {self.hidden_bias.shape}"
            )
        for name, arr in (
            ("weights", self.weights),
            ("visible_bias", self.visible_bias),
            ("hidden_bias", self.hidden_bias),
        ):
            if not np.all(np.isfinite(arr)):
                raise InputError(f"{name} contains non-finite entries")

    @property
    def num_visible(self) -> int:
        return self.weights.shape[0]

    @property
    def num_hidden(self) -> int:
        return self.weights.shape[1]


@dataclass
class CdConfig:
    """Hyperparameters for contrastive-divergence training."""

    learning_rate: float
    epochs: int
    batch_size: int
    rng_seed: int

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise InputError("learning_rate must be positive")
        if self.epochs < 0:
            raise InputError("epochs must be non-negative")
        if self.batch_size < 1:
            raise InputError("batch_size must be at least 1")


def init_rbm(kind: RbmKind, num_visible: int, num_hidden: int,
             rng: np.random.Generator) -> RbmParams:
    """Fresh layer: weights i.i.d. N(0, 0.01), both biases zero."""
    weights = rng.normal(0.0, WEIGHT_INIT_STD, size=(num_visible, num_hidden))
    return RbmParams(
        kind=kind,
        weights=weights,
        visible_bias=np.zeros(num_visible),
        hidden_bias=np.zeros(num_hidden),
    )


def _as_vector(name: str, x, length: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (length,):
        raise InputError(f"{name} must have shape ({length},), got {arr.shape}")
    return arr


def _as_states(name: str, x, width: int) -> np.ndarray:
    """Accept a single state vector or a matrix with one state per row."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim not in (1, 2) or arr.shape[-1] != width:
        raise InputError(f"{name} must have {width} entries per state, got shape {arr.shape}")
    return arr


def energy_bernoulli(params: RbmParams, v, h) -> float:
    """Joint energy of a binary configuration.

    E(v, h) = -sum_ij w_ij v_i h_j - sum_i vb_i v_i - sum_j hb_j h_j
    """
    if params.kind is not RbmKind.BERNOULLI_BERNOULLI:
        raise InputError("energy_bernoulli requires a Bernoulli-Bernoulli layer")
    v = _as_vector("v", v, params.num_visible)
    h = _as_vector("h", h, params.num_hidden)
    return float(-(v @ params.weights @ h)
                 - params.visible_bias @ v
                 - params.hidden_bias @ h)


def energy_gaussian(params: RbmParams, v, h) -> float:
    """Joint energy with real-valued visible units (unit variance).

    E(v, h) = -sum_ij w_ij v_i h_j + sum_i (v_i - vb_i)^2 / 2 - sum_j hb_j h_j
    """
    if params.kind is not RbmKind.GAUSSIAN_BERNOULLI:
        raise InputError("energy_gaussian requires a Gaussian-Bernoulli layer")
    v = _as_vector("v", v, params.num_visible)
    h = _as_vector("h", h, params.num_hidden)
    return float(-(v @ params.weights @ h)
                 + 0.5 * np.sum((v - params.visible_bias) ** 2)
                 - params.hidden_bias @ h)


def hidden_given_visible(params: RbmParams, v) -> np.ndarray:
    """Activation probabilities p(h_j = 1 | v) = sigmoid(hb_j + sum_i v_i w_ij).

    The same expression holds for both layer kinds (Gaussian visible
    units have unit variance). Accepts one state vector or a matrix of
    states, one per row.
    """
    v = _as_states("v", v, params.num_visible)
    require_finite(v, "visible state")
    return sigmoid(v @ params.weights + params.hidden_bias)


def visible_given_hidden(params: RbmParams, h) -> np.ndarray:
    """Visible conditional given a hidden state.

    Bernoulli layers return p(v_i = 1 | h) = sigmoid(vb_i + sum_j w_ij h_j);
    Gaussian layers return the conditional mean vb_i + sum_j w_ij h_j of
    the unit-variance Normal. Accepts one state vector or a matrix of
    states, one per row.
    """
    h = _as_states("h", h, params.num_hidden)
    require_finite(h, "hidden state")
    activation = h @ params.weights.T + params.visible_bias
    if params.kind is RbmKind.BERNOULLI_BERNOULLI:
        return sigmoid(activation)
    return activation


def sample_binary(probs, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli draw per entry: entry i is 1.0 iff the i-th uniform < probs[i]."""
    probs = np.asarray(probs, dtype=np.float64)
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        raise InputError("probabilities must lie in [0, 1]")
    return (rng.random(probs.shape) < probs).astype(np.float64)


def cd1_step(params: RbmParams, batch, learning_rate: float,
             rng: np.random.Generator) -> tuple[RbmParams, float]:
    """One contrastive-divergence update over a batch of visible vectors.

    Positive statistics use the data and p(h|v); the negative phase
    samples binary hidden states, reconstructs the visible layer from
    its conditional (probabilities for Bernoulli, means for Gaussian,
    no sampling) and re-derives hidden probabilities from the
    reconstruction. Per-entry updates are the phase difference divided
    by the batch size, scaled by the learning rate.

    Returns the updated parameters and the mean squared reconstruction
    error of the batch.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != params.num_visible:
        raise InputError(
            f"batch must be 2-d with {params.num_visible} columns, got shape {batch.shape}"
        )
    if batch.shape[0] == 0:
        raise InputError("batch must not be empty")
    size = batch.shape[0]

    pos_hidden = hidden_given_visible(params, batch)
    hidden_sample = sample_binary(pos_hidden, rng)
    recon = visible_given_hidden(params, hidden_sample)
    neg_hidden = hidden_given_visible(params, recon)

    delta_w = (batch.T @ pos_hidden - recon.T @ neg_hidden) / size
    delta_vb = np.sum(batch - recon, axis=0) / size
    delta_hb = np.sum(pos_hidden - neg_hidden, axis=0) / size

    weights = params.weights + learning_rate * delta_w
    visible_bias = params.visible_bias + learning_rate * delta_vb
    hidden_bias = params.hidden_bias + learning_rate * delta_hb
    for name, arr in (("weights", weights), ("visible bias", visible_bias),
                      ("hidden bias", hidden_bias)):
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"CD-1 update produced non-finite {name}")

    error = float(np.mean((batch - recon) ** 2))
    updated = RbmParams(kind=params.kind, weights=weights,
                        visible_bias=visible_bias, hidden_bias=hidden_bias)
    return updated, error


def train_rbm(params: RbmParams, data, config: CdConfig,
              rng: np.random.Generator | None = None) -> tuple[RbmParams, np.ndarray]:
    """Epoch/minibatch CD-1 loop.

    Batches are consecutive slices of ``data`` in input order, so the
    result is a pure function of (params, data, seed). Returns the
    trained parameters and one mean-squared reconstruction error per
    epoch.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise InputError("training data must be a non-empty 2-d matrix")
    if data.shape[1] != params.num_visible:
        raise InputError(
            f"data has {data.shape[1]} columns but the layer has "
            f"{params.num_visible} visible units"
        )
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)

    count = data.shape[0]
    trace = np.zeros(config.epochs)
    current = params
    for epoch in range(config.epochs):
        squared_sum = 0.0
        for batch_index, start in enumerate(range(0, count, config.batch_size)):
            batch = data[start:start + config.batch_size]
            try:
                current, error = cd1_step(current, batch, config.learning_rate, rng)
            except NumericError as exc:
                raise NumericError(
                    f"epoch {epoch}, batch {batch_index}: {exc}"
                ) from exc
            squared_sum += error * batch.shape[0]
        trace[epoch] = squared_sum / count
    return current, trace
