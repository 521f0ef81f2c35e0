"""Deep belief network: a stack of RBM layers.

Layer 0 is Gaussian-Bernoulli (it consumes standardized real-valued
feature vectors); every later layer is Bernoulli-Bernoulli and consumes
the hidden activation probabilities of the layer below. Pretraining is
greedy and layer-wise; the feature transform is deterministic mean-field
propagation (probabilities, never samples), so downstream models see
reproducible codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .rbm import CdConfig, RbmKind, RbmParams, hidden_given_visible, init_rbm, train_rbm


@dataclass
class DbnModel:
    """Ordered RBM stack; layer k's hidden units feed layer k+1's visible units."""

    layers: list[RbmParams]

    @property
    def input_dim(self) -> int:
        return self.layers[0].num_visible

    @property
    def code_dim(self) -> int:
        return self.layers[-1].num_hidden


def new_dbn(layer_sizes, rng: np.random.Generator) -> DbnModel:
    """Build an untrained stack from unit counts [input, hidden..., code]."""
    layers = []
    for k in range(len(layer_sizes) - 1):
        kind = RbmKind.GAUSSIAN_BERNOULLI if k == 0 else RbmKind.BERNOULLI_BERNOULLI
        layers.append(init_rbm(kind, layer_sizes[k], layer_sizes[k + 1], rng))
    return DbnModel(layers=layers)


def pretrain(dbn: DbnModel, data, config: CdConfig,
             rng: np.random.Generator) -> tuple[DbnModel, list[np.ndarray]]:
    """Greedy layer-wise CD-1 training.

    Layer k trains on the mean-field transform of the data through the
    already-trained layers 0..k-1. Earlier layers are never revisited.
    Returns the trained stack and one error trace per layer.
    """
    trained: list[RbmParams] = []
    traces: list[np.ndarray] = []
    current = data
    for k, layer in enumerate(dbn.layers):
        try:
            new_layer, trace = train_rbm(layer, current, config, rng)
        except NumericError as exc:
            raise NumericError(f"layer {k}: {exc}") from exc
        trained.append(new_layer)
        traces.append(trace)
        current = hidden_given_visible(new_layer, current)
    return DbnModel(layers=trained), traces


def transform(dbn: DbnModel, v) -> np.ndarray:
    """Deterministic top-layer code of one input vector (or matrix of rows).

    Composes hidden_given_visible across the stack using probabilities,
    so every output entry lies in (0, 1) and no RNG is involved.
    """
    for layer in dbn.layers:
        v = hidden_given_visible(layer, v)
    return v
