"""Versioned JSON persistence for trained detector models.

One self-contained document holds the schema version, the effective run
configuration, normalizer statistics, every belief-network layer and
LSTM parameter (matrices as row-major flat lists) and the calibrated
threshold. Floats are written at full round-trip precision, so
load(save(model)) reproduces each parameter bit-exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .config import RunConfig, load_json, replacing, require_int, require_real
from .dbn import DbnModel
from .detector import DetectorModel
from .errors import InputError, NumericError
from .lstm import PARAM_FIELDS, LstmModel, param_shapes
from .rbm import RbmKind, RbmParams
from .traffic import NUM_FEATURES, Normalizer

SCHEMA_VERSION = 1


def _flat(array: np.ndarray) -> list:
    return np.asarray(array, dtype=np.float64).ravel().tolist()


def save_model(path, model: DetectorModel, config: RunConfig):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_dict(),
        "normalizer": {
            "feat_min": _flat(model.normalizer.feat_min),
            "feat_max": _flat(model.normalizer.feat_max),
            "unit_mean": _flat(model.normalizer.unit_mean),
            "unit_std": _flat(model.normalizer.unit_std),
        },
        "dbn_layers": [
            {
                "kind": layer.kind.value,
                "num_visible": layer.num_visible,
                "num_hidden": layer.num_hidden,
                "weights": _flat(layer.weights),
                "visible_bias": _flat(layer.visible_bias),
                "hidden_bias": _flat(layer.hidden_bias),
            }
            for layer in model.dbn.layers
        ],
        "lstm": {
            "input_dim": model.lstm.input_dim,
            "hidden_dim": model.lstm.hidden_dim,
            **{name: _flat(getattr(model.lstm, name)) for name in PARAM_FIELDS},
        },
        "threshold": model.threshold,
        "lookback": model.lookback,
        "window_len": model.window_len,
        "residual_stats": {"mean": model.residual_mean, "std": model.residual_std},
    }
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{path}: model holds a non-finite value: {exc}") from None
    with replacing(path) as (temp,), open(temp, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def _array(doc: dict, key: str, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Field ``key``, a flat row-major list of finite numbers, as an array
    of ``shape``. Python's json reads NaN and Infinity, so both are refused
    here."""
    values = np.array(doc.get(key, []), dtype=np.float64)
    if values.shape != (math.prod(shape),) or not np.isfinite(values).all():
        raise InputError(f"{what}: field {key!r} must hold {math.prod(shape)} finite numbers")
    return values.reshape(shape)


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def load_model(path) -> tuple[DetectorModel, RunConfig]:
    """Read a model file and check every value in it, so the model that
    comes back has the shapes and ranges fit gives; nothing downstream
    checks them again. A schema_version other than 1 is rejected before
    any parameter is parsed, and so is a file whose top-level lookback or
    window_len disagrees with its config."""
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: model document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise InputError(
            f"{path}: unsupported schema_version {version!r}; "
            f"this build reads version {SCHEMA_VERSION}"
        )
    try:
        config = RunConfig.from_dict(doc["config"])
        norm_doc = _object(doc["normalizer"], "normalizer")
        normalizer = Normalizer(**{key: _array(norm_doc, key, (NUM_FEATURES,), "normalizer")
                                   for key in ("feat_min", "feat_max", "unit_mean", "unit_std")})
        if np.any(normalizer.feat_max < normalizer.feat_min):
            raise InputError("normalizer: feat_max must be >= feat_min in every dimension")
        if np.any(normalizer.unit_std < 0):
            raise InputError("normalizer: unit_std must be non-negative")
        layers, width = [], NUM_FEATURES        # each layer reads the width below it
        for index, layer_doc in enumerate(doc["dbn_layers"]):
            what = f"dbn layer {index}"
            layer_doc = _object(layer_doc, what)
            kind = RbmKind.GAUSSIAN_BERNOULLI if index == 0 else RbmKind.BERNOULLI_BERNOULLI
            if layer_doc.get("kind") != kind.value:
                raise InputError(f"{what}: kind must be {kind.value!r}, "
                                 f"got {layer_doc.get('kind')!r}")
            visible = require_int(f"{what}: num_visible", layer_doc["num_visible"])
            hidden = require_int(f"{what}: num_hidden", layer_doc["num_hidden"])
            if visible != width or hidden < 1:
                raise InputError(f"{what}: need num_visible {width} and num_hidden >= 1, "
                                 f"got {visible} and {hidden}")
            layers.append(RbmParams(
                kind=kind,
                weights=_array(layer_doc, "weights", (visible, hidden), what),
                visible_bias=_array(layer_doc, "visible_bias", (visible,), what),
                hidden_bias=_array(layer_doc, "hidden_bias", (hidden,), what),
            ))
            width = hidden
        if not layers:
            raise InputError("dbn_layers must hold at least one layer")
        lstm_doc = _object(doc["lstm"], "lstm")
        d = require_int("lstm: input_dim", lstm_doc["input_dim"])
        n = require_int("lstm: hidden_dim", lstm_doc["hidden_dim"])
        if d != width or n < 1:
            raise InputError(f"lstm: need input_dim {width} (the code width) and "
                             f"hidden_dim >= 1, got {d} and {n}")
        lstm = LstmModel(input_dim=d, hidden_dim=n,
                         **{name: _array(lstm_doc, name, shape, "lstm")
                            for name, shape in param_shapes(d, n).items()})
        threshold = require_real("threshold", doc["threshold"])
        if threshold < 0:
            raise InputError("threshold must be non-negative")
        stats = _object(doc["residual_stats"], "residual_stats")
        for name in ("lookback", "window_len"):         # stored twice: both must agree
            if doc[name] != getattr(config, name):
                raise InputError(f"{name} {doc[name]!r} disagrees with "
                                 f"config.{name} {getattr(config, name)!r}")
        model = DetectorModel(
            normalizer=normalizer, dbn=DbnModel(layers=layers), lstm=lstm,
            threshold=threshold,
            lookback=config.lookback,
            window_len=config.window_len,
            residual_mean=require_real("residual_stats: mean", stats["mean"]),
            residual_std=require_real("residual_stats: std", stats["std"]),
        )
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed model document: {exc}") from exc
    return model, config
