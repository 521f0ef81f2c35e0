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

from .config import RunConfig, load_json, replacing, require_int
from .dbn import DbnModel
from .detector import DetectorModel
from .errors import InputError, NumericError
from .lstm import PARAM_FIELDS, LstmModel, param_shapes
from .rbm import RbmKind, RbmParams
from .traffic import Normalizer

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
    """Field ``key``, a flat row-major list, as an array of ``shape``."""
    values = np.array(doc.get(key, []), dtype=np.float64)
    if values.shape != (math.prod(shape),):
        raise InputError(f"{what}: field {key!r} must hold {math.prod(shape)} numbers")
    return values.reshape(shape)


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def load_model(path) -> tuple[DetectorModel, RunConfig]:
    """Read a model file; a schema_version other than 1 is rejected before
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
        dims = (len(norm_doc.get("feat_min", [])),)
        normalizer = Normalizer(**{key: _array(norm_doc, key, dims, "normalizer")
                                   for key in ("feat_min", "feat_max", "unit_mean", "unit_std")})
        layers = []
        for index, layer_doc in enumerate(doc["dbn_layers"]):
            what = f"dbn layer {index}"
            layer_doc = _object(layer_doc, what)
            try:
                kind = RbmKind(layer_doc.get("kind"))
            except ValueError:
                raise InputError(f"{what}: unknown kind "
                                 f"{layer_doc.get('kind')!r}") from None
            visible = require_int(f"{what}: num_visible", layer_doc["num_visible"])
            hidden = require_int(f"{what}: num_hidden", layer_doc["num_hidden"])
            layers.append(RbmParams(
                kind=kind,
                weights=_array(layer_doc, "weights", (visible, hidden), what),
                visible_bias=_array(layer_doc, "visible_bias", (visible,), what),
                hidden_bias=_array(layer_doc, "hidden_bias", (hidden,), what),
            ))
        dbn = DbnModel(layers=layers)
        lstm_doc = _object(doc["lstm"], "lstm")
        d = require_int("lstm: input_dim", lstm_doc["input_dim"])
        n = require_int("lstm: hidden_dim", lstm_doc["hidden_dim"])
        lstm = LstmModel(input_dim=d, hidden_dim=n,
                         **{name: _array(lstm_doc, name, shape, "lstm")
                            for name, shape in param_shapes(d, n).items()})
        stats = _object(doc["residual_stats"], "residual_stats")
        model = DetectorModel(
            normalizer=normalizer, dbn=dbn, lstm=lstm,
            threshold=doc["threshold"],
            lookback=doc["lookback"],
            window_len=doc["window_len"],
            residual_mean=stats["mean"],
            residual_std=stats["std"],
        )
        for name in ("lookback", "window_len"):         # stored twice: both must agree
            if getattr(model, name) != getattr(config, name):
                raise InputError(f"{name} {getattr(model, name)!r} disagrees with "
                                 f"config.{name} {getattr(config, name)!r}")
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed model document: {exc}") from exc
    return model, config
