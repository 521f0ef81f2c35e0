"""DDoS detection from windowed traffic features.

A deep belief network (stacked restricted Boltzmann machines, Gaussian
visible units in the first layer) compresses 8-dimensional per-window
traffic features into short codes; an LSTM learns to predict the next
window's code from recent history; windows whose prediction residual
exceeds a calibrated mean + k*sigma threshold are flagged as attacks.
"""

import importlib

# Each public name and the module that defines it. A name is imported on
# first use (PEP 562), so ``import floodwatch`` loads no numpy until a
# numeric name is asked for.
_MODULES = {
    "config": ("RunConfig", "load_config"),
    "dbn": ("DbnModel", "new_dbn", "pretrain", "transform"),
    "detector": ("DetectorModel", "FitSummary", "calibrate_threshold", "detect", "fit",
                 "fit_detailed", "score"),
    "errors": ("InputError", "NumericError"),
    "lstm": ("LstmModel", "LstmState", "TrainConfig", "cell_forward", "grad_check",
             "init_lstm", "loss_mse", "sequence_forward", "train_lstm"),
    "model_io": ("SCHEMA_VERSION", "load_model", "save_model"),
    "rbm": ("CdConfig", "RbmKind", "RbmParams", "cd1_step", "energy_bernoulli",
            "energy_gaussian", "hidden_given_visible", "init_rbm", "sample_binary",
            "train_rbm", "visible_given_hidden"),
    "report": ("DetectionReport", "Metrics", "WindowScore", "evaluate"),
    "traffic": ("FEATURE_NAMES", "AttackInterval", "AttackKind", "Normalizer", "Packets",
                "Scenario", "fit_normalizer", "generate_traffic", "normalize",
                "parse_packets", "preprocess", "preset_scenario", "standardize", "windowize"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
