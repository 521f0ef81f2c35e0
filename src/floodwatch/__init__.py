"""DDoS detection from windowed traffic features.

A deep belief network (stacked restricted Boltzmann machines, Gaussian
visible units in the first layer) compresses 8-dimensional per-window
traffic features into short codes; an LSTM learns to predict the next
window's code from recent history; windows whose prediction residual
exceeds a calibrated mean + k*sigma threshold are flagged as attacks.
"""

import importlib

# Each public name and the module that defines it: the functions that take
# input from outside the program, each of which checks it, and the types
# that build their arguments. Every other name is internal and trusts its
# callers. A name is imported on first use (PEP 562), so ``import
# floodwatch`` loads no numpy until a numeric name is asked for.
_MODULES = {
    "config": ("RunConfig",),
    "detector": ("detect", "fit", "fit_detailed"),
    "errors": ("InputError", "NumericError"),
    "model_io": ("load_model", "save_model"),
    "report": ("evaluate",),
    "traffic": ("AttackInterval", "AttackKind", "Packets", "Scenario", "generate_traffic",
                "parse_packets", "preset_scenario", "split_packets", "windowize"),
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
