"""Run configuration: every tunable of the detection pipeline in one place."""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
import stat
from dataclasses import asdict, dataclass, field, fields

from .errors import InputError

# The built-in scenarios of traffic.preset_scenario, named here so that the
# command line can list them without importing numpy.
PRESET_NAMES = ("quiet", "syn10", "mixed")


def require_int(name: str, value) -> int:
    """``value`` as an int; bools and non-integral numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_real(name: str, value) -> float:
    """``value`` as a float; bools, NaN and infinities are rejected."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise InputError(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass
class RunConfig:
    """Defaults reproduce the stock pipeline; override via JSON config."""

    window_len: float = 1.0
    dbn_sizes: list[int] = field(default_factory=lambda: [8, 8])
    lstm_hidden: int = 32
    lookback: int = 10
    k_sigma: float = 3.0
    rbm_epochs: int = 100
    rbm_learning_rate: float = 0.05
    rbm_batch_size: int = 32
    lstm_epochs: int = 200
    lstm_learning_rate: float = 0.01
    gradient_clip: float = 5.0
    seed: int = 42
    split: float = 0.8

    def __post_init__(self):
        # annotations are strings here (postponed evaluation)
        checks = {"int": require_int, "float": require_real}
        for spec in fields(self):
            if spec.type in checks:
                setattr(self, spec.name, checks[spec.type](spec.name, getattr(self, spec.name)))
        if not isinstance(self.dbn_sizes, list):
            raise InputError("dbn_sizes must be a list of integers")
        self.dbn_sizes = [require_int("dbn_sizes", s) for s in self.dbn_sizes]
        if self.window_len <= 0:
            raise InputError("window_len must be positive")
        if len(self.dbn_sizes) < 2 or min(self.dbn_sizes) < 1:
            raise InputError("dbn_sizes needs at least two positive integers")
        if self.lstm_hidden < 1:
            raise InputError("lstm_hidden must be >= 1")
        if self.lookback < 1:
            raise InputError("lookback must be >= 1")
        if self.k_sigma < 0:
            raise InputError("k_sigma must be >= 0")
        if self.rbm_epochs < 0 or self.lstm_epochs < 0:
            raise InputError("epoch counts must be >= 0")
        if self.rbm_learning_rate <= 0 or self.lstm_learning_rate <= 0:
            raise InputError("learning rates must be positive")
        if self.rbm_batch_size < 1:
            raise InputError("rbm_batch_size must be >= 1")
        if self.gradient_clip <= 0:
            raise InputError("gradient_clip must be positive")
        if not 0.0 < self.split < 1.0:
            raise InputError("split must lie strictly between 0 and 1")
        if self.seed < 0:
            raise InputError("seed must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise InputError("config document must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise InputError(f"bad config document: {exc}") from exc


@contextlib.contextmanager
def utf8_errors(path):
    """Bytes read from ``path`` that are not UTF-8 (a UnicodeDecodeError
    within) raise InputError naming the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason} "
                         f"(byte 0x{exc.object[exc.start]:02x})") from None


@contextlib.contextmanager
def open_text(path):
    """``path`` open for reading as UTF-8 text with line ends kept as
    they are (as the csv module needs); bytes that are not UTF-8 raise
    InputError naming the file."""
    with open(path, "r", encoding="utf-8", newline="") as handle, utf8_errors(path):
        yield handle


def _temporary(path) -> str | None:
    """A new empty file to be renamed onto ``path``, in its directory, with
    the mode that open(path, "w") would leave: that of the file there, or
    0o666 under the umask. None if ``path`` names something other than a
    regular file, such as /dev/null, which is then written in place."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        return None
    directory, name = os.path.split(path)
    while True:
        temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            os.close(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            break
        except FileExistsError:
            continue
        except OSError as exc:                  # named by the path asked for
            raise type(exc)(exc.errno, exc.strerror, path) from None
    if mode is not None:
        os.chmod(temp, stat.S_IMODE(mode))
    return temp


@contextlib.contextmanager
def replacing(*paths):
    """The paths to write ``paths`` through, yielded as a list: a new
    temporary file beside each (see _temporary). When the block ends
    without an error, each is renamed onto its path with os.replace, so a
    reader finds the old file or the whole new one and the paths change
    together; on an error they are removed, and the paths keep their
    bytes. A symbolic link is followed, as open follows it."""
    targets = [os.path.realpath(path) for path in paths]
    temps = []
    try:
        for target in targets:
            temps.append(_temporary(target))
        yield [temp or target for temp, target in zip(temps, targets)]
        for index, (temp, target) in enumerate(zip(temps, targets)):
            if temp is not None:
                os.replace(temp, target)
                temps[index] = None
    finally:
        for temp in temps:
            if temp is not None:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(temp)


def load_json(path):
    """The JSON document in ``path``; InputError if it is not UTF-8 JSON."""
    with open_text(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: not valid JSON: {exc}") from exc


def load_config(path) -> RunConfig:
    return RunConfig.from_dict(load_json(path))
