"""Flood detection pipeline: features -> codes -> prediction residuals.

Training (attack-free traffic only): windowize and featurize, fit the
normalizer, pretrain the belief network, compress every window to a
code, then train the LSTM to predict each window's code from the L
preceding ones. A held-out clean split supplies residuals whose mean
and standard deviation calibrate the alarm threshold mu + k*sigma.

Detection: for every window t >= L, feed codes t-L..t-1 through the
LSTM from a zero state and compare the final prediction with the actual
code of window t. The residual is the root-mean-square error across
code dimensions; residual > threshold raises the alarm. The first L
windows have no full history and are left unscored.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, require_int, require_real
from .dbn import DbnModel, new_dbn, pretrain, transform
from .errors import InputError
from .lstm import LstmModel, TrainConfig, init_lstm, predict_sequence_batch, train_lstm
from .rbm import CdConfig
from .traffic import Normalizer, feature_matrix, fit_normalizer, preprocess, windowize

REPORT_CSV_HEADER = ["window_index", "residual", "alarm"]
SIGMA_FLOOR = 1e-9


@dataclass
class DetectorModel:
    """Everything needed to score unseen traffic."""

    normalizer: Normalizer
    dbn: DbnModel
    lstm: LstmModel
    threshold: float
    lookback: int
    window_len: float
    residual_mean: float
    residual_std: float

    def __post_init__(self):
        self.lookback = require_int("lookback", self.lookback)
        for name in ("window_len", "threshold", "residual_mean", "residual_std"):
            setattr(self, name, require_real(name, getattr(self, name)))
        if self.lookback < 1:
            raise InputError("lookback must be >= 1")
        if self.window_len <= 0:
            raise InputError("window_len must be positive")
        if self.threshold < 0:
            raise InputError("threshold must be non-negative")
        if self.dbn.code_dim != self.lstm.input_dim:
            raise InputError(
                f"code dimension {self.dbn.code_dim} does not match "
                f"LSTM input dimension {self.lstm.input_dim}"
            )


@dataclass
class WindowScore:
    index: int
    residual: float
    alarm: bool


@dataclass
class DetectionReport:
    """Scored windows (index >= lookback only) plus the threshold used."""

    scores: list[WindowScore]
    threshold: float
    lookback: int
    window_len: float

    @property
    def alarm_count(self) -> int:
        return sum(s.alarm for s in self.scores)


@dataclass
class Metrics:
    """Alarm/label confusion counts and the usual derived rates.

    Ratios with an empty denominator (no alarms, no positive labels, no
    negative labels) are reported as 0 so every field is always present.
    """

    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int
    precision: float
    recall: float
    f1: float
    false_positive_rate: float

    def to_dict(self) -> dict:
        return {
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "false_negatives": self.false_negatives,
            "true_negatives": self.true_negatives,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "false_positive_rate": self.false_positive_rate,
        }


@dataclass
class FitSummary:
    """Training diagnostics surfaced by the CLI; a stage trained for zero
    epochs reports None (JSON null) as its final value."""

    rbm_final_errors: list[float | None]
    lstm_final_loss: float | None
    residual_mean: float
    residual_std: float
    threshold: float
    train_windows: int
    valid_windows: int

    def to_dict(self) -> dict:
        return {
            "rbm_final_errors": self.rbm_final_errors,
            "lstm_final_loss": self.lstm_final_loss,
            "residual_mean": self.residual_mean,
            "residual_std": self.residual_std,
            "threshold": self.threshold,
            "train_windows": self.train_windows,
            "valid_windows": self.valid_windows,
        }


def _codes(normalizer: Normalizer, dbn: DbnModel, packets,
           window_len: float) -> np.ndarray:
    windows = windowize(packets, window_len)
    return transform(dbn, preprocess(normalizer, feature_matrix(windows)))


def _residuals(lstm: LstmModel, codes: np.ndarray, lookback: int) -> np.ndarray:
    """RMS one-step-ahead prediction error for every window >= lookback.

    Each window starts from a zero LSTM state so scores are independent
    of each other and of traffic-file boundaries.
    """
    n = codes.shape[0]
    if n < lookback + 1:
        raise InputError(
            f"need at least {lookback + 1} windows to score with lookback "
            f"{lookback}, got {n}"
        )
    batch = np.stack([codes[i:i + lookback] for i in range(n - lookback)])
    errors = predict_sequence_batch(lstm, batch) - codes[lookback:]
    return np.sqrt(np.mean(errors ** 2, axis=1))


def fit_detailed(train_packets, valid_packets,
                 config: RunConfig) -> tuple[DetectorModel, FitSummary]:
    """fit() plus training diagnostics for reporting."""
    lookback = config.lookback
    train_windows = windowize(train_packets, config.window_len)
    valid_windows = windowize(valid_packets, config.window_len)
    minimum = lookback + 1
    if len(train_windows) < minimum:
        raise InputError(
            f"training traffic spans {len(train_windows)} windows; "
            f"need at least {minimum} for lookback {lookback}"
        )
    if len(valid_windows) < minimum:
        raise InputError(
            f"validation traffic spans {len(valid_windows)} windows; "
            f"need at least {minimum} for lookback {lookback}"
        )

    features = feature_matrix(train_windows)
    if config.dbn_sizes[0] != features.shape[1]:
        raise InputError(
            f"dbn_sizes[0] must equal the feature dimension "
            f"{features.shape[1]}, got {config.dbn_sizes[0]}"
        )
    normalizer = fit_normalizer(features)
    inputs = preprocess(normalizer, features)

    # Independent sub-streams so changing one stage's draws cannot shift
    # another stage's initialization.
    seed_init, seed_pretrain, seed_lstm = np.random.SeedSequence(config.seed).spawn(3)

    dbn = new_dbn(config.dbn_sizes, np.random.default_rng(seed_init))
    cd_config = CdConfig(learning_rate=config.rbm_learning_rate,
                         epochs=config.rbm_epochs,
                         batch_size=config.rbm_batch_size,
                         rng_seed=config.seed)
    dbn, traces = pretrain(dbn, inputs, cd_config,
                           rng=np.random.default_rng(seed_pretrain))
    codes = transform(dbn, inputs)

    lstm = init_lstm(dbn.code_dim, config.lstm_hidden,
                     np.random.default_rng(seed_lstm))
    pairs = [(codes[i:i + lookback], codes[i + 1:i + lookback + 1])
             for i in range(codes.shape[0] - lookback)]
    train_config = TrainConfig(learning_rate=config.lstm_learning_rate,
                               epochs=config.lstm_epochs,
                               gradient_clip=config.gradient_clip)
    lstm, loss_trace = train_lstm(lstm, pairs, train_config)

    valid_codes = _codes(normalizer, dbn, valid_packets, config.window_len)
    residuals = _residuals(lstm, valid_codes, lookback)
    mean = float(np.mean(residuals))
    std = float(np.std(residuals))
    threshold = calibrate_threshold(residuals, config.k_sigma)

    model = DetectorModel(normalizer=normalizer, dbn=dbn, lstm=lstm,
                          threshold=threshold, lookback=lookback,
                          window_len=config.window_len,
                          residual_mean=mean, residual_std=std)
    summary = FitSummary(
        rbm_final_errors=[float(trace[-1]) if len(trace) else None for trace in traces],
        lstm_final_loss=float(loss_trace[-1]) if len(loss_trace) else None,
        residual_mean=mean, residual_std=std, threshold=threshold,
        train_windows=len(train_windows), valid_windows=len(valid_windows),
    )
    return model, summary


def fit(train_packets, valid_packets, config: RunConfig) -> DetectorModel:
    """Train the full pipeline on attack-free traffic.

    Both captures (Packets, or lists of PacketRecord) must span at least
    lookback+1 windows; the validation capture supplies the residuals
    that calibrate the threshold.
    Deterministic given config.seed.
    """
    return fit_detailed(train_packets, valid_packets, config)[0]


def score(model: DetectorModel, packets) -> list[tuple[int, float]]:
    """Prediction residual per window, for windows lookback onward."""
    codes = _codes(model.normalizer, model.dbn, packets, model.window_len)
    residuals = _residuals(model.lstm, codes, model.lookback)
    return [(model.lookback + i, float(r)) for i, r in enumerate(residuals)]


def calibrate_threshold(residuals, k: float) -> float:
    """mean + k * std over clean-traffic residuals, population std with a
    1e-9 floor so a degenerate (constant) calibration set still yields a
    threshold strictly above its residuals."""
    residuals = np.asarray(residuals, dtype=np.float64)
    if residuals.size == 0:
        raise InputError("cannot calibrate a threshold from zero residuals")
    return float(np.mean(residuals) + k * max(float(np.std(residuals)), SIGMA_FLOOR))


def detect(model: DetectorModel, packets) -> DetectionReport:
    scores = [WindowScore(index=index, residual=residual,
                          alarm=residual > model.threshold)
              for index, residual in score(model, packets)]
    return DetectionReport(scores=scores, threshold=model.threshold,
                           lookback=model.lookback, window_len=model.window_len)


def evaluate(report, labels) -> Metrics:
    """Confusion counts of alarms against per-window truth labels.

    ``report`` may be a DetectionReport or any iterable of WindowScore.
    ``labels`` must cover every scored window index.
    """
    scores = report.scores if isinstance(report, DetectionReport) else list(report)
    labels = [bool(x) for x in labels]
    tp = fp = fn = tn = 0
    for entry in scores:
        if not 0 <= entry.index < len(labels):
            raise InputError(
                f"scored window {entry.index} has no label; labels cover "
                f"0..{len(labels) - 1}"
            )
        truth = labels[entry.index]
        if entry.alarm and truth:
            tp += 1
        elif entry.alarm:
            fp += 1
        elif truth:
            fn += 1
        else:
            tn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    fpr = fp / (fp + tn) if fp + tn else 0.0
    return Metrics(true_positives=tp, false_positives=fp, false_negatives=fn,
                   true_negatives=tn, precision=precision, recall=recall,
                   f1=f1, false_positive_rate=fpr)


def write_report_csv(path, report: DetectionReport):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(REPORT_CSV_HEADER)
        for entry in report.scores:
            writer.writerow([entry.index, repr(entry.residual), int(entry.alarm)])


def read_report_csv(path) -> list[WindowScore]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != REPORT_CSV_HEADER:
            raise InputError(f"{path}: bad report header {header!r}")
        scores = []
        for number, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != 3 or row[2] not in ("0", "1"):
                    raise ValueError("expected index,residual,0/1")
                scores.append(WindowScore(index=int(row[0]),
                                          residual=float(row[1]),
                                          alarm=row[2] == "1"))
            except ValueError as exc:
                raise InputError(f"{path}: line {number}: {exc}") from None
    return scores
