"""Flood detection pipeline: features -> codes -> prediction residuals.

Training (attack-free traffic only): windowize and featurize, fit the
normalizer, pretrain the belief network, compress every window to a
code, then train the LSTM, its readout bias started at the mean code, to
predict each window's code from the L preceding ones. A held-out clean
split supplies residuals whose mean and standard deviation calibrate the
alarm threshold mu + k*sigma.

Detection: for every window t >= L, feed codes t-L..t-1 through the
LSTM from a zero state and compare the final prediction with the actual
code of window t. The residual is the root-mean-square error across
code dimensions; residual > threshold raises the alarm. The first L
windows have no full history and are left unscored.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .config import RunConfig
from .dbn import DbnModel, new_dbn, pretrain, transform
from .errors import InputError, NumericError
from .lstm import LstmModel, TrainConfig, init_lstm, predict_sequence_batch, train_lstm
from .rbm import CdConfig
# the report types and their CSV files live in the numpy-free report
# module; they are re-exported here, where the pipeline makes them
from .report import (  # noqa: F401
    DetectionReport,
    WindowScore,
    evaluate,
    read_report_csv,
    write_report_csv,
)
from .traffic import (
    Normalizer,
    Packets,
    Windows,
    feature_matrix,
    fit_normalizer,
    preprocess,
    windowize,
)

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


@dataclass
class FitSummary:
    """Training diagnostics surfaced by the CLI; a stage trained for zero
    epochs reports None (JSON null) as its final value.

    ``lstm_epochs_run`` counts the epochs the LSTM trained before its loss
    plateaued or the cap was reached. ``mean_predictor_residual`` is the
    mean RMS residual, over the same validation windows as
    ``residual_mean``, of always predicting the per-dimension mean of the
    training codes: the baseline the LSTM has to beat.
    """

    rbm_final_errors: list[float | None]
    lstm_final_loss: float | None
    lstm_epochs_run: int
    residual_mean: float
    mean_predictor_residual: float
    residual_std: float
    threshold: float
    train_windows: int
    valid_windows: int

    def to_dict(self) -> dict:
        return asdict(self)


def _codes(normalizer: Normalizer, dbn: DbnModel, windows: Windows) -> np.ndarray:
    return transform(dbn, preprocess(normalizer, feature_matrix(windows)))


def _residuals(lstm: LstmModel, codes: np.ndarray, lookback: int) -> np.ndarray:
    """RMS one-step-ahead prediction error for every window >= lookback.

    Each window starts from a zero LSTM state so scores are independent
    of each other and of traffic-file boundaries. A non-finite residual
    is a NumericError naming its window.
    """
    n = codes.shape[0]
    if n < lookback + 1:
        raise InputError(
            f"need at least {lookback + 1} windows to score with lookback "
            f"{lookback}, got {n}"
        )
    # window i is codes[i:i + lookback], as a view: (n - lookback, lookback, k)
    batch = np.lib.stride_tricks.sliding_window_view(codes[:-1], lookback, axis=0)
    batch = batch.transpose(0, 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        errors = predict_sequence_batch(lstm, batch) - codes[lookback:]
        residuals = np.sqrt(np.mean(errors ** 2, axis=1))
    finite = np.isfinite(residuals)
    if not finite.all():
        raise NumericError(f"window {lookback + int(np.argmin(finite))}: non-finite residual")
    return residuals


def fit_detailed(train_packets: Packets, valid_packets: Packets,
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
                         batch_size=config.rbm_batch_size)
    dbn, traces = pretrain(dbn, inputs, cd_config, np.random.default_rng(seed_pretrain))
    codes = transform(dbn, inputs)
    code_mean = codes.mean(axis=0)

    # The readout starts at the mean code, the best constant predictor,
    # which is where training on attack-free traffic ends up anyway.
    lstm = init_lstm(dbn.code_dim, config.lstm_hidden,
                     np.random.default_rng(seed_lstm))
    lstm.b_y = code_mean
    pairs = [(codes[i:i + lookback], codes[i + 1:i + lookback + 1])
             for i in range(codes.shape[0] - lookback)]
    train_config = TrainConfig(learning_rate=config.lstm_learning_rate,
                               epochs=config.lstm_epochs,
                               gradient_clip=config.gradient_clip)
    lstm, loss_trace = train_lstm(lstm, pairs, train_config)

    valid_codes = _codes(normalizer, dbn, valid_windows)
    residuals = _residuals(lstm, valid_codes, lookback)
    mean = float(np.mean(residuals))
    std = float(np.std(residuals))
    threshold = calibrate_threshold(residuals, config.k_sigma)
    mean_errors = valid_codes[lookback:] - code_mean
    mean_predictor = float(np.mean(np.sqrt(np.mean(mean_errors ** 2, axis=1))))

    model = DetectorModel(normalizer=normalizer, dbn=dbn, lstm=lstm,
                          threshold=threshold, lookback=lookback,
                          window_len=config.window_len,
                          residual_mean=mean, residual_std=std)
    summary = FitSummary(
        rbm_final_errors=[float(trace[-1]) if len(trace) else None for trace in traces],
        lstm_final_loss=float(loss_trace[-1]) if len(loss_trace) else None,
        lstm_epochs_run=len(loss_trace),
        residual_mean=mean, mean_predictor_residual=mean_predictor,
        residual_std=std, threshold=threshold,
        train_windows=len(train_windows), valid_windows=len(valid_windows),
    )
    return model, summary


def fit(train_packets: Packets, valid_packets: Packets,
        config: RunConfig) -> DetectorModel:
    """Train the full pipeline on attack-free traffic.

    Both captures must span at least lookback+1 windows; the validation
    capture supplies the residuals that calibrate the threshold.
    Deterministic given config.seed.
    """
    return fit_detailed(train_packets, valid_packets, config)[0]


def score(model: DetectorModel, packets: Packets) -> list[tuple[int, float]]:
    """Prediction residual per window, for windows lookback onward."""
    codes = _codes(model.normalizer, model.dbn, windowize(packets, model.window_len))
    residuals = _residuals(model.lstm, codes, model.lookback)
    return [(model.lookback + i, float(r)) for i, r in enumerate(residuals)]


def calibrate_threshold(residuals, k: float) -> float:
    """mean + k * std over clean-traffic residuals, population std with a
    1e-9 floor so a degenerate (constant) calibration set still yields a
    threshold strictly above its residuals."""
    residuals = np.asarray(residuals, dtype=np.float64)
    return float(np.mean(residuals) + k * max(float(np.std(residuals)), SIGMA_FLOOR))


def detect(model: DetectorModel, packets: Packets) -> DetectionReport:
    scores = [WindowScore(index=index, residual=residual,
                          alarm=residual > model.threshold)
              for index, residual in score(model, packets)]
    return DetectionReport(scores=scores, threshold=model.threshold)
