import numpy as np
import numpy.testing as npt
import pytest

import floodwatch as fw
from floodwatch.detector import (
    DetectionReport,
    DetectorModel,
    WindowScore,
    calibrate_threshold,
    detect,
    evaluate,
    fit,
    read_report_csv,
    score,
    write_report_csv,
)
from floodwatch.dbn import DbnModel, transform
from floodwatch.errors import InputError
from floodwatch.lstm import PARAM_FIELDS, LstmModel, init_lstm
from floodwatch.rbm import RbmKind, RbmParams
from floodwatch.traffic import (
    AttackInterval,
    AttackKind,
    Normalizer,
    Scenario,
    feature_matrix,
    generate_traffic,
    preprocess,
    preset_scenario,
    split_packets,
    windowize,
)
from oracles import naive_mean_std, packets_of


def one_per_window(count):
    """``count`` windows of one 100-byte TCP packet each."""
    return packets_of((t + 0.5, 1, 2, "TCP", 100, False) for t in range(count))


def constant_code_model(prediction_bias, lookback=10):
    """Zero-weight pipeline: every window's code is 0.5 in all 8 dims and
    the LSTM constantly predicts ``prediction_bias``."""
    layers = [
        RbmParams(kind=RbmKind.GAUSSIAN_BERNOULLI, weights=np.zeros((8, 16)),
                  visible_bias=np.zeros(8), hidden_bias=np.zeros(16)),
        RbmParams(kind=RbmKind.BERNOULLI_BERNOULLI, weights=np.zeros((16, 8)),
                  visible_bias=np.zeros(16), hidden_bias=np.zeros(8)),
    ]
    n, d = 4, 8
    lstm = LstmModel(input_dim=d, hidden_dim=n,
                     w_f=np.zeros((n, n + d)), w_i=np.zeros((n, n + d)),
                     w_c=np.zeros((n, n + d)), w_o=np.zeros((n, n + d)),
                     b_f=np.zeros(n), b_i=np.zeros(n), b_c=np.zeros(n),
                     b_o=np.zeros(n), w_y=np.zeros((d, n)),
                     b_y=np.full(d, prediction_bias))
    normalizer = Normalizer(feat_min=np.zeros(8), feat_max=np.ones(8),
                            unit_mean=np.zeros(8), unit_std=np.ones(8))
    return DetectorModel(normalizer=normalizer, dbn=DbnModel(layers=layers),
                         lstm=lstm, threshold=0.05, lookback=lookback,
                         window_len=1.0, residual_mean=0.0, residual_std=0.0)


def test_calibrate_threshold_degenerate():
    assert calibrate_threshold([1.0, 1.0, 1.0, 1.0], 3.0) == pytest.approx(
        1.0 + 3e-9, abs=1e-15)


def test_calibrate_threshold_population_std():
    assert calibrate_threshold([0.0, 2.0], 1.0) == pytest.approx(2.0, abs=1e-12)


def test_calibrate_threshold_matches_naive_oracle():
    rng = np.random.default_rng(8)
    residuals = list(rng.uniform(0, 2, 400))
    mean, std = naive_mean_std(residuals)
    assert calibrate_threshold(residuals, 3.0) == pytest.approx(
        mean + 3.0 * std, abs=1e-12)


def test_calibrate_threshold_scales_linearly():
    rng = np.random.default_rng(9)
    residuals = rng.uniform(0.5, 1.5, 200)
    base = calibrate_threshold(residuals, 2.0)
    assert calibrate_threshold(residuals * 3.0, 2.0) == pytest.approx(
        3.0 * base, rel=1e-12)


def test_score_zero_residual_when_prediction_matches():
    model = constant_code_model(0.5)
    packets = one_per_window(15)
    scores = score(model, packets)
    assert [idx for idx, _ in scores] == list(range(10, 15))
    for _, residual in scores:
        assert residual == pytest.approx(0.0, abs=1e-15)


def test_score_uniform_offset_gives_offset_residual():
    # prediction off by 0.1 in every code entry: RMS residual 0.1
    model = constant_code_model(0.6)
    packets = one_per_window(15)
    for _, residual in score(model, packets):
        assert residual == pytest.approx(0.1, abs=1e-12)


def test_score_requires_enough_windows():
    model = constant_code_model(0.5)
    # needs lookback+1 = 11 windows
    packets = one_per_window(10)
    with pytest.raises(InputError, match="11"):
        score(model, packets)


def test_detect_alarm_consistency():
    model = constant_code_model(0.6)  # residual 0.1 everywhere
    packets = one_per_window(15)
    report = detect(model, packets)
    assert report.alarm_count == len(report.scores)  # 0.1 > threshold 0.05
    for entry in report.scores:
        assert entry.alarm == (entry.residual > report.threshold)

    model.threshold = 0.5
    assert detect(model, packets).alarm_count == 0


def test_raising_threshold_never_adds_alarms():
    rng = np.random.default_rng(12)
    residuals = rng.uniform(0, 1, 50)
    counts = []
    for threshold in (0.1, 0.3, 0.5, 0.9):
        scores = [WindowScore(index=i + 10, residual=float(r), alarm=r > threshold)
                  for i, r in enumerate(residuals)]
        counts.append(sum(s.alarm for s in scores))
    assert counts == sorted(counts, reverse=True)


def test_evaluate_counts_and_rates():
    lookback = 10
    scores = []
    labels = [False] * lookback
    # 10 attack windows: 8 alarmed; 90 normal windows: 2 alarmed
    for i in range(100):
        attacked = i < 10
        alarmed = (i < 8) or (i in (20, 21))
        scores.append(WindowScore(index=lookback + i, residual=1.0 if alarmed else 0.0,
                                  alarm=alarmed))
        labels.append(attacked)
    metrics = evaluate(scores, labels)
    assert (metrics.true_positives, metrics.false_positives,
            metrics.false_negatives, metrics.true_negatives) == (8, 2, 2, 88)
    assert metrics.precision == pytest.approx(0.8)
    assert metrics.recall == pytest.approx(0.8)
    assert metrics.f1 == pytest.approx(0.8)
    assert metrics.false_positive_rate == pytest.approx(2 / 90)


def test_evaluate_perfect_report():
    scores = [WindowScore(index=10 + i, residual=float(i % 2), alarm=bool(i % 2))
              for i in range(20)]
    labels = [False] * 10 + [bool(i % 2) for i in range(20)]
    metrics = evaluate(scores, labels)
    assert metrics.precision == 1.0
    assert metrics.recall == 1.0
    assert metrics.f1 == 1.0
    assert metrics.false_positive_rate == 0.0


def test_evaluate_no_alarms_with_positives():
    scores = [WindowScore(index=10 + i, residual=0.0, alarm=False) for i in range(5)]
    labels = [False] * 10 + [True] * 5
    metrics = evaluate(scores, labels)
    assert metrics.recall == 0.0
    assert metrics.precision == 0.0
    assert metrics.f1 == 0.0


def test_evaluate_rejects_short_labels():
    scores = [WindowScore(index=10, residual=0.0, alarm=False)]
    with pytest.raises(InputError):
        evaluate(scores, [False] * 5)


def test_fit_requires_enough_windows():
    config = fw.RunConfig()
    scenario = Scenario(duration=8.0, baseline_rate=50.0)
    records, _ = generate_traffic(scenario, np.random.default_rng(0))
    train, valid = split_packets(records, 0.8, 1.0)
    with pytest.raises(InputError):
        fit(train, valid, config)


def test_fit_validation_residuals_stay_below_code_spread():
    # 600 s attack-free capture at defaults: the next-window predictor
    # must beat the trivial scale of the codes it predicts
    config = fw.RunConfig()
    records, _ = generate_traffic(preset_scenario("quiet"), np.random.default_rng(42))
    train, valid = split_packets(records, config.split, config.window_len)
    model, summary = fw.fit_detailed(train, valid, config)
    from floodwatch.detector import _codes
    codes = _codes(model.normalizer, model.dbn, windowize(train, config.window_len))
    assert model.residual_mean < float(np.std(codes))
    assert model.threshold >= model.residual_mean
    assert summary.threshold == model.threshold


def test_fit_summary_compares_lstm_with_mean_predictor():
    config = fw.RunConfig(dbn_sizes=[8, 8], rbm_epochs=10, lstm_epochs=30)
    records, _ = generate_traffic(Scenario(duration=60.0, baseline_rate=50.0),
                                  np.random.default_rng(3))
    train, valid = split_packets(records, config.split, config.window_len)
    model, summary = fw.fit_detailed(train, valid, config)
    from floodwatch.detector import _codes
    codes = _codes(model.normalizer, model.dbn, windowize(train, config.window_len))
    valid_codes = _codes(model.normalizer, model.dbn, windowize(valid, config.window_len))
    naive = [np.sqrt(np.mean((code - codes.mean(axis=0)) ** 2))
             for code in valid_codes[config.lookback:]]
    assert summary.mean_predictor_residual == pytest.approx(np.mean(naive), rel=1e-12)
    assert 1 <= summary.lstm_epochs_run <= config.lstm_epochs
    doc = summary.to_dict()
    assert doc["lstm_epochs_run"] == summary.lstm_epochs_run
    assert doc["mean_predictor_residual"] == summary.mean_predictor_residual


def test_lstm_readout_starts_at_mean_training_code():
    # untrained (0 epochs): b_y is the mean training code and every other
    # parameter is init_lstm's draw from the LSTM's own seed stream
    config = fw.RunConfig(dbn_sizes=[8, 8], rbm_epochs=10, lstm_epochs=0)
    records, _ = generate_traffic(Scenario(duration=60.0, baseline_rate=50.0),
                                  np.random.default_rng(3))
    train, valid = split_packets(records, config.split, config.window_len)
    model, summary = fw.fit_detailed(train, valid, config)
    assert summary.lstm_epochs_run == 0
    from floodwatch.detector import _codes
    codes = _codes(model.normalizer, model.dbn, windowize(train, config.window_len))
    npt.assert_array_equal(model.lstm.b_y, codes.mean(axis=0))
    seed_lstm = np.random.SeedSequence(config.seed).spawn(3)[2]
    drawn = init_lstm(model.dbn.code_dim, config.lstm_hidden,
                      np.random.default_rng(seed_lstm))
    for name in PARAM_FIELDS:
        if name != "b_y":
            npt.assert_array_equal(getattr(model.lstm, name), getattr(drawn, name))


def test_window_far_outside_training_range_scores_finite():
    # features are no longer clamped to the training range: a window at
    # 1000x the training rate must still give finite codes and residuals
    config = fw.RunConfig(dbn_sizes=[8, 8], rbm_epochs=10, lstm_epochs=10)
    records, _ = generate_traffic(Scenario(duration=60.0, baseline_rate=50.0),
                                  np.random.default_rng(4))
    model = fit(*split_packets(records, config.split, config.window_len), config)
    flood = AttackInterval(start=20.0, end=21.0, kind=AttackKind.UDP_FLOOD,
                           multiplier=1000.0, source_pool=5000)
    test_records, labels = generate_traffic(
        Scenario(duration=30.0, baseline_rate=50.0, attacks=[flood]),
        np.random.default_rng(5))
    assert labels[20]
    features = feature_matrix(windowize(test_records, config.window_len))
    inputs = preprocess(model.normalizer, features)
    assert np.abs(inputs[20]).max() > 100    # far outside the training range
    codes = transform(model.dbn, inputs)
    assert np.isfinite(codes).all()
    residuals = [residual for _, residual in score(model, test_records)]
    assert np.isfinite(residuals).all()


def test_report_round_trip(tmp_path):
    model = constant_code_model(0.6)
    packets = one_per_window(15)
    report = detect(model, packets)
    path = tmp_path / "report.csv"
    write_report_csv(path, report)
    again = read_report_csv(path)
    assert [(s.index, s.residual, s.alarm) for s in again] == \
        [(s.index, s.residual, s.alarm) for s in report.scores]


def test_report_row_count_equals_scored_windows():
    model = constant_code_model(0.5)
    packets = one_per_window(25)
    report = detect(model, packets)
    assert len(report.scores) == 25 - model.lookback


@pytest.fixture(scope="module")
def quickstart_captures():
    """The README Quickstart captures: quiet seed 42 split for training,
    syn10 seed 0 (a SYN flood over windows 270-299) with its labels."""
    config = fw.RunConfig()
    quiet, _ = generate_traffic(preset_scenario("quiet"), np.random.default_rng(42))
    test, labels = generate_traffic(preset_scenario("syn10"), np.random.default_rng(0))
    return split_packets(quiet, config.split, config.window_len), test, labels


def test_default_config_detects_syn_flood(quickstart_captures):
    (train, valid), test, labels = quickstart_captures
    model = fit(train, valid, fw.RunConfig())
    metrics = evaluate(detect(model, test), labels)
    assert metrics.recall >= 0.9
    assert metrics.false_positive_rate <= 0.05


def test_quickstart_result_is_pinned(quickstart_captures):
    # threshold and alarm column of the README Quickstart; the same under
    # one and two BLAS threads
    (train, valid), test, _ = quickstart_captures
    model = fit(train, valid, fw.RunConfig(dbn_sizes=[8, 8]))
    assert model.threshold == pytest.approx(0.46276347377856347, rel=1e-9)
    report = detect(model, test)
    assert [s.index for s in report.scores if s.alarm] == list(range(270, 300))
