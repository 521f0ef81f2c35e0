"""End-to-end acceptance checks.

Each test prints one pass/fail line (replayed in the terminal summary)
and pins the tolerance and runtime budget it was written against.
"""

import json
import time

import numpy as np
import numpy.testing as npt

import floodwatch as fw
from floodwatch.lstm import (
    LstmModel,
    TrainConfig,
    grad_check,
    gradcheck_instance,
    init_lstm,
    train_lstm,
)
from floodwatch.rbm import (
    CdConfig,
    RbmKind,
    RbmParams,
    energy_bernoulli,
    energy_gaussian,
    hidden_given_visible,
    init_rbm,
    train_rbm,
    visible_given_hidden,
)
from floodwatch.traffic import preset_scenario, split_packets
from oracles import (
    enum_hidden_conditional,
    enum_visible_conditional,
    lstm_run,
    naive_energy_bernoulli,
    naive_energy_gaussian,
)

FOUR_PATTERNS = np.array([
    [1, 1, 1, 0, 0, 0],
    [0, 0, 0, 1, 1, 1],
    [1, 0, 1, 0, 1, 0],
    [0, 1, 0, 1, 0, 1],
], dtype=np.float64)


def random_bernoulli_rbm(rng, num_visible, num_hidden, scale=1.5):
    return RbmParams(
        kind=RbmKind.BERNOULLI_BERNOULLI,
        weights=rng.normal(0.0, scale, (num_visible, num_hidden)),
        visible_bias=rng.normal(0.0, scale, num_visible),
        hidden_bias=rng.normal(0.0, scale, num_hidden),
    )


def test_criterion_1_conditionals_match_enumeration(criterion):
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        num_visible = int(rng.integers(1, 7))
        num_hidden = int(rng.integers(1, 7))
        params = random_bernoulli_rbm(rng, num_visible, num_hidden)
        v = rng.integers(0, 2, num_visible).astype(float)
        h = rng.integers(0, 2, num_hidden).astype(float)
        by_formula = hidden_given_visible(params, v)
        by_enum = enum_hidden_conditional(params.weights.tolist(),
                                          params.visible_bias.tolist(),
                                          params.hidden_bias.tolist(), v.tolist())
        worst = max(worst, float(np.max(np.abs(by_formula - np.array(by_enum)))))
        by_formula = visible_given_hidden(params, h)
        by_enum = enum_visible_conditional(params.weights.tolist(),
                                           params.visible_bias.tolist(),
                                           params.hidden_bias.tolist(), h.tolist())
        worst = max(worst, float(np.max(np.abs(by_formula - np.array(by_enum)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    criterion(1, "RBM conditionals equal exhaustive exp(-E)/Z enumeration",
              ok, f"max dev {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_2_energy_formulas_match_oracles(criterion):
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(99)
    for case in range(1000):
        if case % 2 == 0:
            params = random_bernoulli_rbm(rng, 3, 2)
            v = rng.integers(0, 2, 3).astype(float)
            h = rng.integers(0, 2, 2).astype(float)
            ours = energy_bernoulli(params, v, h)
            ref = naive_energy_bernoulli(params.weights.tolist(),
                                         params.visible_bias.tolist(),
                                         params.hidden_bias.tolist(),
                                         v.tolist(), h.tolist())
        else:
            params = RbmParams(kind=RbmKind.GAUSSIAN_BERNOULLI,
                               weights=rng.normal(0, 1.5, (4, 3)),
                               visible_bias=rng.normal(0, 1.5, 4),
                               hidden_bias=rng.normal(0, 1.5, 3))
            v = rng.normal(size=4)
            h = rng.integers(0, 2, 3).astype(float)
            ours = energy_gaussian(params, v, h)
            ref = naive_energy_gaussian(params.weights.tolist(),
                                        params.visible_bias.tolist(),
                                        params.hidden_bias.tolist(),
                                        v.tolist(), h.tolist())
        worst = max(worst, abs(ours - ref))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 5.0
    criterion(2, "energy functions equal naive-loop oracles",
              ok, f"max dev {worst:.2e} over 1000 cases, {elapsed:.1f}s")
    assert worst < 1e-12
    assert elapsed < 5.0


def test_criterion_3_cd1_halves_reconstruction_error(criterion):
    start = time.perf_counter()
    halved = 0
    ratios = []
    for seed in range(5):
        params = init_rbm(RbmKind.BERNOULLI_BERNOULLI, 6, 4,
                          np.random.default_rng(seed))
        config = CdConfig(learning_rate=0.05, epochs=200, batch_size=1)
        _, trace = train_rbm(params, FOUR_PATTERNS, config, np.random.default_rng(seed))
        ratios.append(float(trace[-1] / trace[0]))
        halved += ratios[-1] <= 0.5
    elapsed = time.perf_counter() - start
    ok = halved >= 3 and elapsed < 30.0
    criterion(3, "CD-1 halves reconstruction error on the 4-pattern dataset",
              ok, f"{halved}/5 seeds, ratios {[round(r, 2) for r in ratios]}, "
                  f"{elapsed:.1f}s")
    assert halved >= 3
    assert elapsed < 30.0


def test_criterion_4_bptt_matches_finite_differences(criterion):
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        model, xs, targets = gradcheck_instance(seed, input_dim=2,
                                                hidden_dim=3, steps=5)
        worst = max(worst, grad_check(model, xs, targets, eps=1e-5))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 10.0
    criterion(4, "LSTM gradients match central finite differences",
              ok, f"max rel err {worst:.2e} over 10 seeds, {elapsed:.1f}s")
    assert worst < 1e-5
    assert elapsed < 10.0


def test_criterion_5_closed_form_cell_values(criterion):
    zero = LstmModel(input_dim=2, hidden_dim=3,
                     w_f=np.zeros((3, 5)), w_i=np.zeros((3, 5)),
                     w_c=np.zeros((3, 5)), w_o=np.zeros((3, 5)),
                     b_f=np.zeros(3), b_i=np.zeros(3), b_c=np.zeros(3),
                     b_o=np.zeros(3), w_y=np.zeros((2, 3)), b_y=np.zeros(2))
    work = lstm_run(zero, [[1.0, -1.0]])
    zero_ok = np.array_equal(work.hidden[1, 0], np.zeros(3)) and \
        np.array_equal(work.cell[1, 0], np.zeros(3))

    single = LstmModel(input_dim=1, hidden_dim=1,
                       w_f=np.zeros((1, 2)), w_i=np.zeros((1, 2)),
                       w_c=np.zeros((1, 2)), w_o=np.zeros((1, 2)),
                       b_f=np.array([10.0]), b_i=np.zeros(1), b_c=np.zeros(1),
                       b_o=np.zeros(1), w_y=np.zeros((1, 1)), b_y=np.zeros(1))
    work = lstm_run(single, [[0.0]], hidden=0.0, cell=2.0)
    value = float(work.hidden[1, 0, 0])
    value_ok = abs(value - 0.48201) < 1e-4

    ok = zero_ok and value_ok
    criterion(5, "closed-form cell cases (zero model, saturated forget gate)",
              ok, f"h={value:.6f} vs 0.48201")
    assert zero_ok
    assert value_ok


def test_criterion_6_lstm_learns_sine_wave(criterion):
    start = time.perf_counter()
    wave = np.sin(2 * np.pi * np.arange(500) / 50.0)
    sequences = [(wave[i:i + 20].reshape(-1, 1), wave[i + 1:i + 21].reshape(-1, 1))
                 for i in range(480)]
    model = init_lstm(1, 16, np.random.default_rng(7))
    config = TrainConfig(learning_rate=0.01, epochs=200, gradient_clip=5.0)
    _, trace = train_lstm(model, sequences, config)
    elapsed = time.perf_counter() - start
    final = float(trace[-1])
    ok = final < 0.01 and elapsed < 60.0
    criterion(6, "LSTM regression reaches MSE < 0.01 on the sine task",
              ok, f"MSE {final:.5f}, {elapsed:.1f}s")
    assert final < 0.01
    assert elapsed < 60.0


def test_criterion_7_end_to_end_flood_detection(criterion):
    start = time.perf_counter()
    config = fw.RunConfig(dbn_sizes=[8, 8])
    train_records, _ = fw.generate_traffic(preset_scenario("quiet"),
                                           np.random.default_rng(42))
    train, valid = split_packets(train_records, config.split, config.window_len)
    model = fw.fit(train, valid, config)

    results = []
    passed = 0
    for seed in range(5):
        test_records, labels = fw.generate_traffic(preset_scenario("syn10"),
                                                   np.random.default_rng(seed))
        metrics = fw.evaluate(fw.detect(model, test_records), labels)
        good = metrics.recall >= 0.9 and metrics.false_positive_rate <= 0.05
        passed += good
        results.append((round(metrics.recall, 3),
                        round(metrics.false_positive_rate, 4)))
    elapsed = time.perf_counter() - start
    ok = passed >= 4 and elapsed < 180.0
    criterion(7, "flood detection: recall >= 0.9, FPR <= 0.05 on 4 of 5 seeds",
              ok, f"{passed}/5 seeds, (recall, fpr) {results}, {elapsed:.1f}s")
    assert passed >= 4
    assert elapsed < 180.0


def test_criterion_8_pipeline_is_byte_deterministic(criterion, tmp_path, run_cli):
    (tmp_path / "config.json").write_text(
        json.dumps(fw.RunConfig(dbn_sizes=[8, 8]).to_dict()))

    def pipeline(tag):
        for args in (
            ["gen", "--preset", "quiet", "--seed", "42",
             "--out", f"train{tag}.csv", "--labels", f"tl{tag}.csv"],
            ["gen", "--preset", "syn10", "--seed", "0",
             "--out", f"test{tag}.csv", "--labels", f"el{tag}.csv"],
            ["train", f"train{tag}.csv", "--config", "config.json",
             "--out", f"model{tag}.json"],
            ["detect", f"model{tag}.json", f"test{tag}.csv",
             "--out", f"report{tag}.csv"],
        ):
            proc = run_cli(args, tmp_path)
            assert proc.returncode == 0, proc.stderr

    pipeline("a")
    pipeline("b")
    model_same = (tmp_path / "modela.json").read_bytes() == \
        (tmp_path / "modelb.json").read_bytes()
    report_same = (tmp_path / "reporta.csv").read_bytes() == \
        (tmp_path / "reportb.csv").read_bytes()
    ok = model_same and report_same
    criterion(8, "gen/train/detect reruns are byte-identical",
              ok, f"model {model_same}, report {report_same}")
    assert model_same
    assert report_same


def test_criterion_9_persistence_round_trip(criterion, tmp_path):
    config = fw.RunConfig(rbm_epochs=10, lstm_epochs=10, dbn_sizes=[8, 6, 4])
    records, _ = fw.generate_traffic(fw.Scenario(duration=120.0, baseline_rate=60.0),
                                     np.random.default_rng(4))
    train, valid = split_packets(records, config.split, config.window_len)
    model = fw.fit(train, valid, config)
    path = tmp_path / "model.json"
    fw.save_model(path, model, config)
    loaded, loaded_config = fw.load_model(path)

    exact = loaded_config == config
    for layer_a, layer_b in zip(model.dbn.layers, loaded.dbn.layers):
        exact &= np.array_equal(layer_a.weights, layer_b.weights)
        exact &= np.array_equal(layer_a.visible_bias, layer_b.visible_bias)
        exact &= np.array_equal(layer_a.hidden_bias, layer_b.hidden_bias)
    for name in ("w_f", "w_i", "w_c", "w_o", "b_f", "b_i", "b_c", "b_o",
                 "w_y", "b_y"):
        exact &= np.array_equal(getattr(model.lstm, name),
                                getattr(loaded.lstm, name))
    exact &= loaded.threshold == model.threshold

    direct = fw.detect(model, records)
    reloaded = fw.detect(loaded, records)
    rows_equal = [(s.index, s.residual, s.alarm) for s in direct.scores] == \
        [(s.index, s.residual, s.alarm) for s in reloaded.scores]
    ok = bool(exact) and rows_equal
    criterion(9, "save/load is bit-exact and detect rows agree",
              ok, f"params exact {bool(exact)}, rows equal {rows_equal}")
    assert exact
    assert rows_equal


def test_criterion_10_detection_across_training_seeds(criterion):
    # criterion 7 trains on one quiet capture; detection must not hinge on it
    start = time.perf_counter()
    config = fw.RunConfig(dbn_sizes=[8, 8])
    test_records, labels = fw.generate_traffic(preset_scenario("syn10"),
                                               np.random.default_rng(0))
    results = []
    for seed in range(5):
        train_records, _ = fw.generate_traffic(preset_scenario("quiet"),
                                               np.random.default_rng(seed))
        model = fw.fit(*split_packets(train_records, config.split,
                                      config.window_len), config)
        metrics = fw.evaluate(fw.detect(model, test_records), labels)
        results.append((round(metrics.recall, 3),
                        round(metrics.false_positive_rate, 4)))
    elapsed = time.perf_counter() - start
    passed = sum(recall >= 0.9 and fpr <= 0.05 for recall, fpr in results)
    ok = passed == 5 and elapsed < 180.0
    criterion(10, "flood detection: recall >= 0.9, FPR <= 0.05 for training seeds 0-4",
              ok, f"{passed}/5 seeds, (recall, fpr) {results}, {elapsed:.1f}s")
    assert passed == 5
    assert elapsed < 180.0
