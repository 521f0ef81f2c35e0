import json

import numpy as np
import numpy.testing as npt
import pytest

import floodwatch as fw
from floodwatch.errors import InputError, NumericError
from floodwatch.lstm import PARAM_FIELDS
from floodwatch.model_io import SCHEMA_VERSION, load_model, save_model
from floodwatch.traffic import Scenario, generate_traffic, split_packets

SMALL_CONFIG = fw.RunConfig(rbm_epochs=5, lstm_epochs=5, dbn_sizes=[8, 6, 4])


def small_model():
    scenario = Scenario(duration=120.0, baseline_rate=60.0)
    records, _ = generate_traffic(scenario, np.random.default_rng(4))
    train, valid = split_packets(records, SMALL_CONFIG.split, SMALL_CONFIG.window_len)
    return fw.fit(train, valid, SMALL_CONFIG), records


def test_round_trip_reproduces_every_parameter(tmp_path):
    model, _ = small_model()
    path = tmp_path / "model.json"
    save_model(path, model, SMALL_CONFIG)
    loaded, config = load_model(path)

    assert config == SMALL_CONFIG
    for name in ("feat_min", "feat_max", "unit_mean", "unit_std"):
        npt.assert_array_equal(getattr(loaded.normalizer, name),
                               getattr(model.normalizer, name))
    assert len(loaded.dbn.layers) == len(model.dbn.layers)
    for la, lb in zip(loaded.dbn.layers, model.dbn.layers):
        assert la.kind is lb.kind
        npt.assert_array_equal(la.weights, lb.weights)
        npt.assert_array_equal(la.visible_bias, lb.visible_bias)
        npt.assert_array_equal(la.hidden_bias, lb.hidden_bias)
    for name in PARAM_FIELDS:
        npt.assert_array_equal(getattr(loaded.lstm, name),
                               getattr(model.lstm, name))
    assert loaded.threshold == model.threshold
    assert loaded.lookback == model.lookback
    assert loaded.window_len == model.window_len
    assert loaded.residual_mean == model.residual_mean
    assert loaded.residual_std == model.residual_std


def test_detect_from_loaded_model_matches_in_memory(tmp_path):
    model, records = small_model()
    path = tmp_path / "model.json"
    save_model(path, model, SMALL_CONFIG)
    loaded, _ = load_model(path)

    direct = fw.detect(model, records)
    reloaded = fw.detect(loaded, records)
    assert direct.threshold == reloaded.threshold
    assert [(s.index, s.residual, s.alarm) for s in direct.scores] == \
        [(s.index, s.residual, s.alarm) for s in reloaded.scores]


def test_save_is_byte_stable(tmp_path):
    model, _ = small_model()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(a, model, SMALL_CONFIG)
    save_model(b, model, SMALL_CONFIG)
    assert a.read_bytes() == b.read_bytes()


def test_fit_same_seed_gives_identical_model_files(tmp_path):
    model_a, _ = small_model()
    model_b, _ = small_model()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(a, model_a, SMALL_CONFIG)
    save_model(b, model_b, SMALL_CONFIG)
    assert a.read_bytes() == b.read_bytes()


def test_unknown_schema_version_rejected(tmp_path):
    model, _ = small_model()
    path = tmp_path / "model.json"
    save_model(path, model, SMALL_CONFIG)
    doc = json.loads(path.read_text())
    doc["schema_version"] = SCHEMA_VERSION + 1
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="schema"):
        load_model(path)


def test_missing_field_rejected(tmp_path):
    model, _ = small_model()
    path = tmp_path / "model.json"
    save_model(path, model, SMALL_CONFIG)
    doc = json.loads(path.read_text())
    del doc["lstm"]
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        load_model(path)


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("not json at all{{{")
    with pytest.raises(InputError):
        load_model(path)


def test_non_finite_statistics_never_reach_a_model_file(tmp_path):
    model, _ = small_model()
    model.threshold = float("inf")
    path = tmp_path / "model.json"
    with pytest.raises(NumericError):
        save_model(path, model, SMALL_CONFIG)
    assert not path.exists()


def test_config_dict_round_trip():
    config = fw.RunConfig(dbn_sizes=[8, 8], k_sigma=2.5, seed=7)
    assert fw.RunConfig.from_dict(config.to_dict()) == config
    with pytest.raises(InputError):
        fw.RunConfig.from_dict({"unknown_knob": 1})


def test_config_validation():
    with pytest.raises(InputError):
        fw.RunConfig(split=1.5)
    with pytest.raises(InputError):
        fw.RunConfig(dbn_sizes=[8])
    with pytest.raises(InputError):
        fw.RunConfig(window_len=0.0)
    for bad in ({"k_sigma": float("nan")}, {"window_len": float("inf")},
                {"lstm_hidden": 1.5}, {"lookback": 2.5}, {"lstm_epochs": 2.5},
                {"rbm_epochs": True}, {"dbn_sizes": [8, 8.5]}, {"seed": -1},
                {"split": "0.5"}, {"gradient_clip": 0}, {"rbm_learning_rate": 0},
                {"rbm_batch_size": 0}, {"lstm_epochs": -1}):
        with pytest.raises(InputError):
            fw.RunConfig.from_dict(bad)
