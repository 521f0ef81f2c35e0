import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import floodwatch as fw
from floodwatch import cli, model_io, packet_text, traffic
from floodwatch.detector import evaluate, read_report_csv
from floodwatch.model_io import load_model
from floodwatch.traffic import (
    Scenario,
    feature_matrix,
    generate_traffic,
    parse_packets,
    read_labels_csv,
    windowize,
    write_packets_csv,
)
from oracles import naive_parse_packets, packets_of

# Shallow compressor configuration recommended for detection runs (see
# README); full training epochs so detection-quality assertions hold.
DETECT_CONFIG = fw.RunConfig(dbn_sizes=[8, 8])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, run_cli):
    root = tmp_path_factory.mktemp("pipeline")
    (root / "config.json").write_text(json.dumps(DETECT_CONFIG.to_dict()))

    outputs = {}
    steps = {
        "gen_train": ["gen", "--preset", "quiet", "--seed", "42",
                      "--out", "train.csv", "--labels", "train_labels.csv"],
        "gen_test": ["gen", "--preset", "syn10", "--seed", "0",
                     "--out", "test.csv", "--labels", "test_labels.csv"],
        "featurize": ["featurize", "train.csv", "--out", "features.csv"],
        "train": ["train", "train.csv", "--config", "config.json",
                  "--out", "model.json"],
        "detect": ["detect", "model.json", "test.csv", "--out", "report.csv"],
        "detect_train": ["detect", "model.json", "train.csv",
                         "--out", "train_report.csv"],
        "eval": ["eval", "report.csv", "test_labels.csv"],
    }
    for name, args in steps.items():
        proc = run_cli(args, root)
        assert proc.returncode == 0, f"{name} failed: {proc.stderr}"
        outputs[name] = json.loads(proc.stdout)
    return root, outputs


def test_gen_quiet_has_no_attack_windows(workspace):
    root, outputs = workspace
    assert outputs["gen_train"]["attack_windows"] == 0
    assert not any(read_labels_csv(root / "train_labels.csv"))


def test_gen_syn10_labels_attack_interval(workspace):
    root, outputs = workspace
    assert outputs["gen_test"]["attack_windows"] == 30
    labels = read_labels_csv(root / "test_labels.csv")
    assert sum(labels) == 30 and all(labels[270:300])


def test_gen_deterministic_bytes(workspace, run_cli):
    root, _ = workspace
    proc = run_cli(["gen", "--preset", "quiet", "--seed", "42",
                    "--out", "again.csv", "--labels", "again_labels.csv"], root)
    assert proc.returncode == 0, proc.stderr
    assert (root / "again.csv").read_bytes() == (root / "train.csv").read_bytes()
    assert (root / "again_labels.csv").read_bytes() == \
        (root / "train_labels.csv").read_bytes()


def test_featurize_covers_every_window(workspace):
    root, outputs = workspace
    assert outputs["featurize"]["windows"] == 600
    lines = (root / "features.csv").read_text().splitlines()
    assert lines[0].startswith("window_index,packet_count,")
    assert len(lines) == 601


def test_train_summary_reports_split_and_threshold(workspace):
    _, outputs = workspace
    summary = outputs["train"]
    assert summary["train_windows"] == 480
    assert summary["valid_windows"] == 120
    assert summary["threshold"] > summary["residual_mean"] > 0.0
    assert len(summary["rbm_final_errors"]) == 1


def test_train_summary_reports_what_the_lstm_did(workspace):
    # the Quickstart LSTM stops at its loss plateau, well before the cap,
    # and its residual is compared with always predicting the mean code
    _, outputs = workspace
    summary = outputs["train"]
    assert 0 < summary["lstm_epochs_run"] < DETECT_CONFIG.lstm_epochs
    assert summary["mean_predictor_residual"] > 0.0


def test_train_is_byte_idempotent(workspace, run_cli):
    root, _ = workspace
    proc = run_cli(["train", "train.csv", "--config", "config.json",
                    "--out", "model2.json"], root)
    assert proc.returncode == 0, proc.stderr
    assert (root / "model2.json").read_bytes() == (root / "model.json").read_bytes()


def test_detect_scores_all_windows_past_lookback(workspace):
    root, outputs = workspace
    assert outputs["detect"]["scored_windows"] == 290
    lines = (root / "report.csv").read_text().splitlines()
    assert lines[0] == "window_index,residual,alarm"
    assert len(lines) == 291


def test_detect_on_training_traffic_is_quiet(workspace):
    # threshold calibrated at 3 sigma: the attack-free training capture
    # must alarm on at most 5% of its own windows
    _, outputs = workspace
    scored = outputs["detect_train"]
    assert scored["alarms"] / scored["scored_windows"] <= 0.05


def test_eval_matches_library_evaluate(workspace):
    root, outputs = workspace
    scores = read_report_csv(root / "report.csv")
    labels = read_labels_csv(root / "test_labels.csv")
    expected = evaluate(scores, labels).to_dict()
    assert outputs["eval"] == expected


def test_usage_errors_exit_1(tmp_path, capsys):
    assert cli.main([]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["gen", "--preset", "quiet"]) == 1  # missing --out/--labels
    assert cli.main(["gen", "--preset", "nope", "--out", "a", "--labels", "b"]) == 1
    assert cli.main(["gen", "--preset", "quiet", "--seed", "-3",
                     "--out", "a", "--labels", "b"]) == 1
    capsys.readouterr()


def test_missing_input_file_exits_2(tmp_path, capsys):
    assert cli.main(["featurize", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "f.csv")]) == 2
    capsys.readouterr()


def test_bad_scenario_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps({"duration": -5.0, "baseline_rate": 10.0}))
    assert cli.main(["gen", "--scenario", str(bad), "--out",
                     str(tmp_path / "t.csv"), "--labels",
                     str(tmp_path / "l.csv")]) == 2
    bad.write_text("{broken")
    assert cli.main(["gen", "--scenario", str(bad), "--out",
                     str(tmp_path / "t.csv"), "--labels",
                     str(tmp_path / "l.csv")]) == 2
    # a NaN multiplier, one whose expected packet count is beyond the
    # limit, and a fractional source pool
    flood = {"start": 1.0, "end": 5.0, "kind": "syn_flood",
             "multiplier": 10.0, "source_pool": 50}
    for override in ({"multiplier": float("nan")}, {"multiplier": 1e300},
                     {"source_pool": 2.7}):
        bad.write_text(json.dumps({"duration": 10.0, "baseline_rate": 10.0,
                                   "attacks": [{**flood, **override}]}))
        assert cli.main(["gen", "--scenario", str(bad), "--out",
                         str(tmp_path / "t.csv"), "--labels",
                         str(tmp_path / "l.csv")]) == 2, override
        assert not (tmp_path / "t.csv").exists()
    capsys.readouterr()


def test_truncated_traffic_exits_2(workspace, tmp_path, capsys):
    root, _ = workspace
    records, _ = generate_traffic(Scenario(duration=5.0, baseline_rate=50.0),
                                  np.random.default_rng(0))
    short = tmp_path / "short.csv"
    write_packets_csv(short, records)
    assert cli.main(["detect", str(root / "model.json"), str(short),
                     "--out", str(tmp_path / "r.csv")]) == 2
    capsys.readouterr()


def test_tampered_model_schema_exits_2(workspace, tmp_path, capsys):
    root, _ = workspace
    doc = json.loads((root / "model.json").read_text())
    doc["schema_version"] = 99
    tampered = tmp_path / "model.json"
    tampered.write_text(json.dumps(doc))
    assert cli.main(["detect", str(tampered), str(root / "train.csv"),
                     "--out", str(tmp_path / "r.csv")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("override", [{"k_sigma": float("nan")},
                                      {"lstm_hidden": 1.5},
                                      {"lookback": 2.5},
                                      {"lstm_epochs": 2.5}])
def test_bad_config_value_exits_2(workspace, tmp_path, capsys, override):
    root, _ = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**DETECT_CONFIG.to_dict(), **override}))
    assert cli.main(["train", str(root / "train.csv"), "--config", str(config),
                     "--out", str(tmp_path / "model.json")]) == 2
    assert not (tmp_path / "model.json").exists()
    capsys.readouterr()


@pytest.mark.parametrize("key, value", [("threshold", float("nan")),
                                        ("lookback", 2.5),
                                        ("normalizer", []),
                                        ("dbn_layers.0.num_visible", 8.5),
                                        ("normalizer.feat_min",
                                         [float("nan")] + [0.0] * 7),
                                        ("normalizer", {})])
def test_bad_model_value_exits_2(workspace, tmp_path, capsys, key, value):
    root, _ = workspace
    doc = json.loads((root / "model.json").read_text())
    *parents, last = key.split(".")   # a dotted key names a nested field
    target = doc
    for part in parents:
        target = target[int(part) if part.isdigit() else part]
    target[last] = value
    tampered = tmp_path / "model.json"
    tampered.write_text(json.dumps(doc))
    assert cli.main(["detect", str(tampered), str(root / "train.csv"),
                     "--out", str(tmp_path / "r.csv")]) == 2
    assert not (tmp_path / "r.csv").exists()
    capsys.readouterr()


def test_non_finite_residuals_exit_3_without_a_report(workspace, tmp_path, run_cli):
    # output weights of alternating sign near the float64 limit: the
    # predictions stay finite but their squared errors overflow
    root, _ = workspace
    doc = json.loads((root / "model.json").read_text())
    doc["lstm"]["w_y"] = [(-1) ** k * 1e308 for k in range(len(doc["lstm"]["w_y"]))]
    (tmp_path / "model.json").write_text(json.dumps(doc))
    proc = run_cli(["detect", "model.json", str(root / "test.csv"), "--out", "r.csv"],
                   tmp_path)
    assert proc.returncode == 3
    assert proc.stderr == "numeric error: window 10: non-finite residual\n"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("override, stderr", [
    ({"rbm_learning_rate": 10},
     r"numeric error: layer 0: epoch \d+, batch \d+: CD-1 reconstruction error is not finite\n"),
    ({"lstm_learning_rate": 1e300}, r"numeric error: epoch 1: non-finite loss\n"),
], ids=["rbm", "lstm"])
def test_divergent_training_exits_3_with_one_line(workspace, tmp_path, run_cli,
                                                   override, stderr):
    # the overflow on the way to the non-finite update must not print
    # numpy RuntimeWarnings ahead of the error line
    root, _ = workspace
    (tmp_path / "config.json").write_text(json.dumps({"dbn_sizes": [8, 8], **override}))
    proc = run_cli(["train", str(root / "train.csv"), "--config", "config.json",
                    "--out", "model.json"], tmp_path)
    assert proc.returncode == 3
    assert re.fullmatch(stderr, proc.stderr), proc.stderr
    assert not (tmp_path / "model.json").exists()


def test_overflowing_rbm_error_exits_3_and_keeps_the_model_file(workspace, tmp_path, capsys):
    # the reconstruction error overflows while the weights stay finite;
    # train exits 3 before writing, so no model appears at --out and a
    # model already there keeps its bytes
    root, _ = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dbn_sizes": [8, 8], "rbm_learning_rate": 10,
                                  "rbm_epochs": 8}))
    model = tmp_path / "model.json"
    argv = ["train", str(root / "train.csv"), "--config", str(config), "--out", str(model)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.endswith("CD-1 reconstruction error is not finite\n")
    assert not model.exists()
    shutil.copy(root / "model.json", model)
    before = model.read_bytes()
    assert cli.main(argv) == 3
    assert model.read_bytes() == before


_IMPORT_BUDGET = """
import contextlib, io, sys
from floodwatch import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(sys.argv[1:])
assert code == 0, code
assert "numpy" not in sys.modules, "eval loaded numpy"
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    cli.main(["--help"])
assert "numpy" not in sys.modules, "--help loaded numpy"
import floodwatch
assert set(floodwatch.__all__) <= set(dir(floodwatch))
assert "numpy" not in sys.modules, "dir(floodwatch) loaded numpy"
missing = [name for name in floodwatch.__all__ if getattr(floodwatch, name, None) is None]
assert not missing, missing
print(out.getvalue())
"""


def test_eval_and_help_load_no_numpy(workspace):
    # in a fresh interpreter: eval and --help run without numpy, and every
    # public name resolves (the numeric ones load it) and is listed by dir
    root, outputs = workspace
    import floodwatch

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(floodwatch.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET, "eval", str(root / "report.csv"),
                           str(root / "test_labels.csv")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == outputs["eval"]


def test_epoch_timestamps_exit_2_before_allocating_windows(workspace, tmp_path, capsys):
    # windows count from t = 0: a Unix-epoch capture would need ~1.7e9 of them
    root, _ = workspace
    epoch = tmp_path / "epoch.csv"
    epoch.write_text("timestamp,src_ip,dst_ip,protocol,length,syn\n"
                     "1700000000.0,10.0.0.1,192.168.0.1,TCP,64,0\n")
    start = time.perf_counter()
    assert cli.main(["featurize", str(epoch), "--out", str(tmp_path / "f.csv")]) == 2
    assert cli.main(["detect", str(root / "model.json"), str(epoch),
                     "--out", str(tmp_path / "r.csv")]) == 2
    assert time.perf_counter() - start < 10.0
    assert capsys.readouterr().err.count("last timestamp 1700000000.0") == 2
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("window_len", ["inf", "nan", "0"])
@pytest.mark.parametrize("command", ["gen", "featurize"])
def test_non_finite_window_len_exits_2(workspace, tmp_path, capsys, command, window_len):
    # an infinite window made every window bound 0 * inf = NaN, so gen
    # labeled no window as an attack
    root, _ = workspace
    out = tmp_path / "out.csv"
    argv = {"gen": ["gen", "--preset", "syn10", "--seed", "0", "--labels",
                    str(tmp_path / "labels.csv")],
            "featurize": ["featurize", str(root / "test.csv")]}[command]
    assert cli.main([*argv, "--window-len", window_len, "--out", str(out)]) == 2
    assert "window_len must be a finite positive number" in capsys.readouterr().err
    assert not out.exists()


# One packet a second for 20,000 s, plus floods of a million and a thousand
# times that in [0, 0.001) and [0.001, 1): seed 0 stamps packets at every
# decimal exponent from -8 to 4, so its timestamps take every layout of the
# writer, and the 1e-4 edge of repr's positional range.
WIDE_SCENARIO = {"duration": 20000, "baseline_rate": 1, "attacks": [
    {"start": 0, "end": 0.001, "kind": "udp_flood", "multiplier": 1000000, "source_pool": 1000},
    {"start": 0.001, "end": 1, "kind": "icmp_flood", "multiplier": 1000, "source_pool": 1000}]}


@pytest.mark.parametrize("preset, seed, digest", [
    ("syn10", 0, "8ef7cdfb13b015d2d075dc6f5d76c169329c257c9c0b45418833ce68c2d45383"),
    ("mixed", 1, "a74118c962402e6f5fc202ca73952bf7226d3775a4b8bff63b592c5c96b79a65"),
    ("quiet", 0, "1ac1d8c956842976a10703ac396b92bb20f511b633f712068ad91bb6eec1a31e"),
    ("wide", 0, "6091c044d67d02cd41f1bff174ef6545b6ab2117fae8f9df9be3c5b05fad63bc"),
])
def test_gen_bytes_are_pinned(tmp_path, capsys, preset, seed, digest):
    # the digests were taken from the writer that called repr on every timestamp
    out = tmp_path / "traffic.csv"
    if preset == "wide":
        (tmp_path / "wide.json").write_text(json.dumps(WIDE_SCENARIO))
        source = ["--scenario", str(tmp_path / "wide.json")]
    else:
        source = ["--preset", preset]
    assert cli.main(["gen", *source, "--seed", str(seed), "--out", str(out),
                     "--labels", str(tmp_path / "labels.csv")]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    capsys.readouterr()


def test_wide_scenario_covers_every_exponent():
    packets, _ = generate_traffic(Scenario.from_dict(WIDE_SCENARIO), np.random.default_rng(0))
    stamps = packets.ts[packets.ts > 0]
    assert set(range(-4, 5)) <= set(np.floor(np.log10(stamps)).astype(int).tolist())


def _old_outputs(directory, names):
    """Files ``names`` in ``directory``, each holding its own name; their bytes."""
    for name in names:
        (directory / name).write_text(f"old {name}\n")
    return {name: (directory / name).read_bytes() for name in names}


@pytest.mark.parametrize("failing", ["second chunk", "labels"])
def test_gen_that_fails_leaves_old_outputs(tmp_path, capsys, monkeypatch, failing):
    # a full disk in the second chunk of the packets, or while the labels
    # are written after the whole packet file: neither output changes
    old = _old_outputs(tmp_path, ["traffic.csv", "labels.csv"])
    disk_full = OSError(errno.ENOSPC, "No space left on device")
    if failing == "second chunk":
        real = packet_text.chunk_bytes
        calls = []

        def chunk_bytes(*args):
            calls.append(1)
            if len(calls) == 2:
                raise disk_full
            return real(*args)
        monkeypatch.setattr(packet_text, "chunk_bytes", chunk_bytes)
    else:
        def labels(path, values):
            raise disk_full
        monkeypatch.setattr(traffic, "write_labels_csv", labels)
    assert cli.main(["gen", "--preset", "quiet", "--seed", "0",
                     "--out", str(tmp_path / "traffic.csv"),
                     "--labels", str(tmp_path / "labels.csv")]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(old)
    assert {name: (tmp_path / name).read_bytes() for name in old} == old


def test_save_model_that_fails_mid_write_leaves_old_model(workspace, tmp_path, monkeypatch):
    root, _ = workspace
    model, config = load_model(root / "model.json")
    old = _old_outputs(tmp_path, ["model.json"])
    real_open = open

    class HalfWritten:
        """A file that takes half of what is written, then runs out of space."""

        def __init__(self, *args, **kwargs):
            self.handle = real_open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            self.handle.write(text[:len(text) // 2])
            self.handle.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(model_io, "open", HalfWritten, raising=False)
    with pytest.raises(OSError, match="No space left"):
        model_io.save_model(tmp_path / "model.json", model, config)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]
    assert (tmp_path / "model.json").read_bytes() == old["model.json"]


def test_outputs_take_the_mode_open_would_give(workspace, tmp_path, capsys):
    root, _ = workspace
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    kept.chmod(0o640)
    mask = os.umask(0o027)
    try:
        for out in ("new.csv", "kept.csv"):
            assert cli.main(["featurize", str(root / "test.csv"),
                             "--out", str(tmp_path / out)]) == 0
    finally:
        os.umask(mask)
    capsys.readouterr()
    assert (tmp_path / "new.csv").stat().st_mode & 0o777 == 0o640    # 0o666 under 0o027
    assert kept.stat().st_mode & 0o777 == 0o640
    assert kept.read_bytes() == (tmp_path / "new.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv", "new.csv"]


@pytest.mark.parametrize("reader", ["featurize", "labels", "report"])
def test_oversized_csv_field_exits_2(workspace, tmp_path, capsys, reader):
    # the csv module rejects a field over 131072 characters
    root, _ = workspace
    path = tmp_path / "big.csv"
    if reader == "featurize":
        path.write_text("timestamp,src_ip,dst_ip,protocol,length,syn\n"
                        f"0.5,10.0.0.1,10.0.0.2,TCP,64,{'x' * 200000}\n")
        argv = ["featurize", str(path), "--out", str(tmp_path / "f.csv")]
    elif reader == "labels":
        path.write_text(f"window_index,label\n0,0\n1,{'x' * 200000}\n")
        argv = ["eval", str(root / "report.csv"), str(path)]
    else:
        path.write_text(f"window_index,residual,alarm\n10,{'x' * 200000},0\n")
        argv = ["eval", str(path), str(root / "test_labels.csv")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line ")
    assert "field larger than field limit" in err


def test_bad_labels_row_exits_2(workspace, tmp_path, capsys):
    root, _ = workspace
    labels = tmp_path / "labels.csv"
    labels.write_text("window_index,label\nx,1\n")
    assert cli.main(["eval", str(root / "report.csv"), str(labels)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("reader", ["featurize", "labels", "report", "config", "model",
                                    "scenario"])
def test_non_utf8_input_exits_2(workspace, tmp_path, capsys, reader):
    # a valid start, then one byte that no UTF-8 text contains
    root, _ = workspace
    bad = str(tmp_path / "bad")
    out = str(tmp_path / "out")
    lead, argv = {
        "featurize": (b"timestamp,src_ip,dst_ip,protocol,length,syn\r\n"
                      b"0.5,10.0.0.1,10.0.0.2,TCP,64,0\r\n",
                      ["featurize", bad, "--out", out]),
        "labels": (b"window_index,label\r\n0,0\r\n",
                   ["eval", str(root / "report.csv"), bad]),
        "report": (b"window_index,residual,alarm\r\n",
                   ["eval", bad, str(root / "test_labels.csv")]),
        "config": (b'{"seed": 1, "note": "',
                   ["train", str(root / "train.csv"), "--config", bad, "--out", out]),
        "model": ((root / "model.json").read_bytes()[:40],
                  ["detect", bad, str(root / "test.csv"), "--out", out]),
        "scenario": (b'{"duration": 10, "baseline_rate": 1',
                     ["gen", "--scenario", bad, "--out", out, "--labels", out + "2"]),
    }[reader]
    (tmp_path / "bad").write_bytes(lead + b"\xff\r\n")
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text")


@pytest.mark.parametrize("good_rows, error", [(10, "not UTF-8 text"),
                                              (3000, "line 2: unknown protocol")])
def test_bad_row_then_non_utf8_bytes_exits_2(tmp_path, capsys, good_rows, error):
    # the error of the text read first is reported: bytes that are not
    # UTF-8 right after a bad row, and the bad row when 3000 good rows
    # (about 100 KB) lie between them
    rows = ["timestamp,src_ip,dst_ip,protocol,length,syn", "0.5,10.0.0.1,10.0.0.2,GRE,64,0",
            *["1.5,10.0.0.1,10.0.0.2,TCP,64,0"] * good_rows]
    path = tmp_path / "bad.csv"
    path.write_bytes("".join(row + "\r\n" for row in rows).encode() + b"\xff\r\n")
    assert cli.main(["featurize", str(path), "--out", str(tmp_path / "f.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: {error}")


@pytest.mark.parametrize("rows, line", [
    ("10,0.1,0\n10,0.2,1\n", 3),                 # a window counted twice
    ("10,0.1,0\n12,0.2,0\n11,0.3,0\n", 4),       # indices out of order
    ("10,nan,0\n", 2),
    ("10,0.1,0\n11,inf,1\n", 3),
    ("10,-inf,0\n", 2),
    ("10,0.1,0\n+11,0.2,0\n", 3),
    ("-1,0.1,0\n", 2),
])
def test_report_detect_could_not_write_exits_2(workspace, tmp_path, capsys, rows, line):
    root, _ = workspace
    report = tmp_path / "report.csv"
    report.write_text("window_index,residual,alarm\n" + rows)
    assert cli.main(["eval", str(report), str(root / "test_labels.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {report}: line {line}: ")


def test_train_without_epochs_prints_strict_json(workspace, tmp_path, capsys):
    # no epoch means no final loss: reported as null, never as NaN
    root, _ = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dbn_sizes": [8, 8], "rbm_epochs": 0,
                                  "lstm_epochs": 0}))
    assert cli.main(["train", str(root / "train.csv"), "--config", str(config),
                     "--out", str(tmp_path / "model.json")]) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    summary = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert summary["rbm_final_errors"] == [None]
    assert summary["lstm_final_loss"] is None


def test_model_too_large_for_memory_exits_2(workspace, tmp_path, run_cli):
    # 10**7 hidden units ask for a 728 TiB gate matrix, beyond the 128 TiB
    # x86-64 user address space, so the allocation fails at once
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dbn_sizes": [8, 8], "rbm_epochs": 0,
                                  "lstm_hidden": 10_000_000}))
    proc = run_cli(["train", str(workspace[0] / "train.csv"), "--config", str(config),
                    "--out", "model.json"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: out of memory: ")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "model.json").exists()


def test_gradcheck_passes_and_prints_error(capsys):
    assert cli.main(["gradcheck"]) == 0
    first = capsys.readouterr().out
    assert float(first) < 1e-5
    assert cli.main(["gradcheck"]) == 0
    assert capsys.readouterr().out == first


def test_gradcheck_sabotage_fails(capsys):
    assert cli.main(["gradcheck", "--sabotage"]) == 1
    assert float(capsys.readouterr().out) > 0.1


@pytest.mark.skipif(shutil.which("floodwatch") is None,
                    reason="no installed 'floodwatch' console script on PATH")
def test_console_script_installed():
    proc = subprocess.run(["floodwatch", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gradcheck" in proc.stdout


def test_console_script_target_prints_help(monkeypatch, capsys):
    # the in-process twin of test_console_script_installed: calls the
    # function [project.scripts] names, as the installed script would
    monkeypatch.setattr(sys, "argv", ["floodwatch", "--help"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 0
    assert "gradcheck" in capsys.readouterr().out


# --- every reader fuzzed through cli.main -------------------------------------

_PACKET_FIELD = st.one_of(
    st.sampled_from(["0", "0.5", "299.75", "1e3", "nan", "inf", "-1", "1_0", " 5", "+5", "",
                     "10.0.0.1", "192.168.0.1", "1.2.3.256", "10.0.0.٣", "TCP", "UDP",
                     "ICMP", "GRE", "64", "9223372036854775807", "9223372036854775808",
                     "1", '"0"', '"', "\x00"]),
    st.text(max_size=6))
_PACKET_ROW = st.tuples(st.sampled_from(["0.25", "1.5", "7", "299.75", "1e2"]),
                        st.sampled_from(["10.0.0.1", "100.64.0.9"]),
                        st.sampled_from(["192.168.0.1", "192.168.0.2"]),
                        st.sampled_from(["TCP", "UDP", "ICMP"]),
                        st.sampled_from(["64", "1500", " 5"]),
                        st.sampled_from(["0", "1"])).map(",".join)
_REPORT_ROW = st.tuples(
    st.sampled_from(["0", "1", "10", "11", "299", "300", "-1", "x", ""]),
    st.one_of(st.floats().map(repr), st.sampled_from(["0.5", "nan", "-inf", "1e999", ""])),
    st.sampled_from(["0", "1", "2", ""])).map(",".join)
_LABELS_ROW = st.tuples(st.sampled_from(["0", "1", "2", "3", "-1", "x", "٣", ""]),
                        st.sampled_from(["0", "1", "2", ""])).map(",".join)
_ANY_ROW = st.one_of(st.lists(_PACKET_FIELD, max_size=8).map(",".join), st.text(max_size=30))


@st.composite
def _csv_bytes(draw, header, row):
    """CSV bytes: mostly ``header`` and ``row`` lines, else any text, with
    any line ends and now and then a byte that no UTF-8 text holds."""
    def mostly(usual, other):
        return draw(usual if draw(st.integers(0, 7)) else other)

    lines = [mostly(st.just(header), st.text(max_size=20)),
             *(mostly(row, _ANY_ROW) for _ in range(draw(st.integers(0, 10))))]
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    return text.encode("utf-8") + mostly(st.just(b""), st.just(b"\xff"))


def _main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    return code


def _oracle_features(path):
    """Features of the rows that the row-by-row oracle reads from ``path``."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = naive_parse_packets(handle)
    return feature_matrix(windowize(packets_of(rows), 1.0))


@settings(max_examples=150, deadline=None)
@given(data=_csv_bytes("timestamp,src_ip,dst_ip,protocol,length,syn", _PACKET_ROW))
def test_fuzzed_packet_csv_through_featurize_and_detect(workspace, tmp_path_factory, data):
    root, _ = workspace
    directory = tmp_path_factory.mktemp("fuzz")
    capture, out = directory / "traffic.csv", directory / "out.csv"
    capture.write_bytes(data)
    if _main(["featurize", str(capture), "--out", str(out)]) == 0:
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        written = np.array([[float(v) for v in row[1:]] for row in rows]).reshape(-1, 8)
        assert np.array_equal(written, _oracle_features(capture))
    _main(["detect", str(root / "model.json"), str(capture), "--out", str(out)])


@settings(max_examples=150, deadline=None)
@given(labels=_csv_bytes("window_index,label", _LABELS_ROW),
       report=_csv_bytes("window_index,residual,alarm", _REPORT_ROW))
def test_fuzzed_labels_and_report_through_eval(workspace, tmp_path_factory, labels, report):
    root, _ = workspace
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "labels.csv").write_bytes(labels)
    (directory / "report.csv").write_bytes(report)
    _main(["eval", str(root / "report.csv"), str(directory / "labels.csv")])
    _main(["eval", str(directory / "report.csv"), str(root / "test_labels.csv")])
    _main(["eval", str(directory / "report.csv"), str(directory / "labels.csv")])


# --- every document fuzzed through cli.main -----------------------------------

# Numbers bounded so that a document that passes validation still runs fast:
# no duration, rate or size above 40, no positive value below 0.5.
_NUMBER = st.one_of(st.integers(-3, 40), st.sampled_from(
    [0.0, -0.0, 0.5, 2.5, -1.5, 30.0, 1e300, -1e300, float("nan"), float("inf"), -float("inf")]))
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUMBER, st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)
_VALUE = st.one_of(_NUMBER, _NUMBER, _JSON)


def _maybe(good):
    """A value from ``good``, one time in eight any value."""
    return st.integers(0, 7).flatmap(lambda k: good if k else _VALUE)


def _document(required, optional):
    """Mostly an object with the keys of ``required`` and maybe those of
    ``optional``; else the same with one more key, or arbitrary JSON."""
    keys = st.fixed_dictionaries(required, optional=optional)
    extra = st.fixed_dictionaries({**required, "extra": _JSON}, optional=optional)
    return st.integers(0, 7).flatmap(lambda k: (_JSON, extra)[k] if k < 2 else keys)


_ATTACK = _document({name: _maybe(good) for name, good in [
    ("start", st.floats(0, 20)), ("end", st.floats(20, 40)), ("multiplier", st.floats(1, 4)),
    ("source_pool", st.sampled_from([1, 400, 2**24])),
    ("kind", st.sampled_from(["syn_flood", "udp_flood", "icmp_flood", "gre"]))]}, {})
_SCENARIO_DOC = _document(
    {"duration": _maybe(st.floats(1, 40)), "baseline_rate": _maybe(st.floats(0.5, 30))},
    {"diurnal_amplitude": _maybe(st.floats(0, 1)),
     "attacks": _maybe(st.lists(_ATTACK, max_size=3))})
# every config sets both epoch counts, so that a valid one trains in a moment
_CONFIG_DOC = _document(
    {name: _maybe(st.integers(0, 3)) for name in ("rbm_epochs", "lstm_epochs")},
    {name: _maybe(good) for name, good in [
        ("window_len", st.sampled_from([0.5, 1, 2.5])), ("lstm_hidden", st.integers(1, 8)),
        ("lookback", st.integers(1, 12)), ("k_sigma", st.floats(0, 5)),
        ("rbm_learning_rate", st.floats(0.01, 1)), ("rbm_batch_size", st.integers(1, 40)),
        ("lstm_learning_rate", st.floats(0.01, 1)), ("gradient_clip", st.floats(0.1, 10)),
        ("seed", st.integers(0, 2**32)), ("split", st.floats(0.05, 0.95)),
        ("dbn_sizes", st.lists(st.integers(1, 12), min_size=1, max_size=3).map(
            lambda sizes: [8, *sizes]))]})


@st.composite
def _mutated(draw, doc):
    """``doc`` with one to three of its values, at any depth, replaced by
    arbitrary JSON or removed."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
                node = node[key]
                continue
            if isinstance(node, dict) and not draw(st.integers(0, 4)):
                del node[key]
            else:
                node[key] = draw(_VALUE)
            break
        if not doc:
            break
    return doc


@pytest.fixture(scope="module")
def small_capture(tmp_path_factory):
    """A 60 s attack-free capture at 20 packets/s: 60 windows."""
    path = tmp_path_factory.mktemp("small") / "small.csv"
    packets, _ = generate_traffic(Scenario(duration=60.0, baseline_rate=20.0),
                                  np.random.default_rng(7))
    write_packets_csv(path, packets)
    return path


def _write_json(directory, name, doc):
    path = directory / name
    path.write_text(json.dumps(doc))
    return path


@settings(max_examples=100, deadline=None)
@given(doc=_SCENARIO_DOC)
def test_fuzzed_scenario_through_gen(tmp_path_factory, doc):
    directory = tmp_path_factory.mktemp("fuzz")
    out, labels = directory / "traffic.csv", directory / "labels.csv"
    argv = ["gen", "--scenario", str(_write_json(directory, "scenario.json", doc)),
            "--out", str(out), "--labels", str(labels)]
    if _main(argv) == 0:
        with open(out, "rb") as handle:
            parse_packets(handle)
        read_labels_csv(labels)


@settings(max_examples=100, deadline=None)
@given(doc=_CONFIG_DOC)
def test_fuzzed_config_through_train(small_capture, tmp_path_factory, doc):
    directory = tmp_path_factory.mktemp("fuzz")
    out = directory / "model.json"
    argv = ["train", str(small_capture), "--config",
            str(_write_json(directory, "config.json", doc)), "--out", str(out)]
    if _main(argv) == 0:
        load_model(out)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzzed_model_through_detect(workspace, small_capture, tmp_path_factory, data):
    root, _ = workspace
    doc = data.draw(st.one_of(_mutated(json.loads((root / "model.json").read_text())), _JSON))
    directory = tmp_path_factory.mktemp("fuzz")
    out = directory / "report.csv"
    argv = ["detect", str(_write_json(directory, "model.json", doc)), str(small_capture),
            "--out", str(out)]
    if _main(argv) == 0:
        read_report_csv(out)
