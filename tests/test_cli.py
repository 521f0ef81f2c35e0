import contextlib
import csv
import hashlib
import io
import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import floodwatch as fw
from floodwatch import cli
from floodwatch.detector import evaluate, read_report_csv
from floodwatch.traffic import (
    PacketRecord,
    Packets,
    Protocol,
    Scenario,
    feature_matrix,
    generate_traffic,
    read_labels_csv,
    windowize,
    write_packets_csv,
)
from oracles import naive_parse_packets

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
                                         [float("nan")] + [0.0] * 7)])
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


@pytest.mark.parametrize("preset, seed, digest", [
    ("syn10", 0, "8ef7cdfb13b015d2d075dc6f5d76c169329c257c9c0b45418833ce68c2d45383"),
    ("mixed", 1, "a74118c962402e6f5fc202ca73952bf7226d3775a4b8bff63b592c5c96b79a65"),
])
def test_gen_bytes_are_pinned(tmp_path, capsys, preset, seed, digest):
    out = tmp_path / "traffic.csv"
    assert cli.main(["gen", "--preset", preset, "--seed", str(seed), "--out", str(out),
                     "--labels", str(tmp_path / "labels.csv")]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    capsys.readouterr()


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
    packets = Packets.from_records(
        PacketRecord(ts, src, dst, Protocol(proto), length, syn)
        for ts, src, dst, proto, length, syn in rows)
    return feature_matrix(windowize(packets, 1.0))


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
