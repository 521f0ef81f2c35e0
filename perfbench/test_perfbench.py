"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import pytest

import run
import spans

sys.path.insert(0, str(run.SRC))


def _span(start, end):
    return spans.Span("x", start, end, None)


@pytest.mark.parametrize("children, expected", [
    ([], 10.0),
    ([(1, 3), (5, 6)], 7.0),
    ([(1, 3), (2, 5), (7, 8)], 5.0),        # overlapping pair counted once
    ([(1, 9), (2, 3), (4, 5)], 2.0),        # nested inside another child
    ([(2, 4), (2, 4)], 8.0),                # identical children
    ([(-5, 1), (9, 20)], 8.0),              # clipped to the parent
    ([(-5, 20)], 0.0),
    ([(3, 3)], 10.0),                       # empty interval
])
def test_self_time_subtracts_union_of_children(children, expected):
    parent = _span(0.0, 10.0)
    kids = [_span(float(a), float(b)) for a, b in children]
    assert spans.self_time(parent, kids) == pytest.approx(expected)


def test_tracer_records_parent_links_and_self_time():
    tracer = spans.Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
        with tracer.span("inner"):
            pass
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", None), ("inner", outer), ("leaf", 1), ("inner", outer)]
    kids = tracer.children()
    root = tracer.spans[outer]
    inner_total = sum(s.end - s.start for s in kids[outer])
    assert spans.self_time(root, kids[outer]) == pytest.approx(
        root.end - root.start - inner_total)


def _current(targets):
    import importlib

    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in targets}


def test_traced_restores_every_patched_attribute():
    before = _current(spans.TARGETS)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        during = _current(spans.TARGETS)
        assert all(during[k] is not before[k] for k in before)
        assert all(during[k].__wrapped__ is before[k] for k in before)
    assert _current(spans.TARGETS) == before
    assert all(_current(spans.TARGETS)[k] is before[k] for k in before)
    assert tracer.missing == []


def test_traced_restores_after_an_exception():
    before = _current(spans.TARGETS)
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Tracer()):
            raise RuntimeError("boom")
    assert all(_current(spans.TARGETS)[k] is before[k] for k in before)


def test_missing_target_warns_and_reads_as_missing(capsys):
    targets = [("floodwatch.traffic", "no_such_function", "traffic.parse", None),
               ("floodwatch.no_such_module", "f", "lstm.train", None)]
    tracer = spans.Tracer()
    with spans.traced(tracer, targets):
        pass
    assert tracer.missing == ["floodwatch.traffic.no_such_function",
                              "floodwatch.no_such_module.f"]
    assert "missing" in capsys.readouterr().err
    metrics = spans.layer_metrics(tracer)
    assert metrics["traffic.parse_s"] == (None, "s")
    assert metrics["lstm.epoch_ms"] == (None, "ms")


def test_tracing_leaves_output_bytes_unchanged(tmp_path):
    scenario = tmp_path / "small.json"
    scenario.write_text(json.dumps({
        "duration": 60.0, "baseline_rate": 100.0, "diurnal_amplitude": 0.0,
        "attacks": [{"start": 30.0, "end": 45.0, "kind": "syn_flood",
                     "multiplier": 8.0, "source_pool": 400}]}))

    def gen(out: Path, tracer=None):
        out.mkdir()
        argv = ["gen", "--scenario", str(scenario), "--seed", "7",
                "--out", str(out / "c.csv"), "--labels", str(out / "l.csv")]
        assert run.run_inproc(argv, tracer).code == 0

    gen(tmp_path / "plain")
    tracer = spans.Tracer()
    with spans.traced(tracer):
        gen(tmp_path / "traced", tracer)
    for name in ("c.csv", "l.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "traced" / name).read_bytes()
    command = tracer.spans[0]
    assert command.name == "cli.gen" and command.parent is None
    assert {s.name for s in tracer.spans[1:]} >= {"traffic.generate", "traffic.write_csv"}
    assert all(s.parent == 0 for s in tracer.spans[1:])


def test_benchmark_json_lists_the_end_to_end_metrics():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def _write_csv(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows]) + "\n")


@pytest.fixture
def scored(tmp_path):
    (tmp_path / "model.json").write_text(json.dumps({"lookback": 2}))
    _write_csv(tmp_path / "c_labels.csv", ["window_index", "label"],
               [(i, int(i == 3)) for i in range(5)])
    return tmp_path


def _detect(work):
    return run.Call(["detect", str(work / "model.json"), str(work / "c.csv"),
                     "--out", str(work / "c_report.csv")], 0.1, 0)


@pytest.mark.parametrize("rows, ok", [
    ([(2, 0.1, 0), (3, 0.9, 1), (4, 0.2, 0)], True),
    ([(2, 0.1, 0), (3, 0.9, 1)], False),              # last window missing
    ([(3, 0.9, 1), (4, 0.2, 0)], False),              # first scored window missing
    ([(2, 0.1, 0), (3, "nan", 0), (4, 0.2, 0)], False),
])
def test_detect_check_wants_every_window_from_lookback_with_finite_residuals(scored, rows, ok):
    _write_csv(scored / "c_report.csv", ["window_index", "residual", "alarm"], rows)
    assert (run.check_pass(scored, [_detect(scored)]) == {}) is ok


def test_eval_check_wants_counts_summing_to_scored_windows(scored):
    _write_csv(scored / "c_report.csv", ["window_index", "residual", "alarm"],
               [(2, 0.1, 0), (3, 0.9, 1), (4, 0.2, 0)])
    argv = ["eval", str(scored / "c_report.csv"), str(scored / "c_labels.csv")]
    counts = dict.fromkeys(run.CONFUSION, 0) | {"true_positives": 1, "true_negatives": 2}
    assert run.check_pass(scored, [run.Call(argv, 0.1, 0, stdout=json.dumps(counts))]) == {}
    counts["true_negatives"] = 3
    assert 0 in run.check_pass(scored, [run.Call(argv, 0.1, 0, stdout=json.dumps(counts))])
    assert 0 in run.check_pass(scored, [run.Call(argv, 0.1, 2, stderr="error: bad")])
