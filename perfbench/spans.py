"""In-memory spans around calls into floodwatch's public functions.

Timing wrappers are installed on the module attributes where the callers
look the functions up: ``floodwatch.detector.train_lstm`` rather than
``floodwatch.lstm.train_lstm``, because ``detector`` imported the name and
calls its own binding. ``traced`` removes every wrapper again on exit, so
an untraced run later in the same process sees the original functions.

A target that no longer exists is reported as missing with a warning and
does not fail the run, so refactors of the package do not break the
benchmark; the metrics derived from it read ``None``.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name, start, end, parent):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent


class Tracer:
    """Spans (name, start, end, parent index) plus counters, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.last: dict[str, float] = {}
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def children(self) -> dict[int, list[Span]]:
        kids = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                kids[span.parent].append(span)
        return kids

    def total(self, name: str) -> float | None:
        """Summed duration of every span called ``name``; None if never installed."""
        if name not in self.installed:
            return None
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def calls(self, name: str) -> int | None:
        if name not in self.installed:
            return None
        return sum(1 for s in self.spans if s.name == name)

    def to_records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                for s in self.spans]


def covered(span: Span, children) -> float:
    """Length of the union of the children's intervals, clipped to ``span``."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in children)
    total = 0.0
    run_start = run_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(span: Span, children) -> float:
    """A span's duration minus the part of it that its children cover."""
    return (span.end - span.start) - covered(span, children)


# Observers turn a call's arguments and result into counters. They run
# after the span has closed, so their cost is not charged to the layer.

def _packets_parsed(tracer, args, result):
    tracer.counts["traffic.packets"] += len(result)


def _windows_made(tracer, args, result):
    tracer.counts["traffic.windows"] += len(result)


def _packets_featurized(tracer, args, result):
    tracer.counts["traffic.featurized_packets"] += sum(len(b) for _, b in args[0])


def _rbm_trained(tracer, args, result):
    trace = result[1]
    if len(trace):
        tracer.last["rbm.final_error"] = float(trace[-1])


def _lstm_trained(tracer, args, result):
    trace = result[1]
    tracer.counts["lstm.epochs"] += len(trace)
    tracer.counts["lstm.sequences"] += len(args[1])
    if len(trace):
        tracer.last["lstm.final_loss"] = float(trace[-1])


def _windows_predicted(tracer, args, result):
    tracer.counts["lstm.predict_windows"] += np.shape(args[1])[0]


def _sigmoid_elems(tracer, args, result):
    tracer.counts["numerics.sigmoid_elems"] += np.size(args[0])


def _report_made(tracer, args, result):
    tracer.counts["detector.alarms"] += result.alarm_count
    tracer.counts["detector.scored_windows"] += len(result.scores)


# (module, attribute where callers look it up, span name, observer)
TARGETS = [
    ("floodwatch.cli", "build_parser", "cli.parser", None),
    ("floodwatch.traffic", "generate_traffic", "traffic.generate", None),
    ("floodwatch.traffic", "write_packets_csv", "traffic.write_csv", None),
    ("floodwatch.traffic", "write_labels_csv", "traffic.write_csv", None),
    ("floodwatch.traffic", "parse_packets", "traffic.parse", _packets_parsed),
    ("floodwatch.traffic", "split_packets", "traffic.split", None),
    ("floodwatch.traffic", "read_labels_csv", "traffic.read_labels", None),
    ("floodwatch.detector", "windowize", "traffic.windowize", _windows_made),
    ("floodwatch.detector", "feature_matrix", "traffic.featurize", _packets_featurized),
    ("floodwatch.detector", "fit_normalizer", "traffic.preprocess", None),
    ("floodwatch.detector", "preprocess", "traffic.preprocess", None),
    ("floodwatch.detector", "pretrain", "dbn.pretrain", None),
    ("floodwatch.detector", "transform", "dbn.transform", None),
    ("floodwatch.dbn", "train_rbm", "rbm.train", _rbm_trained),
    ("floodwatch.rbm", "cd1_step", "rbm.cd1_step", None),
    ("floodwatch.detector", "train_lstm", "lstm.train", _lstm_trained),
    ("floodwatch.detector", "predict_sequence_batch", "lstm.predict", _windows_predicted),
    ("floodwatch.lstm", "sigmoid", "numerics.sigmoid", _sigmoid_elems),
    ("floodwatch.rbm", "sigmoid", "numerics.sigmoid", _sigmoid_elems),
    ("floodwatch.detector", "fit_detailed", "detector.fit", None),
    ("floodwatch.detector", "detect", "detector.detect", _report_made),
    ("floodwatch.detector", "evaluate", "detector.evaluate", None),
    ("floodwatch.detector", "write_report_csv", "detector.write_report", None),
    ("floodwatch.detector", "read_report_csv", "detector.read_report", None),
    ("floodwatch.model_io", "save_model", "model_io.save", None),
    ("floodwatch.model_io", "load_model", "model_io.load", None),
]


def _wrap(tracer: Tracer, name: str, func, observe):
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(index)
        if observe is not None:
            observe(tracer, args, result)
        return result

    wrapper.__wrapped__ = func
    return wrapper


@contextmanager
def traced(tracer: Tracer, targets=TARGETS):
    """Install timing wrappers for ``targets``; restore the originals on exit."""
    saved = []
    try:
        for module_name, attr, name, observe in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                if f"{module_name}.{attr}" in tracer.missing:
                    continue
                tracer.missing.append(f"{module_name}.{attr}")
                print(f"perfbench: warning: trace target {module_name}.{attr} is "
                      f"missing; metrics from span {name} read as missing",
                      file=sys.stderr)
                continue
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original, observe))
            tracer.installed.add(name)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _per(numerator, denominator, scale=1.0):
    if numerator is None or not denominator:
        return None
    return numerator / denominator * scale


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float | None, str]]:
    """Per-layer metrics derived from the spans and counters of one traced run."""
    kids = tracer.children()

    def self_total(name):
        if name not in tracer.installed:
            return None
        return sum(self_time(s, kids.get(i, ())) for i, s in enumerate(tracer.spans)
                   if s.name == name)

    def count(key, span_name):
        return tracer.counts[key] if span_name in tracer.installed else None

    def last(key, span_name):
        return tracer.last.get(key) if span_name in tracer.installed else None

    parse_s = tracer.total("traffic.parse")
    featurize_s = tracer.total("traffic.featurize")
    cd1_s = tracer.total("rbm.cd1_step")
    lstm_train_s = tracer.total("lstm.train")
    predict_s = tracer.total("lstm.predict")
    packets = count("traffic.packets", "traffic.parse")
    epochs = count("lstm.epochs", "lstm.train")
    predicted = count("lstm.predict_windows", "lstm.predict")
    cd1_steps = tracer.calls("rbm.cd1_step")
    return {
        "traffic.parse_s": (parse_s, "s"),
        "traffic.parse_us_per_pkt": (_per(parse_s, packets, 1e6), "us"),
        "traffic.split_s": (tracer.total("traffic.split"), "s"),
        "traffic.windowize_s": (tracer.total("traffic.windowize"), "s"),
        "traffic.featurize_s": (featurize_s, "s"),
        "traffic.featurize_us_per_pkt": (
            _per(featurize_s, count("traffic.featurized_packets", "traffic.featurize"),
                 1e6), "us"),
        "traffic.preprocess_s": (tracer.total("traffic.preprocess"), "s"),
        "traffic.generate_s": (tracer.total("traffic.generate"), "s"),
        "traffic.write_csv_s": (tracer.total("traffic.write_csv"), "s"),
        "traffic.read_labels_s": (tracer.total("traffic.read_labels"), "s"),
        "traffic.packets": (packets, "count"),
        "traffic.windows": (count("traffic.windows", "traffic.windowize"), "count"),
        "rbm.train_s": (tracer.total("rbm.train"), "s"),
        "rbm.cd1_steps": (cd1_steps, "count"),
        "rbm.cd1_step_us": (_per(cd1_s, cd1_steps, 1e6), "us"),
        "rbm.final_error": (last("rbm.final_error", "rbm.train"), "mse"),
        "dbn.pretrain_s": (tracer.total("dbn.pretrain"), "s"),
        "dbn.transform_s": (tracer.total("dbn.transform"), "s"),
        "lstm.train_s": (lstm_train_s, "s"),
        "lstm.epochs": (epochs, "count"),
        "lstm.sequences": (count("lstm.sequences", "lstm.train"), "count"),
        "lstm.epoch_ms": (_per(lstm_train_s, epochs, 1e3), "ms"),
        "lstm.final_loss": (last("lstm.final_loss", "lstm.train"), "mse"),
        "lstm.predict_s": (predict_s, "s"),
        "lstm.predict_windows": (predicted, "count"),
        "lstm.predict_us_per_window": (_per(predict_s, predicted, 1e6), "us"),
        "numerics.sigmoid_calls": (tracer.calls("numerics.sigmoid"), "count"),
        "numerics.sigmoid_elems": (count("numerics.sigmoid_elems", "numerics.sigmoid"),
                                   "count"),
        "numerics.sigmoid_s": (tracer.total("numerics.sigmoid"), "s"),
        "detector.fit_self_s": (self_total("detector.fit"), "s"),
        "detector.detect_self_s": (self_total("detector.detect"), "s"),
        "detector.evaluate_s": (tracer.total("detector.evaluate"), "s"),
        "detector.read_report_s": (tracer.total("detector.read_report"), "s"),
        "detector.write_report_s": (tracer.total("detector.write_report"), "s"),
        "detector.alarms": (count("detector.alarms", "detector.detect"), "count"),
        "detector.scored_windows": (count("detector.scored_windows", "detector.detect"),
                                    "count"),
        "model_io.save_s": (tracer.total("model_io.save"), "s"),
        "model_io.load_s": (tracer.total("model_io.load"), "s"),
        "cli.parser_s": (tracer.total("cli.parser"), "s"),
    }
