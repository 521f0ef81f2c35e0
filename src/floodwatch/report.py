"""Detection reports, window labels and the metrics that compare them.

A report holds one residual and alarm per scored window; a labels file
holds one truth label per window. Both are CSV files, and ``evaluate``
counts alarms against labels. Nothing here imports numpy, so scoring a
saved report (the ``eval`` command) starts without it.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import asdict, dataclass

from .config import open_text, replacing
from .errors import InputError

REPORT_CSV_HEADER = ["window_index", "residual", "alarm"]
LABELS_CSV_HEADER = ["window_index", "label"]


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
        return asdict(self)


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


@contextlib.contextmanager
def csv_errors(reader, path=None, lines_before=0):
    """Report a record that ``reader`` (a ``csv.reader``) rejects, such as a
    field over the csv module's size limit, as InputError naming its line
    (and ``path``, when given); ``reader`` starts after ``lines_before``
    lines of its file."""
    try:
        yield
    except csv.Error as exc:
        where = f"{path}: " if path is not None else ""
        raise InputError(f"{where}line {lines_before + reader.line_num}: {exc}") from None


def write_report_csv(path, report: DetectionReport):
    with replacing(path) as (temp,), open(temp, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(REPORT_CSV_HEADER)
        for entry in report.scores:
            writer.writerow([entry.index, repr(entry.residual), int(entry.alarm)])


def read_report_csv(path) -> list[WindowScore]:
    with open_text(path) as handle:
        reader = csv.reader(handle)
        with csv_errors(reader, path):
            header = next(reader, None)
            if header != REPORT_CSV_HEADER:
                raise InputError(f"{path}: bad report header {header!r}")
            scores = []
            for number, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    if len(row) != 3 or row[2] not in ("0", "1") or not row[0].isdecimal():
                        raise ValueError("expected index,residual,0/1")
                    index, residual = int(row[0]), float(row[1])
                    if scores and index <= scores[-1].index:
                        raise ValueError(f"window index {index} does not follow "
                                         f"{scores[-1].index}; indices must increase")
                    if not math.isfinite(residual):
                        raise ValueError(f"residual {row[1]!r} is not finite")
                    scores.append(WindowScore(index, residual, row[2] == "1"))
                except ValueError as exc:
                    raise InputError(f"{path}: line {number}: {exc}") from None
    return scores


def write_labels_csv(path, labels):
    with replacing(path) as (temp,), open(temp, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(LABELS_CSV_HEADER)
        for index, label in enumerate(labels):
            writer.writerow([index, int(label)])


def read_labels_csv(path) -> list[bool]:
    with open_text(path) as handle:
        reader = csv.reader(handle)
        with csv_errors(reader, path):
            header = next(reader, None)
            if header != LABELS_CSV_HEADER:
                raise InputError(f"{path}: bad labels header {header!r}")
            labels = []
            for number, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2 or row[1] not in ("0", "1") or not row[0].isdecimal():
                    raise InputError(f"{path}: line {number}: expected index,0/1")
                if int(row[0]) != len(labels):
                    raise InputError(f"{path}: line {number}: window indices must be "
                                     "contiguous from 0")
                labels.append(row[1] == "1")
    return labels
