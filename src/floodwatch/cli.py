"""Command-line interface.

Subcommands: gen (synthetic labeled traffic), featurize (per-window
feature CSV), train (fit and persist a detector), detect (score traffic
against a saved model), eval (metrics from report + labels), gradcheck
(LSTM backprop self-test).

Exit codes: 0 success, 1 usage error or failed gradcheck, 2 input/data
error (also a model too large for memory), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# The numeric modules load numpy, so each command imports the ones it uses:
# ``eval`` and ``--help`` then start without numpy.
from .config import PRESET_NAMES, RunConfig, load_config, replacing, utf8_errors
from .errors import InputError, NumericError

GRADCHECK_TOLERANCE = 1e-5


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this tool reserves 2
    for input/data problems, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def _json_text(doc: dict) -> str:
    """Strict JSON: a NaN or infinity is a numeric error, not output."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"non-finite value in the output: {exc}") from None


def _read_packets(path):
    """The packets of the CSV file ``path``, read as bytes (see
    traffic.parse_packets); errors name the file."""
    from . import traffic

    with open(path, "rb") as handle, utf8_errors(path):
        try:
            return traffic.parse_packets(handle)
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from None


def cmd_gen(args) -> int:
    import numpy as np

    from . import traffic

    # both outputs would be renamed onto one regular file, and the labels
    # would win; a device such as /dev/null is written in place, so it may
    # take both
    target = os.path.realpath(args.out)
    if target == os.path.realpath(args.labels) and (os.path.isfile(target)
                                                    or not os.path.exists(target)):
        print(f"error: --out and --labels name one file, {args.out!r}; "
              "give each its own path", file=sys.stderr)
        return 1

    if args.preset is not None:
        scenario = traffic.preset_scenario(args.preset)
    else:
        scenario = traffic.load_scenario(args.scenario)
    rng = np.random.default_rng(args.seed)
    packets, labels = traffic.generate_traffic(scenario, rng,
                                               window_len=args.window_len)
    text = _json_text({"packets": len(packets), "windows": len(labels),
                       "attack_windows": sum(labels)})
    # both files are renamed into place once both are whole
    with replacing(args.out, args.labels) as (out, labels_out):
        traffic.write_packets_csv(out, packets)
        traffic.write_labels_csv(labels_out, labels)
    print(text)
    return 0


def cmd_featurize(args) -> int:
    from . import traffic

    packets = _read_packets(args.traffic)
    matrix = traffic.feature_matrix(traffic.windowize(packets, args.window_len))
    traffic.write_features_csv(args.out, matrix)
    print(_json_text({"windows": len(matrix)}))
    return 0


def cmd_train(args) -> int:
    """The summary is checked before the model is written, so a run that
    ends in an error leaves any model file at ``--out`` as it was."""
    from . import detector, model_io, traffic

    config = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        config = RunConfig.from_dict({**config.to_dict(), "seed": args.seed})
    packets = _read_packets(args.traffic)
    train_packets, valid_packets = traffic.split_packets(
        packets, config.split, config.window_len)
    model, summary = detector.fit_detailed(train_packets, valid_packets, config)
    text = _json_text(summary.to_dict())
    model_io.save_model(args.out, model, config)
    print(text)
    return 0


def cmd_detect(args) -> int:
    """As in cmd_train, the summary is checked before the report is written."""
    from . import detector, model_io

    model, _config = model_io.load_model(args.model)
    packets = _read_packets(args.traffic)
    report = detector.detect(model, packets)
    text = _json_text({"alarms": report.alarm_count,
                       "scored_windows": len(report.scores),
                       "threshold": model.threshold})
    detector.write_report_csv(args.out, report)
    print(text)
    return 0


def cmd_eval(args) -> int:
    from .report import evaluate, read_labels_csv, read_report_csv

    metrics = evaluate(read_report_csv(args.report), read_labels_csv(args.labels))
    print(_json_text(metrics.to_dict()))
    return 0


def cmd_gradcheck(args) -> int:
    """Backprop self-test on a seeded random instance (D=2, N=3, T=5)."""
    from .lstm import grad_check, gradcheck_instance

    model, xs, targets = gradcheck_instance(args.seed)
    error = float(grad_check(model, xs, targets, eps=1e-5))
    print(repr(error))
    return 0 if error < GRADCHECK_TOLERANCE else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="floodwatch",
                     description="DDoS detection via belief-network feature "
                                 "compression and LSTM traffic prediction.")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate labeled synthetic traffic")
    source = gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=PRESET_NAMES,
                        help="built-in scenario")
    source.add_argument("--scenario", help="scenario JSON file")
    gen.add_argument("--seed", type=_seed, default=42)
    gen.add_argument("--window-len", type=float, default=1.0,
                     help="label window length in seconds")
    gen.add_argument("--out", required=True, help="output packet CSV")
    gen.add_argument("--labels", required=True, help="output labels CSV")
    gen.set_defaults(func=cmd_gen)

    featurize = commands.add_parser("featurize",
                                    help="per-window feature vectors as CSV")
    featurize.add_argument("traffic", help="packet CSV")
    featurize.add_argument("--window-len", type=float, default=1.0)
    featurize.add_argument("--out", required=True, help="output features CSV")
    featurize.set_defaults(func=cmd_featurize)

    train = commands.add_parser("train",
                                help="fit the detector on attack-free traffic")
    train.add_argument("traffic", help="packet CSV (must be attack-free)")
    train.add_argument("--config", help="run configuration JSON")
    train.add_argument("--seed", type=_seed, help="override the config seed")
    train.add_argument("--out", required=True, help="output model JSON")
    train.set_defaults(func=cmd_train)

    det = commands.add_parser("detect", help="score traffic against a model")
    det.add_argument("model", help="model JSON from train")
    det.add_argument("traffic", help="packet CSV")
    det.add_argument("--out", required=True, help="output report CSV")
    det.set_defaults(func=cmd_detect)

    evaluate = commands.add_parser("eval",
                                   help="metrics from a report and labels")
    evaluate.add_argument("report", help="report CSV from detect")
    evaluate.add_argument("labels", help="labels CSV from gen")
    evaluate.set_defaults(func=cmd_eval)

    gradcheck = commands.add_parser("gradcheck",
                                    help="LSTM gradient self-test")
    gradcheck.add_argument("--seed", type=_seed, default=0)
    gradcheck.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
