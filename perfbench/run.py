#!/usr/bin/env python3
"""floodwatch benchmark: the command-line interface on two capture shapes.

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 40 --trace 0

``--trace 0`` sets the workload up, then runs its measured commands as
child processes (``python -m floodwatch.cli``), one at a time, for
``--seconds`` seconds of whole passes, and prints the end-to-end metrics.
``--trace 1`` runs one pass as children and the same commands in-process
through ``floodwatch.cli.main`` with timing wrappers installed (see
spans.py), and prints the per-layer metrics. Both check the outputs; the
last line of standard output is one JSON result. ``--workload all`` runs
every workload in turn. README.md in this directory documents the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

QUICKSTART_CONFIG = {"dbn_sizes": [8, 8]}
FLOOD_KINDS = ("syn_flood", "udp_flood", "icmp_flood")
IMPORT_PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "detect_s": "s",
    "detect_pkts_per_s": "packets/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
QUALITY = ("recall", "false_positive_rate", "f1")
CONFUSION = ("true_positives", "false_positives", "false_negatives", "true_negatives")


def gen_seed(seed: int, k: int) -> int:
    """The k-th ``gen`` seed of a workload seed."""
    return seed * 1000 + k


def hour_scenario() -> dict:
    kinds = FLOOD_KINDS * 2
    return {
        "duration": 3600.0, "baseline_rate": 100.0, "diurnal_amplitude": 0.1,
        "attacks": [{"start": 300.0 + 600.0 * k, "end": 330.0 + 600.0 * k,
                     "kind": kind, "multiplier": 8.0, "source_pool": 400}
                    for k, kind in enumerate(kinds)],
    }


# --- running floodwatch commands ---------------------------------------------

@dataclass
class Call:
    argv: list[str]
    wall: float
    code: int
    rss_mb: float | None = None
    stdout: str = ""
    stderr: str = ""

    @property
    def command(self) -> str:
        return self.argv[0]


def child_env() -> dict:
    """Environment for children: the absolute package path, so a child whose
    working directory is elsewhere still imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], cwd: Path) -> Call:
    """Run ``python -m floodwatch.cli argv``; wall time and max-RSS of that
    child alone, taken from os.wait4."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "floodwatch.cli", *argv],
                                cwd=cwd, env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(argv, wall, proc.returncode, usage.ru_maxrss / 1024.0,
                out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def run_inproc(argv: list[str], tracer=None) -> Call:
    """Run one command through floodwatch.cli.main in this process."""
    from floodwatch import cli

    out, err = io.StringIO(), io.StringIO()
    span = tracer.span("cli." + argv[0]) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
    return Call(argv, time.perf_counter() - start, code, None,
                out.getvalue(), err.getvalue())


# --- workloads -----------------------------------------------------------------

@dataclass
class Workload:
    """Set-up generates a quiet training capture and the scored capture
    ``stem`` (from a preset name or a scenario document) and, unless a
    pass trains it, the scored model. One pass is the measured commands."""

    stem: str
    source: str | dict
    setup_repeats: int
    min_passes: int
    trains_in_pass: bool

    def setup_commands(self, seed: int, work: Path) -> list[list[str]]:
        (work / "detect.json").write_text(json.dumps(QUICKSTART_CONFIG))
        if isinstance(self.source, str):
            origin = ["--preset", self.source]
        else:
            (work / f"{self.stem}.json").write_text(json.dumps(self.source))
            origin = ["--scenario", str(work / f"{self.stem}.json")]
        commands = [["gen", "--preset", "quiet", "--seed", str(gen_seed(seed, 0)),
                     "--out", str(work / "train.csv"),
                     "--labels", str(work / "train_labels.csv")],
                    ["gen", *origin, "--seed", str(gen_seed(seed, 1)),
                     "--out", str(work / f"{self.stem}.csv"),
                     "--labels", str(work / f"{self.stem}_labels.csv")]]
        if not self.trains_in_pass:
            commands.append(self.train_command(work))
        return commands

    def train_command(self, work: Path) -> list[str]:
        return ["train", str(work / "train.csv"), "--config", str(work / "detect.json"),
                "--out", str(work / "model.json")]

    def pass_commands(self, work: Path) -> list[list[str]]:
        """The measured commands."""
        commands = [self.train_command(work)] if self.trains_in_pass else []
        return commands + [
            ["detect", str(work / "model.json"), str(work / f"{self.stem}.csv"),
             "--out", str(work / f"{self.stem}_report.csv")],
            ["eval", str(work / f"{self.stem}_report.csv"),
             str(work / f"{self.stem}_labels.csv")]]

    def outputs(self, work: Path) -> list[Path]:
        """Files whose bytes must not depend on the pass or on tracing."""
        return [work / "model.json", work / f"{self.stem}_report.csv"]

    def packets(self, work: Path) -> int:
        """Packets in the scored capture."""
        with open(work / f"{self.stem}.csv", "rb") as handle:
            return sum(1 for _ in handle) - 1


WORKLOADS = {
    # quickstart's pass holds one train and one detect, so it takes three
    # passes for a median that one slow pass cannot move; hour_scan fits
    # four passes in a run anyway.
    "quickstart": Workload("test", "syn10", setup_repeats=3, min_passes=3,
                           trains_in_pass=True),
    "hour_scan": Workload("hour", hour_scenario(), setup_repeats=1, min_passes=1,
                          trains_in_pass=False),
}


# --- checks --------------------------------------------------------------------

def csv_rows(path: Path) -> list[list[str]]:
    """The data rows of a CSV file with a header line."""
    with open(path, newline="") as handle:
        return [row for row in list(csv.reader(handle))[1:] if row]


def read_report(path: Path) -> list[tuple[int, float, bool]]:
    return [(int(r[0]), float(r[1]), r[2] == "1") for r in csv_rows(path)]


def read_labels(path: Path) -> list[bool]:
    return [r[1] == "1" for r in csv_rows(path)]


def check_pass(work: Path, calls: list[Call]) -> dict[int, str]:
    """Failure reason per call index, for every call that failed a check."""
    failures = {}
    for index, call in enumerate(calls):
        if call.code != 0:
            failures[index] = f"exit code {call.code}: {call.stderr.strip()[-300:]}"
            continue
        try:
            reason = check_call(work, call)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason:
            failures[index] = reason
    return failures


def check_call(work: Path, call: Call) -> str | None:
    if call.command == "detect":
        lookback = json.loads((work / "model.json").read_text())["lookback"]
        report = Path(call.argv[call.argv.index("--out") + 1])
        labels = Path(call.argv[2][:-len(".csv")] + "_labels.csv")
        rows = read_report(report)
        windows = len(read_labels(labels))
        if [r[0] for r in rows] != list(range(lookback, windows)):
            return (f"{report.name} covers {len(rows)} windows from {rows[0][0] if rows else '-'}"
                    f", expected windows {lookback}..{windows - 1}")
        if not all(math.isfinite(r[1]) for r in rows):
            return f"{report.name} has a non-finite residual"
    elif call.command == "eval":
        counts = json.loads(call.stdout)
        total = sum(counts[k] for k in CONFUSION)
        scored = len(read_report(Path(call.argv[1])))
        if total != scored:
            return f"eval counts sum to {total}, report has {scored} windows"
    return None


def digests(paths: list[Path]) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else "absent"
            for p in paths}


def producer(calls: list[Call], name: str) -> int:
    """Index of the call whose ``--out`` is the file ``name``."""
    for index, call in enumerate(calls):
        if "--out" in call.argv and Path(call.argv[call.argv.index("--out") + 1]).name == name:
            return index
    return len(calls) - 1


def compare_outputs(reference: dict, other: dict, calls: list[Call], what: str,
                    failures: dict[int, str]):
    for name, digest in reference.items():
        if other.get(name) != digest:
            failures.setdefault(producer(calls, name), f"{name} differs {what}")


# --- environment stamp -----------------------------------------------------------

def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_stamp() -> dict:
    import ctypes

    import numpy as np

    info = {"numpy": np.__version__, "blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    info["blas_threads"] = getter()
                    return info
    except OSError:
        pass
    return info


def env_stamp(seed: int, load_start) -> dict:
    return {"git_commit": git_commit(), "python": platform.python_version(),
            **blas_stamp(), "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": list(load_start), "loadavg_end": list(os.getloadavg()),
            "seed": seed}


# --- the two kinds of run ----------------------------------------------------------

class SetupError(RuntimeError):
    pass


def setup(workload: Workload, seed: int, work: Path,
          tracer=None) -> tuple[float, float]:
    """Generate the inputs (and the scored model, unless a pass trains it)
    in-process; returns (total seconds, seconds of the set-up ``train``)."""
    work.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    train_s = 0.0
    for argv in workload.setup_commands(seed, work):
        call = run_inproc(argv, tracer)
        if call.code != 0:
            raise SetupError(f"set-up command {' '.join(argv)} exited {call.code}: "
                             f"{call.stderr.strip()[-300:]}")
        if argv[0] == "train":
            train_s = call.wall
    return time.perf_counter() - start, train_s


def run_pass(workload: Workload, work: Path, execute) -> list[Call]:
    return [execute(argv) for argv in workload.pass_commands(work)]


def quality(calls: list[Call]) -> dict:
    """Recall, false-positive rate, F1 and confusion counts of the pass's eval."""
    for call in calls:
        if call.command == "eval" and call.code == 0:
            try:
                doc = json.loads(call.stdout)
                return {key: doc[key] for key in QUALITY} | {
                    "confusion": [doc[k] for k in CONFUSION]}
            except (ValueError, KeyError):
                return {}
    return {}


def measure(workload: Workload, seed: int, seconds: float, work: Path) -> dict:
    """Untraced run: set up ``setup_repeats`` times, then whole passes of
    child processes until ``seconds`` have elapsed and at least
    ``min_passes`` have run."""
    setups, setup_trains = [], []
    for _ in range(workload.setup_repeats):
        total, train_s = setup(workload, seed, work)
        setups.append(total)
        setup_trains.append(train_s)

    passes, failures, reference = [], {}, None
    attempted = 0
    start = time.perf_counter()
    while len(passes) < workload.min_passes or time.perf_counter() - start < seconds:
        calls = run_pass(workload, work, lambda argv: run_child(argv, work))
        found = check_pass(work, calls)
        outputs = digests(workload.outputs(work))
        if reference is None:
            reference = outputs
        else:
            compare_outputs(reference, outputs, calls, "between passes", found)
        failures.update({(len(passes), i): why for i, why in found.items()})
        attempted += len(calls)
        passes.append(calls)

    walls = {}
    for calls in passes:
        for c in calls:
            walls.setdefault(c.command, []).append(c.wall)
    packets = workload.packets(work)
    if workload.trains_in_pass:
        train_s = statistics.median(walls["train"])
    else:
        train_s = statistics.median(setup_trains)
    detect_s = statistics.median(walls["detect"])
    metrics = {
        "setup_s": statistics.median(setups),
        "train_s": train_s,
        "detect_s": detect_s,
        "detect_pkts_per_s": packets / detect_s,
        "pipeline_s": statistics.median(sum(c.wall for c in calls) for calls in passes),
        "peak_rss_mb": max(c.rss_mb for calls in passes for c in calls),
    }
    notes = {"passes": len(passes), "setups": setups, "packets_per_pass": packets}
    return {"metrics": {k: (v, END_TO_END[k]) for k, v in metrics.items()},
            "quality": quality(passes[0]), "attempted": attempted,
            "failures": failures, "notes": notes, "walls": walls}


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing floodwatch.cli."""
    walls = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import floodwatch.cli"], env=child_env(),
                       cwd=ROOT, check=True)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def residual_extremes(workload: Workload,
                      work: Path) -> tuple[float | None, float | None]:
    attack, normal = [], []
    labels = read_labels(work / f"{workload.stem}_labels.csv")
    for index, residual, _ in read_report(work / f"{workload.stem}_report.csv"):
        (attack if labels[index] else normal).append(residual)
    return (min(attack) if attack else None), (max(normal) if normal else None)


def measure_traced(workload: Workload, seed: int, work: Path) -> dict:
    """Traced run. Set up, then one pass as children: the reference outputs.
    Set up again in-process with the wrappers installed, then the pass
    in-process untraced and, right after it, traced; the difference of
    those two passes is the tracing overhead. Per-layer metrics cover the
    traced set-up and pass together."""
    import_s = import_seconds()
    plain, traced_dir = work / "untraced", work / "traced"
    setup(workload, seed, plain)
    setup_files = [f"{workload.stem}.csv", f"{workload.stem}_labels.csv"]
    if not workload.trains_in_pass:
        setup_files.append("model.json")
    setup_outputs = digests([plain / name for name in setup_files])
    child_calls = run_pass(workload, plain, lambda argv: run_child(argv, plain))
    failures = {(0, i): why for i, why in check_pass(plain, child_calls).items()}
    reference = digests(workload.outputs(plain))

    tracer = spans.Tracer()
    with spans.traced(tracer):
        setup(workload, seed, traced_dir, tracer)
    traced_setup = digests([traced_dir / name for name in setup_files])

    start = time.perf_counter()
    inproc_calls = run_pass(workload, plain, run_inproc)
    inproc_s = time.perf_counter() - start
    found = check_pass(plain, inproc_calls)
    compare_outputs(reference, digests(workload.outputs(plain)), inproc_calls,
                    "between child and in-process runs", found)
    failures.update({(1, i): why for i, why in found.items()})

    with spans.traced(tracer):
        measured_start = time.perf_counter()
        traced_calls = run_pass(workload, traced_dir, lambda argv: run_inproc(argv, tracer))
        traced_s = time.perf_counter() - measured_start
    found = check_pass(traced_dir, traced_calls)
    compare_outputs(reference, digests(workload.outputs(traced_dir)), traced_calls,
                    "between traced and untraced runs", found)
    for name, digest in setup_outputs.items():
        if traced_setup[name] != digest:
            found.setdefault(0, f"set-up output {name} differs between traced "
                                "and untraced runs")
    failures.update({(2, i): why for i, why in found.items()})

    kids = tracer.children()
    commands = [(i, s) for i, s in enumerate(tracer.spans)
                if s.parent is None and s.name.startswith("cli.")]
    coverage = {}
    for index, span in commands:
        if span.start >= measured_start:
            share = spans.covered(span, kids.get(index, ())) / (span.end - span.start)
            coverage.setdefault(span.name, []).append(share)
    cli_self = sum(spans.self_time(s, kids.get(i, ())) for i, s in commands)

    metrics = spans.layer_metrics(tracer)
    try:
        attack_min, normal_max = residual_extremes(workload, traced_dir)
        threshold = json.loads((traced_dir / "model.json").read_text())["threshold"]
        model_bytes = (traced_dir / "model.json").stat().st_size
    except (OSError, ValueError, KeyError, IndexError):    # the traced pass failed
        attack_min = normal_max = threshold = model_bytes = None
    qual = quality(traced_calls)
    metrics.update({
        "detector.attack_residual_min": (attack_min, "residual"),
        "detector.normal_residual_max": (normal_max, "residual"),
        "detector.threshold": (threshold, "residual"),
        "detector.recall": (qual.get("recall"), "ratio"),
        "detector.false_positive_rate": (qual.get("false_positive_rate"), "ratio"),
        "detector.f1": (qual.get("f1"), "ratio"),
        "model_io.model_bytes": (model_bytes, "bytes"),
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (cli_self, "s"),
        "trace.overhead_s": (traced_s - inproc_s, "s"),
        "trace.coverage_min": (min(min(v) for v in coverage.values()), "ratio"),
    })
    notes = {"coverage": {k: round(min(v), 4) for k, v in coverage.items()},
             "missing_targets": tracer.missing}
    return {"metrics": metrics, "quality": qual,
            "attempted": len(child_calls) + len(inproc_calls) + len(traced_calls),
            "failures": failures, "notes": notes,
            "spans": {"spans": tracer.to_records(), "missing": tracer.missing}}


# --- output ----------------------------------------------------------------------

def print_result(name: str, trace: int, result: dict) -> dict:
    """Human-readable lines for one workload; returns its metrics document."""
    failed = len(result["failures"])
    print(f"== {name} (trace {trace})")
    for key, value in result["notes"].items():
        print(f"   {key}: {value}")
    for (pass_index, call_index), why in sorted(result["failures"].items()):
        print(f"   FAILED pass {pass_index} call {call_index}: {why}")
    doc = {}
    for metric, (value, unit) in result["metrics"].items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"   {metric:<32} {shown:>14} {unit}")
        doc[metric] = {"value": value, "unit": unit}
    if not trace:
        for metric in QUALITY:
            print(f"   {metric:<32} {result['quality'].get(metric, 'missing')!s:>14} ratio")
        print(f"   {'failed_ratio':<32} {failed / max(result['attempted'], 1):>14.6g} ratio"
              f" ({failed} of {result['attempted']} commands)")
    print(f"   env: {json.dumps(result['env'])}")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "floodwatch" / "cli.py").is_file():
        print(f"perfbench: no floodwatch package at {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        work = WORK / f"{name}-{args.seed}-{os.getpid()}"
        load_start = os.getloadavg()
        try:
            if args.trace:
                result = measure_traced(WORKLOADS[name], args.seed, work)
            else:
                result = measure(WORKLOADS[name], args.seed, args.seconds, work)
        except SetupError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK.rmdir()
        result["env"] = env_stamp(args.seed, load_start)
        doc = print_result(name, args.trace, result)
        OUT.mkdir(exist_ok=True)
        if "spans" in result:
            (OUT / f"spans-{name}-{args.seed}.json").write_text(json.dumps(result.pop("spans")))
        (OUT / f"result-{name}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(
            {**result, "failures": {f"{p}.{c}": why for (p, c), why in result["failures"].items()},
             "metrics": doc}, indent=1))
        attempted += result["attempted"]
        failed += len(result["failures"])
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + k: v for k, v in doc.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
