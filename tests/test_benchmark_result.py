"""The benchmark's result line: the last line that `perfbench/run.py`
prints is one strict JSON object that holds every metric BENCHMARK.json
declares. A traced run reports the per-layer metrics and an untraced run
the end-to-end ones."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("trace, kind, extra", [("1", "per_layer", []),
                                                ("0", "end_to_end", ["--seconds", "0"])])
def test_quickstart_run_ends_with_a_strict_result_line(trace, kind, extra):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quickstart",
                           "--seed", "3", "--trace", trace, *extra],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_no_constant)
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    assert [m["name"] for m in declared if m["name"] not in result["metrics"]] == []


def test_every_trace_target_exists():
    # a target that is gone reads as a missing metric, not as a failed run
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}" for module, attr, _, _ in spans.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
