import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

_CRITERION_LINES = []


@pytest.fixture(scope="session")
def run_cli():
    """Run ``python -m floodwatch.cli`` as a child process.

    The child's ``PYTHONPATH`` starts with the absolute directory that
    holds the imported ``floodwatch`` package, followed by any entries
    the parent already has. A relative entry such as ``src`` would not
    resolve once the child runs in a temporary ``cwd``; the absolute
    root works whether or not the package is installed.
    """
    import floodwatch

    package_root = str(Path(floodwatch.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = (package_root if not inherited
                         else os.pathsep.join([package_root, inherited]))

    def run(args, cwd):
        return subprocess.run([sys.executable, "-m", "floodwatch.cli", *args],
                              capture_output=True, text=True, cwd=cwd, env=env)

    return run


@pytest.fixture
def criterion():
    """Record one pass/fail line per acceptance criterion.

    The lines are replayed in the terminal summary so they are visible
    even when pytest captures per-test output.
    """

    def record(number, description, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        line = f"[criterion {number}] {status}: {description}{suffix}"
        _CRITERION_LINES.append(line)
        print(line)
        return ok

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_CRITERION_LINES,
                           key=lambda line: int(line.split()[1].rstrip("]"))):
            terminalreporter.write_line(line)
