"""Every script under ``examples/`` runs to completion.

Each example is seeded and asserts its own outcome, so a non-zero exit
is a regression.  The scripts run in subprocesses, two at a time, with a
timeout each.
"""

from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted(path.name for path in (ROOT / "examples").glob("*.py"))
TIMEOUT_S = 120


def run_example(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, str(ROOT / "examples" / name)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=TIMEOUT_S)


@pytest.fixture(scope="module")
def outcomes() -> dict[str, subprocess.CompletedProcess]:
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(EXAMPLES, pool.map(run_example, EXAMPLES), strict=True))


def test_every_example_is_collected():
    assert len(EXAMPLES) >= 9


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_exits_zero(name, outcomes):
    outcome = outcomes[name]
    assert outcome.returncode == 0, outcome.stdout[-2000:] + outcome.stderr[-2000:]
