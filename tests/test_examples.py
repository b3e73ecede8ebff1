"""Smoke test for the example scripts: each one runs to completion.

The examples call the public API the way a reader would, so a signature
change that breaks one fails here.  Each runs in its own interpreter with
``PYTHONPATH=src``, so the checkout's package is the one it imports.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_there_are_examples_to_run():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run([sys.executable, str(script)], cwd=ROOT,
                               env=env, capture_output=True, text=True,
                               timeout=120)
    assert completed.returncode == 0, completed.stderr[-2000:]
