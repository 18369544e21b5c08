"""Every demo runs to completion with warnings as errors and cleans up.

Each demo runs in its own interpreter, as a user would run it, with a fresh
temporary directory as ``TMPDIR`` that must be empty when it exits.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import predfuse

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean(demo, tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir),
               PYTHONPATH=str(Path(predfuse.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=ROOT,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(tmpdir) == []
