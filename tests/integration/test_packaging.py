"""Packaging metadata: `pip install -e .` must install *this* package."""

import subprocess
import sys
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_setup_py_reports_name_and_version():
    out = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        timeout=60).stdout.split()
    assert out[-2:] == ["repro", repro.__version__]
