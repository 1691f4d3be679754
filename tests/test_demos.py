"""Smoke test: every script in demos/ runs to completion.

Each demo runs in its own interpreter, with the package under test first
on its import path, and must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wildmdeg

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
PACKAGE_ROOT = str(Path(wildmdeg.__file__).resolve().parent.parent)


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(script):
    path = os.pathsep.join(p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        cwd=script.parent.parent,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
