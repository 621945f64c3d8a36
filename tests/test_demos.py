"""Smoke test: every narrative demo and the README's library quickstart run
to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_present():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, src_env):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=tmp_path, env=src_env, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs(tmp_path, src_env):
    # the "Library quickstart" block as written, so the docs cannot name a
    # function the package no longer has
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          cwd=tmp_path, env=src_env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # its first line reads pair (1, 9) at the row-major position it computes
    assert proc.stdout.split()[:2] == ["1", "9"]
