"""The narrative scripts in demos/ run to completion against the current API."""

from __future__ import annotations

import runpy
import tempfile
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "run_constant_policies.py",
    "run_reference_comparison.py",
    "run_small_front.py",
])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    try:
        runpy.run_path(str(DEMO_DIR / name), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (0, None)
    assert capsys.readouterr().out
