"""Smoke test of the runnable scripts against the current library."""

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_reproduce_counterexamples(capsys):
    script = runpy.run_path(str(SCRIPTS / "reproduce_counterexamples.py"))
    assert script["main"](["--max-n", "3", "--skip-quat"]) == 0
    out = capsys.readouterr().out
    assert "bilinear family, n=3 (8 forms)" in out
    assert "FAIL" not in out
    assert "all checks passed" in out
