"""Run every script under ``examples/`` as ``python examples/<name>.py`` would.

The examples import the public API by name, so a moved or renamed
export breaks them; running each one end to end keeps them honest.
"""

import runpy
import tempfile
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, capsys, monkeypatch, tmp_path):
    # publish_coauthorship.py writes its release under tempfile.mkdtemp().
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
