"""Smoke tests: the examples run end to end."""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_obda_university_example_runs(capsys):
    """The four methods agree (the example asserts it), and the SQL it
    prints is the statement perfectref-sqlite ships to its replica."""
    namespace = runpy.run_path(str(EXAMPLES / "obda_university.py"))
    namespace["main"]()
    output = capsys.readouterr().out
    assert output.count("[perfectref-sqlite]") == 5
    assert 'FROM "d_hr_people" AS a0 WHERE a0.c2_t = ?' in output
    assert "witness: negative inclusion violated" in output
