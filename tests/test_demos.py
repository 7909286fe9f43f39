"""Every demo runs to the end, so that a library name a demo uses
cannot go without a failing test."""

import pathlib
import runpy

import pytest

_DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", sorted(p.name for p in _DEMOS.glob("*.py")))
def test_demo_runs(name, capsys):
    runpy.run_path(str(_DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
