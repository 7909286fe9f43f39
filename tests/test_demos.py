"""The demos that call the birth-death double sum and the headwind
closed form run to the end."""

import pathlib
import runpy

import pytest

_DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["plateau_escape.py", "headwind_walk.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(_DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
