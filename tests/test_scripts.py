"""Smoke runs of the scripts in scripts/, each through its `main` with small
arguments: they import the package's public names and must keep running."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def script_main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_certification_sweep(capsys):
    main = script_main("certification_sweep")
    argv = ["--algebras", "rh2", "ch2", "--max-p", "3", "--random-seeds", "2", "--check-recurrences"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert ", 0 failures," in out


@pytest.mark.parametrize("name, args", [("pharmonic_gallery", (["--max-p", "2"],))])
def test_script_runs(capsys, name, args):
    assert script_main(name)(*args) == 0
    assert capsys.readouterr().out
