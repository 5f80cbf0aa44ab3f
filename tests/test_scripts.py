"""Smoke runs of the scripts in scripts/, each through its `main` with small
arguments: they import the package's public names and must keep running."""

import pytest

from conftest import load_script


def test_certification_sweep(capsys):
    main = load_script("certification_sweep").main
    argv = ["--algebras", "rh2", "ch2", "--max-p", "3", "--random-seeds", "2", "--check-recurrences"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert ", 0 failures," in out


@pytest.mark.parametrize("name, args", [("pharmonic_gallery", (["--max-p", "2"],))])
def test_script_runs(capsys, name, args):
    assert load_script(name).main(*args) == 0
    assert capsys.readouterr().out
