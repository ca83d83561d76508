"""The README's CLI lines and its library example run as they stand.

The CLI lines run in a temporary directory that holds the two model
files the README names: ``model.txt``, its first model example, and
``model_b4.txt``, the same text with the line ``b 4``.
"""

import re
import shlex
from pathlib import Path

import pytest

from cascadelab.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(lang, text=README):
    """The bodies of the ```lang blocks in ``text``, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def cli_lines():
    """The argv of every ``cascadelab`` line of the README's shell blocks, continuation lines joined."""
    lines = [line for body in blocks("sh") for line in body.replace("\\\n", " ").splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("cascadelab ")]


@pytest.fixture
def model_dir(tmp_path, monkeypatch):
    model = blocks("text", README.split("## Model files", 1)[1])[0]
    (tmp_path / "model.txt").write_text(model, encoding="utf-8")
    (tmp_path / "model_b4.txt").write_text(model + "b 4\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("argv", cli_lines(), ids=lambda argv: argv[0])
def test_readme_cli_line_exits_0(model_dir, argv, capsys):
    assert main(argv) == 0


def test_readme_library_example_runs(model_dir, capsys):
    (code,) = blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    xi, dim = map(float, capsys.readouterr().out.split())
    assert xi == pytest.approx(0.8)
    assert dim == pytest.approx(4 / 3, abs=0.1)
