"""The README's CLI examples: every `cayleycodes ...` line, run in-process
through `cli.main` as written and with `--format json`, exits 0, and its
JSON report parses."""

from __future__ import annotations

import json
import shlex
from pathlib import Path

import pytest

from cayleycodes import cli

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = [
    line for line in README.read_text().splitlines() if line.startswith("cayleycodes ")
]


def test_the_readme_has_examples():
    assert len(EXAMPLES) >= 12


@pytest.mark.parametrize("example", EXAMPLES)
def test_readme_example_runs(example, capsys, monkeypatch):
    monkeypatch.delenv(cli.ENV_MAX_ORDER, raising=False)
    argv = shlex.split(example)[1:]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
    assert cli.main([*argv, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == argv[0]
