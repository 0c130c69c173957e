"""The README's CLI walkthrough, run as written, against its own numbers.

Commands, the report table and the simulate results are all read from
README.md, so the documentation and the code cannot drift apart.
"""

import json
import re
import shlex
from pathlib import Path

from auxcount.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
WALKTHROUGH = README.split("## CLI walkthrough", 1)[1].split("\n## ", 1)[0]
BLOCKS = re.findall(r"```(\w*)\n(.*?)```", WALKTHROUGH, flags=re.S)


def _commands():
    """Every ``auxcount ...`` command of the walkthrough's shell blocks."""
    commands = []
    for lang, body in BLOCKS:
        if lang == "sh":
            for line in body.replace("\\\n", " ").splitlines():
                if line.startswith("auxcount "):
                    commands.append(shlex.split(line)[1:])
    return commands


def _documented_values():
    """``{file: {key: text}}`` from comments like ``# report.json: a = 1.5, b = 2``."""
    values = {}
    for name, pairs in re.findall(r"^# (\S+\.json): (.*)$", WALKTHROUGH, flags=re.M):
        values[name] = dict(re.findall(r"(\w+) = ([-\d.]+)", pairs))
    return values


def test_walkthrough_reproduces_documented_numbers(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "demo").mkdir()
    commands = _commands()
    assert [argv[0] for argv in commands] == [
        "generate", "metrics", "sample", "estimate", "report", "simulate", "simulate",
    ]
    shown = {}
    for argv in commands:
        assert main(argv) == 0, argv
        shown[argv[0]] = capsys.readouterr().out

    (table,) = [body for lang, body in BLOCKS if body.startswith("estimator")]
    assert [line.split() for line in shown["report"].splitlines()] == [
        line.split() for line in table.splitlines()
    ]
    documented = _documented_values()
    assert {name: sorted(keys) for name, keys in documented.items()} == {
        "srs_report.json": ["empirical_se"],
        "report.json": ["deff_vs_srs", "empirical_se"],
    }
    for name, keys in documented.items():
        report = json.loads((tmp_path / "demo" / name).read_text())
        for key, text in keys.items():
            decimals = len(text.split(".")[1])
            assert f"{report[key]:.{decimals}f}" == text, (name, key)
