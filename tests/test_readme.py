"""The README's library quick start and CLI walkthrough, run as written,
against their own numbers.

Code, commands, the report table and the documented results are all read
from README.md, so the documentation and the code cannot drift apart.
"""

import json
import re
import shlex
from pathlib import Path

from auxcount import load_frame, load_sample, srs_se_for_total, stratify_by_prediction
from auxcount.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
QUICK_START = README.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
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

    # the library's zero-stratum PPS sample for f1, on the walkthrough's frame
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(code, {})
    path = tmp_path / "demo" / "sample_zero_pps.csv"
    assert "# stratum = zero\n" in path.read_text()
    sample = load_sample(path)
    zero = stratify_by_prediction(load_frame(tmp_path / "demo" / "frame.csv"), 0.5)["zero"]
    assert (sample.design, sample.stratum, sample.n) == ("PPS_WR", "zero", 200)
    assert sample.parent_N == zero.size


def _decimals_as_shown(got: str, shown: str) -> str:
    return f"{float(got):.{len(shown.split('.')[1])}f}"


def test_quick_start_prints_documented_numbers(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", QUICK_START, flags=re.S)
    namespace = {}
    exec(code, namespace)
    printed = capsys.readouterr().out.splitlines()
    comments = re.findall(r"^print\(.*\)\s+# (.*)$", code, flags=re.M)
    assert len(printed) == len(comments) == 2
    for line, comment in zip(printed, comments):
        shown = re.findall(r"\d+\.\d+", comment.split(" -- ")[0])
        got = re.findall(r"\d+\.\d+", line)
        assert len(got) == len(shown) == 2, (line, comment)
        assert [_decimals_as_shown(g, w) for g, w in zip(got, shown)] == shown

    # the prose below the block: an SRS SE "around 70", cut "by a factor of eight"
    call = re.search(r"\(`(srs_se_for_total\(.*?\))`\)", QUICK_START).group(1)
    srs_se = eval(call, {"srs_se_for_total": srs_se_for_total})
    around = int(re.search(r"standard error around (\d+)", QUICK_START).group(1))
    assert round(srs_se, -1) == around
    factor = re.search(r"by a factor of (\w+)", QUICK_START).group(1)
    assert round(srs_se / namespace["est"].se) == {"eight": 8}[factor]
