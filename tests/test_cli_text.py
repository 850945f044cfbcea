"""The parser's text and the command table that builds it.

`cli_text.json` holds what `specvalley` prints, and its exit code, for the
top-level `--help`, each command's `--help`, an unknown flag and a flag
without its value per command, an unknown command, an unknown flag before the
command, and no arguments, with COLUMNS=80. Every byte must stay. argparse
lays its text out differently from one Python version to the next, so the
comparison runs on the version the record was made with. Rebuild the record
(after a change that is meant to move the text) with

    PYTHONPATH=src python tests/test_cli_text.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from specvalley import cli
from specvalley.cli import run

RECORD = Path(__file__).resolve().parent / "cli_text.json"
CORPUS_COMMANDS = ("classify", "noise-eval", "baseline", "hist")


def text_cases():
    cases = [["--help"], [], ["nope"], ["--frobnicate", "ocd2", "--f2", "1400"]]
    for command in cli.COMMANDS:
        corpus = ["--corpus", "nowhere"] if command in CORPUS_COMMANDS else []
        cases += [[command, "--help"], [command, *corpus, "--frobnicate"], [command, "--out"]]
    return cases


def printed(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record():
    os.environ["COLUMNS"] = "80"
    python = "%d.%d" % sys.version_info[:2]
    cases = [printed(argv) for argv in text_cases()]
    RECORD.write_text(json.dumps({"python": python, "cases": cases}, indent=1) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    record()
    sys.exit()

RECORDED = json.loads(RECORD.read_text(encoding="utf-8"))


@pytest.mark.skipif("%d.%d" % sys.version_info[:2] != RECORDED["python"],
                    reason=f"the record was made with Python {RECORDED['python']}")
@pytest.mark.parametrize("case", RECORDED["cases"], ids=[" ".join(c["argv"]) or "(none)"
                                                         for c in RECORDED["cases"]])
def test_text_and_exit_code_equal_the_record(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert printed(case["argv"]) == case


def test_the_record_covers_every_case():
    assert [c["argv"] for c in RECORDED["cases"]] == text_cases()


def test_only_a_seeded_command_says_it_reads_the_seed():
    for case in RECORDED["cases"]:
        if case["argv"][1:] == ["--help"]:
            seeded = "seed for any randomness" in case["stdout"]
            assert seeded == cli.COMMANDS[case["argv"][0]].seeded, case["argv"][0]
            assert seeded != ("recorded in the params line only" in case["stdout"])


@pytest.fixture
def declared(monkeypatch):
    """The commands whose flags get declared; every declarer is counted."""
    names = []
    for name, command in cli.COMMANDS.items():
        def flags(p, name=name, declare=command.flags):
            names.append(name)
            declare(p)
        monkeypatch.setitem(cli.COMMANDS, name, command._replace(flags=flags))
    return names


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_a_command_line_declares_only_its_own_flags(command, declared, capsys):
    assert run([command, "--help"]) == 0
    assert declared == [command]


def test_an_experiment_run_declares_only_its_own_flags(declared, capsys):
    assert run(["ocd2", "--no-timestamp"]) == 0
    assert declared == ["ocd2"]
    assert "# ocd_bark,3.1462" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], [], ["nope"]])
def test_no_command_declares_no_flags(argv, declared, capsys):
    run(argv)
    assert declared == []
