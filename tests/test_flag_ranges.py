"""Every numeric flag accepts what the README's accepts table says, and refuses
the rest in one line.

The table is the one statement of each flag's range. This module reads it,
checks that it names every flag the parser checks, and runs each (command,
flag) at the bounds the table states, their neighbours and a fixed set of
extreme values. A value the table refuses must exit 2 with one usage line
before any corpus read or experiment. A value it accepts must pass the range
check; a check that relates two flags may still refuse it. The test and the
usage words of each phrase are written here, not read from `cli.py`, so a
loosened check there cannot loosen this test.
"""

import argparse
import math
import re
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from specvalley import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# accepts phrase, its numbers written {} -> (conversion, test of a value and
# the numbers, usage words with the numbers as {0} and {1})
PHRASES = {
    "a finite positive number": (float, lambda x: math.isfinite(x) and x > 0,
                                 "must be a finite positive number"),
    "a finite number": (float, math.isfinite, "must be finite"),
    "a number from {} to {}": (float, lambda x, lo, hi: lo <= x <= hi, "must be within +/-{1} dB"),
    "a number in [{}, {})": (float, lambda x, lo, hi: lo <= x < hi, "must be in [{0}, {1})"),
    "a finite number not below {}": (float, lambda x, lo: math.isfinite(x) and x >= lo,
                                     "must be finite and not negative"),
    "an integer of at least {}": (int, lambda n, lo: n >= lo, "must be at least {0}"),
    "an integer from {} to {}": (int, lambda n, lo, hi: lo <= n <= hi,
                                 "must be at least {0} and at most {1}"),
}
NUMBER = re.compile(r"-?\d+")
FLAG = re.compile(r"`((?:[\w-]+ )?--[\w-]+)`")

# every flag's probes besides its bounds: 0 and its neighbours, the ends of
# float64 and int64, a negative integer, a fraction, and text that is no number
EXTREMES = ["0", "-0", "5e-324", "-5e-324", "1e-300", "-1e-300", "1e300", "-1e300", "inf",
            "-inf", "nan", str(2**63 - 1), "-1", "0.5", "x"]
# the flags a command needs to get past its own checks to the work
PREFIX = {"levels": ["--case=a"], "f0": ["--case=a"], "noise-eval": ["--noise=white"]}


class Accepts(NamedTuple):
    convert: Callable  # int or float, of the flag or of each list entry
    test: Callable  # of a converted value
    words: str  # of the usage error
    bounds: list  # the numbers the phrase states


def accepts(phrase):
    bounds = [int(b) for b in NUMBER.findall(phrase)]
    convert, test, words = PHRASES[NUMBER.sub("{}", phrase)]
    return Accepts(convert, lambda x: test(x, *bounds), words.format(*bounds), bounds)


def declared():
    """{command: {flag: argparse action}} of each command's parser."""
    flags = {}
    for name in cli.COMMANDS:
        (sub,) = [a for a in cli._parser([name])._actions
                  if isinstance(a, argparse._SubParsersAction)]
        flags[name] = {opt: a for a in sub.choices[name]._actions for opt in a.option_strings}
    return flags


def table_entries(flags):
    """(command, flag, Accepts, listed) of every flag cell of the accepts table: a
    `command --flag` cell names one command's flag, a `--flag` cell the flag of
    every command that declares it; `listed` marks the "each entry of" flags."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| accepts | flags |") + 2
    entries = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        phrase, cells = (cell.strip() for cell in line.strip("|").split("|"))
        rule = accepts(phrase.split(" (")[0])
        scalar, _, listed = cells.partition("each entry of")
        for text, is_list in ((scalar, False), (listed, True)):
            for cell in FLAG.findall(text):
                *command, flag = cell.split()
                for name in command or [n for n in flags if flag in flags[n]]:
                    entries.append((name, flag, rule, is_list))
    return entries


def probe_values(rule, default=None):
    """Each bound and its neighbours, then EXTREMES; for a list flag, each of
    them also after the flag's default list, and an empty list."""
    near = []
    for b in rule.bounds:
        near += ([b - 1, b, b + 1] if rule.convert is int
                 else [math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)])
    values = list(dict.fromkeys([str(v) for v in near] + EXTREMES))
    if default is None:
        return values
    return values + [f"{default},{v}" for v in values] + [","]


def refusal(flag, text, rule, listed):
    """The first stderr line of `flag`=`text` where the table refuses it, else None."""
    entries = [e for e in text.split(",") if e.strip()] if listed else [text]
    for entry in entries:
        try:
            value = rule.convert(entry)
        except ValueError:
            if listed:
                return f"{flag} must list numbers, got {text!r}"
            return f"argument {flag}: invalid {rule.convert.__name__} value: {text!r}"
        if not rule.test(value):
            return f"{flag} {rule.words}, got {value}"
    return None if entries else f"{flag} must list at least one value, got {text!r}"


FLAGS = declared()
ENTRIES = table_entries(FLAGS)
PROBES = [(command, flag, text, rule, listed)
          for command, flag, rule, listed in ENTRIES
          for text in probe_values(rule, FLAGS[command][flag].default if listed else None)]


def test_the_table_names_every_flag_the_parser_checks():
    # a checked flag's argparse type is a function of cli (`_typed`, `_band`); a
    # list flag is plain text that its command checks entry by entry
    checked = sorted((name, flag) for name, flags in FLAGS.items()
                     for flag, action in flags.items()
                     if getattr(action.type, "__module__", None) == cli.__name__)
    assert sorted((c, f) for c, f, _, listed in ENTRIES if not listed) == checked
    for command, flag, _, listed in ENTRIES:
        if listed:
            assert FLAGS[command][flag].type is None, (command, flag)


@pytest.fixture(scope="module")
def unread_corpus(tmp_path_factory):
    return tmp_path_factory.mktemp("unread_corpus")


@pytest.mark.parametrize("command, flag, text, rule, listed", PROBES,
                         ids=[f"{c}{f}={t}" for c, f, t, *_ in PROBES])
def test_a_flag_value_is_accepted_or_refused_in_one_line(command, flag, text, rule, listed,
                                                         unread_corpus, no_corpus_reading,
                                                         no_experiment_running, capsys):
    argv = [command, *PREFIX.get(command, []), f"{flag}={text}", "--no-timestamp"]
    if "--corpus" in FLAGS[command]:
        argv += ["--corpus", str(unread_corpus)]
    expected = refusal(flag, text, rule, listed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.run(argv)
        except AssertionError as guard:  # the value passed every check and reached the work
            assert "before the option check" in str(guard)
            code = None
    out, err = capsys.readouterr()
    if expected is None:
        assert not err.startswith((f"{flag} {rule.words}, got ", f"argument {flag}: invalid",
                                   f"{flag} must list ")), err
        return
    assert code == 2, f"{' '.join(argv)} was not refused"
    assert out == "" and [str(w.message) for w in caught] == []
    assert "Traceback" not in err and "Warning" not in err
    assert err.splitlines()[0] == expected
