"""What importing specvalley loads: SciPy only with synthesis or MFCCs.

The checks need an interpreter that has not imported specvalley yet, so one
fresh process runs them in order (the CLI first, synth last) and reports
what it saw; each test reads one part of that report.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specvalley

LAZY_NAMES = ("Excitation", "resonator_coefficients", "synthesize")

PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = {}
import specvalley.cli
import specvalley
report["cli_scipy"] = scipy_modules()
report["dir"] = dir(specvalley)
try:
    specvalley.no_such_name
except AttributeError as exc:
    report["unknown"] = str(exc)
report["after_lookups_scipy"] = scipy_modules()
import specvalley.synth
report["synth_loads_signal"] = "scipy.signal" in sys.modules
report["same_object"] = {name: getattr(specvalley, name) is getattr(specvalley.synth, name)
                         for name in LAZY_NAMES}
names = {}
exec("from specvalley import *", names)
report["star_missing"] = [n for n in specvalley.__all__ if n not in names]
report["star_same"] = all(names[n] is getattr(specvalley, n) for n in specvalley.__all__)
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def report():
    src = str(Path(specvalley.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = f"LAZY_NAMES = {LAZY_NAMES!r}\n" + PROBE
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_import_loads_no_scipy(report):
    assert report["cli_scipy"] == []


def test_synth_import_loads_scipy_signal(report):
    assert report["synth_loads_signal"]


def test_lazy_names_are_the_synth_objects(report):
    assert set(LAZY_NAMES) <= set(specvalley.__all__)
    assert set(LAZY_NAMES) <= set(report["dir"])
    assert report["same_object"] == {name: True for name in LAZY_NAMES}


def test_star_import_binds_all(report):
    assert report["star_missing"] == []
    assert report["star_same"]


def test_unknown_attribute_raises(report):
    assert report["unknown"] == "module 'specvalley' has no attribute 'no_such_name'"
    assert report["after_lookups_scipy"] == []
