"""What importing and running specvalley loads: never SciPy or numpy.ma, and
no numpy.random until something draws.

The checks need an interpreter that has not imported specvalley yet, so one
fresh process runs them in order (the package, then the CLI, then the
synthesizer, the corpus builder, the MFCC baseline and the experiments, with
one synthesis and one MFCC call, then `classify` and `baseline` on a small
corpus) and reports what it saw; each test reads one part of that report.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import specvalley

README = Path(__file__).resolve().parents[1] / "README.md"

PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = {}
import specvalley
report["package_names"] = sorted(n for n in vars(specvalley) if not n.startswith("__"))
report["package_scipy"] = scipy_modules()
import specvalley.cli
report["cli_scipy"] = scipy_modules()
report["cli_random"] = "numpy.random" in sys.modules
import numpy as np
import specvalley.baseline, specvalley.experiments, specvalley.synth, specvalley.synthetic
report["import_random"] = "numpy.random" in sys.modules
specvalley.synth.synthesize_cascades([[500.0]], [[100.0]], [100.0], 16000.0, [8000], tilted=True)
specvalley.synth.synthesize_cascades([[500.0, 1500.0], [600.0, 1700.0]],
                                     [[100.0, 120.0], [40.0, 90.0]], [100.0, 0.0], 16000.0,
                                     [2000, 3000], tilted=True)
report["synthesis_ma"] = "numpy.ma" in sys.modules
specvalley.baseline.mfcc(np.ones((1, 400)), 16000.0)
report["runtime_scipy"] = scipy_modules()
import contextlib, io, tempfile
with tempfile.TemporaryDirectory() as corpus:
    specvalley.synthetic.build_synthetic_corpus(corpus, n_segments=20, seed=3)
    for command in ("classify", "baseline"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert specvalley.cli.run([command, "--corpus", corpus, "--no-timestamp"]) == 0
        report[f"{command}_ma"] = "numpy.ma" in sys.modules
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def report():
    src = str(Path(specvalley.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", PROBE], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_package_binds_no_names(report):
    assert report["package_names"] == []


def test_cli_import_loads_no_scipy(report):
    assert report["package_scipy"] == []
    assert report["cli_scipy"] == []


def test_runtime_loads_no_scipy(report):
    assert report["runtime_scipy"] == []


def test_synthesis_loads_no_numpy_ma(report):
    # numpy.ma (about 0.5 MB and its import time) comes in with helpers such as np.unique
    assert not report["synthesis_ma"]


def test_corpus_commands_load_no_numpy_ma(report):
    # classify, then baseline, on a 20-segment corpus
    assert not report["classify_ma"]
    assert not report["baseline_ma"]


def test_imports_load_no_numpy_random(report):
    # numpy.random pulls in hashlib and secrets; only the code that draws loads it
    assert not report["cli_random"]
    assert not report["import_random"]


def _readme_import_lines():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith(("import ", "from "))]


def test_readme_imports_run():
    lines = _readme_import_lines()
    assert any("specvalley" in line for line in lines)
    for line in lines:
        exec(line, {})
