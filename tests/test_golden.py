"""Every documented command still writes exactly its golden CSV.

The files in `tests/golden/` and the commands that produce them are listed in
`regenerate_golden.py`, which also rebuilds them. Any byte that moves fails
here with a unified diff. The two classify files also state their margins: how
close their full-precision values come to moving a byte.
"""

import difflib

import numpy as np
import pytest

from regenerate_golden import COMMANDS, GOLDEN_DIR, build_inputs, render


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory, recipes):
    return build_inputs(tmp_path_factory.mktemp("golden"), recipes)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_equals_the_golden_file(name, golden_inputs, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8")
    actual = render(name, *golden_inputs, tmp_path / "out.csv")
    if actual != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True), actual.splitlines(keepends=True),
            f"golden/{name}.csv", f"specvalley {' '.join(COMMANDS[name])}"))
        pytest.fail(f"output of {name} differs from its golden file:\n{diff}", pytrace=False)


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.csv")) == sorted(COMMANDS)


# How far the full-precision values behind the two classify files stay from
# what would move a byte of them: each segment statistic from its rule's
# threshold (0.74 dB and 0.033 bark when stated), and each printed mean from
# a three-decimal rounding boundary or the sign of zero (2.2e-6 when stated).
# A change that moves internal bits by less keeps these files.
THRESHOLD_MARGINS = {"classify_valley": ("valley", 0.7), "classify_f3f2": ("f3f2_3bark", 0.03)}
ROUNDING_MARGIN = 2e-6


@pytest.mark.parametrize("name", sorted(THRESHOLD_MARGINS))
def test_classify_files_keep_their_margins(name, golden_inputs):
    from specvalley import classify, corpus

    rule, floor = THRESHOLD_MARGINS[name]
    table = corpus.collect_segments(golden_inputs[0], ".phn", corpus.timit_inventory())
    decisions = [d for _, _, d in classify.segment_decisions(table, classify.PipelineConfig(),
                                                             rule)]
    means = np.array([(d.mean_v1, d.mean_v2, d.mean_diff) for d in decisions])
    rows = [line.split(",")[3:6] for line in
            (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8").splitlines()[3:]
            if not line.startswith("#")]
    assert rows == [[f"{m:.3f}" for m in row] for row in means]  # the file's own values
    threshold = classify.DEFAULT_THRESHOLDS[rule]
    assert min(abs(d.statistic - threshold) for d in decisions) >= floor
    thousandths = means * 1000.0
    to_boundary = np.minimum(np.abs(thousandths - np.floor(thousandths) - 0.5), np.abs(thousandths))
    assert to_boundary.min() / 1000.0 >= ROUNDING_MARGIN
