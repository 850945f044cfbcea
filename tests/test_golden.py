"""Every documented command still writes exactly its golden CSV.

The files in `tests/golden/` and the commands that produce them are listed in
`regenerate_golden.py`, which also rebuilds them. Any byte that moves fails
here with a unified diff. The two classify files, the four sweep files
(`sweep2`, `ocd2`, `ocd4`, `pb_ocd`), the four case files (`levels_a`,
`levels_b`, `f0_a`, `f0_b`) and `noise_eval` also state their margins: how
close their full-precision values come to moving a byte.
"""

import difflib

import numpy as np
import pytest

from regenerate_golden import COMMANDS, GOLDEN_DIR, render


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


def _to_rounding_boundary(values, digits):
    """How far each value is from a boundary of rounding to `digits` decimals, or
    from zero, where the printed zero would change its sign."""
    scaled = np.abs(np.asarray(values, dtype=np.float64)) * 10.0**digits
    return np.minimum(np.abs(scaled - np.floor(scaled) - 0.5), scaled) / 10.0**digits


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
    assert _to_rounding_boundary(means, 3).min() >= ROUNDING_MARGIN


# How far the segment statistics behind `noise_eval` stay from the 5 dB valley
# threshold, over its four conditions: the measured margin, rounded down.
# Measured: 0.83 dB at babble 0 dB; 0.96 (white 25), 0.99 (white 0) and 1.21 dB
# (babble 25) elsewhere. Its accuracy cells are ratios of counts, so only a
# decision that flips can move a byte.
NOISE_EVAL_MARGIN = 0.8


def test_noise_eval_keeps_its_margin(golden_inputs):
    from specvalley import classify, corpus

    corpus_dir, babble_path = golden_inputs
    table = corpus.collect_segments(corpus_dir, ".phn", corpus.timit_inventory())
    rows, _ = classify.scored_rows(table)
    babble = corpus.load_wav(babble_path)
    lines = (GOLDEN_DIR / "noise_eval.csv").read_text(encoding="utf-8").splitlines()[4:]
    statistics = []
    conditions = [(kind, snr) for kind in ("white", "babble") for snr in (25.0, 0.0)]
    for line, (kind, snr) in zip(lines, conditions, strict=True):
        mix = corpus.noise_mixer(table, rows, kind, snr, 0, babble, "babble")
        decided = list(classify.segment_decisions(table, classify.PipelineConfig(), mix=mix))
        report = classify.score([d for *_, d in decided], [truth for _, truth, _ in decided])
        accuracies = (report.front_accuracy, report.back_accuracy, report.overall_accuracy)
        # the file's own values
        assert line.split(",") == [kind, f"{snr:.1f}", *(f"{a:.2f}" for a in accuracies),
                                   str(report.n_undecided)]
        statistics += [d.statistic for *_, d in decided if d is not None]
    threshold = classify.DEFAULT_THRESHOLDS["valley"]
    assert len(statistics) == 4 * len(rows)
    assert min(abs(s - threshold) for s in statistics) >= NOISE_EVAL_MARGIN


# How far the full-precision values behind the 4-decimal cells of the sweep
# files stay from a rounding boundary or the sign of zero: the measured
# margins, rounded down. Measured: 4.7e-6 in sweep2 and ocd2 (spacing 3.2338);
# 7.2e-7 in ocd4 (spacing 5.4777) and 7.3e-7 for the tube OCD 3.5331 of ocd4
# and pb_ocd, the two under 1e-6.
SWEEP_MARGINS = {"sweep2": 4e-6, "ocd2": 4e-6, "ocd4": 7e-7, "pb_ocd": 7e-7}


def _printed_cells(name):
    """(row key, 4-decimal cell) of golden file `name`, in file order: spacing and
    RLSV per sweep step and the `# ocd_bark` row, or each pb_ocd row's OCD."""
    lines = (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8").splitlines()[3:]
    if name == "pb_ocd":
        return [(tuple(line.split(",")[:3]), line.split(",")[3]) for line in lines]
    cells = []
    for line in lines:
        if line.startswith("# ocd_bark,"):
            cells.append(("ocd_bark", line.split(",")[1]))
        else:
            step, _, _, spacing, rlsv = line.split(",")
            cells += [(step, spacing), (step, rlsv)]
    return cells


def _full_precision(name, keys):
    """The values behind the cells of golden file `name` at `keys`, from
    `experiments` with the parameters of the file's command."""
    from specvalley import corpus, experiments
    from specvalley.scales import hz_to_bark

    if name == "sweep2":
        f1 = np.arange(650.0, 975.0, 50.0)
        meter = experiments.PairMeter(np.array([(650.0, 100.0), (1400.0, 200.0)]),
                                      (0, 1), 10000.0, n_points=4096, mean_band_hz=2500.0)
        spacings = hz_to_bark(1400.0) - hz_to_bark(f1)
        return [v for f, s in zip(f1, spacings)
                for v in (s, meter.measure((f, 100.0), (1400.0, 200.0))[2])]
    if name == "pb_ocd":
        entries = corpus.load_pb_table(corpus.default_pb_table_path())
        ocd = {}
        for gender in ("male", "female"):
            means = {v: f for v, f in corpus.pb_mean_formants(entries, gender).items()
                     if v in experiments.FRONT_VOWELS + experiments.BACK_VOWELS}
            for row in experiments.pb_ocd_table(experiments.pb_sweeps(means, gender)):
                ocd[gender, row.vowel, row.basis] = row.result.ocd_bark
        assert sorted(ocd) == sorted(keys)
        return [ocd[key] for key in keys]
    if name == "ocd2":
        cfg = experiments.SweepConfig(np.array([(650.0, 100.0), (1400.0, 200.0)]),
                                      10000.0, move_upper=False, mean_band_hz=2500.0)
    else:
        cfg = experiments.SweepConfig(
            np.array([(f, 100.0) for f in experiments.UNIFORM_TUBE_FORMANTS_HZ]), 8000.0)
    result = experiments.ocd_sweep(cfg)
    return [v for step in result.sweep for v in step] + [result.ocd_bark]


@pytest.mark.parametrize("name", sorted(SWEEP_MARGINS))
def test_sweep_files_keep_their_margins(name):
    keys, printed = zip(*_printed_cells(name))
    values = _full_precision(name, list(keys))
    assert list(printed) == [f"{v:.4f}" for v in values]  # the file's own values
    assert _to_rounding_boundary(values, 4).min() >= SWEEP_MARGINS[name]


# How far the full-precision values behind the printed levels of the levels
# files (3 decimals) and the f0 files (4 decimals) stay from a rounding
# boundary or the sign of zero: the measured margins, rounded down. Measured:
# 9.5e-6 in levels_a (L1 16.2455 dB), 9.2e-6 in levels_b (V 2.2315 dB), 3.0e-6
# in f0_a (V -1.0330 dB) and 1.4e-7 in f0_b, whose reference RLSV 2.72535014 dB
# is the nearest to a boundary of all the golden values.
CASE_MARGINS = {"levels_a": 9e-6, "levels_b": 9e-6, "f0_a": 2e-6, "f0_b": 1e-7}


def _case_values(name):
    """The values behind the level cells of case file `name`, row by row, from
    `experiments` with the parameters of the file's command (its defaults)."""
    from specvalley import cli, experiments

    command, case = name.split("_")
    formants = np.array([(f, 100.0) for f in (*cli.CASE_GEOMETRIES[case], 2500.0, 3500.0)])
    if command == "levels":
        return [[c.l1_db, c.l2_db, c.level_diff_db, c.v_db]
                for c in experiments.level_influence_experiment(formants)]
    return [[r.v_ref_db, r.v_f0_db, r.diff_db]
            for r in experiments.f0_influence_experiment(formants)]


@pytest.mark.parametrize("name", sorted(CASE_MARGINS))
def test_case_files_keep_their_margins(name):
    digits, first = (3, 2) if name.startswith("levels") else (4, 1)
    values = _case_values(name)
    rows = [line.split(",") for line in
            (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8").splitlines()[3:]]
    assert [row[first:first + len(v)] for row, v in zip(rows, values)] == [
        [f"{x:.{digits}f}" for x in v] for v in values]  # the file's own values
    assert len(rows) == len(values)
    assert _to_rounding_boundary(values, digits).min() >= CASE_MARGINS[name]
