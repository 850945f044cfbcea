from pathlib import Path

import numpy as np
import pytest

from specvalley.cli import run
from specvalley.scales import hz_to_bark


def read_summary(path, key):
    for line in path.read_text().splitlines():
        if line.startswith(f"# {key},"):
            return line.split(",", 1)[1]
    raise AssertionError(f"no summary line for {key}")


class TestUsage:
    def test_unknown_flag_exits_2(self, capsys):
        assert run(["ocd4", "--frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand_exits_2(self, capsys):
        assert run([]) == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["ocd5"]) == 2

    def test_runtime_error_exits_1(self, capsys):
        # degenerate start: sweep begins below the crossing
        code = run(["ocd4", "--formants", "800,1200,2500,3500", "--no-timestamp"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestExperimentCommands:
    def test_ocd4_reference_value(self, tmp_path):
        out = tmp_path / "ocd4.csv"
        assert run(["ocd4", "--out", str(out), "--no-timestamp"]) == 0
        assert abs(float(read_summary(out, "ocd_bark")) - 3.6) <= 0.2

    def test_ocd2_reference_value(self, tmp_path):
        out = tmp_path / "ocd2.csv"
        assert run(["ocd2", "--out", str(out), "--no-timestamp"]) == 0
        assert abs(float(read_summary(out, "ocd_bark")) - 3.2) <= 0.2

    def test_sweep2_rows(self, tmp_path):
        out = tmp_path / "sweep2.csv"
        assert run(["sweep2", "--out", str(out), "--no-timestamp"]) == 0
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert rows[0] == "step,f_low,f_high,spacing_bark,v_db"
        assert len(rows) == 1 + 7  # header + 650..950 in 50 Hz steps

    def test_levels_flags_cells(self, tmp_path):
        out = tmp_path / "levels.csv"
        assert run(["levels", "--case", "a", "--out", str(out), "--no-timestamp"]) == 0
        body = out.read_text()
        assert "l1_minus_l2_db" in body

    def test_f0_rows(self, tmp_path):
        out = tmp_path / "f0.csv"
        assert run(["f0", "--case", "b", "--out", str(out), "--no-timestamp",
                    "--f0-values", "100,150"]) == 0
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert len(rows) == 3

    def test_pb_ocd_both_genders(self, tmp_path):
        out = tmp_path / "pb.csv"
        assert run(["pb-ocd", "--out", str(out), "--no-timestamp"]) == 0
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert len(rows) == 1 + 22  # header + 11 per gender

    def test_pb_ocd_params_name_the_bundled_table_without_a_path(self, tmp_path):
        from specvalley.corpus import default_pb_table_path

        out = tmp_path / "pb.csv"
        assert run(["pb-ocd", "--gender", "male", "--out", str(out), "--no-timestamp"]) == 0
        params = out.read_text().splitlines()[1]
        assert params == "# params: bw=100.0 gender=male seed=0 step=25.0 table=bundled"
        table = tmp_path / "means.csv"
        table.write_text(default_pb_table_path().read_text())
        assert run(["pb-ocd", "--gender", "male", "--table", str(table), "--out", str(out),
                    "--no-timestamp"]) == 0
        assert out.read_text().splitlines()[1].endswith(f" table={table}")

    def test_pb_ocd_bad_table_row_names_the_file_and_the_row(self, tmp_path, capsys):
        table = tmp_path / "bad.csv"
        table.write_text("vowel,gender,F0,F1,F2,F3,L1,L2,L3\nxx,male,100,300\n")
        assert run(["pb-ocd", "--table", str(table), "--no-timestamp"]) == 1
        assert capsys.readouterr().err == f"error: {table}: row 2: expected 9 fields\n"


MERGED_1000_1250 = ("no separate spectral peaks within 200.0 Hz of 1000.0 Hz and 1250.0 Hz: "
                    "both windows find the peak at 1161.5 Hz")
MERGED_1150_1400 = ("no separate spectral peaks within 200.0 Hz of 1150.0 Hz and 1400.0 Hz: "
                    "both windows find the peak at 1224.8 Hz")


class TestUnmeasurablePeaks:
    """A pair whose peak windows find no peak, or find one peak for both,
    is an unmeasurable cell, row or start, never a crash."""

    def test_levels_flags_a_missing_and_a_merged_pair(self, capsys):
        assert run(["levels", "--f1", "1000", "--f2", "1250", "--b1-values", "70,300",
                    "--b2-values", "300", "--no-timestamp"]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "70.0,300.0,,,,,unmeasurable: no spectral peak within 200.0 Hz of 1250.0 Hz",
            f"300.0,300.0,,,,,unmeasurable: {MERGED_1000_1250}",
        ]

    def test_ocd2_unmeasurable_start_exits_1(self, capsys):
        assert run(["ocd2", "--f1-start", "1300", "--f2", "1400", "--no-timestamp"]) == 1
        assert capsys.readouterr().err == (
            "error: no separate spectral peaks within 200.0 Hz of 1300.0 Hz and 1400.0 Hz: "
            "both windows find the peak at 1311.6 Hz\n")

    def test_ocd2_pair_merging_after_the_start_ends_the_sweep(self, capsys):
        # a 300 Hz wide F2 sinks into the skirt of F1 before the crossing
        assert run(["ocd2", "--b2", "300", "--band", "1500", "--no-timestamp"]) == 1
        assert capsys.readouterr().err == (
            "error: valley became unmeasurable before crossing: no spectral peak "
            "within 200.0 Hz of 1400.0 Hz\n")

    def test_ocd2_shared_peak_goes_to_the_nearer_window(self, capsys):
        # with B2 below B1 the F2 peak is the higher one; from 200 Hz apart
        # both windows find it, F2 keeps it and F1 takes its own peak
        assert run(["ocd2", "--b1", "20", "--b2", "10", "--no-timestamp"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["22,1200.0,1400.0,1.0332,-0.3471", "# ocd_bark,1.0813"]

    def test_sweep2_reports_each_unmeasurable_f1_after_the_table(self, capsys):
        assert run(["sweep2", "--f1-stop", "950", "--b1", "300", "--b2", "300",
                    "--no-timestamp"]) == 0
        measurable = capsys.readouterr().out.splitlines()
        assert run(["sweep2", "--f1-stop", "1150", "--b1", "300", "--b2", "300",
                    "--no-timestamp"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:len(measurable)] == measurable  # the header and F1 650..950 Hz
        assert lines[len(measurable):] == [
            "7,1000.0,1400.0,2.2245,",
            "8,1050.0,1400.0,1.9107,",
            "9,1100.0,1400.0,1.6077,",
            "10,1150.0,1400.0,1.3154,",
            "# step 7 unmeasurable: no spectral peak within 200.0 Hz of 1400.0 Hz",
            "# step 8 unmeasurable: no spectral peak within 200.0 Hz of 1400.0 Hz",
            "# step 9 unmeasurable: no spectral peak within 200.0 Hz of 1400.0 Hz",
            f"# step 10 unmeasurable: {MERGED_1150_1400}",
        ]

    def test_pb_ocd_reports_an_unmeasurable_start_as_its_row(self, tmp_path):
        out = tmp_path / "pb.csv"
        assert run(["pb-ocd", "--bw", "300", "--gender", "male", "--out", str(out),
                    "--no-timestamp"]) == 0
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert len(rows) == 1 + 11
        assert "male,ao,V12,,unmeasurable: no spectral peak within 200.0 Hz of 840.0 Hz" in rows
        assert sum(row.endswith(",ok") for row in rows) == 9


class TestCorpusCommands:
    def test_classify_report(self, small_corpus_dir, tmp_path):
        out = tmp_path / "cls.csv"
        code = run(["classify", "--corpus", str(small_corpus_dir), "--out", str(out),
                    "--no-timestamp"])
        assert code == 0
        summary = [l for l in out.read_text().splitlines()
                   if l.startswith("# valley,")]
        assert summary, out.read_text()[-500:]

    def test_classify_expectation_gate(self, small_corpus_dir, tmp_path):
        out = tmp_path / "cls.csv"
        code = run(["classify", "--corpus", str(small_corpus_dir), "--out", str(out),
                    "--no-timestamp", "--expect-overall", "10.0", "--expect-tol", "1.0"])
        assert code == 1

    def test_hist_frequencies_normalized(self, small_corpus_dir, tmp_path):
        out = tmp_path / "hist.csv"
        code = run(["hist", "--corpus", str(small_corpus_dir), "--out", str(out),
                    "--no-timestamp"])
        assert code == 0
        front = [float(l.split(",")[2]) for l in out.read_text().splitlines()
                 if l.startswith("front,")]
        assert abs(sum(front) - 1.0) < 1e-3  # CSV rounds to 6 decimals

    def test_baseline_trains(self, small_corpus_dir, tmp_path):
        out = tmp_path / "base.csv"
        code = run(["baseline", "--corpus", str(small_corpus_dir), "--out", str(out),
                    "--no-timestamp", "--epochs", "60"])
        assert code == 0
        assert any(l.startswith("# mfcc,") for l in out.read_text().splitlines())

    def test_noise_eval_rows(self, small_corpus_dir, babble_path, tmp_path):
        out = tmp_path / "noise.csv"
        code = run(["noise-eval", "--corpus", str(small_corpus_dir), "--out", str(out),
                    "--no-timestamp", "--snrs", "30", "--noise", "white,babble",
                    "--babble-source", str(babble_path)])
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if l.startswith(("white,", "babble,"))]
        assert len(rows) == 2


NIST_HEADER = b"NIST_1A\n   1024\nsample_count -i 6400\nend_head\n".ljust(1024, b" ")


@pytest.mark.parametrize("wav_bytes, phn, message", [
    (NIST_HEADER, "0 1600 h#\n",
     "DR1/FAKS0/SA1.WAV: not a readable WAV file: file does not start with RIFF id"),
    (None, "0 100 h#\n100 oops iy\n",
     "DR1/FAKS0/SA1.PHN: line 2: non-integer sample bounds in '100 oops iy'"),
], ids=["nist-wav", "bad-label-line"])
def test_corpus_read_error_names_the_file(wav_bytes, phn, message, tmp_path, capsys):
    from specvalley.corpus import save_wav
    from specvalley.types import SignalBuffer

    wav = tmp_path / "DR1" / "FAKS0" / "SA1.WAV"
    wav.parent.mkdir(parents=True)
    if wav_bytes is None:
        save_wav(wav, SignalBuffer(np.zeros(6400), 16000.0))
    else:
        wav.write_bytes(wav_bytes)
    wav.with_suffix(".PHN").write_text(phn)
    assert run(["classify", "--corpus", str(tmp_path), "--no-timestamp"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def data_rows(path):
    return [l for l in path.read_text().splitlines() if l and not l.startswith("#")]


class TestCorpusOptionChecks:
    def test_lp_order_at_frame_length_is_a_usage_error(self, small_corpus_dir, capsys):
        code = run(["classify", "--corpus", str(small_corpus_dir), "--lp-order", "400",
                    "--no-timestamp"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--lp-order" in err and "frame length" in err

    def test_threshold_five_is_applied_as_given(self, small_corpus_dir, tmp_path):
        # 5 must not be read as "the rule default" (3 bark for f3f2)
        rows = {}
        for thr in ("5", "5.0001", "3"):
            out = tmp_path / f"f3f2_{thr}.csv"
            assert run(["classify", "--corpus", str(small_corpus_dir), "--feature", "f3f2",
                        "--threshold", thr, "--out", str(out), "--no-timestamp"]) == 0
            rows[thr] = data_rows(out)
            assert read_summary(out, "f3f2").startswith(f"{float(thr)},")
        assert rows["5"] == rows["5.0001"]
        assert rows["5"] != rows["3"]

    def test_default_threshold_is_the_rule_default(self, small_corpus_dir, tmp_path):
        out = tmp_path / "f3f2.csv"
        assert run(["classify", "--corpus", str(small_corpus_dir), "--feature", "f3f2",
                    "--out", str(out), "--no-timestamp"]) == 0
        assert read_summary(out, "f3f2").startswith("3.0,")
        assert "threshold=3.0" in out.read_text()

    def test_babble_without_source_is_a_usage_error(self, small_corpus_dir, monkeypatch,
                                                    capsys):
        from specvalley import corpus

        def no_reading(*args, **kwargs):
            raise AssertionError("the corpus was read before the option check")

        monkeypatch.setattr(corpus, "collect_segments", no_reading)
        code = run(["noise-eval", "--corpus", str(small_corpus_dir), "--snrs", "30",
                    "--no-timestamp"])
        assert code == 2
        assert "--babble-source" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["--noise", "white", "--snrs=,"], "--snrs"),
        (["--noise=,"], "--noise"),
        (["--noise", "pink"], "--noise"),
        (["--noise", "white,pink", "--babble-source", "b.wav"], "--noise"),
        (["--noise", "white", "--snrs", "inf"], "--snrs"),
        (["--noise", "white", "--snrs", "30,nan"], "--snrs"),
        (["--noise", "white", "--snrs", "30,x"], "--snrs"),
    ], ids=["empty_snrs", "empty_noise", "unknown_noise", "one_unknown_noise",
            "inf_snrs", "nan_snrs", "non_numeric_snrs"])
    def test_noise_eval_lists_are_checked_first(self, argv, flag, tmp_path, monkeypatch,
                                                capsys):
        from specvalley import corpus

        def no_reading(*args, **kwargs):
            raise AssertionError("the corpus was read before the option check")

        monkeypatch.setattr(corpus, "collect_segments", no_reading)
        assert run(["noise-eval", "--corpus", str(tmp_path), *argv, "--no-timestamp"]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["--bin-width", "0"], "--bin-width"),
        (["--bin-width=-1"], "--bin-width"),
        (["--bin-width", "nan"], "--bin-width"),
        (["--bin-width", "inf"], "--bin-width"),
        (["--range=5:5"], "--range"),
        (["--range=30:-20"], "--range"),
        (["--range=0:inf"], "--range"),
        (["--range=nan:5"], "--range"),
        (["--bin-width", "1e-12"], "--bin-width"),
        (["--bin-width", "1e-320"], "--bin-width"),
        (["--bin-width", "1", "--range=0:10001"], "--bin-width"),
    ], ids=["zero_bin_width", "negative_bin_width", "nan_bin_width", "inf_bin_width",
            "empty_range", "reversed_range", "inf_range", "nan_range",
            "tiny_bin_width", "subnormal_bin_width", "one_bin_too_many"])
    def test_hist_flags_are_checked_first(self, argv, flag, tmp_path, monkeypatch, capsys):
        from specvalley import corpus

        def no_reading(*args, **kwargs):
            raise AssertionError("the corpus was read before the option check")

        monkeypatch.setattr(corpus, "collect_segments", no_reading)
        assert run(["hist", "--corpus", str(tmp_path), *argv, "--no-timestamp"]) == 2
        assert flag in capsys.readouterr().err

    def test_absent_class_accuracy_is_an_empty_cell(self, small_corpus_dir, tmp_path):
        front_only = tmp_path / "front_only"
        front_only.mkdir()
        for path in small_corpus_dir.iterdir():
            if path.stem.split("_")[1] in ("iy", "ih"):
                (front_only / path.name).write_bytes(path.read_bytes())
        out = tmp_path / "cls.csv"
        assert run(["classify", "--corpus", str(front_only), "--out", str(out),
                    "--no-timestamp"]) == 0
        summary = read_summary(out, "valley").split(",")
        assert summary[2] == ""  # back_acc
        assert summary[1] != "" and float(summary[1]) >= 0.0
        assert "nan" not in out.read_text()

    def test_test_fraction_zero_still_runs(self, small_corpus_dir, tmp_path):
        out = tmp_path / "base.csv"
        assert run(["baseline", "--corpus", str(small_corpus_dir), "--feature", "valley3",
                    "--epochs", "5", "--test-fraction", "0", "--out", str(out),
                    "--no-timestamp"]) == 0
        assert read_summary(out, "valley3").split(",")[3] == "1"  # test_n

    def test_seed_zero_is_the_default_seed(self, small_corpus_dir, tmp_path):
        texts = []
        for seed in ([], ["--seed", "0"]):
            out = tmp_path / "noise.csv"
            assert run(["noise-eval", "--corpus", str(small_corpus_dir), "--noise", "white",
                        "--snrs", "25", *seed, "--out", str(out), "--no-timestamp"]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    def test_hist_on_empty_corpus_exits_1(self, tmp_path):
        out = tmp_path / "hist.csv"
        code = run(["hist", "--corpus", str(tmp_path), "--out", str(out), "--no-timestamp"])
        assert code == 1
        assert "# no segments found" in out.read_text().splitlines()

    def test_noise_eval_on_empty_corpus_exits_1(self, tmp_path):
        out = tmp_path / "noise.csv"
        code = run(["noise-eval", "--corpus", str(tmp_path), "--noise", "white",
                    "--out", str(out), "--no-timestamp"])
        assert code == 1
        assert "# no segments found" in out.read_text().splitlines()

    def test_readme_hist_example_parses(self, small_corpus_dir, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (line,) = [l for l in readme.splitlines() if l.startswith("specvalley hist ")]
        argv = line.split()[1:]
        argv[argv.index("CORPUS_DIR")] = str(small_corpus_dir)
        out = tmp_path / "hist.csv"
        assert run(argv + ["--out", str(out), "--no-timestamp"]) == 0
        assert "range=-20:30" in out.read_text()

    def test_hist_range_needs_the_equals_form(self, small_corpus_dir, capsys):
        code = run(["hist", "--corpus", str(small_corpus_dir), "--range", "-20:30"])
        assert code == 2
        assert "--range=-20:30" in run_help("hist")


class TestExperimentOptionChecks:
    @pytest.mark.parametrize("command", ["levels", "f0"])
    @pytest.mark.parametrize("geometry", [[], ["--f1", "500"], ["--f2", "1300"]],
                             ids=["none", "f1_only", "f2_only"])
    def test_missing_geometry_is_a_usage_error(self, command, geometry, monkeypatch, capsys):
        from specvalley import experiments

        def no_computing(*args, **kwargs):
            raise AssertionError("the experiment ran before the option check")

        monkeypatch.setattr(experiments, "level_influence_experiment", no_computing)
        monkeypatch.setattr(experiments, "f0_influence_experiment", no_computing)
        assert run([command, *geometry, "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert "--case" in err and "--f1" in err and "--f2" in err

    @pytest.mark.parametrize("command", ["levels", "f0"])
    @pytest.mark.parametrize("geometry", [["--f1", "500"], ["--f2", "1300"],
                                          ["--f1", "500", "--f2", "1300"]],
                             ids=["f1", "f2", "f1_f2"])
    def test_case_with_explicit_geometry_is_a_usage_error(self, command, geometry,
                                                          monkeypatch, capsys):
        from specvalley import experiments

        def no_computing(*args, **kwargs):
            raise AssertionError("the experiment ran before the option check")

        monkeypatch.setattr(experiments, "level_influence_experiment", no_computing)
        monkeypatch.setattr(experiments, "f0_influence_experiment", no_computing)
        assert run([command, "--case", "a", *geometry, "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert "--case" in err and "--f1" in err and "--f2" in err

    @pytest.mark.parametrize("argv, flag", [
        (["levels", "--case", "a", "--b1-values=,"], "--b1-values"),
        (["levels", "--case", "a", "--b2-values=,"], "--b2-values"),
        (["f0", "--case", "a", "--f0-values=,"], "--f0-values"),
        (["ocd4", "--bw=,"], "--bw"),
        (["ocd4", "--formants=,"], "--formants"),
    ], ids=["b1_values", "b2_values", "f0_values", "bw", "formants"])
    def test_empty_list_is_a_usage_error(self, argv, flag, monkeypatch, capsys):
        from specvalley import experiments

        def no_computing(*args, **kwargs):
            raise AssertionError("the experiment ran before the option check")

        for name in ("level_influence_experiment", "f0_influence_experiment", "ocd_sweep"):
            monkeypatch.setattr(experiments, name, no_computing)
        assert run([*argv, "--no-timestamp"]) == 2
        assert f"{flag} must list at least one value" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ocd2", "ocd4", "pb-ocd"])
    @pytest.mark.parametrize("step", ["0", "-25", "nan", "inf"])
    def test_non_positive_step_is_a_usage_error(self, command, step, monkeypatch, capsys):
        from specvalley import experiments

        def no_computing(*args, **kwargs):
            raise AssertionError("the sweep ran before the option check")

        monkeypatch.setattr(experiments, "ocd_sweep", no_computing)
        monkeypatch.setattr(experiments, "pb_ocd_table", no_computing)
        assert run([command, f"--step={step}", "--no-timestamp"]) == 2
        assert "--step must be a finite positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["levels", "--case", "a", "--b1-values", "70,x"], "--b1-values"),
        (["levels", "--case", "a", "--b2-values", "1e3e"], "--b2-values"),
        (["f0", "--case", "a", "--f0-values", "100,1oo"], "--f0-values"),
        (["ocd4", "--bw", "100,a"], "--bw"),
        (["ocd4", "--formants", "500;1500"], "--formants"),
    ], ids=["b1_values", "b2_values", "f0_values", "bw", "formants"])
    def test_non_numeric_list_entry_is_a_usage_error(self, argv, flag, monkeypatch, capsys):
        from specvalley import experiments

        def no_computing(*args, **kwargs):
            raise AssertionError("the experiment ran before the option check")

        for name in ("level_influence_experiment", "f0_influence_experiment", "ocd_sweep"):
            monkeypatch.setattr(experiments, name, no_computing)
        assert run([*argv, "--no-timestamp"]) == 2
        assert f"{flag} must list numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep2", "ocd2", "ocd4", "levels", "f0", "pb-ocd"])
    @pytest.mark.parametrize("fs", ["0", "-8000", "nan", "inf"])
    def test_fs_not_finite_positive_is_a_usage_error(self, command, fs, monkeypatch, capsys):
        from specvalley import experiments

        def no_computing(*args, **kwargs):
            raise AssertionError("the experiment ran before the option check")

        for name in ("PairMeter", "ocd_sweep", "level_influence_experiment",
                     "f0_influence_experiment", "pb_ocd_table"):
            monkeypatch.setattr(experiments, name, no_computing)
        case = ["--case", "a"] if command in ("levels", "f0") else []
        assert run([command, *case, f"--fs={fs}", "--no-timestamp"]) == 2
        assert "--fs must be a finite positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["--f1-start=nan"], "--f1-start"),
        (["--f1-start=-inf"], "--f1-start"),
        (["--f1-stop=inf"], "--f1-stop"),
        (["--f1-stop=nan"], "--f1-stop"),
        (["--f1-step=inf"], "--f1-step"),
    ], ids=["start_nan", "start_minus_inf", "stop_inf", "stop_nan", "step_inf"])
    def test_sweep2_f1_range_not_finite_is_a_usage_error(self, argv, flag, monkeypatch,
                                                         capsys):
        from specvalley import experiments

        def no_computing(*args, **kwargs):
            raise AssertionError("the curve ran before the option check")

        monkeypatch.setattr(experiments, "PairMeter", no_computing)
        assert run(["sweep2", *argv, "--no-timestamp"]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep2", "ocd2", "ocd4"])
    @pytest.mark.parametrize("points", ["63", "0", "-1"])
    def test_too_few_points_is_a_usage_error(self, command, points, capsys):
        assert run([command, f"--points={points}", "--no-timestamp"]) == 2
        assert "--points must be at least 64" in capsys.readouterr().err

    def test_sixty_four_points_still_runs(self, tmp_path):
        out = tmp_path / "sweep2.csv"
        assert run(["sweep2", "--points", "64", "--out", str(out), "--no-timestamp"]) == 0
        assert len(data_rows(out)) == 1 + 7

    def test_custom_geometry_still_runs(self, tmp_path):
        out = tmp_path / "levels.csv"
        assert run(["levels", "--f1", "400", "--f2", "700", "--b1-values", "100",
                    "--b2-values", "80", "--out", str(out), "--no-timestamp"]) == 0
        assert "case=custom" in out.read_text()
        assert len(data_rows(out)) == 1 + 1

    @pytest.mark.parametrize("pair", ["0", "4", "-1"])
    def test_ocd4_pair_out_of_range_is_a_usage_error(self, pair, capsys):
        assert run(["ocd4", "--pair", pair, "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert "--pair" in err and "between 1 and 3" in err

    def test_ocd4_single_formant_is_a_usage_error(self, capsys):
        assert run(["ocd4", "--formants", "500", "--no-timestamp"]) == 2
        assert "--formants" in capsys.readouterr().err

    def test_ocd4_last_pair_runs(self, tmp_path):
        out = tmp_path / "ocd4.csv"
        assert run(["ocd4", "--pair", "3", "--out", str(out), "--no-timestamp"]) == 0
        assert read_summary(out, "ocd_bark")

    @pytest.mark.parametrize("step", ["0", "-50"])
    def test_sweep2_non_positive_step_is_a_usage_error(self, step, capsys):
        assert run(["sweep2", f"--f1-step={step}", "--no-timestamp"]) == 2
        assert "--f1-step" in capsys.readouterr().err

    def test_sweep2_stop_below_start_is_a_usage_error(self, capsys):
        assert run(["sweep2", "--f1-start", "650", "--f1-stop", "600",
                    "--no-timestamp"]) == 2
        assert "--f1-stop" in capsys.readouterr().err

    def test_sweep2_stop_at_start_gives_one_row(self, tmp_path):
        out = tmp_path / "sweep2.csv"
        assert run(["sweep2", "--f1-start", "650", "--f1-stop", "650", "--out", str(out),
                    "--no-timestamp"]) == 0
        assert len(data_rows(out)) == 1 + 1

    @pytest.mark.parametrize("step", ["1e-9", "0.001", "1e-320"])
    def test_sweep2_more_steps_than_the_budget_is_a_usage_error(self, step,
                                                                no_experiment_running, capsys):
        assert run(["sweep2", f"--f1-step={step}", "--no-timestamp"]) == 2
        assert capsys.readouterr().err.strip() == (
            f"--f1-step {float(step):g} gives more than 100000 steps over --f1-start..--f1-stop")

    def test_sweep2_reads_the_budget_of_the_sweep_engine(self, monkeypatch, tmp_path, capsys):
        from specvalley import experiments

        # 650 .. 950 Hz in 50 Hz steps is the start and 6 steps
        monkeypatch.setattr(experiments, "MAX_SWEEP_STEPS", 6)
        out = tmp_path / "sweep2.csv"
        assert run(["sweep2", "--out", str(out), "--no-timestamp"]) == 0
        assert len(data_rows(out)) == 1 + 7
        assert run(["sweep2", "--f1-step=49", "--no-timestamp"]) == 2
        assert "gives more than 6 steps" in capsys.readouterr().err

    def test_sweep2_converts_every_f1_to_bark_in_one_call(self, monkeypatch, tmp_path):
        from specvalley import cli

        calls = []

        def counted(f):
            calls.append(f)
            return hz_to_bark(f)

        monkeypatch.setattr(cli, "hz_to_bark", counted)
        for stop, rows in (("950", 7), ("1250", 13)):
            calls.clear()
            out = tmp_path / f"sweep2_{stop}.csv"
            assert run(["sweep2", f"--f1-stop={stop}", "--out", str(out), "--no-timestamp"]) == 0
            assert len(data_rows(out)) == 1 + rows
            assert len(calls) == 2  # --f2, and every F1 of the sweep

    @pytest.mark.parametrize("gender", ["x", "male,x", ","])
    def test_pb_ocd_unknown_gender_is_a_usage_error(self, gender, capsys):
        assert run(["pb-ocd", f"--gender={gender}", "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert "--gender" in err and "female, male" in err


# ------------------------------------------------- corpus option checks, early


@pytest.fixture
def no_corpus_reading(monkeypatch):
    from specvalley import corpus

    def no_reading(*args, **kwargs):
        raise AssertionError("the corpus was read before the option check")

    monkeypatch.setattr(corpus, "collect_segments", no_reading)


@pytest.fixture
def no_experiment_running(monkeypatch):
    from specvalley import experiments

    def no_computing(*args, **kwargs):
        raise AssertionError("the experiment ran before the option check")

    for name in ("PairMeter", "ocd_sweep", "level_influence_experiment",
                 "f0_influence_experiment", "pb_ocd_table"):
        monkeypatch.setattr(experiments, name, no_computing)


CORPUS_COMMANDS = {
    "classify": ["classify"],
    "noise-eval": ["noise-eval", "--noise", "white"],
    "hist": ["hist"],
    "baseline": ["baseline"],
}


def _rejects_before_reading(command, flag_argv, tmp_path, capsys):
    argv = CORPUS_COMMANDS[command] + ["--corpus", str(tmp_path), *flag_argv, "--no-timestamp"]
    assert run(argv) == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("command", CORPUS_COMMANDS)
@pytest.mark.parametrize("value", ["1.5", "1", "-0.1", "nan", "inf"])
def test_overlap_outside_unit_interval_is_a_usage_error(command, value, tmp_path,
                                                        no_corpus_reading, capsys):
    err = _rejects_before_reading(command, [f"--overlap={value}"], tmp_path, capsys)
    assert "--overlap must be in [0, 1)" in err


@pytest.mark.parametrize("command", CORPUS_COMMANDS)
@pytest.mark.parametrize("value", ["1.0", "-0.5", "nan", "inf"])
def test_preemph_outside_unit_interval_is_a_usage_error(command, value, tmp_path,
                                                        no_corpus_reading, capsys):
    err = _rejects_before_reading(command, [f"--preemph={value}"], tmp_path, capsys)
    assert "--preemph must be in [0, 1)" in err


@pytest.mark.parametrize("command", CORPUS_COMMANDS)
@pytest.mark.parametrize("value", ["0", "-20", "nan", "inf"])
def test_frame_ms_not_finite_positive_is_a_usage_error(command, value, tmp_path,
                                                       no_corpus_reading, capsys):
    err = _rejects_before_reading(command, [f"--frame-ms={value}"], tmp_path, capsys)
    assert "--frame-ms must be a finite positive number" in err


@pytest.mark.parametrize("command", CORPUS_COMMANDS)
@pytest.mark.parametrize("value", ["0", "-3"])
def test_lp_order_below_one_is_a_usage_error(command, value, tmp_path, no_corpus_reading,
                                             capsys):
    err = _rejects_before_reading(command, [f"--lp-order={value}"], tmp_path, capsys)
    assert f"--lp-order must be at least 1, got {value}" in err


@pytest.mark.parametrize("command", CORPUS_COMMANDS)
def test_missing_corpus_is_a_usage_error(command, tmp_path, no_corpus_reading, capsys):
    # the check comes before the inventory is read, so a missing one is not named
    missing = str(tmp_path / "nowhere")
    argv = CORPUS_COMMANDS[command] + ["--corpus", missing, "--inventory", missing,
                                       "--exclusions", missing, "--no-timestamp"]
    assert run(argv) == 2
    assert capsys.readouterr().err.strip() == f"--corpus must be a directory, got {missing!r}"


# One row per (command, flag) whose range the parser checks and that the
# tables above do not cover; the corpus commands get an unread --corpus.
OUT_OF_RANGE = [
    (["sweep2", "--f1-start=0"], "--f1-start"),
    (["sweep2", "--f1-stop=-950"], "--f1-stop"),
    (["sweep2", "--f2=nan"], "--f2"),
    (["sweep2", "--b1=0"], "--b1"),
    (["sweep2", "--b2=inf"], "--b2"),
    (["sweep2", "--band=nan"], "--band"),
    (["sweep2", "--band=-inf"], "--band"),
    (["sweep2", "--band=x"], "argument --band: invalid float value: 'x'"),
    (["sweep2", "--seed=-1"], "--seed"),
    (["ocd2", "--f1-start=nan"], "--f1-start"),
    (["ocd2", "--f2=nan"], "--f2"),
    (["ocd2", "--b1=-100"], "--b1"),
    (["ocd2", "--b2=nan"], "--b2"),
    (["ocd2", "--band=inf"], "--band"),
    (["ocd2", "--fs=x"], "argument --fs: invalid float value: 'x'"),
    (["ocd4", "--formants=500,nan,2500"], "--formants"),
    (["ocd4", "--formants=500,-1500"], "--formants"),
    (["ocd4", "--bw=100,inf,100,100"], "--bw"),
    (["levels", "--f1=nan", "--f2=700"], "--f1"),
    (["levels", "--f1=400", "--f2=0"], "--f2"),
    (["levels", "--case=a", "--f3=nan"], "--f3"),
    (["levels", "--case=a", "--f4=-1"], "--f4"),
    (["levels", "--case=a", "--b3=0"], "--b3"),
    (["levels", "--case=a", "--b4=nan"], "--b4"),
    (["levels", "--case=a", "--b1-values=70,nan"], "--b1-values"),
    (["levels", "--case=a", "--b2-values=0"], "--b2-values"),
    (["f0", "--f1=nan", "--f2=700"], "--f1"),
    (["f0", "--f1=400", "--f2=inf"], "--f2"),
    (["f0", "--case=a", "--f3=inf"], "--f3"),
    (["f0", "--case=a", "--f4=nan"], "--f4"),
    (["f0", "--case=a", "--f0-values=nan"], "--f0-values"),
    (["f0", "--case=a", "--f0-values=100,-1"], "--f0-values"),
    (["f0", "--case=a", "--order=0"], "--order"),
    (["f0", "--case=a", "--lag-window=-1"], "--lag-window"),
    (["f0", "--case=a", "--lag-window=4"], "--lag-window (4) must not be below --order (8)"),
    (["pb-ocd", "--f4=nan"], "--f4"),
    (["pb-ocd", "--bw=0"], "--bw"),
    (["classify", "--threshold=nan"], "--threshold"),
    (["classify", "--threshold=inf"], "--threshold"),
    (["classify", "--expect-overall=nan"], "--expect-overall"),
    (["classify", "--expect-tol=-1"], "--expect-tol"),
    (["classify", "--expect-tol=nan"], "--expect-tol"),
    (["classify", "--seed=-1"], "--seed"),
    (["noise-eval", "--noise=white", "--threshold=-inf"], "--threshold"),
    (["noise-eval", "--noise=white", "--seed=-1"], "--seed"),
    (["hist", "--seed=-1"], "--seed"),
    (["baseline", "--hidden=0"], "--hidden"),
    (["baseline", "--epochs=0"], "--epochs"),
    (["baseline", "--test-fraction=nan"], "--test-fraction"),
    (["baseline", "--test-fraction=1"], "--test-fraction"),
    (["baseline", "--test-fraction=-0.1"], "--test-fraction"),
    (["baseline", "--seed=-1"], "--seed"),
]


@pytest.mark.parametrize("argv, flag", OUT_OF_RANGE,
                         ids=["_".join(argv).replace("--", "") for argv, _ in OUT_OF_RANGE])
def test_out_of_range_flag_is_a_usage_error(argv, flag, tmp_path, no_corpus_reading,
                                            no_experiment_running, capsys):
    corpus = ["--corpus", str(tmp_path)] if argv[0] in CORPUS_COMMANDS else []
    assert run([*argv, *corpus, "--no-timestamp"]) == 2
    assert flag in capsys.readouterr().err


# one command line per command that holds formants, and its usage error;
# pb-ocd checks its per-gender defaults where a flag is not given
ABOVE_NYQUIST = [
    (["ocd2", "--fs=2000"], "--f2 at 1400 Hz is at or above Nyquist (--fs 2000 gives 1000 Hz)"),
    (["sweep2", "--fs=2000"], "--f2 at 1400 Hz is at or above Nyquist (--fs 2000 gives 1000 Hz)"),
    (["ocd4", "--fs=6000"],
     "--formants at 3500 Hz is at or above Nyquist (--fs 6000 gives 3000 Hz)"),
    (["levels", "--case=a", "--fs=4000"],
     "--f3 at 2500 Hz is at or above Nyquist (--fs 4000 gives 2000 Hz)"),
    (["f0", "--case=b", "--fs=2000"],
     "--case b F2 at 1300 Hz is at or above Nyquist (--fs 2000 gives 1000 Hz)"),
    (["pb-ocd", "--fs=1000"],
     "table vowel iy (male) F2 at 2290 Hz is at or above Nyquist (--fs 1000 gives 500 Hz)"),
    (["pb-ocd", "--f4=4000"],
     "--f4 at 4000 Hz is at or above Nyquist (the male default --fs 8000 gives 4000 Hz)"),
    (["pb-ocd", "--gender=female", "--fs=8000"],
     "the female default --f4 at 4200 Hz is at or above Nyquist (--fs 8000 gives 4000 Hz)"),
]


@pytest.mark.parametrize("argv, message", ABOVE_NYQUIST,
                         ids=["_".join(argv).replace("--", "") for argv, _ in ABOVE_NYQUIST])
def test_formant_at_or_above_nyquist_is_a_usage_error(argv, message, no_experiment_running,
                                                      capsys):
    assert run([*argv, "--no-timestamp"]) == 2
    assert capsys.readouterr().err.strip() == message


# one command line per command whose measured formants must ascend (f0 sorts
# its formants), and its usage error
OUT_OF_ORDER = [
    (["ocd2", "--f1-start=1500"], "--f1-start (1500 Hz) must be below --f2 (1400 Hz)"),
    (["ocd2", "--f1-start=1400"], "--f1-start (1400 Hz) must be below --f2 (1400 Hz)"),
    (["sweep2", "--f1-stop=1500"],
     "the last F1 of --f1-start..--f1-stop (1500 Hz) must be below --f2 (1400 Hz)"),
    (["sweep2", "--f1-stop=1390"],  # 650 + 15 * 50 Hz steps reach 1400 Hz
     "the last F1 of --f1-start..--f1-stop (1400 Hz) must be below --f2 (1400 Hz)"),
    (["ocd4", "--formants=1500,500,2500"],
     "--formants F1 (1500 Hz) must be below --formants F2 (500 Hz)"),
    (["ocd4", "--formants=500,1500,1500,3500", "--pair=1"],
     "--formants F2 (1500 Hz) must be below --formants F3 (1500 Hz)"),
    (["levels", "--f1=900", "--f2=700"], "--f1 (900 Hz) must be below --f2 (700 Hz)"),
]


@pytest.mark.parametrize("argv, message", OUT_OF_ORDER,
                         ids=["_".join(argv).replace("--", "") for argv, _ in OUT_OF_ORDER])
def test_formants_out_of_order_are_a_usage_error(argv, message, no_experiment_running, capsys):
    assert run([*argv, "--no-timestamp"]) == 2
    assert capsys.readouterr().err.strip() == message


@pytest.mark.parametrize("band", ["0", "-1"])
def test_band_at_or_below_zero_disables_the_band(band, tmp_path):
    import numpy as np

    from specvalley import experiments
    from specvalley.types import FormantSpec

    out = tmp_path / "sweep2.csv"
    assert run(["sweep2", f"--band={band}", "--out", str(out), "--no-timestamp"]) == 0
    assert " band=None " in out.read_text().splitlines()[1]
    meter = experiments.PairMeter([FormantSpec(650.0, 100.0), FormantSpec(1400.0, 200.0)],
                                  (0, 1), 10000.0, n_points=4096, mean_band_hz=None)
    curve = [meter.measure((f1, 100.0), (1400.0, 200.0))[2]
             for f1 in np.arange(650.0, 975.0, 50.0)]
    assert [row.rsplit(",", 1)[1] for row in data_rows(out)[1:]] == [
        f"{v:.4f}" for v in curve]


def test_lag_window_zero_disables_the_lag_window(monkeypatch):
    from specvalley import experiments

    seen = {}

    def recording(*args, **kwargs):
        seen.update(kwargs)
        return []

    monkeypatch.setattr(experiments, "f0_influence_experiment", recording)
    assert run(["f0", "--case", "a", "--lag-window", "0", "--no-timestamp"]) == 0
    assert seen["lag_window_half_length"] is None


# --------------------------------------------- the corpus stage, exact reference
# The loop every corpus command ran before they shared one stage: frame_pipeline
# and decide_segment once per scored segment, central vowels scored as back only
# with --include-central, with the per-frame objects of `frame_reference`. The
# CLI must give exactly what it gives.


def _reference_scored(corpus_dir, include_central):
    from specvalley.corpus import collect_segments, timit_inventory

    scored = []
    for seg in collect_segments(corpus_dir, ".phn", timit_inventory()):
        if seg.fb_class == "central":
            if include_central:
                scored.append((seg, "back"))
            continue
        scored.append((seg, seg.fb_class))
    return scored


def _reference_features(audio, cfg=None):
    import frame_reference

    return frame_reference.frame_pipeline(audio, cfg)


def _reference_decision(features, rule, threshold=None):
    import frame_reference
    from specvalley.errors import NoDecisionError

    try:
        return frame_reference.decide_segment(features, threshold, rule)
    except NoDecisionError:
        return None


def _seg_id(seg):
    return f"{seg.utterance_id}:{seg.start_sample}"


@pytest.fixture(scope="module")
def mixed_corpus_dir(small_corpus_dir, tmp_path_factory):
    """The small corpus with every third vowel relabelled as the central 'ax',
    and every tenth vowel flattened to a constant, which leaves no valid frame."""
    from specvalley.corpus import load_wav, save_wav
    from specvalley.types import SignalBuffer

    root = tmp_path_factory.mktemp("mixed_corpus")
    for k, wav in enumerate(sorted(small_corpus_dir.glob("*.wav"))):
        labels = wav.with_suffix(".phn").read_text().splitlines()
        start, end, _ = labels[1].split()
        audio = load_wav(wav)
        if k % 10 == 1:
            audio.samples[int(start):int(end)] = 0.1
        save_wav(root / wav.name, SignalBuffer(audio.samples, audio.sample_rate))
        if k % 3 == 0:
            labels[1] = f"{start} {end} ax"
        (root / wav.name).with_suffix(".phn").write_text("\n".join(labels) + "\n")
    return root


@pytest.fixture(scope="module")
def mixed_features(mixed_corpus_dir):
    """The frame features of every segment of the mixed corpus, by segment id."""
    return {_seg_id(seg): _reference_features(seg.audio)
            for seg, _ in _reference_scored(mixed_corpus_dir, include_central=True)}


FEATURE_RULES = {"valley": "valley", "f3f2": "f3f2_3bark", "f2f1": "f2f1_bark",
                 "v1": "v1_only", "v2": "v2_only"}


def _expected_classify_rows(scored, features, feature="valley", threshold=None):
    """The classify data rows of the per-segment loop; `features` by segment id."""
    expected = ["segment_id,label,class,mean_v1,mean_v2,mean_diff,predicted"]
    for seg, truth in scored:
        dec = _reference_decision(features[_seg_id(seg)], FEATURE_RULES[feature], threshold)
        cells = ("", "", "", "undecided") if dec is None else (
            f"{dec.mean_v1:.3f}", f"{dec.mean_v2:.3f}", f"{dec.mean_diff:.3f}", dec.predicted)
        expected.append(",".join([_seg_id(seg), seg.phone_label, truth, *cells]))
    return expected


@pytest.mark.parametrize("include_central", [False, True], ids=["central_skipped",
                                                               "central_as_back"])
@pytest.mark.parametrize("feature, threshold", [
    ("valley", None), ("valley", 2.0), ("f3f2", None), ("f3f2", 3.5), ("f2f1", None),
    ("v1", None), ("v2", None), ("v2", -3.0)])
def test_classify_rows_equal_the_per_segment_loop(feature, threshold, include_central,
                                                  mixed_corpus_dir, mixed_features, tmp_path):
    scored = _reference_scored(mixed_corpus_dir, include_central)
    expected = _expected_classify_rows(scored, mixed_features, feature, threshold)
    assert any(row.endswith(",undecided") for row in expected)
    out = tmp_path / "cls.csv"
    argv = ["classify", "--corpus", str(mixed_corpus_dir), "--feature", feature,
            "--out", str(out), "--no-timestamp"]
    if threshold is not None:
        argv.append(f"--threshold={threshold}")
    assert run(argv + (["--include-central"] if include_central else [])) == 0
    assert data_rows(out) == expected


@pytest.mark.parametrize("feature, rule", [("diff", "valley"), ("v1", "v1_only"),
                                           ("v2", "v2_only"), ("f3f2", "f3f2_3bark")])
def test_hist_values_equal_the_per_segment_loop(feature, rule, mixed_corpus_dir, mixed_features,
                                                tmp_path):
    from specvalley.classify import normalized_histogram

    values = {"front": [], "back": []}
    for seg, truth in _reference_scored(mixed_corpus_dir, False):
        dec = _reference_decision(mixed_features[_seg_id(seg)], rule)
        if dec is not None:
            values[truth].append(dec.statistic)
    expected = ["class,bin_center,frequency"]
    for cls in ("front", "back"):
        h = normalized_histogram(values[cls], 1.0, (-20.0, 30.0))
        expected += [f"{cls},{c:.3f},{f:.6f}" for c, f in zip(h.bin_centers, h.frequencies)]
        expected.append(f"# {cls}_out_of_range,{h.n_out_of_range}")
    out = tmp_path / "hist.csv"
    assert run(["hist", "--corpus", str(mixed_corpus_dir), "--feature", feature,
                "--out", str(out), "--no-timestamp"]) == 0
    lines = out.read_text().splitlines()
    assert lines[lines.index(expected[0]):] == expected


@pytest.mark.parametrize("feature, rule, threshold", [("valley", "valley", None),
                                                      ("v1", "v1_only", 1.5)])
def test_noise_eval_rows_equal_the_per_segment_loop(feature, rule, threshold,
                                                    small_corpus_dir, babble_path, tmp_path):
    from specvalley import classify
    from specvalley.corpus import NoiseSpec, load_wav, mix_noise

    seed = 3
    babble = load_wav(babble_path)
    scored = _reference_scored(small_corpus_dir, False)
    expected = []
    for kind in ("white", "babble"):
        for snr in (25.0, 0.0):
            decisions = []
            for idx, (seg, _) in enumerate(scored):
                spec = NoiseSpec(kind=kind, snr_db=snr, seed=seed + idx)
                noisy = mix_noise(seg.audio, spec, babble=babble)
                decisions.append(_reference_decision(_reference_features(noisy), rule, threshold))
            report = classify.score(decisions, [truth for _, truth in scored])
            accs = [("" if a is None else f"{a:.2f}") for a in
                    (report.front_accuracy, report.back_accuracy, report.overall_accuracy)]
            expected.append(",".join([kind, f"{snr:.1f}", *accs, str(report.n_undecided)]))
    out = tmp_path / "noise.csv"
    argv = ["noise-eval", "--corpus", str(small_corpus_dir), "--noise", "white,babble",
            "--snrs", "25,0", "--babble-source", str(babble_path), "--feature", feature,
            "--seed", str(seed), "--out", str(out), "--no-timestamp"]
    if threshold is not None:
        argv += ["--threshold", str(threshold)]
    assert run(argv) == 0
    assert data_rows(out)[1:] == expected


def test_baseline_valley3_vectors_equal_the_per_segment_loop(mixed_corpus_dir, mixed_features,
                                                             tmp_path, monkeypatch):
    import numpy as np

    from specvalley import baseline

    seen = []
    train_mlp, predict = baseline.train_mlp, baseline.predict

    def recording_train(features, labels, **kwargs):
        seen.extend(zip(map(tuple, features), labels))
        return train_mlp(features, labels, **kwargs)

    def recording_predict(model, feat):
        pred = predict(model, feat)
        seen.append((tuple(feat), None))
        return pred

    monkeypatch.setattr(baseline, "train_mlp", recording_train)
    monkeypatch.setattr(baseline, "predict", recording_predict)
    expected, skipped = [], 0
    for seg, truth in _reference_scored(mixed_corpus_dir, False):
        dec = _reference_decision(mixed_features[_seg_id(seg)], "valley")
        if dec is None:
            skipped += 1
        else:
            expected.append(tuple(np.array([dec.mean_v1, dec.mean_v2, dec.mean_diff])))
    assert skipped > 0
    out = tmp_path / "base.csv"
    assert run(["baseline", "--corpus", str(mixed_corpus_dir), "--feature", "valley3",
                "--epochs", "5", "--out", str(out), "--no-timestamp"]) == 0
    assert sorted(vec for vec, _ in seen) == sorted(expected)
    assert read_summary(out, "valley3").endswith(f",{skipped}")


# The benchmark counts LP frames as the lengths of the frame_pipeline results of
# a pass, so every frame of every scored segment must pass through exactly one
# call, once per noise condition; the stage feeds it blocks of whole segments.

@pytest.fixture
def pipeline_calls(monkeypatch):
    """(stack length per segment, sample rate, frames returned) per
    classify.frame_pipeline call. The stage decides each segment of a block
    from its slice of the table before the next call, so the slice lengths
    are the lengths of the stacks the call was given."""
    from specvalley import classify

    calls = []
    frame_pipeline, decide_segment = classify.frame_pipeline, classify.decide_segment

    def counted(frames, sample_rate, cfg=None):
        table = frame_pipeline(frames, sample_rate, cfg)
        calls.append(([], sample_rate, len(table)))
        return table

    def sliced(table, *args):
        calls[-1][0].append(len(table))
        return decide_segment(table, *args)

    monkeypatch.setattr(classify, "frame_pipeline", counted)
    monkeypatch.setattr(classify, "decide_segment", sliced)
    return calls


@pytest.mark.parametrize("argv, conditions", [
    (["classify"], 1),
    (["classify", "--include-central"], 1),
    (["hist"], 1),
    (["baseline", "--feature", "valley3", "--epochs", "5"], 1),
    (["noise-eval", "--noise", "white,babble", "--snrs", "25,0"], 4),
    (["baseline", "--feature", "mfcc", "--epochs", "5"], 0),
], ids=["classify", "classify_central", "hist", "baseline_valley3", "noise_eval",
        "baseline_mfcc"])
def test_frame_pipeline_runs_once_per_segment_and_condition(argv, conditions,
                                                            mixed_corpus_dir, mixed_features,
                                                            babble_path, pipeline_calls,
                                                            tmp_path):
    from specvalley.classify import STACK_FRAMES

    scored = _reference_scored(mixed_corpus_dir, "--include-central" in argv)
    n_frames = sum(len(mixed_features[_seg_id(seg)]) for seg, _ in scored)
    if argv[0] == "noise-eval":
        argv = argv + ["--babble-source", str(babble_path)]
    assert run(argv + ["--corpus", str(mixed_corpus_dir), "--out", str(tmp_path / "o.csv"),
                       "--no-timestamp"]) == 0
    assert sum(n for *_, n in pipeline_calls) == conditions * n_frames
    assert all(sum(segments) == n for segments, _, n in pipeline_calls)
    assert all(n <= STACK_FRAMES or len(segments) == 1 for segments, _, n in pipeline_calls)
    assert sum(len(segments) for segments, *_ in pipeline_calls) == conditions * len(scored)
    if argv[0] == "classify":
        assert 0 < len(pipeline_calls) < len(scored)


# ---------------------------------------------------------------- block edges

def _rewrite(wav, root, audio, start, end, label):
    from specvalley.corpus import save_wav

    save_wav(root / wav.name, audio)
    (root / wav.name).with_suffix(".phn").write_text(
        f"0 {start} h#\n{start} {end} {label}\n{end} {len(audio.samples)} h#\n")


def _vowel(wav):
    from specvalley.corpus import load_wav

    start, end, label = wav.with_suffix(".phn").read_text().splitlines()[1].split()
    return load_wav(wav), int(start), int(end), label


@pytest.fixture(scope="module")
def block_corpus_dir(small_corpus_dir, tmp_path_factory):
    """The small corpus with the sixth vowel cut to 46 ms (no frame at 50 ms
    frames) and the 31st repeated 25 times (more than STACK_FRAMES frames)."""
    import numpy as np

    from specvalley.types import SignalBuffer

    root = tmp_path_factory.mktemp("block_corpus")
    for k, wav in enumerate(sorted(small_corpus_dir.glob("*.wav"))):
        audio, start, end, label = _vowel(wav)
        if k == 5:
            end = start + int(0.046 * audio.sample_rate)
        elif k == 30:
            pad = audio.samples[:start]
            vowel = np.tile(audio.samples[start:end], 25)
            audio = SignalBuffer(np.concatenate([pad, vowel, pad]), audio.sample_rate)
            end = start + len(vowel)
        _rewrite(wav, root, audio, start, end, label)
    return root


@pytest.fixture(scope="module")
def mixed_rate_corpus_dir(small_corpus_dir, tmp_path_factory):
    """The small corpus with two files in every four decimated to 8 kHz."""
    from specvalley.types import SignalBuffer

    root = tmp_path_factory.mktemp("mixed_rate_corpus")
    for k, wav in enumerate(sorted(small_corpus_dir.glob("*.wav"))):
        audio, start, end, label = _vowel(wav)
        if k % 4 in (1, 2):
            audio = SignalBuffer(audio.samples[::2], audio.sample_rate / 2)
            start, end = start // 2, end // 2
        _rewrite(wav, root, audio, start, end, label)
    return root


def _classify_equals_the_per_segment_loop(corpus_dir, pipeline_calls, tmp_path, cfg=None,
                                          flags=()):
    """Run classify and compare it with the loop; returns the reference features.

    `pipeline_calls` keeps the calls of the classify run alone.
    """
    scored = _reference_scored(corpus_dir, False)
    features = {_seg_id(seg): _reference_features(seg.audio, cfg) for seg, _ in scored}
    pipeline_calls.clear()
    out = tmp_path / "cls.csv"
    assert run(["classify", "--corpus", str(corpus_dir), *flags, "--out", str(out),
                "--no-timestamp"]) == 0
    assert data_rows(out) == _expected_classify_rows(scored, features)
    return [features[_seg_id(seg)] for seg, _ in scored]


def test_a_segment_without_frames_inside_a_block(block_corpus_dir, pipeline_calls, tmp_path):
    from specvalley.classify import PipelineConfig

    features = _classify_equals_the_per_segment_loop(
        block_corpus_dir, pipeline_calls, tmp_path, PipelineConfig(frame_ms=50.0),
        ["--frame-ms", "50"])
    assert [len(f) for f in features].count(0) == 1
    [counts] = [counts for counts, *_ in pipeline_calls if 0 in counts]
    assert 0 < counts.index(0) < len(counts) - 1


def test_a_segment_longer_than_a_block_is_a_block_of_its_own(block_corpus_dir, pipeline_calls,
                                                             tmp_path):
    from specvalley.classify import STACK_FRAMES

    features = _classify_equals_the_per_segment_loop(block_corpus_dir, pipeline_calls, tmp_path)
    [long] = [len(f) for f in features if len(f) > STACK_FRAMES]
    assert [(len(segments), n) for segments, _, n in pipeline_calls if n > STACK_FRAMES] == [
        (1, long)]
    index = [n for *_, n in pipeline_calls].index(long)
    assert 0 < index < len(pipeline_calls) - 1


def test_mixed_rate_corpus_equals_the_per_segment_loop(mixed_rate_corpus_dir, pipeline_calls,
                                                       tmp_path):
    _classify_equals_the_per_segment_loop(mixed_rate_corpus_dir, pipeline_calls, tmp_path)
    # every segment of a block is at the rate of its call
    rates = [rate for segments, rate, _ in pipeline_calls for _ in segments]
    assert rates == [seg.audio.sample_rate for seg, _ in
                     _reference_scored(mixed_rate_corpus_dir, False)]
    assert set(rates) == {8000, 16000}


# ------------------------------------------------------ noise-eval and silence

@pytest.fixture(scope="module")
def silent_vowel_corpus_dirs(recipes, tmp_path_factory):
    """A 12-segment corpus, and a copy of it whose fifth vowel is zeroed."""
    from specvalley import synthetic

    clean = tmp_path_factory.mktemp("twelve")
    synthetic.build_synthetic_corpus(clean, n_segments=12, seed=5, recipes=recipes)
    silent = tmp_path_factory.mktemp("twelve_silent")
    for k, wav in enumerate(sorted(clean.glob("*.wav"))):
        audio, start, end, label = _vowel(wav)
        if k == 4:
            audio.samples[start:end] = 0.0
            silent_id = f"{wav.stem}:{start}"
        _rewrite(wav, silent, audio, start, end, label)
    return clean, silent, silent_id


def test_noise_eval_counts_a_silent_segment_as_undecided(silent_vowel_corpus_dirs, babble_path,
                                                         tmp_path):
    clean, silent, silent_id = silent_vowel_corpus_dirs
    rows = {}
    for name, corpus_dir in (("clean", clean), ("silent", silent)):
        out = tmp_path / f"{name}.csv"
        assert run(["noise-eval", "--corpus", str(corpus_dir), "--noise", "white,babble",
                    "--snrs", "25,0", "--babble-source", str(babble_path), "--out", str(out),
                    "--no-timestamp"]) == 0
        rows[name] = [row.split(",") for row in data_rows(out)[1:]]
    assert len(rows["silent"]) == 4
    for clean_row, silent_row in zip(rows["clean"], rows["silent"]):
        assert silent_row[:2] == clean_row[:2]
        assert int(silent_row[-1]) == int(clean_row[-1]) + 1
    out = tmp_path / "cls.csv"
    assert run(["classify", "--corpus", str(silent), "--out", str(out), "--no-timestamp"]) == 0
    assert [row for row in data_rows(out) if row.startswith(silent_id + ",")][0].endswith(
        ",undecided")


def run_help(command):
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run([command, "--help"])
    return buf.getvalue()
