from pathlib import Path

import pytest

from specvalley.cli import run


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
    ], ids=["zero_bin_width", "negative_bin_width", "nan_bin_width", "inf_bin_width",
            "empty_range", "reversed_range", "inf_range", "nan_range"])
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

    def test_hist_on_missing_corpus_exits_1(self, tmp_path):
        out = tmp_path / "hist.csv"
        code = run(["hist", "--corpus", str(tmp_path / "nowhere"), "--out", str(out),
                    "--no-timestamp"])
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
        assert "--step must be positive" in capsys.readouterr().err

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

    @pytest.mark.parametrize("gender", ["x", "male,x", ","])
    def test_pb_ocd_unknown_gender_is_a_usage_error(self, gender, capsys):
        assert run(["pb-ocd", f"--gender={gender}", "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert "--gender" in err and "female, male" in err


def run_help(command):
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run([command, "--help"])
    return buf.getvalue()
