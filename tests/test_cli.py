import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import frame_reference
from conftest import segment
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


def _wav_at_rate_zero():
    """A 16-bit mono WAV whose header gives a sample rate of 0 Hz."""
    import io
    import struct
    import wave

    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(bytes(12800))
    data = bytearray(buf.getvalue())
    rate_at = data.index(b"fmt ") + 12
    data[rate_at:rate_at + 4] = struct.pack("<I", 0)
    return bytes(data)


@pytest.mark.parametrize("wav_bytes, phn, message", [
    (NIST_HEADER, "0 1600 h#\n",
     "DR1/FAKS0/SA1.WAV: not a readable WAV file: file does not start with RIFF id"),
    (None, "0 100 h#\n100 oops iy\n",
     "DR1/FAKS0/SA1.PHN: line 2: non-integer sample bounds in '100 oops iy'"),
    (_wav_at_rate_zero(), "0 1600 iy\n",
     "DR1/FAKS0/SA1.WAV: sample rate must be positive, got 0"),
], ids=["nist-wav", "bad-label-line", "rate-zero"])
def test_corpus_read_error_names_the_file(wav_bytes, phn, message, tmp_path, capsys):
    from specvalley.corpus import save_wav

    wav = tmp_path / "DR1" / "FAKS0" / "SA1.WAV"
    wav.parent.mkdir(parents=True)
    if wav_bytes is None:
        save_wav(wav, np.zeros(6400), 16000.0)
    else:
        wav.write_bytes(wav_bytes)
    wav.with_suffix(".PHN").write_text(phn)
    assert run(["classify", "--corpus", str(tmp_path), "--no-timestamp"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("bounds", ["-3200 -1600", "-100 1600"])
def test_negative_label_bound_is_an_error_naming_the_file(bounds, tmp_path, capsys):
    # read as Python indices, -3200 would take samples from the end of the file
    from specvalley.corpus import save_wav

    wav = tmp_path / "DR1" / "FAKS0" / "SA1.WAV"
    wav.parent.mkdir(parents=True)
    t = np.arange(16000) / 16000.0
    save_wav(wav, 0.3 * np.sin(2 * np.pi * 700.0 * t), 16000.0)
    wav.with_suffix(".PHN").write_text(f"{bounds} aa\n")
    assert run(["classify", "--corpus", str(tmp_path), "--no-timestamp"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: DR1/FAKS0/SA1.PHN: line 1: negative sample bound in "
                            f"'{bounds} aa'\n")


@pytest.mark.parametrize("broken, message", [
    ("empty_wav", "DR1/FAKS0/SA1.WAV: not a readable WAV file: it ends inside its header"),
    ("wav_ends_mid_sample",
     "DR1/FAKS0/SA1.WAV: data ends mid-sample: 31999 bytes are not whole 16-bit samples"),
    ("wav_over_claimed",
     "DR1/FAKS0/SA1.WAV: data chunk claims 32000 bytes, the file holds 31998"),
    ("labels_not_utf8", "DR1/FAKS0/SA1.PHN: not UTF-8 text: 'utf-8' codec can't decode "
                        "byte 0xff in position 0: invalid start byte"),
], ids=["empty_wav", "wav_ends_mid_sample", "wav_over_claimed", "labels_not_utf8"])
def test_a_malformed_file_is_one_error_line_naming_it(broken, message, tmp_path, capsys):
    from specvalley.corpus import save_wav

    wav = tmp_path / "DR1" / "FAKS0" / "SA1.WAV"
    wav.parent.mkdir(parents=True)
    save_wav(wav, np.zeros(16000), 16000.0)
    wav.with_suffix(".PHN").write_text("0 1600 h#\n1600 4800 iy\n")
    if broken == "empty_wav":
        wav.write_bytes(b"")
    elif broken == "wav_ends_mid_sample":
        wav.write_bytes(wav.read_bytes()[:-1])
    elif broken == "wav_over_claimed":  # cut by one whole sample
        wav.write_bytes(wav.read_bytes()[:-2])
    else:
        wav.with_suffix(".PHN").write_bytes(b"\xff 1600 h#\n")
    assert run(["classify", "--corpus", str(tmp_path), "--no-timestamp"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("flag", ["--inventory", "--exclusions", "--table"])
def test_an_input_file_that_is_not_utf8_is_one_error_line_naming_it(flag, tmp_path, capsys):
    bad, good = tmp_path / "bad.txt", tmp_path / "good.txt"
    bad.write_bytes(b"aa back\n\xff front\n")
    good.write_text("aa back\n")
    if flag == "--table":
        argv = ["pb-ocd", "--table", str(bad)]
    else:
        files = {"--inventory": good, "--exclusions": good, flag: bad}
        argv = ["classify", "--corpus", str(tmp_path)] + [
            str(v) for item in files.items() for v in item]
    assert run(argv + ["--no-timestamp"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {bad}: not UTF-8 text: 'utf-8' codec can't decode byte "
                            "0xff in position 8: invalid start byte\n")


def test_the_dravidian_inventory_decides_as_timit_on_mapped_labels(small_corpus_dir,
                                                                   tmp_path):
    # the corpus with iy and aa relabelled i and a: those segments, and no other,
    # are the dravidian inventory's vowels
    mapped = tmp_path / "mapped"
    mapped.mkdir()
    renamed = {"iy": "i", "aa": "a"}
    for wav in small_corpus_dir.glob("*.wav"):
        (mapped / wav.name).write_bytes(wav.read_bytes())
        lines = [line.split() for line in wav.with_suffix(".phn").read_text().splitlines()]
        (mapped / wav.with_suffix(".phn").name).write_text(
            "".join(f"{a} {b} {renamed.get(label, label)}\n" for a, b, label in lines))
    rows = {}
    for inventory, corpus_dir in (("timit", small_corpus_dir), ("dravidian", mapped)):
        out = tmp_path / f"{inventory}.csv"
        assert run(["classify", "--corpus", str(corpus_dir), "--inventory", inventory,
                    "--out", str(out), "--no-timestamp"]) == 0
        rows[inventory] = [line.split(",") for line in data_rows(out)[1:]]
    expected = [[seg, renamed[label], *rest] for seg, label, *rest in rows["timit"]
                if label in renamed]
    assert {row[1] for row in expected} == {"i", "a"}
    assert rows["dravidian"] == expected


def test_an_eigenvalue_failure_is_one_error_line(small_corpus_dir, monkeypatch, tmp_path,
                                                 capsys):
    # the corpus leaves some frames' roots to eigvals (18 at the defaults)
    def failing(companion):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    out = tmp_path / "cls.csv"
    assert run(["classify", "--corpus", str(small_corpus_dir), "--out", str(out),
                "--no-timestamp"]) == 1
    assert capsys.readouterr().err == (
        "error: eigenvalue iteration failed: Eigenvalues did not converge\n")
    assert not out.exists()


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

    def test_babble_without_source_is_a_usage_error(self, small_corpus_dir, no_corpus_reading,
                                                    capsys):
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
    def test_noise_eval_lists_are_checked_first(self, argv, flag, tmp_path, no_corpus_reading,
                                                capsys):
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
    def test_hist_flags_are_checked_first(self, argv, flag, tmp_path, no_corpus_reading,
                                          capsys):
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
    def test_missing_geometry_is_a_usage_error(self, command, geometry, no_experiment_running,
                                               capsys):
        assert run([command, *geometry, "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert "--case" in err and "--f1" in err and "--f2" in err

    @pytest.mark.parametrize("command", ["levels", "f0"])
    @pytest.mark.parametrize("geometry", [["--f1", "500"], ["--f2", "1300"],
                                          ["--f1", "500", "--f2", "1300"]],
                             ids=["f1", "f2", "f1_f2"])
    def test_case_with_explicit_geometry_is_a_usage_error(self, command, geometry,
                                                          no_experiment_running, capsys):
        assert run([command, "--case", "a", *geometry, "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert "--case" in err and "--f1" in err and "--f2" in err

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

    @pytest.mark.parametrize("argv, sweep", [
        (["ocd2", "--step=0.002"], "from --f1-start up to --f2"),
        (["ocd2", "--step=1e-320"], "from --f1-start up to --f2"),
        (["ocd4", "--step=0.001"], "between --formants F1 and F2"),
        (["ocd4", "--step=0.004", "--pair=3"], "between --formants F3 and F4"),
        (["pb-ocd", "--step=0.01"], "in the V23 sweep of eh (male)"),
        (["pb-ocd", "--step=0.01", "--gender=female"], "in the V23 sweep of ih (female)"),
    ])
    def test_sweep_steps_beyond_the_budget_are_a_usage_error(self, argv, sweep,
                                                             no_experiment_running, capsys):
        assert run([*argv, "--no-timestamp"]) == 2
        step = float(argv[1].split("=")[1])
        assert capsys.readouterr().err.strip() == (
            f"--step {step:g} allows more than 100000 steps {sweep}")

    def test_sweep_commands_read_the_budget_of_the_sweep_engine(self, monkeypatch, tmp_path,
                                                                capsys):
        from specvalley import experiments

        # ocd2's F1 climbs towards F2 until they are two steps apart:
        # (1400 - 650) / 25 - 2 = 28 steps at most
        monkeypatch.setattr(experiments, "MAX_SWEEP_STEPS", 28)
        assert run(["ocd2", "--out", str(tmp_path / "ocd2.csv"), "--no-timestamp"]) == 0
        monkeypatch.setattr(experiments, "MAX_SWEEP_STEPS", 27)
        assert run(["ocd2", "--no-timestamp"]) == 2
        assert "allows more than 27 steps" in capsys.readouterr().err

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


CORPUS_COMMANDS = {
    "classify": ["classify"],
    "noise-eval": ["noise-eval", "--noise", "white"],
    "hist": ["hist"],
    "baseline": ["baseline"],
}


@pytest.mark.parametrize("command", ["classify", "hist"])
@pytest.mark.parametrize("value", ["1e308", "1e20"])
def test_frame_ms_beyond_an_int64_frame_is_a_usage_error(command, value, small_corpus_dir,
                                                         capsys):
    # 1e308 ms overflows to an infinite sample count, 1e20 ms to more than int64 holds
    argv = [command, "--corpus", str(small_corpus_dir), f"--frame-ms={value}", "--no-timestamp"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"invalid --lp-order or --frame-ms: a {float(value):g} ms frame at "
                            "16000 Hz does not fit an int64 sample count\n")


@pytest.mark.parametrize("command", ["classify", "hist"])
def test_frame_ms_beyond_a_float64_array_is_a_usage_error(command, small_corpus_dir, capsys):
    # 1e17 ms is 1.6e18 samples at 16 kHz: an int64 count, but 1.28e19 bytes of float64
    argv = [command, "--corpus", str(small_corpus_dir), "--frame-ms=1e17", "--no-timestamp"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invalid --lp-order or --frame-ms: a 1e+17 ms frame at 16000 Hz "
                            "(1600000000000000000 samples) does not fit a float64 array\n")


@pytest.mark.parametrize("command", CORPUS_COMMANDS)
def test_missing_corpus_is_a_usage_error(command, tmp_path, no_corpus_reading, capsys):
    # the check comes before the inventory is read, so a missing one is not named
    missing = str(tmp_path / "nowhere")
    argv = CORPUS_COMMANDS[command] + ["--corpus", missing, "--inventory", missing,
                                       "--exclusions", missing, "--no-timestamp"]
    assert run(argv) == 2
    assert capsys.readouterr().err.strip() == f"--corpus must be a directory, got {missing!r}"


@pytest.mark.parametrize("command", CORPUS_COMMANDS)
@pytest.mark.parametrize("ext", ["phn", ".", "a/.phn"])
def test_a_label_extension_that_is_no_suffix_is_a_usage_error(command, ext, tmp_path,
                                                              no_corpus_reading, capsys):
    argv = CORPUS_COMMANDS[command] + ["--corpus", str(tmp_path), f"--labels-ext={ext}",
                                       "--no-timestamp"]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"--labels-ext must be empty or a suffix such as .phn, got {ext!r}\n")


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


# one command line per command whose formants must ascend, and its usage error
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
    (["levels", "--f1=600", "--f2=1300", "--f3=500"],
     "--f2 (1300 Hz) must be below --f3 (500 Hz)"),
    (["levels", "--case=a", "--f4=2000"], "--f3 (2500 Hz) must be below --f4 (2000 Hz)"),
    (["f0", "--f1=1300", "--f2=600"], "--f1 (1300 Hz) must be below --f2 (600 Hz)"),
    (["f0", "--f1=600", "--f2=1300", "--f3=500"], "--f2 (1300 Hz) must be below --f3 (500 Hz)"),
    (["f0", "--case=b", "--f3=1000"], "--case b F2 (1300 Hz) must be below --f3 (1000 Hz)"),
]


@pytest.mark.parametrize("argv, message", OUT_OF_ORDER,
                         ids=["_".join(argv).replace("--", "") for argv, _ in OUT_OF_ORDER])
def test_formants_out_of_order_are_a_usage_error(argv, message, no_experiment_running, capsys):
    assert run([*argv, "--no-timestamp"]) == 2
    assert capsys.readouterr().err.strip() == message


def _points_fault(command, points):
    return ([command, f"--points={points}"], 2,
            f"--points must be at least 64 and at most 1048576, got {points}")


# flag values that once ran out of memory with a traceback, leaked NumPy
# warnings or printed "no crossing" rows: each ends in its exit code and one
# line on stderr (none for 0), and a usage error (2) before any experiment runs
FLAG_FAULTS = [
    *(_points_fault(command, points) for command in ("ocd2", "ocd4", "sweep2")
      for points in (1048577, 1000000000000)),
    (["ocd2", "--fs=1e300"], 1,
     "error: resonator at 650 Hz with bandwidth 100 Hz has zero DC gain "
     "at sample rate 1e+300 Hz"),
    (["pb-ocd", "--gender=male", "--f4=2000"], 2,
     "table vowel iy (male) F3 (3010 Hz) must be below --f4 (2000 Hz)"),
    (["pb-ocd", "--f4=1e-9"], 2,
     "table vowel iy (male) F3 (3010 Hz) must be below --f4 (1e-09 Hz)"),
    (["pb-ocd", "--bw=1e-300"], 1,
     "error: resonator at 2400 Hz with bandwidth 1e-300 Hz has a pole on the frequency "
     "grid at sample rate 8000 Hz"),
    *((["baseline", f"--hidden={hidden}"], 2,
       f"--hidden must be at least 1 and at most 10000, got {hidden}")
      for hidden in (10001, 2**63 - 1)),
    # the LP order is bounded before any envelope table is built
    *(([*command, f"{flag}={order}"], 2,
       f"{flag} must be at least 1 and at most 1000, got {order}")
      for command, flag in ((["f0", "--case=a"], "--order"),
                            (["classify", "--corpus=/nonexistent"], "--lp-order"))
      for order in (1001, 3199, 2**63 - 1)),
    # the lag window costs its taps, not its half-length
    *((["f0", "--case=a", f"--lag-window={half_length}"], 0, None)
      for half_length in (100000000000, 2**63 - 1)),
    # integers beyond int64, and beyond float range, are refused before any use
    (["ocd2", f"--seed=1{'0' * 400}"], 2,
     f"--seed must be at least 0 and at most 9223372036854775807, got 1{'0' * 400}"),
    (["f0", "--case=a", f"--lag-window=1{'0' * 399}"], 2,
     f"--lag-window must be at least 0 and at most 9223372036854775807, got 1{'0' * 399}"),
]


def _flag_fault_id(argv):
    # a run of 20 or more digits is named by its first digit and its length
    return re.sub(r"\d{20,}", lambda m: f"{m[0][0]}x{len(m[0])}digits",
                  "_".join(argv).replace("--", ""))


@pytest.mark.parametrize("argv, code, message", FLAG_FAULTS,
                         ids=[_flag_fault_id(argv) for argv, *_ in FLAG_FAULTS])
def test_flag_faults_end_in_one_line(argv, code, message, request, capsys):
    if code == 2:
        request.getfixturevalue("no_experiment_running")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([*argv, "--no-timestamp"]) == code
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    assert err.splitlines() == ([] if message is None else [message])


@pytest.mark.parametrize("band", ["0", "-1"])
def test_band_at_or_below_zero_disables_the_band(band, tmp_path):
    import numpy as np

    from specvalley import experiments

    out = tmp_path / "sweep2.csv"
    assert run(["sweep2", f"--band={band}", "--out", str(out), "--no-timestamp"]) == 0
    assert " band=None " in out.read_text().splitlines()[1]
    meter = experiments.PairMeter(np.array([(650.0, 100.0), (1400.0, 200.0)]),
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


def test_lag_window_below_the_order_is_a_usage_error(no_experiment_running, capsys):
    assert run(["f0", "--case=a", "--lag-window=4", "--no-timestamp"]) == 2
    assert "--lag-window (4) must not be below --order (8)" in capsys.readouterr().err


# (command, flag, a negative value in exponent form or not finite, exit code,
# first stderr line)
SPACE_FORMS = [
    (["classify", "--corpus", "<CORPUS>"], "--threshold", "-1e300", 0, []),
    (["classify", "--corpus", "<CORPUS>"], "--threshold", "-inf", 2,
     ["--threshold must be finite, got -inf"]),
    (["ocd2"], "--band", "-1e3", 0, []),
    (["noise-eval", "--corpus", "<CORPUS>", "--noise", "white"], "--snrs", "-1e1,5", 0, []),
]


@pytest.mark.parametrize("command, flag, value, code, first_err", SPACE_FORMS,
                         ids=[f"{c[0]}{f}={v}" for c, f, v, *_ in SPACE_FORMS])
def test_a_negative_value_after_a_space_reads_as_after_an_equals_sign(
        command, flag, value, code, first_err, golden_inputs, capsys):
    argv = [str(golden_inputs[0]) if a == "<CORPUS>" else a for a in command]
    outcomes = []
    for form in ([flag, value], [f"{flag}={value}"]):
        exit_code = run([*argv, *form, "--no-timestamp"])
        out, err = capsys.readouterr()
        outcomes.append((exit_code, out, err.splitlines()[:1]))
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0][0], outcomes[0][2]) == (code, first_err)


def test_baseline_with_10000_hidden_units_warns_nothing(golden_inputs, tmp_path):
    # the logistic's exp overflows for some outputs of this wide network on the
    # seed-3 corpus; the limit it reaches is the value without the warning
    out = tmp_path / "baseline.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["baseline", "--hidden", "10000", "--corpus", str(golden_inputs[0]),
                    "--out", str(out), "--no-timestamp"]) == 0
    assert out.read_text().splitlines()[-1].startswith("# mfcc,12,10000,28,12,")


def test_a_test_fraction_that_leaves_no_training_segment_is_a_usage_error(
        golden_inputs, monkeypatch, capsys):
    from specvalley import baseline

    def no_training(*args, **kwargs):
        raise AssertionError("train_mlp ran")

    monkeypatch.setattr(baseline, "train_mlp", no_training)
    assert run(["baseline", "--test-fraction", "0.9999999999", "--corpus",
                str(golden_inputs[0]), "--no-timestamp"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "--test-fraction 0.9999999999 leaves no training segment of the 40 usable segments"]


# --------------------------------------------- the corpus stage, exact reference
# The loop every corpus command ran before they shared one stage: frame_pipeline
# and decide_segment once per scored segment, central vowels scored as back only
# with --include-central, with the per-frame objects of `frame_reference`. The
# CLI must give exactly what it gives.


def _reference_scored(corpus_dir, include_central):
    """(segment, truth) per scored segment, a segment as a namespace of its
    table row: id, label, rate and audio (its (samples, rate))."""
    from types import SimpleNamespace

    from conftest import segment_audio
    from specvalley.corpus import collect_segments, timit_inventory

    table = collect_segments(corpus_dir, ".phn", timit_inventory())
    scored = []
    for i, audio in enumerate(segment_audio(table)):
        seg = SimpleNamespace(id=table.segment_id(i), label=table.label[i], audio=audio)
        if table.fb_class[i] == "central":
            if include_central:
                scored.append((seg, "back"))
            continue
        scored.append((seg, table.fb_class[i]))
    return scored


def _seg_id(seg):
    return seg.id


@pytest.fixture(scope="module")
def mixed_corpus_dir(small_corpus_dir, tmp_path_factory):
    """The small corpus with every third vowel relabelled as the central 'ax',
    and every tenth vowel flattened to a constant, which leaves no valid frame."""
    from specvalley.corpus import load_wav, save_wav

    root = tmp_path_factory.mktemp("mixed_corpus")
    for k, wav in enumerate(sorted(small_corpus_dir.glob("*.wav"))):
        labels = wav.with_suffix(".phn").read_text().splitlines()
        start, end, _ = labels[1].split()
        samples, rate = load_wav(wav)
        if k % 10 == 1:
            samples[int(start):int(end)] = 0.1
        save_wav(root / wav.name, samples, rate)
        if k % 3 == 0:
            labels[1] = f"{start} {end} ax"
        (root / wav.name).with_suffix(".phn").write_text("\n".join(labels) + "\n")
    return root


@pytest.fixture(scope="module")
def mixed_features(mixed_corpus_dir):
    """The frame features of every segment of the mixed corpus, by segment id."""
    return {_seg_id(seg): frame_reference.frame_pipeline(seg.audio)
            for seg, _ in _reference_scored(mixed_corpus_dir, include_central=True)}


FEATURE_RULES = {"valley": "valley", "f3f2": "f3f2_3bark", "f2f1": "f2f1_bark",
                 "v1": "v1_only", "v2": "v2_only"}


def _expected_classify_rows(scored, features, feature="valley", threshold=None):
    """The classify data rows of the per-segment loop; `features` by segment id."""
    expected = ["segment_id,label,class,mean_v1,mean_v2,mean_diff,predicted"]
    for seg, truth in scored:
        dec = frame_reference.decide_segment(features[_seg_id(seg)], threshold,
                                             FEATURE_RULES[feature])
        cells = ("", "", "", "undecided") if dec is None else (
            f"{dec.mean_v1:.3f}", f"{dec.mean_v2:.3f}", f"{dec.mean_diff:.3f}", dec.predicted)
        expected.append(",".join([_seg_id(seg), seg.label, truth, *cells]))
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
        dec = frame_reference.decide_segment(mixed_features[_seg_id(seg)], None, rule)
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


NOISE_SEED = 3
NOISE_CONDITIONS = [(kind, snr) for kind in ("white", "babble") for snr in (25.0, 0.0)]


@pytest.fixture(scope="module")
def noisy_features(small_corpus_dir, babble_path):
    """(kind, snr) -> the frame features of every scored segment of the small
    corpus mixed alone with seed NOISE_SEED + its index, per NOISE_CONDITIONS."""
    from specvalley.corpus import load_wav, mix_noise

    babble = load_wav(babble_path)
    audio = [seg.audio for seg, _ in _reference_scored(small_corpus_dir, False)]

    def features(kind, snr):
        return [frame_reference.frame_pipeline(
            (mix_noise(samples, rate, kind, snr, NOISE_SEED + i, babble=babble), rate))
            for i, (samples, rate) in enumerate(audio)]

    return {condition: features(*condition) for condition in NOISE_CONDITIONS}


@pytest.mark.parametrize("feature, rule, threshold", [("valley", "valley", None),
                                                      ("v1", "v1_only", 1.5)])
def test_noise_eval_rows_equal_the_per_segment_loop(feature, rule, threshold, small_corpus_dir,
                                                    babble_path, noisy_features, tmp_path):
    from specvalley import classify

    truths = [truth for _, truth in _reference_scored(small_corpus_dir, False)]
    expected = []
    for kind, snr in NOISE_CONDITIONS:
        decisions = [frame_reference.decide_segment(features, threshold, rule)
                     for features in noisy_features[kind, snr]]
        report = classify.score(decisions, truths)
        accs = [("" if a is None else f"{a:.2f}") for a in
                (report.front_accuracy, report.back_accuracy, report.overall_accuracy)]
        expected.append(",".join([kind, f"{snr:.1f}", *accs, str(report.n_undecided)]))
    out = tmp_path / "noise.csv"
    argv = ["noise-eval", "--corpus", str(small_corpus_dir), "--noise", "white,babble",
            "--snrs", "25,0", "--babble-source", str(babble_path), "--feature", feature,
            "--seed", str(NOISE_SEED), "--out", str(out), "--no-timestamp"]
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
        dec = frame_reference.decide_segment(mixed_features[_seg_id(seg)])
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

    samples, rate = audio
    save_wav(root / wav.name, samples, rate)
    (root / wav.name).with_suffix(".phn").write_text(
        f"0 {start} h#\n{start} {end} {label}\n{end} {len(samples)} h#\n")


def _vowel(wav):
    from specvalley.corpus import load_wav

    start, end, label = wav.with_suffix(".phn").read_text().splitlines()[1].split()
    return load_wav(wav), int(start), int(end), label


@pytest.fixture(scope="module")
def block_corpus_dir(small_corpus_dir, tmp_path_factory):
    """The small corpus with the sixth vowel cut to 46 ms (no frame at 50 ms
    frames) and the 31st repeated 25 times (more than STACK_FRAMES frames)."""
    import numpy as np

    root = tmp_path_factory.mktemp("block_corpus")
    for k, wav in enumerate(sorted(small_corpus_dir.glob("*.wav"))):
        audio, start, end, label = _vowel(wav)
        samples, rate = audio
        if k == 5:
            end = start + int(0.046 * rate)
        elif k == 30:
            pad = samples[:start]
            vowel = np.tile(samples[start:end], 25)
            audio = np.concatenate([pad, vowel, pad]), rate
            end = start + len(vowel)
        _rewrite(wav, root, audio, start, end, label)
    return root


@pytest.fixture(scope="module")
def mixed_rate_corpus_dir(small_corpus_dir, tmp_path_factory):
    """The small corpus with two files in every four decimated to 8 kHz."""
    root = tmp_path_factory.mktemp("mixed_rate_corpus")
    for k, wav in enumerate(sorted(small_corpus_dir.glob("*.wav"))):
        audio, start, end, label = _vowel(wav)
        if k % 4 in (1, 2):
            audio = audio[0][::2], audio[1] / 2
            start, end = start // 2, end // 2
        _rewrite(wav, root, audio, start, end, label)
    return root


def _classify_equals_the_per_segment_loop(corpus_dir, pipeline_calls, tmp_path, cfg=None,
                                          flags=()):
    """Run classify and compare it with the loop; returns the reference features.

    `pipeline_calls` keeps the calls of the classify run alone.
    """
    scored = _reference_scored(corpus_dir, False)
    features = {_seg_id(seg): frame_reference.frame_pipeline(seg.audio, cfg) for seg, _ in scored}
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
    assert rates == [seg.audio[1] for seg, _ in
                     _reference_scored(mixed_rate_corpus_dir, False)]
    assert set(rates) == {8000, 16000}


def test_pre_emphasis_restarts_at_every_segment(small_corpus_dir, pipeline_calls, tmp_path):
    # two vowels labelled back to back, with no silence between them: in the
    # utterance and in the table's buffer, the second one's first sample
    # follows a sample of the first, which its pre-emphasis must not see
    from specvalley.corpus import collect_segments, save_wav, timit_inventory

    (front, rate), s1, e1, l1 = _vowel(sorted(small_corpus_dir.glob("*_iy_*.wav"))[0])
    (back, _), s2, e2, l2 = _vowel(sorted(small_corpus_dir.glob("*_aa_*.wav"))[0])
    pad = front[:s1]
    samples = np.concatenate([pad, front[s1:e1], back[s2:e2], pad])
    mid, end = s1 + e1 - s1, s1 + e1 - s1 + e2 - s2
    root = tmp_path / "adjacent"
    root.mkdir()
    save_wav(root / "pair.wav", samples, rate)
    (root / "pair.phn").write_text(f"0 {s1} h#\n{s1} {mid} {l1}\n{mid} {end} {l2}\n"
                                   f"{end} {len(samples)} h#\n")
    table = collect_segments(root, ".phn", timit_inventory())
    assert table.start_sample.tolist() == [s1, mid] and table.offsets[1] == mid - s1
    assert table.pcm[table.offsets[1] - 1] != 0
    _classify_equals_the_per_segment_loop(root, pipeline_calls, tmp_path)
    assert [len(segments) for segments, *_ in pipeline_calls] == [2]


@pytest.mark.parametrize("argv, conditions", [
    (["classify"], 1), (["hist"], 1),
    (["noise-eval", "--noise", "white,babble", "--snrs", "25,0"], 4)],
    ids=["classify", "hist", "noise-eval"])
def test_no_float_copy_of_a_segment_outside_its_block(argv, conditions, small_corpus_dir,
                                                      babble_path, monkeypatch, tmp_path):
    # the stage converts each block from the table's PCM itself, once per
    # condition, and the noise rules read the PCM: no segment is converted alone
    from specvalley import classify
    from specvalley.corpus import collect_segments, timit_inventory

    table = collect_segments(small_corpus_dir, ".phn", timit_inventory())
    blocks = [rows for rows, *_ in classify.segment_blocks(table, classify.PipelineConfig())]
    assert 1 < len(blocks) < len(table)
    converted, pcm_to_float = [], classify.pcm_to_float

    def counted(pcm):
        converted.append(len(pcm))
        return pcm_to_float(pcm)

    monkeypatch.setattr(classify, "pcm_to_float", counted)
    if argv[0] == "noise-eval":
        argv = argv + ["--babble-source", str(babble_path)]
    assert run(argv + ["--corpus", str(small_corpus_dir), "--out", str(tmp_path / "o.csv"),
                       "--no-timestamp"]) == 0
    spans = [int(table.offsets[rows[-1] + 1] - table.offsets[rows[0]]) for rows in blocks]
    assert converted == spans * conditions


@pytest.fixture(scope="module")
def babble_files(babble_path, tmp_path_factory):
    """A babble file too short for the small corpus's shortest segment, and one at 8 kHz."""
    from specvalley.corpus import load_wav, save_wav

    root = tmp_path_factory.mktemp("bad_babble")
    samples, rate = load_wav(babble_path)
    save_wav(root / "short.wav", samples[:1600], rate)
    save_wav(root / "8k.wav", samples[::2], rate / 2)
    return root / "short.wav", root / "8k.wav"


@pytest.mark.parametrize("which, babble_cells", [
    (0, "1600 samples at 16000 Hz"), (1, "32000 samples at 8000 Hz")], ids=["short", "8k"])
def test_babble_that_cannot_cover_a_segment_fails_before_any_analysis(
        which, babble_cells, small_corpus_dir, babble_files, pipeline_calls, tmp_path, capsys):
    from specvalley.corpus import collect_segments, timit_inventory

    table = collect_segments(small_corpus_dir, ".phn", timit_inventory())
    path, out = babble_files[which], tmp_path / "noise.csv"
    assert run(["noise-eval", "--corpus", str(small_corpus_dir), "--noise", "white,babble",
                "--snrs", "25,0", "--babble-source", str(path), "--out", str(out),
                "--no-timestamp"]) == 1
    # the first segment is longer than 1600 samples, so it is the one named
    assert len(segment(table, 0)) > 1600
    assert capsys.readouterr().err == (
        f"error: --babble-source {path} ({babble_cells}) cannot cover segment "
        f"{table.segment_id(0)} ({len(segment(table, 0))} samples at 16000 Hz)\n")
    assert pipeline_calls == [] and not out.exists()


@pytest.mark.parametrize("cut, message", [
    (None, "not a readable WAV file: it ends inside its header"),
    (-2, "data chunk claims 32000 bytes, the file holds 31998"),
], ids=["empty", "over_claimed"])
def test_an_unreadable_babble_source_is_one_error_line_naming_it(cut, message, small_corpus_dir,
                                                                 pipeline_calls, tmp_path, capsys):
    from specvalley.corpus import save_wav

    path, out = tmp_path / "babble.wav", tmp_path / "noise.csv"
    save_wav(path, np.zeros(16000), 16000.0)
    path.write_bytes(path.read_bytes()[:cut] if cut else b"")
    assert run(["noise-eval", "--corpus", str(small_corpus_dir), "--noise", "babble",
                "--snrs", "25", "--babble-source", str(path), "--out", str(out),
                "--no-timestamp"]) == 1
    assert capsys.readouterr().err == f"error: --babble-source {path}: {message}\n"
    assert pipeline_calls == [] and not out.exists()


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
            samples, _ = audio
            samples[start:end] = 0.0
            silent_id = f"{wav.stem}:{start}"
        _rewrite(wav, silent, audio, start, end, label)
    return clean, silent, silent_id


def test_babble_need_not_cover_a_silent_segment(silent_vowel_corpus_dirs, babble_path,
                                                tmp_path):
    # silence is left unmixed, so a babble as long as the longest sounding
    # segment is enough, whatever the length of the silent one
    from specvalley.corpus import collect_segments, load_wav, save_wav, timit_inventory

    _, silent, silent_id = silent_vowel_corpus_dirs
    table = collect_segments(silent, ".phn", timit_inventory())
    lengths = {table.segment_id(i): len(segment(table, i)) for i in range(len(table))}
    sounding = max(n for seg_id, n in lengths.items() if seg_id != silent_id)
    babble = tmp_path / "babble.wav"
    save_wav(babble, load_wav(babble_path)[0][:sounding], 16000.0)
    argv = ["noise-eval", "--corpus", str(silent), "--noise", "babble", "--snrs", "25",
            "--babble-source", str(babble), "--no-timestamp", "--out", str(tmp_path / "o.csv")]
    assert run(argv) == 0
    longer = tmp_path / "longer"
    for wav in sorted(silent.glob("*.wav")):  # the silent vowel twice as long
        audio, start, end, label = _vowel(wav)
        if f"{wav.stem}:{start}" == silent_id:
            samples, rate = audio
            audio = np.concatenate([samples[:end], np.zeros(end - start), samples[end:]]), rate
            end += end - start
        longer.mkdir(exist_ok=True)
        _rewrite(wav, longer, audio, start, end, label)
    assert 2 * lengths[silent_id] > sounding
    assert run(argv[:2] + [str(longer)] + argv[3:]) == 0


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


def _full_buffer_mix(table, kind, snr, seed, babble):
    """noise-eval's mixing before the stage took a hook, kept as the reference:
    one float64 copy of all the table's samples, in which each scored segment
    that is not silent is mixed alone, seeded with `seed` plus its index among
    the scored segments."""
    from specvalley import classify
    from specvalley.corpus import mix_noise

    samples = table.pcm.astype(np.float64)
    samples /= 32768.0
    rows, _ = classify.scored_rows(table)
    for k, i in enumerate(rows.tolist()):
        a, b = table.offsets[i], table.offsets[i + 1]
        if float(np.mean(samples[a:b]**2)) > 0:
            samples[a:b] = mix_noise(samples[a:b], table.rate[i], kind, snr, seed + k, babble)
    return samples


def _mixes_as_the_full_buffer(table, mix, samples):
    for i in range(len(table)):
        a, b = table.offsets[i], table.offsets[i + 1]
        assert mix(i, segment(table, i)).tobytes() == samples[a:b].tobytes()


def test_noise_eval_hook_mixes_as_the_full_buffer_loop(silent_vowel_corpus_dirs, babble_path,
                                                       monkeypatch, tmp_path):
    # the hook noise-eval hands the stage, per condition, on a corpus with a
    # silent segment, which both leave unmixed
    from specvalley import corpus

    hooks, noise_mixer = [], corpus.noise_mixer

    def recorded(table, rows, kind, snr_db, seed, babble=None, shown="babble"):
        mix = noise_mixer(table, rows, kind, snr_db, seed, babble, shown)
        hooks.append((table, kind, snr_db, babble, mix))
        return mix

    monkeypatch.setattr(corpus, "noise_mixer", recorded)
    _, silent, silent_id = silent_vowel_corpus_dirs
    assert run(["noise-eval", "--corpus", str(silent), "--noise", "white,babble", "--snrs",
                "25,0", "--babble-source", str(babble_path), "--seed", "3",
                "--out", str(tmp_path / "o.csv"), "--no-timestamp"]) == 0
    assert [(kind, snr) for _, kind, snr, *_ in hooks] == [
        ("white", 25.0), ("white", 0.0), ("babble", 25.0), ("babble", 0.0)]
    for table, kind, snr, babble, mix in hooks:
        assert silent_id in [table.segment_id(i) for i in range(len(table))]
        _mixes_as_the_full_buffer(table, mix, _full_buffer_mix(table, kind, snr, 3, babble))


@pytest.mark.parametrize("kind, snr", [("white", 0.0), ("babble", 20.0)])
def test_noisy_corpus_mixes_as_the_full_buffer_loop(corpus_table, noisy_corpus, babble_path,
                                                    kind, snr):
    from specvalley.corpus import load_wav

    _mixes_as_the_full_buffer(corpus_table, noisy_corpus(kind, snr),
                              _full_buffer_mix(corpus_table, kind, snr, 0, load_wav(babble_path)))


def test_noise_eval_keeps_no_corpus_sized_float_buffer(corpus_dir, corpus_table, tmp_path):
    # one float64 copy of the table's samples takes 8 bytes a sample; the
    # stage converts and mixes one block at a time, so its peak stays below
    import tracemalloc

    tracemalloc.start()
    try:
        assert run(["noise-eval", "--corpus", str(corpus_dir), "--noise", "white", "--snrs",
                    "25", "--out", str(tmp_path / "o.csv"), "--no-timestamp"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * corpus_table.offsets[-1]


def run_help(command):
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run([command, "--help"])
    return buf.getvalue()
