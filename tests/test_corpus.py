import os
import struct
import wave
from pathlib import Path

import numpy as np
import pytest

from conftest import segment
from specvalley.corpus import (
    MAX_SNR_DB,
    NOISE_KINDS,
    SegmentTable,
    collect_segments,
    default_pb_table_path,
    load_inventory,
    load_pb_table,
    load_phone_labels,
    load_wav,
    mix_noise,
    noise_mixer,
    pb_mean_formants,
    save_wav,
    select_vowel_segments,
    timit_inventory,
)
from specvalley.errors import (
    DegenerateInputError,
    FormatError,
    LabelOrderingError,
    LabelParseError,
    ValidationError,
)


def write_pcm(path, data_int16, channels=1, rate=16000, sampwidth=2):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(sampwidth)
        wf.setframerate(rate)
        wf.writeframes(np.asarray(data_int16, dtype="<i2").tobytes())


class TestLoadWav:
    def test_silence_round_trip(self, tmp_path):
        p = tmp_path / "silence.wav"
        save_wav(p, np.zeros(16000), 16000.0)
        samples, rate = load_wav(p)
        assert rate == 16000
        assert len(samples) == 16000
        assert not np.any(samples)

    def test_full_scale_square_wave(self, tmp_path):
        p = tmp_path / "square.wav"
        data = np.tile([32767, -32768], 100).astype("<i2")
        write_pcm(p, data)
        samples, _ = load_wav(p)
        assert samples.max() == 32767 / 32768.0
        assert samples.min() == -1.0

    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "stereo.wav"
        write_pcm(p, np.zeros(200, dtype="<i2"), channels=2)
        with pytest.raises(FormatError) as err:
            load_wav(p)
        assert err.value.field == "channels"

    def test_8bit_rejected(self, tmp_path):
        p = tmp_path / "8bit.wav"
        with wave.open(str(p), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(8000)
            wf.writeframes(bytes(100))
        with pytest.raises(FormatError) as err:
            load_wav(p)
        assert err.value.field == "sample_width"

    @pytest.mark.parametrize("size", [46, 48, 50])
    def test_a_wav_whose_data_chunk_claims_more_than_it_holds(self, tmp_path, size):
        # a 52-byte file holds 4 samples; the cut leaves 1 to 3 whole ones
        wav = tmp_path / "a.wav"
        save_wav(wav, np.zeros(4), 16000.0)
        wav.write_bytes(wav.read_bytes()[:size])
        with pytest.raises(FormatError) as err:
            load_wav(wav)
        assert err.value.field == "data"
        assert str(err.value) == f"data chunk claims 8 bytes, the file holds {size - 44}"


class TestSaveWav:
    @pytest.mark.parametrize("rate", [8000.0, 16000.0, 22050.0])
    @pytest.mark.parametrize("n", [0, 1, 999, 4001])
    def test_bytes_equal_the_wave_modules(self, tmp_path, rate, n):
        # 1.5 times a unit normal clips at both ends of full scale
        samples = 1.5 * np.random.default_rng(n).standard_normal(n)
        pcm = np.clip(np.round(samples * 32768.0), -32768, 32767)
        if n > 100:
            assert pcm.max() == 32767 and pcm.min() == -32768
        save_wav(tmp_path / "ours.wav", samples, rate)
        write_pcm(tmp_path / "wave.wav", pcm, rate=int(rate))
        ours = (tmp_path / "ours.wav").read_bytes()
        assert len(ours) == 44 + 2 * n
        assert ours == (tmp_path / "wave.wav").read_bytes()

    @pytest.mark.parametrize("rate", [0.99, 0.0, -16000.0, 2.0**31])
    def test_a_rate_wave_refuses_is_refused_before_writing(self, tmp_path, rate):
        with pytest.raises((wave.Error, struct.error)):
            write_pcm(tmp_path / "wave.wav", np.zeros(4, dtype="<i2"), rate=int(rate))
        with pytest.raises(ValueError, match="sample rate must be from 1 to 2147483647 Hz"):
            save_wav(tmp_path / "ours.wav", np.zeros(4), rate)
        assert not (tmp_path / "ours.wav").exists()


class TestPhoneLabels:
    def test_parses_lines_in_order(self, tmp_path):
        p = tmp_path / "a.phn"
        p.write_text("0 1600 h#\n1600 4000 iy\n")
        labels = load_phone_labels(p)
        assert labels == [(0, 1600, "h#"), (1600, 4000, "iy")]

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "a.phn"
        p.write_text("x y z\n")
        with pytest.raises(LabelParseError) as err:
            load_phone_labels(p)
        assert err.value.line_number == 1

    @pytest.mark.parametrize("line", ["-3200 -1600 aa", "-100 1600 aa"])
    def test_negative_bound_reports_line_number(self, line, tmp_path):
        p = tmp_path / "a.phn"
        p.write_text(f"{line}\n")
        with pytest.raises(LabelParseError) as err:
            load_phone_labels(p)
        assert str(err.value) == f"line 1: negative sample bound in '{line}'"

    def test_out_of_order_rejected(self, tmp_path):
        p = tmp_path / "a.phn"
        p.write_text("0 1600 h#\n1000 2000 iy\n")
        with pytest.raises(LabelOrderingError):
            load_phone_labels(p)

    def test_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "a.phn"
        p.write_text("\n0 100 h#\n\n100 900 aa\n\n")
        assert len(load_phone_labels(p)) == 2


class TestCollectSegments:
    LABELS = "0 1600 h#\n1600 4800 iy\n4800 6400 h#\n"

    def _utterance(self, wav_path, label_ext, seed):
        wav_path.parent.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        write_pcm(wav_path, rng.integers(-2000, 2000, 6400))
        wav_path.with_suffix(label_ext).write_text(self.LABELS)

    def test_nested_upper_case_tree(self, tmp_path):
        # two speakers share the utterance name SA1
        self._utterance(tmp_path / "DR1" / "FCJF0" / "SA1.WAV", ".PHN", 1)
        self._utterance(tmp_path / "DR1" / "FAKS0" / "SA1.WAV", ".PHN", 2)
        self._utterance(tmp_path / "DR2" / "MABC0" / "SX9.wav", ".phn", 3)
        self._utterance(tmp_path / "top.wav", ".phn", 4)
        (tmp_path / "DR2" / "MABC0" / "NOLABEL.WAV").write_bytes(
            (tmp_path / "top.wav").read_bytes()
        )
        segs = collect_segments(tmp_path, ".phn", timit_inventory())
        assert segs.utterance_id.tolist() == [
            "DR1/FAKS0/SA1", "DR1/FCJF0/SA1", "DR2/MABC0/SX9", "top",
        ]
        assert list(zip(segs.label.tolist(), segs.start_sample.tolist())) == [("iy", 1600)] * 4
        assert not np.array_equal(segment(segs, 0), segment(segs, 1))
        again = collect_segments(tmp_path, ".PHN", timit_inventory())
        assert again.utterance_id.tolist() == segs.utterance_id.tolist()

    def test_flat_corpus_ids_are_stems(self, tmp_path):
        for i, name in enumerate(("b", "a")):
            self._utterance(tmp_path / f"{name}.wav", ".phn", i)
        segs = collect_segments(tmp_path, ".phn", timit_inventory())
        assert segs.utterance_id.tolist() == ["a", "b"]

    def test_read_errors_keep_their_type_and_name_the_file(self, tmp_path):
        self._utterance(tmp_path / "DR1" / "SA1.WAV", ".PHN", 1)
        self._utterance(tmp_path / "DR1" / "SA2.WAV", ".PHN", 2)
        (tmp_path / "DR1" / "SA2.PHN").write_text("0 1600 h#\n1000 2000 iy\n")
        with pytest.raises(LabelOrderingError) as err:
            collect_segments(tmp_path, ".phn", timit_inventory())
        assert err.value.line_number == 2
        assert str(err.value) == ("DR1/SA2.PHN: line 2: "
                                  "label 'iy' starts before the previous one ends")
        (tmp_path / "DR1" / "SA1.WAV").write_bytes(b"NIST_1A\n   1024\n".ljust(1024, b" "))
        with pytest.raises(FormatError) as err:
            collect_segments(tmp_path, ".phn", timit_inventory())
        assert err.value.field == "container"
        assert str(err.value).startswith("DR1/SA1.WAV: not a readable WAV file: ")

    @pytest.mark.parametrize("size", [0, 7, 20, 35])
    def test_a_wav_that_ends_inside_its_header_names_the_file(self, tmp_path, size):
        # `wave` raises EOFError for these lengths of a valid file's first bytes
        self._utterance(tmp_path / "DR1" / "SA1.WAV", ".PHN", 1)
        wav = tmp_path / "DR1" / "SA1.WAV"
        wav.write_bytes(wav.read_bytes()[:size])
        with pytest.raises(FormatError) as err:
            collect_segments(tmp_path, ".phn", timit_inventory())
        assert err.value.field == "container"
        assert str(err.value) == "DR1/SA1.WAV: not a readable WAV file: it ends inside its header"

    def test_a_wav_whose_data_ends_mid_sample_names_the_file(self, tmp_path):
        # the header counts 6400 samples, and the file stops one byte into the last
        self._utterance(tmp_path / "DR1" / "SA1.WAV", ".PHN", 1)
        wav = tmp_path / "DR1" / "SA1.WAV"
        wav.write_bytes(wav.read_bytes()[:-1])
        with pytest.raises(FormatError) as err:
            collect_segments(tmp_path, ".phn", timit_inventory())
        assert err.value.field == "data"
        assert str(err.value) == ("DR1/SA1.WAV: data ends mid-sample: 12799 bytes are not "
                                  "whole 16-bit samples")

    def test_a_label_file_that_is_not_utf8_names_the_file(self, tmp_path):
        self._utterance(tmp_path / "DR1" / "SA1.WAV", ".PHN", 1)
        (tmp_path / "DR1" / "SA1.PHN").write_bytes(b"0 1600 h#\n\xff 4800 iy\n")
        with pytest.raises(LabelParseError) as err:
            collect_segments(tmp_path, ".phn", timit_inventory())
        assert err.value.line_number is None
        assert str(err.value) == ("DR1/SA1.PHN: not UTF-8 text: 'utf-8' codec can't decode "
                                  "byte 0xff in position 10: invalid start byte")



# collect_segments as it was when it walked with Path.rglob and checked each
# sidecar with Path.is_file; kept as the exact reference for the scandir walk
def _rglob_label_sidecar(wav_path, labels_ext):
    for ext in dict.fromkeys((labels_ext, labels_ext.lower(), labels_ext.upper())):
        path = wav_path.with_suffix(ext)
        if path.is_file():
            return path
    return None


def _rglob_read(load, path, root):
    try:
        return load(path)
    except (FormatError, LabelParseError, ValidationError) as exc:
        exc.args = (f"{path.relative_to(root).as_posix()}: {exc}",)
        raise


def _rglob_collect_segments(corpus_dir, labels_ext, inventory):
    """(utterance id, start, stop, label, class, rate, samples) per segment."""
    root = Path(corpus_dir)
    wavs = [p for p in root.rglob("*") if p.suffix.lower() == ".wav" and p.is_file()]
    segments = []
    for wav_path in sorted(wavs, key=lambda p: p.relative_to(root).parts):
        label_path = _rglob_label_sidecar(wav_path, labels_ext)
        if label_path is None:
            continue
        samples, rate = _rglob_read(load_wav, wav_path, root)
        labels = _rglob_read(load_phone_labels, label_path, root)
        utterance_id = wav_path.relative_to(root).with_suffix("").as_posix()
        for start, stop, label, fb in select_vowel_segments(labels, len(samples), rate,
                                                            inventory):
            segments.append((utterance_id, start, stop, label, fb, rate, samples[start:stop]))
    return segments


def _table_rows(table):
    """The rows of a segment table as `_rglob_collect_segments` gives them."""
    return [(table.utterance_id[i], table.start_sample[i],
             table.start_sample[i] + len(segment(table, i)), table.label[i], table.fb_class[i],
             table.rate[i], segment(table, i)) for i in range(len(table))]


class TestCollectSegmentsEqualsTheRglobWalk:
    EXTS = (".phn", ".PHN", ".Phn")

    def _tree(self, root):
        """A corpus tree with every case the walk must treat as `Path.rglob` does."""
        rng = np.random.default_rng(8)

        def wav(rel):
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            write_pcm(root / rel, rng.integers(-2000, 2000, 6400))

        def labels(rel):
            start = int(rng.integers(800, 2400))
            end = start + int(rng.integers(800, 3000))
            (root / rel).write_text(f"0 {start} h#\n{start} {end} iy\n{end} 6400 h#\n")

        for stem in ("DR1/FAKS0/SA1", "DR1/FCJF0/SA1", "DR2/MABC0/SX9"):
            wav(stem + ".WAV")
            labels(stem + ".PHN")
        wav("DR2/MABC0/NOLABEL.WAV")
        wav("flat.wav")
        labels("flat.phn")
        wav("a.b.WAV")  # only the last suffix is replaced: a.b.phn
        labels("a.b.phn")
        wav("two.wav")  # two candidates: the requested case wins
        labels("two.phn")
        labels("two.PHN")
        wav("mixed.wav")  # found only when .Phn is asked for
        labels("mixed.Phn")
        wav("unlabelled.wav")
        (root / "x.wav").mkdir()  # a directory named like a WAV is no WAV
        labels("x.phn")
        wav("x.wav/inside.wav")
        labels("x.wav/inside.phn")
        wav(".hidden/h.wav")
        labels(".hidden/h.phn")
        wav(".wav")  # no suffix: a leading dot starts none
        labels(".phn")
        os.symlink(root / "DR1", root / "linked_dir")  # not entered
        os.symlink(root / "DR1" / "FAKS0" / "SA1.WAV", root / "linked.wav")  # read
        labels("linked.phn")
        wav("DR2/sidecar_link.wav")
        os.symlink(root / "flat.phn", root / "DR2" / "sidecar_link.phn")
        os.symlink("loop.wav", root / "loop.wav")
        labels("loop.phn")
        os.symlink("nowhere.wav", root / "broken.wav")
        labels("broken.phn")

    def _assert_same_segments(self, root, ext):
        got = _table_rows(collect_segments(root, ext, timit_inventory()))
        expected = _rglob_collect_segments(root, ext, timit_inventory())
        assert [g[:-1] for g in got] == [e[:-1] for e in expected]
        for g, e in zip(got, expected):
            assert np.array_equal(g[-1], e[-1])
        return got

    def test_same_segments_in_the_same_order(self, tmp_path):
        self._tree(tmp_path)
        ids = {ext: [s[0] for s in self._assert_same_segments(tmp_path, ext)]
               for ext in self.EXTS}
        assert ids[".phn"] == [".hidden/h", "DR1/FAKS0/SA1", "DR1/FCJF0/SA1", "DR2/MABC0/SX9",
                               "DR2/sidecar_link", "a.b", "flat", "linked", "two",
                               "x.wav/inside"]
        assert ids[".PHN"] == ids[".phn"]
        assert ids[".Phn"] == sorted(ids[".phn"] + ["mixed"])
        # through a relative path too
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            self._assert_same_segments(".", ".phn")
            self._assert_same_segments("DR1", ".PHN")
        finally:
            os.chdir(cwd)

    @pytest.mark.parametrize("broken, error", [
        ("DR1/FCJF0/SA1.WAV", FormatError),
        ("DR2/MABC0/SX9.PHN", LabelParseError),
        ("x.wav/inside.phn", LabelParseError),
    ])
    def test_same_error_text_for_an_unreadable_file(self, tmp_path, broken, error):
        self._tree(tmp_path)
        (tmp_path / broken).write_bytes(b"NIST_1A\n   1024\n")
        with pytest.raises(error) as got:
            collect_segments(tmp_path, ".phn", timit_inventory())
        with pytest.raises(error) as expected:
            _rglob_collect_segments(tmp_path, ".phn", timit_inventory())
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith(broken + ": ")

    @pytest.mark.parametrize("ext", ["phn", ".", "a/.phn"])
    def test_same_error_for_an_invalid_label_extension(self, tmp_path, ext):
        self._tree(tmp_path)
        with pytest.raises(ValueError) as got:
            collect_segments(tmp_path, ext, timit_inventory())
        with pytest.raises(ValueError) as expected:
            _rglob_collect_segments(tmp_path, ext, timit_inventory())
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("ext", ["phn", ".", "a/.phn"])
    def test_an_invalid_label_extension_raises_before_the_walk(self, tmp_path, ext):
        # with no WAV to find, the extension is refused all the same
        for root in (tmp_path, tmp_path / "missing"):
            with pytest.raises(ValueError, match="Invalid suffix"):
                collect_segments(root, ext, timit_inventory())

    def test_no_directory_gives_no_segments(self, tmp_path):
        self._tree(tmp_path)
        for root in (tmp_path / "missing", tmp_path / "flat.wav"):
            table = collect_segments(root, ".phn", timit_inventory())
            assert len(table) == 0 and len(table.pcm) == 0
            assert table.offsets.tolist() == [0]
            assert _rglob_collect_segments(root, ".phn", timit_inventory()) == []

class TestSelectVowelSegments:
    def _audio(self, n=20000, rate=16000.0):
        return n, rate

    def test_nasal_neighbor_excluded(self):
        labels = [(0, 1000, "m"), (1000, 3000, "iy"), (3000, 4000, "t")]
        segs = select_vowel_segments(labels, *self._audio(), timit_inventory())
        assert segs == []

    def test_short_segment_excluded(self):
        labels = [(0, 1000, "t"), (1000, 1640, "ax"), (1640, 3000, "t")]  # 40 ms
        segs = select_vowel_segments(labels, *self._audio(), timit_inventory())
        assert segs == []

    def test_the_floor_applies_to_the_clipped_span(self):
        # on a 400-sample utterance the label keeps 300 samples, 18.75 ms: dropped;
        # on a 1000-sample one it keeps 900, 56.25 ms
        labels = [(100, 16000, "iy")]
        assert select_vowel_segments(labels, 400, 16000.0, timit_inventory()) == []
        assert select_vowel_segments(labels, 1000, 16000.0, timit_inventory()) == [
            (100, 1000, "iy", "front")]

    def test_a_label_cut_short_by_its_wav_is_no_segment(self, tmp_path):
        write_pcm(tmp_path / "a.wav", np.full(400, 1000))
        (tmp_path / "a.phn").write_text("100 16000 iy\n")
        assert len(collect_segments(tmp_path, ".phn", timit_inventory())) == 0

    def test_stop_context_kept_with_class(self):
        labels = [(0, 1000, "t"), (1000, 2920, "aa"), (2920, 4000, "k")]  # 120 ms
        segs = select_vowel_segments(labels, *self._audio(), timit_inventory())
        assert segs == [(1000, 2920, "aa", "back")]

    def test_central_vowels_tagged(self):
        labels = [(0, 1000, "t"), (1000, 3000, "ax"), (3000, 4000, "t")]
        segs = select_vowel_segments(labels, *self._audio(), timit_inventory())
        assert segs[0][3] == "central"

    def test_mini_corpus_counts_match_hand_count(self):
        labels = [
            (0, 500, "h#"),
            (500, 2000, "iy"),      # kept front (h# and t neighbors)
            (2000, 2500, "t"),
            (2500, 4500, "aa"),     # dropped: nasal on the right
            (4500, 5000, "m"),
            (5000, 7000, "uw"),     # dropped: nasal on the left
            (7000, 7500, "r"),      # blocks the following vowel too
            (7500, 9000, "eh"),     # dropped: r on the left
            (9000, 9500, "k"),
            (9500, 10100, "ih"),    # dropped: 37.5 ms
            (10100, 12000, "ao"),   # kept back (ih and h# neighbors)
            (12000, 12500, "h#"),
        ]
        segs = select_vowel_segments(labels, *self._audio(), timit_inventory())
        assert [s[2] for s in segs] == ["iy", "ao"]

    def test_deterministic_and_order_preserving(self):
        labels = [(0, 1000, "t"), (1000, 3000, "iy"), (3000, 5000, "aa"), (5000, 6000, "t")]
        a = select_vowel_segments(labels, *self._audio(), timit_inventory())
        b = select_vowel_segments(labels, *self._audio(), timit_inventory())
        assert [s[2] for s in a] == ["iy", "aa"]
        assert [s[:2] for s in a] == [s[:2] for s in b]


class TestPbTable:
    def test_bundled_table_loads(self):
        entries = load_pb_table(default_pb_table_path())
        assert len(entries) == 20
        male_iy = [e for e in entries if e.vowel == "iy" and e.gender == "male"][0]
        assert male_iy.f1 < male_iy.f2 < male_iy.f3

    def test_order_violation_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("vowel,gender,F0,F1,F2,F3,L1,L2,L3\nxx,male,100,900,800,2500,0,0,0\n")
        with pytest.raises(ValidationError) as err:
            load_pb_table(p)
        assert err.value.row == 2

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("vowel,gender,F0,F1,F2,L1,L2,L3\n")
        with pytest.raises(FormatError) as err:
            load_pb_table(p)
        assert "F3" in str(err.value.field)

    def test_means_match_brute_force(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text(
            "vowel,gender,F0,F1,F2,F3,L1,L2,L3\n"
            "xx,male,100,300,1000,2500,0,0,0\n"
            "xx,male,100,500,1400,2700,0,0,0\n"
        )
        means = pb_mean_formants(load_pb_table(p), "male")
        assert means["xx"] == (400.0, 1200.0, 2600.0)


class TestInventoryFiles:
    def test_custom_inventory_round_trip(self, tmp_path):
        inv_p = tmp_path / "inv.txt"
        inv_p.write_text("aa back\niy front\nux central # comment\n")
        exc_p = tmp_path / "exc.txt"
        exc_p.write_text("m\nr\n")
        inv = load_inventory(inv_p, exc_p)
        assert inv.fb_class("iy") == "front"
        assert inv.fb_class("zz") is None
        assert "r" in inv.excluded_neighbors

    def test_bad_class_rejected(self, tmp_path):
        inv_p = tmp_path / "inv.txt"
        inv_p.write_text("aa sideways\n")
        exc_p = tmp_path / "exc.txt"
        exc_p.write_text("")
        with pytest.raises(LabelParseError) as err:
            load_inventory(inv_p, exc_p)
        assert str(err.value) == (f"{inv_p}: line 1: expected '<label> front|back|central', "
                                  "got 'aa sideways'")
        assert err.value.line_number == 1


class TestMixNoise:
    RATE = 16000.0

    def _tone(self, n=16000):
        t = np.arange(n) / self.RATE
        return 0.2 * np.sin(2 * np.pi * 220.0 * t)

    def test_zero_db_matches_powers(self):
        x = self._tone()
        mixed = mix_noise(x, self.RATE, "white", 0.0, 3)
        noise = mixed - x
        ratio = np.mean(x**2) / np.mean(noise**2)
        assert abs(10 * np.log10(ratio)) < 1e-9

    def test_requested_snr_achieved(self):
        x = self._tone()
        for snr in (-5.0, 10.0, 25.0):
            mixed = mix_noise(x, self.RATE, "white", snr, 4)
            noise = mixed - x
            got = 10 * np.log10(np.mean(x**2) / np.mean(noise**2))
            assert abs(got - snr) < 0.1

    def test_same_seed_bit_identical(self):
        x = self._tone()
        a = mix_noise(x, self.RATE, "white", 20.0, 9)
        b = mix_noise(x, self.RATE, "white", 20.0, 9)
        assert np.array_equal(a, b)

    def test_zero_power_signal_rejected(self):
        with pytest.raises(DegenerateInputError):
            mix_noise(np.zeros(100), self.RATE, "white", 10.0)

    @pytest.mark.parametrize("snr", [4000.0, -4000.0, -3100.0, float("nan")])
    def test_snr_beyond_the_bound_is_refused(self, snr):
        with pytest.raises(ValueError, match=r"snr_db must be within \+/-300 dB"):
            mix_noise(self._tone(), self.RATE, "white", snr)

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ValueError, match="unknown noise kind 'pink'"):
            mix_noise(self._tone(), self.RATE, "pink", 10.0)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("snr", [-MAX_SNR_DB, MAX_SNR_DB])
    def test_mix_is_finite_at_the_bounds(self, kind, snr):
        assert MAX_SNR_DB == 300.0
        babble = (0.1 * np.random.default_rng(0).standard_normal(32000), self.RATE)
        mixed = mix_noise(self._tone(), self.RATE, kind, snr, 2, babble)
        assert np.all(np.isfinite(mixed))

    def test_babble_requires_source(self):
        with pytest.raises(ValueError, match="`babble` buffer"):
            mix_noise(self._tone(), self.RATE, "babble", 20.0)

    def test_babble_mixing(self, tmp_path):
        rng = np.random.default_rng(0)
        p = tmp_path / "babble.wav"
        save_wav(p, 0.1 * rng.standard_normal(64000), 16000.0)
        x = self._tone()
        a = mix_noise(x, self.RATE, "babble", 15.0, 5, load_wav(p))
        b = mix_noise(x, self.RATE, "babble", 15.0, 5, load_wav(p))
        assert np.array_equal(a, b)
        noise = a - x
        got = 10 * np.log10(np.mean(x**2) / np.mean(noise**2))
        assert abs(got - 15.0) < 0.1

    def test_short_babble_rejected(self, tmp_path):
        p = tmp_path / "short.wav"
        save_wav(p, 0.1 * np.ones(100), 16000.0)
        with pytest.raises(FormatError):
            mix_noise(self._tone(), self.RATE, "babble", 10.0, babble=load_wav(p))


class TestNoiseMixer:
    """`noise_mixer` holds the rules of a noise condition: each mixed segment's
    seed, which segments stay silent, and whether the babble covers them."""

    RATE = 16000.0
    LENGTHS = (400, 600, 500)  # segment 1 is all zero, and the longest

    def _table(self):
        rng = np.random.default_rng(1)
        pcm = [rng.integers(-3000, 3000, n).astype(np.int16) for n in self.LENGTHS]
        pcm[1][:] = 0
        n = len(self.LENGTHS)
        return SegmentTable(np.concatenate(pcm), np.cumsum((0,) + self.LENGTHS),
                            np.full(n, self.RATE), np.array(["iy"] * n), np.array(["front"] * n),
                            np.array(["u"] * n), 1000 * np.arange(n))

    def _babble(self, n, rate=RATE):
        return 0.1 * np.random.default_rng(2).standard_normal(n), rate

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_seeds_follow_the_order_of_rows(self, kind):
        table, babble = self._table(), self._babble(4000)
        mix = noise_mixer(table, np.array([2, 1, 0]), kind, 10.0, 7, babble)
        for i, seed in ((2, 7), (0, 9)):
            x = segment(table, i)
            assert mix(i, x).tobytes() == mix_noise(x, self.RATE, kind, 10.0, seed,
                                                    babble).tobytes()
        x = segment(table, 0)
        left_out = noise_mixer(table, np.array([2]), kind, 10.0, 7, babble)
        assert left_out(0, x) is x

    def test_a_silent_segment_is_unmixed_and_needs_no_babble_coverage(self):
        table, babble = self._table(), self._babble(500)
        mix = noise_mixer(table, np.arange(3), "babble", 10.0, 0, babble)
        silent = segment(table, 1)
        assert mix(1, silent) is silent
        x = segment(table, 2)
        assert mix(2, x).tobytes() == mix_noise(x, self.RATE, "babble", 10.0, 2, babble).tobytes()

    @pytest.mark.parametrize("babble, message", [
        ((499, RATE), "(499 samples at 16000 Hz) cannot cover segment u:2000 (500 samples"),
        ((4000, 8000.0), "(4000 samples at 8000 Hz) cannot cover segment u:0 (400 samples"),
    ], ids=["short", "8k"])
    def test_babble_coverage_fails_when_the_mixer_is_built(self, babble, message, monkeypatch):
        from specvalley import corpus

        mixed = []
        monkeypatch.setattr(corpus, "mix_noise", lambda *args: mixed.append(args))
        table, babble = self._table(), self._babble(*babble)
        assert noise_mixer(table, np.arange(3), "white", 10.0, 0, babble) is not None
        with pytest.raises(FormatError) as err:
            noise_mixer(table, np.arange(3), "babble", 10.0, 0, babble, "--babble-source b.wav")
        assert str(err.value) == f"--babble-source b.wav {message} at 16000 Hz)"
        assert mixed == []


class TestSegmentTable:
    """The table keeps the WAVs' 16-bit PCM, and gives a segment as `load_wav` would."""

    @pytest.mark.parametrize("corpus", ["small_corpus_dir", "corpus_dir"])
    def test_segments_equal_the_loaded_wav(self, request, corpus):
        root = request.getfixturevalue(corpus)
        table = collect_segments(root, ".phn", timit_inventory())
        assert len(table) in (63, 500) and not hasattr(table, "samples")
        assert table.pcm.dtype == np.int16 and table.pcm.nbytes == 2 * table.offsets[-1]
        for i in range(len(table)):
            samples, _ = load_wav(root / f"{table.utterance_id[i]}.wav")
            start = table.start_sample[i]
            expected = samples[start:start + table.offsets[i + 1] - table.offsets[i]]
            got = segment(table, i)
            assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()
