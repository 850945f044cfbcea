"""Corpus ingestion: WAV audio, phone labels, vowel tables, noise mixing."""

import csv
import mmap
import os
import struct
import wave
from dataclasses import dataclass
from importlib import resources
from pathlib import Path, PurePath

import numpy as np

from .errors import (
    DegenerateInputError,
    FormatError,
    LabelOrderingError,
    LabelParseError,
    ValidationError,
)

MIN_SEGMENT_DURATION_S = 0.045
NOISE_KINDS = ("white", "babble")
# the largest |SNR| a noise mix accepts: far past the ~96 dB a 16-bit signal
# spans, and small enough that 10**(snr/10) and the noise scale stay finite
MAX_SNR_DB = 300.0
# a PCM WAV's format code, the largest rate whose 16-bit mono byte rate fits the
# header's 32 bits, and the most data bytes its RIFF length (data + 36) can count
_WAVE_FORMAT_PCM = 1
_MAX_WAV_RATE = 0x7FFFFFFF
_MAX_WAV_DATA_BYTES = 0xFFFFFFFF - 36


@dataclass(eq=False)
class SegmentTable:
    """The labelled vowel segments of a corpus as columns, one row per segment.

    One column holds the segments' 16-bit PCM samples back to back, as the
    WAVs store them, and nothing of the utterances around them: segment i is
    pcm[offsets[i]:offsets[i + 1]], which `pcm_to_float` gives as floats.
    """

    pcm: np.ndarray  # int16, 2 bytes per sample; `pcm_to_float` scales it to [-1, 1)
    offsets: np.ndarray  # (n + 1,) int
    rate: np.ndarray  # (n,) sample rate in Hz
    label: np.ndarray  # (n,) phone label
    fb_class: np.ndarray  # (n,) front | back | central
    utterance_id: np.ndarray  # (n,) the WAV path below the corpus root, without suffix
    start_sample: np.ndarray  # (n,) where the segment starts in its utterance

    def __len__(self):
        return len(self.rate)

    def segment_id(self, i: int) -> str:
        return f"{self.utterance_id[i]}:{self.start_sample[i]}"


@dataclass
class PbEntry:
    """One vowel row of a mean-formant table: frequencies plus peak levels."""

    vowel: str
    gender: str
    f0: float
    f1: float
    f2: float
    f3: float
    l1: float
    l2: float
    l3: float


@dataclass
class VowelInventory:
    """Vowel class map plus the neighbor labels that disqualify a segment."""

    classes: dict  # label -> front | back | central
    excluded_neighbors: frozenset

    def fb_class(self, label: str):
        return self.classes.get(label)


def pcm_to_float(pcm: np.ndarray) -> np.ndarray:
    """16-bit PCM samples as float64 in [-1, 1): pcm / 32768, exact per sample."""
    return np.divide(pcm, 32768.0)


def _read_pcm(path):
    """The int16 samples and the sample rate of a 16-bit PCM mono WAV.

    A file that ends inside its header is a FormatError of its `container`;
    data that ends mid-sample, or holds fewer bytes than its chunk claims, one
    of its `data`.
    """
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getcomptype() != "NONE":
                raise FormatError(
                    f"compressed WAV ({wf.getcomptype()}) not supported", field="compression"
                )
            if wf.getnchannels() != 1:
                raise FormatError(
                    f"expected mono audio, got {wf.getnchannels()} channels", field="channels"
                )
            if wf.getsampwidth() != 2:
                raise FormatError(
                    f"expected 16-bit samples, got {8 * wf.getsampwidth()}-bit",
                    field="sample_width",
                )
            rate, n_frames = wf.getframerate(), wf.getnframes()
            raw = wf.readframes(n_frames)
    except wave.Error as exc:
        raise FormatError(f"not a readable WAV file: {exc}", field="container") from exc
    except EOFError:  # `wave` reads the header in fixed-size pieces
        raise FormatError("not a readable WAV file: it ends inside its header",
                          field="container") from None
    if rate <= 0:
        raise FormatError(f"sample rate must be positive, got {rate}", field="sample_rate")
    if len(raw) % 2:
        raise FormatError(f"data ends mid-sample: {len(raw)} bytes are not whole 16-bit samples",
                          field="data")
    if len(raw) != 2 * n_frames:
        raise FormatError(f"data chunk claims {2 * n_frames} bytes, the file holds {len(raw)}",
                          field="data")
    return np.frombuffer(raw, dtype="<i2"), rate


def load_wav(path):
    """(samples, rate) of a 16-bit PCM mono WAV, its samples as [-1, 1) floats."""
    pcm, rate = _read_pcm(path)
    return pcm_to_float(pcm), rate


def save_wav(path, samples: np.ndarray, sample_rate: float):
    """Write float samples as 16-bit PCM mono WAV, clipping to full scale.

    The file is the 44-byte RIFF header and the PCM, byte for byte what the
    `wave` module writes. Raises ValueError for a rate whose integer part is
    below 1 or whose byte rate does not fit the header's 32 bits, and for
    more samples than its data length can count.
    """
    rate = int(sample_rate)
    if not 1 <= rate <= _MAX_WAV_RATE:
        raise ValueError(f"sample rate must be from 1 to {_MAX_WAV_RATE} Hz, got {sample_rate}")
    scaled = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    if scaled.nbytes > _MAX_WAV_DATA_BYTES:
        raise ValueError(f"{scaled.size} samples do not fit one WAV file")
    header = struct.pack("<4sL4s4sLHHLLHH4sL", b"RIFF", 36 + scaled.nbytes, b"WAVE", b"fmt ",
                         16, _WAVE_FORMAT_PCM, 1, rate, 2 * rate, 2, 16, b"data", scaled.nbytes)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(scaled.data)


def load_phone_labels(path):
    """Parse 'start end label' lines (sample units) into ordered triples."""
    out = []
    for lineno, line in enumerate(_text_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise LabelParseError(
                f"expected 'start end label', got {line!r}", line_number=lineno
            )
        try:
            start, end = int(parts[0]), int(parts[1])
        except ValueError:
            raise LabelParseError(
                f"non-integer sample bounds in {line!r}", line_number=lineno
            ) from None
        if start < 0:
            raise LabelParseError(
                f"negative sample bound in {line!r}", line_number=lineno
            )
        if end <= start:
            raise LabelParseError(
                f"empty or reversed span in {line!r}", line_number=lineno
            )
        if out and start < out[-1][1]:
            raise LabelOrderingError(
                f"label {parts[2]!r} starts before the previous one ends",
                line_number=lineno,
            )
        out.append((start, end, parts[2]))
    return out


def select_vowel_segments(labels, n_samples: int, sample_rate: float,
                          inventory: VowelInventory):
    """Keep inventory vowels with clean neighbors and sufficient duration.

    Each span's stop is first clipped to an utterance of `n_samples` samples.
    A vowel is dropped when either neighbor label is in the inventory's
    exclusion set (nasals, 'r'-like, aspirated 'h') or when its clipped span
    is shorter than MIN_SEGMENT_DURATION_S (45 ms). Central vowels are kept
    but tagged so callers can exclude them from scoring. Returns the (start,
    stop, label, class) of each kept vowel.
    """
    out = []
    for k, (start, end, label) in enumerate(labels):
        fb = inventory.fb_class(label)
        if fb is None:
            continue
        end = min(end, n_samples)
        if (end - start) / sample_rate < MIN_SEGMENT_DURATION_S:
            continue
        prev_label = labels[k - 1][2] if k > 0 else None
        next_label = labels[k + 1][2] if k + 1 < len(labels) else None
        if {prev_label, next_label} & inventory.excluded_neighbors:
            continue
        out.append((start, end, label, fb))
    return out


PB_COLUMNS = ("vowel", "gender", "F0", "F1", "F2", "F3", "L1", "L2", "L3")


def load_pb_table(path):
    """Read a mean-formant CSV with header vowel,gender,F0,F1,F2,F3,L1,L2,L3.

    A bad header, row or encoding raises its FormatError or ValidationError
    with the path in front of the message.
    """
    return _read(_pb_entries, path)


def _pb_entries(path):
    entries = []
    reader = csv.reader(_text_lines(path))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != list(PB_COLUMNS):
        missing = set(PB_COLUMNS) - set(h.strip() for h in (header or []))
        raise FormatError(
            f"bad header {header!r}", field=",".join(sorted(missing)) or "header"
        )
    for rowno, row in enumerate(reader, start=2):
        if not row or not "".join(row).strip():
            continue
        if len(row) != len(PB_COLUMNS):
            raise ValidationError(f"expected {len(PB_COLUMNS)} fields", row=rowno)
        vowel, gender = row[0].strip(), row[1].strip()
        try:
            nums = [float(v) for v in row[2:]]
        except ValueError:
            raise ValidationError(f"non-numeric field in row {row!r}", row=rowno) from None
        f0, f1, f2, f3, l1, l2, l3 = nums
        if not f1 < f2 < f3:
            raise ValidationError(
                f"formants out of order for {vowel}/{gender}: {f1}, {f2}, {f3}",
                row=rowno,
            )
        entries.append(PbEntry(vowel, gender, f0, f1, f2, f3, l1, l2, l3))
    return entries


def pb_mean_formants(entries, gender: str):
    """vowel -> (F1, F2, F3) means for one gender, averaging duplicate rows."""
    acc: dict = {}
    for e in entries:
        if e.gender != gender:
            continue
        acc.setdefault(e.vowel, []).append((e.f1, e.f2, e.f3))
    return {
        v: tuple(float(np.mean([row[i] for row in rows])) for i in range(3))
        for v, rows in acc.items()
    }


def _data_path(name: str) -> Path:
    return Path(str(resources.files("specvalley").joinpath("data", name)))


def default_pb_table_path() -> Path:
    """Bundled mean-formant table (adult male and female rows)."""
    return _data_path("pb_means.csv")


def load_inventory(inventory_path, exclusions_path) -> VowelInventory:
    """Load 'label class' lines plus a one-label-per-line exclusion list.

    A bad inventory line raises LabelParseError, and a file that is not UTF-8
    text FormatError, with the path in front of the message.
    """
    return VowelInventory(classes=_read(_inventory_classes, inventory_path),
                          excluded_neighbors=_read(_exclusions, exclusions_path))


def _inventory_classes(inventory_path):
    classes = {}
    for lineno, line in enumerate(_text_lines(inventory_path), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[1] not in ("front", "back", "central"):
            raise LabelParseError(
                f"expected '<label> front|back|central', got {line!r}",
                line_number=lineno,
            )
        classes[parts[0]] = parts[1]
    return classes


def _exclusions(path):
    """The labels of an exclusion list: each line's stripped text before '#'."""
    return frozenset(filter(None, (line.split("#", 1)[0].strip() for line in _text_lines(path))))


def timit_inventory() -> VowelInventory:
    """Bundled inventory for TIMIT-style labels."""
    return load_inventory(_data_path("timit_inventory.txt"), _data_path("timit_exclusions.txt"))


def dravidian_inventory() -> VowelInventory:
    """Bundled inventory for the Kannada/Tamil label scheme."""
    return load_inventory(
        _data_path("dravidian_inventory.txt"), _data_path("dravidian_exclusions.txt")
    )


def _read(load, path, shown=None):
    """`load(path)`, with a format, label or row error naming the path (as `shown`)."""
    try:
        return load(path)
    except (FormatError, LabelParseError, ValidationError) as exc:
        exc.args = (f"{shown or path}: {exc}",)
        raise


def _text_lines(path):
    """The lines of a UTF-8 text file as text-mode iteration splits them (universal
    newlines, not str.splitlines); a file that is not UTF-8 is a FormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return list(fh)
        except UnicodeDecodeError as exc:
            raise FormatError(f"not UTF-8 text: {exc}", field="encoding") from None


def _is_file(entry: os.DirEntry) -> bool:
    """Whether the entry is a file or a symlink to one; a symlink loop is not."""
    try:
        return entry.is_file()
    except OSError:
        return False


def check_labels_ext(labels_ext: str):
    """Raise ValueError unless `labels_ext` is empty or a suffix such as .phn."""
    PurePath("a.wav").with_suffix(labels_ext)  # "Invalid suffix 'phn'"


def _labelled_wavs(root, labels_ext: str):
    """(path parts below root, WAV path, label sidecar `os.DirEntry`) of each
    labelled WAV under root, in sorted order of the parts.

    One listing per directory, walked as `Path.rglob` walks: a symlinked
    directory is not entered, a directory that cannot be listed is skipped,
    and a symlinked file counts. A WAV is a file whose last suffix is .wav
    in either case; its sidecar is the file beside it named with that suffix
    replaced by `labels_ext`, else by its lower case, else its upper case.
    """
    exts = list(dict.fromkeys((labels_ext, labels_ext.lower(), labels_ext.upper())))
    found, pending = [], [(root, ())] if os.path.isdir(root) else []
    while pending:
        directory, parts = pending.pop()
        try:
            with os.scandir(directory) as listing:
                entries = {entry.name: entry for entry in listing}
        except PermissionError:
            continue
        for name, entry in entries.items():
            if entry.is_dir(follow_symlinks=False):
                pending.append((entry.path, parts + (name,)))
                continue
            dot = name.rfind(".")  # as Path.suffix: a leading dot starts no suffix
            if dot <= 0 or name[dot:].lower() != ".wav" or not _is_file(entry):
                continue
            sidecars = (entries.get(name[:dot] + ext) for ext in exts)
            label = next((e for e in sidecars if e is not None and _is_file(e)), None)
            found.append((parts + (name,), entry.path, label))
    found.sort(key=lambda wav: wav[0])
    return [wav for wav in found if wav[2] is not None]


def collect_segments(corpus_dir, labels_ext: str, inventory: VowelInventory) -> SegmentTable:
    """Load every WAV under a corpus directory and select its vowel segments.

    The tree is walked recursively, without entering symlinked directories,
    and the WAV and label extensions match in either case, so a TIMIT-style
    `DR1/FAKS0/SA1.WAV` with `SA1.PHN` loads. Files are visited in sorted
    order of their path below the root, so the table is deterministic.
    Each segment's utterance id is that path without its suffix
    (`DR1/FAKS0/SA1`; the file stem in a flat corpus). WAVs without a label
    sidecar are skipped. A bad `labels_ext` raises before the walk (see
    `check_labels_ext`). A file that cannot be read as a WAV or as labels
    raises its FormatError or LabelParseError with that path in front of
    the message.
    """
    check_labels_ext(labels_ext)
    wavs = _labelled_wavs(os.fspath(corpus_dir), labels_ext)
    # Room for every sample of every file (a file holds at most half as many
    # 16-bit samples as bytes), in an anonymous mapping of its own: the
    # segments fill its front, untouched pages never become resident, and
    # freeing the table returns its pages without moving malloc's thresholds.
    room = mmap.mmap(-1, 2 * max(1, sum(os.path.getsize(path) // 2 for _, path, _ in wavs)))
    pcm, rows, n = np.frombuffer(room, dtype=np.int16), [], 0
    for parts, wav_path, label in wavs:
        wav = "/".join(parts)
        audio, rate = _read(_read_pcm, wav_path, wav)
        labels = _read(load_phone_labels, label.path, "/".join(parts[:-1] + (label.name,)))
        for start, stop, phone, fb in select_vowel_segments(labels, len(audio), rate, inventory):
            pcm[n:n + stop - start] = audio[start:stop]
            rows.append((n, rate, phone, fb, wav[: wav.rfind(".")], start))
            n += stop - start
    offsets, rate, label, fb_class, utterance_id, start = zip(*rows) if rows else [()] * 6
    return SegmentTable(pcm[:n], np.array(offsets + (n,), dtype=np.int64),
                        np.array(rate, dtype=np.float64), np.array(label, dtype=str),
                        np.array(fb_class, dtype=str), np.array(utterance_id, dtype=str),
                        np.array(start, dtype=np.int64))


def mix_noise(x: np.ndarray, sample_rate: float, kind: str, snr_db: float, seed: int = 0,
              babble=None) -> np.ndarray:
    """`x` plus `kind` noise (one of NOISE_KINDS) scaled so the mixed extent sits
    at exactly `snr_db`, at most MAX_SNR_DB either way.

    Powers are mean squared amplitudes over the segment. Babble noise is cut
    from `babble`, the (samples, rate) of `load_wav`, at a start offset drawn
    from the seed. Identical arguments give bit-identical output.
    """
    if kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}")
    if not abs(snr_db) <= MAX_SNR_DB:
        raise ValueError(f"snr_db must be within +/-{MAX_SNR_DB:g} dB, got {snr_db}")
    if kind == "babble" and babble is None:
        raise ValueError("babble noise needs a `babble` buffer")
    p_signal = float(np.mean(x**2))
    if p_signal <= 0:
        raise DegenerateInputError("cannot set an SNR against a zero-power signal")
    rng = np.random.default_rng(seed)
    if kind == "white":
        noise = rng.standard_normal(len(x))
    else:
        samples, rate = babble
        if rate != sample_rate:
            raise FormatError(f"babble rate {rate} != signal rate {sample_rate}",
                              field="sample_rate")
        if len(samples) < len(x):
            raise FormatError("babble source shorter than the signal", field="length")
        off = int(rng.integers(0, len(samples) - len(x) + 1))
        noise = samples[off : off + len(x)].copy()
    p_noise = float(np.mean(noise**2))
    if p_noise <= 0:
        raise DegenerateInputError("noise draw has zero power")
    noise *= np.sqrt(p_signal / (p_noise * 10.0 ** (snr_db / 10.0)))
    return x + noise


def noise_mixer(table: SegmentTable, rows: np.ndarray, kind: str, snr_db: float, seed: int,
                babble=None, shown: str = "babble"):
    """The `mix(i, x)` hook of `classify.segment_blocks` for one noise condition:
    segment i's float samples x plus `kind` noise at `snr_db` (`mix_noise`),
    seeded `seed + k` for i = rows[k]. A segment not in `rows`, or whose PCM is
    all zero (no power to set an SNR against), is analysed as it is. A babble,
    the (samples, rate) of `load_wav`, without the rate or the length of a
    segment it mixes raises FormatError here, naming it `shown`.
    """
    offsets = table.offsets
    seeds = {i: seed + k for k, i in enumerate(rows.tolist())
             if table.pcm[offsets[i]:offsets[i + 1]].any()}
    if kind == "babble" and babble is not None:
        samples, rate = babble
        for i in seeds:
            n = int(offsets[i + 1] - offsets[i])
            if table.rate[i] != rate or n > len(samples):
                raise FormatError(f"{shown} ({len(samples)} samples at {rate:g} Hz) cannot "
                                  f"cover segment {table.segment_id(i)} ({n} samples at "
                                  f"{table.rate[i]:g} Hz)")

    def mix(i, x):
        return x if i not in seeds else mix_noise(x, table.rate[i], kind, snr_db, seeds[i], babble)
    return mix
