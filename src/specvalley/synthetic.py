"""Synthetic vowel corpus built from mean-formant data, for desk-scale runs.

Each segment synthesizes one vowel from per-draw jittered mean formants with
a falling-spectrum pulse-train source. Bandwidths are first calibrated per
vowel and gender so the peak levels match the published mean formant levels,
then jittered per draw. Output is one WAV per segment with a TIMIT-style
label sidecar (silence / vowel / silence), so the ingestion path is the same
one a real corpus would take.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import default_pb_table_path, load_pb_table, save_wav
from .errors import CalibrationError
from .experiments import BACK_VOWELS, FRONT_VOWELS
from .synth import calibrate_bandwidth_rows, synthesize_cascades

CLASSIFIED_VOWELS = {**dict.fromkeys(FRONT_VOWELS, "front"),
                     **dict.fromkeys(BACK_VOWELS, "back")}

# upper formants appended above the three calibrated ones
UPPER_FORMANTS = {
    "male": ((3500.0, 150.0), (4500.0, 200.0)),
    "female": ((4200.0, 150.0), (4900.0, 200.0)),
}

# per token: F1..F3 scaled by 1 + N(0, FORMANT_JITTER), F0 and duration uniform
# in their ranges; each segment pads its token with SILENCE_S of silence
FORMANT_JITTER = 0.05
F0_RANGE_HZ = (100.0, 250.0)
DURATION_RANGE_S = (0.08, 0.20)
SILENCE_S = 0.08

BABBLE_VOICES = 8
# corpus tokens synthesized per `synth.synthesize_cascades` call
TOKEN_STACK = 8


@dataclass
class VowelRecipe:
    """Calibrated synthesis parameters for one vowel and gender.

    `calibration_rounds` and `calibration_residuals_db` record how the
    bandwidth calibration converged: the rounds it ran and the final
    measured-minus-target levels of L1..L3 relative to L1, in dB.
    """

    vowel: str
    gender: str
    fb_class: str
    formants_hz: tuple
    bandwidths_hz: tuple
    calibration_rounds: int = 0
    calibration_residuals_db: tuple = ()


def build_recipes(sample_rate: float = 16000.0, pb_table_path=None):
    """Calibrate bandwidths to the published levels for every vowel/gender.

    All vowels are calibrated in one stacked bisection. Raises
    CalibrationError naming the first vowel and gender whose targets were
    not reached.
    """
    entries = load_pb_table(pb_table_path or default_pb_table_path())
    entries = [e for e in entries if e.vowel in CLASSIFIED_VOWELS]
    if not entries:
        return []
    fit = calibrate_bandwidth_rows(
        [(e.f1, e.f2, e.f3) for e in entries],
        [(e.l1, e.l2, e.l3) for e in entries],
        sample_rate,
        extra_formants=[UPPER_FORMANTS[e.gender] for e in entries],
    )
    recipes = []
    for e, bws, rounds, residuals, converged in zip(entries, *fit):
        if not converged:
            raise CalibrationError(
                f"bandwidth calibration for {e.vowel} ({e.gender}) did not reach "
                "the level targets",
                residuals_db=residuals.tolist(),
            )
        upper = UPPER_FORMANTS[e.gender]
        recipes.append(
            VowelRecipe(
                vowel=e.vowel,
                gender=e.gender,
                fb_class=CLASSIFIED_VOWELS[e.vowel],
                formants_hz=(e.f1, e.f2, e.f3) + tuple(f for f, _ in upper),
                bandwidths_hz=tuple(bws) + tuple(b for _, b in upper),
                calibration_rounds=int(rounds),
                calibration_residuals_db=tuple(residuals.tolist()),
            )
        )
    return recipes


def _draw_token(
    recipe: VowelRecipe,
    rng: "np.random.Generator",  # quoted: evaluating it would import numpy.random
    sample_rate: float,
):
    """(frequencies, bandwidths, F0, n_samples) of one jittered token of a vowel recipe."""
    freqs = list(recipe.formants_hz)
    bws = list(recipe.bandwidths_hz)
    for i in range(3):
        freqs[i] = freqs[i] * (1.0 + rng.normal(0.0, FORMANT_JITTER))
        bws[i] = bws[i] * rng.uniform(0.8, 1.25)
    prev = 0.0
    for i, f in enumerate(freqs):
        freqs[i] = prev = max(f, prev + 50.0)  # keep the cascade ordered under jitter
    f0 = rng.uniform(*F0_RANGE_HZ)
    dur = rng.uniform(*DURATION_RANGE_S)
    return freqs, bws, f0, round(dur * sample_rate)


def build_synthetic_corpus(
    out_dir,
    n_segments: int = 500,
    seed: int = 0,
    sample_rate: float = 16000.0,
    recipes=None,
):
    """Write a WAV + .phn label-file corpus; returns (wav_path, vowel, class) rows.

    Vowels cycle through the classified inventory and genders alternate, so
    class balance follows the 4 front / 5 back inventory split. Every token
    is drawn first; then TOKEN_STACK tokens at a time go through one
    `synth.synthesize_cascades` call, are normalized to 0.3 peak and written
    before the next stack is synthesized. Fully deterministic for a given seed.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if recipes is None:
        recipes = build_recipes(sample_rate)
    by_key = {(r.vowel, r.gender): r for r in recipes}
    vowels = sorted(CLASSIFIED_VOWELS)
    rng = np.random.default_rng(seed)
    segments = []
    for i in range(n_segments):
        vowel = vowels[i % len(vowels)]
        gender = "male" if (i // len(vowels)) % 2 == 0 else "female"
        recipe = by_key[(vowel, gender)]
        segments.append((f"seg{i:04d}_{vowel}_{gender[0]}", recipe,
                         _draw_token(recipe, rng, sample_rate)))
    rows = []
    start = int(SILENCE_S * sample_rate)
    for first in range(0, n_segments, TOKEN_STACK):
        stack = segments[first : first + TOKEN_STACK]
        freqs, bws, f0s, lengths = zip(*(token for *_, token in stack))
        tokens = synthesize_cascades(freqs, bws, f0s, sample_rate, lengths, tilted=True)
        for (stem, recipe, _), token in zip(stack, tokens):
            end = start + len(token)
            samples = np.zeros(end + start)
            np.multiply(token, 0.3 / np.max(np.abs(token)), out=samples[start:end])
            wav_path = out_dir / f"{stem}.wav"
            save_wav(wav_path, samples, sample_rate)
            with open(out_dir / f"{stem}.phn", "w", encoding="utf-8") as fh:
                fh.write(f"0 {start} h#\n")
                fh.write(f"{start} {end} {recipe.vowel}\n")
                fh.write(f"{end} {len(samples)} h#\n")
            rows.append((wav_path, recipe.vowel, recipe.fb_class))
    return rows


def build_babble(
    path,
    duration_s: float = 4.0,
    seed: int = 0,
    sample_rate: float = 16000.0,
    recipes=None,
) -> Path:
    """Write a babble-noise WAV as a sum of BABBLE_VOICES continuous synthetic vowels,
    synthesized in one `synth.synthesize_cascades` call."""
    if recipes is None:
        recipes = build_recipes(sample_rate)
    rng = np.random.default_rng(seed)
    n = int(duration_s * sample_rate)
    drawn = []
    for _ in range(BABBLE_VOICES):
        r = recipes[int(rng.integers(len(recipes)))]
        drawn.append((r.formants_hz, r.bandwidths_hz, float(rng.uniform(90.0, 260.0))))
    freqs, bws, f0s = zip(*drawn)
    voices = synthesize_cascades(freqs, bws, f0s, sample_rate,
                                 [round((duration_s + 0.05) * sample_rate)] * BABBLE_VOICES,
                                 tilted=True)
    mix = np.zeros(n)
    for voice in voices:
        voice = voice[:n]
        mix += voice / np.sqrt(np.mean(voice**2))
    mix *= 0.15 / np.max(np.abs(mix))
    path = Path(path)
    save_wav(path, mix, sample_rate)
    return path
