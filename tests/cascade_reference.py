"""Exact cascade spectra for the tests to measure against.

`analytic_cascade_spectrum` is the dB response of cascaded two-pole
resonators on the grid of `sigproc.cascade_grid`, summed from the same
primitives `experiments.PairMeter` and the bandwidth calibration sum.
`source_tilt_db` is the dB response of the synthesizer's source-tilt lowpass.
"""

import numpy as np

from specvalley.sigproc import cascade_grid, cascade_levels, resonator_db
from specvalley.synth import source_tilt_response


def analytic_cascade_spectrum(formants, sample_rate: float, n_points: int = 1024):
    """(freqs, levels): the exact dB response of cascaded two-pole resonators.

    `formants` is an (m, 2) array of (frequency, bandwidth) rows, and `freqs`
    the grid of `cascade_grid`. Each resonator (see `resonator_db`) is scaled
    for unity gain at 0 Hz; the levels are the sum of the resonators' dB
    terms in the given order (`cascade_levels`). No formant gives a flat
    0 dB envelope.
    """
    freqs, zinv = cascade_grid(sample_rate, n_points)
    terms = [resonator_db(f, b, zinv, sample_rate) for f, b in np.reshape(formants, (-1, 2))]
    return freqs, cascade_levels(terms, n_points)


def source_tilt_db(freqs, sample_rate: float) -> np.ndarray:
    """dB response of the source-tilt lowpass on the given frequency grid."""
    zinv = np.exp(-2j * np.pi * np.asarray(freqs) / sample_rate)
    return 20.0 * np.log10(np.abs(source_tilt_response(zinv, sample_rate)))
