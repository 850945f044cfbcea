"""Shared value types: formants, and the mean level of a spectrum."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FormantSpec:
    """One formant: center frequency and bandwidth, both in Hz."""

    frequency: float
    bandwidth: float

    def __post_init__(self):
        if not (np.isfinite(self.frequency) and self.frequency > 0):
            raise ValueError(f"formant frequency must be positive, got {self.frequency}")
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"formant bandwidth must be positive, got {self.bandwidth}")


def power_mean_db(levels_db: np.ndarray):
    """Level of the average spectral power, in dB.

    The average is taken in the linear power domain. Averaging the dB values
    themselves would sit far below every peak for resonant spectra and could
    never equal a valley level, which is the crossing this analysis is built on.
    A 1-D input gives a float; an (n, m) stack gives one level per row.
    """
    levels_db = np.asarray(levels_db, dtype=np.float64)
    power = levels_db / 10.0
    np.power(10.0, power, out=power)
    mean_db = 10.0 * np.log10(power.mean(axis=-1))
    return float(mean_db) if levels_db.ndim == 1 else mean_db
