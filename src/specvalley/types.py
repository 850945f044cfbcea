"""Shared value types: signals and formants, and the mean level of a spectrum."""

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


@dataclass
class SignalBuffer:
    """Sampled real signal plus its sample rate in Hz."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if not (np.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")


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
