"""Frequency-scale conversion from Hz to critical-band rate (bark)."""

import numpy as np


def hz_to_bark(f):
    """Critical-band rate z in bark for frequency f in Hz.

    z = 13*atan(0.00076*f) + 3.5*atan((f/7500)^2). Accepts scalars or arrays,
    and an array's values equal its elements' scalar values bit for bit;
    strictly increasing in f, z(0) = 0.
    """
    arr = np.asarray(f, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("frequency must be finite")
    if np.any(arr < 0):
        raise ValueError("frequency must be non-negative")
    # float_power squares through the C library's pow, as a float64 scalar's
    # ** 2 does, so an array gives what its elements give one at a time
    z = 13.0 * np.arctan(0.00076 * arr) + 3.5 * np.arctan(np.float_power(arr / 7500.0, 2))
    return float(z) if np.isscalar(f) or arr.ndim == 0 else z

