"""Frequency-scale conversions between Hz and critical-band rate (bark)."""

import numpy as np

BARK_TO_HZ_MAX = 24000.0  # Hz; the top of the bracket `bark_to_hz` searches


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


def bark_to_hz(z):
    """Inverse of `hz_to_bark` by bisection, to 1e-6 bark.

    z must lie in [0, hz_to_bark(BARK_TO_HZ_MAX)].
    """
    arr = np.asarray(z, dtype=np.float64)
    scalar = np.isscalar(z) or arr.ndim == 0
    out = np.empty(arr.shape if not scalar else (1,))
    zmax = hz_to_bark(BARK_TO_HZ_MAX)
    for i, zz in enumerate(np.atleast_1d(arr)):
        if not np.isfinite(zz) or zz < 0 or zz > zmax:
            raise ValueError(f"bark value {zz} outside invertible range [0, {zmax:.3f}]")
        if zz == 0.0:
            out.flat[i] = 0.0
            continue
        lo, hi = 0.0, BARK_TO_HZ_MAX
        # ~60 halvings of the Hz bracket drive the bark error below 1e-6
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if hz_to_bark(mid) < zz:
                lo = mid
            else:
                hi = mid
            if hz_to_bark(hi) - hz_to_bark(lo) < 1e-7:
                break
        out.flat[i] = 0.5 * (lo + hi)
    return float(out[0]) if scalar else out
