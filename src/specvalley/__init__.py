"""Spectral-valley analysis of vowels.

Measures the relative level of spectral valleys between formants, the
objective critical distance at which a valley meets the mean spectral level,
and front/back vowel classification built on valley-level differences.
"""

__version__ = "0.1.0"

from .experiments import (
    OcdResult,
    SweepConfig,
    f0_influence_experiment,
    level_influence_experiment,
    ocd_sweep,
    pb_ocd_table,
    two_formant_curve,
)
from .scales import hz_to_bark
from .sigproc import (
    analytic_cascade_spectrum,
    autocorrelation,
    frame_signal,
    polynomial_roots,
    preemphasize,
    window,
)
from .types import FormantSpec, SignalBuffer

__all__ = [
    "Excitation",
    "FormantSpec",
    "OcdResult",
    "SignalBuffer",
    "SweepConfig",
    "analytic_cascade_spectrum",
    "autocorrelation",
    "f0_influence_experiment",
    "frame_signal",
    "hz_to_bark",
    "level_influence_experiment",
    "ocd_sweep",
    "pb_ocd_table",
    "polynomial_roots",
    "preemphasize",
    "resonator_coefficients",
    "synthesize",
    "two_formant_curve",
    "window",
]

# synth imports scipy.signal, which costs more than the rest of the package;
# its names are resolved on first use so the analysis commands never load it
_SYNTH_NAMES = frozenset({"Excitation", "resonator_coefficients", "synthesize"})


def __getattr__(name):
    if name in _SYNTH_NAMES:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SYNTH_NAMES)
