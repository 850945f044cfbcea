"""Spectral-valley analysis of vowels.

Measures the relative level of spectral valleys between formants, the
objective critical distance at which a valley meets the mean spectral level,
and front/back vowel classification built on valley-level differences.
"""

__version__ = "0.1.0"
