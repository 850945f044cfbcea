import numpy as np
import pytest

from specvalley.scales import hz_to_bark

# (f_low, f_high, quoted spacing): reference spacings quoted to 0.1 bark,
# so the computed value must land within 0.05 of the quoted rounding interval
CAPTION_SPACINGS = [
    (750.0, 1400.0, 3.9),
    (850.0, 1400.0, 3.2),
    (950.0, 1400.0, 2.5),
    (500.0, 1500.0, 6.5),
    (725.0, 1275.0, 3.6),
    (800.0, 1200.0, 2.6),
]


def test_zero_maps_to_zero():
    assert hz_to_bark(0.0) == 0.0


@pytest.mark.parametrize("f_low,f_high,quoted", CAPTION_SPACINGS)
def test_reference_spacings(f_low, f_high, quoted):
    spacing = hz_to_bark(f_high) - hz_to_bark(f_low)
    distance_past_rounding = abs(spacing - quoted) - 0.05
    assert distance_past_rounding <= 0.05, (
        f"{f_low}-{f_high}: {spacing:.3f} vs quoted {quoted}"
    )


def test_monotone_in_frequency():
    f = np.linspace(0.0, 12000.0, 4001)
    z = hz_to_bark(f)
    assert np.all(np.diff(z) > 0)


def test_known_inverse_point():
    z = hz_to_bark(1400.0)
    assert abs(z - 10.74) < 0.02


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hz_to_bark(-1.0)
    with pytest.raises(ValueError):
        hz_to_bark(float("nan"))


def test_an_array_gives_its_elements_scalar_values():
    # the spacing rules convert the formants of a segment's frames as one array;
    # the first values are ones where squaring in NumPy and in the C library's
    # pow round apart
    f = np.concatenate(([7390.59923948731, 7080.774030260706, 5468.971377349506,
                         3446.309756512851, 3742.951602231506, 7076.616149824317],
                        np.random.default_rng(3).uniform(0.0, 24000.0, 30000)))
    assert np.array_equal(hz_to_bark(f), [hz_to_bark(x) for x in f.tolist()])
    assert np.array_equal(hz_to_bark(f.reshape(-1, 2)), hz_to_bark(f).reshape(-1, 2))
