"""`sigproc.stacked_product`: a row's bits do not depend on the stack it is in.

The LP envelope, the Newton seed grid and the MFCC filterbank and DCT each
multiply a stack of rows by one fixed matrix, in BLAS products of exactly
TILE_ROWS rows. These tests take the rows the acceptance corpus gives each
product and check that every row gives the bits it gives as a one-row stack,
at every position in a tile and in stacks of every height up to two tiles
and one row; that the products stay within the rounding bound of the
one-row BLAS products they replaced; and that `mean_mfccs`, with one MFCC
call per block, gives the means of the per-segment loop bit for bit.

CI runs this module with OPENBLAS_NUM_THREADS=1 and 2: a BLAS call split
over threads must not change a row either.
"""

import numpy as np
import pytest

from specvalley.baseline import (
    N_COEFFS,
    N_FILTERS,
    NFFT,
    dct_basis,
    mean_mfccs,
    mel_filterbank,
    segment_mfcc_matrix,
)
from specvalley.classify import ENVELOPE_POINTS, PipelineConfig, segment_blocks
from specvalley.corpus import SegmentTable, collect_segments, timit_inventory
from specvalley.experiments import GRID_POINTS
from specvalley.sigproc import (
    SEED_POINTS,
    SEED_RADIUS,
    TILE_ROWS,
    autocorrelation,
    levinson_rows,
    stacked_product,
    window,
    _unit_circle_table,
)

FS = 16000.0
KINDS = ("envelope", "seed grid", "f0 envelope", "mel filterbank", "dct")


def _fitted_taps(lags, order):
    fit = levinson_rows(lags[:, : order + 1], order)
    return fit.a[fit.stage == 0]


@pytest.fixture(scope="module")
def products(corpus_table):
    """kind -> (rows, matrix): the stacked products of the acceptance corpus.

    The order-18 taps of every fitted frame on the envelope table and, scaled
    to the SEED_RADIUS circle, on the seed table; the order-8 taps of every
    eighth frame on the f0 study's GRID_POINTS table (a product large enough
    for OpenBLAS to split over threads); and the power spectra of every frame
    that is not all zero with the mel filterbank, and their log energies with
    the kept DCT rows, as `baseline.mfcc` multiplies them.
    """
    frames = np.concatenate([f for _, _, f, _, _ in segment_blocks(corpus_table,
                                                                   PipelineConfig())])
    lags = autocorrelation(window(frames), 18)
    lags = lags[lags[:, 0] > 0]
    a = _fitted_taps(lags, 18)
    spectra = np.abs(np.fft.rfft(window(frames[np.any(frames, axis=1)]), NFFT, axis=-1)) ** 2
    filterbank = mel_filterbank(FS, NFFT).T
    log_e = np.log(np.maximum(stacked_product(spectra, filterbank), 1e-300))
    return {
        "envelope": (a, _unit_circle_table(19, ENVELOPE_POINTS)),
        "seed grid": (a * SEED_RADIUS ** -np.arange(19), _unit_circle_table(19, SEED_POINTS)),
        "f0 envelope": (_fitted_taps(lags[::8], 8), _unit_circle_table(9, GRID_POINTS)),
        "mel filterbank": (spectra, filterbank),
        "dct": (log_e, dct_basis(N_FILTERS)[1 : N_COEFFS + 1].T),
    }


def _in_stacks_of(height, rows, matrix):
    """rows @ matrix as separate `stacked_product` calls on `height` rows each.
    Each result is copied out at once: it is a view of its padded tiles."""
    out = np.empty((len(rows), matrix.shape[1]))
    for i in range(0, len(rows), height):
        out[i : i + height] = stacked_product(rows[i : i + height], matrix)
    return out


@pytest.fixture(scope="module")
def alone(products):
    """kind -> the product of each row as a one-row stack."""
    return {kind: _in_stacks_of(1, rows, matrix) for kind, (rows, matrix) in products.items()}


def test_the_corpus_gives_every_product_many_tiles(products):
    counts = {kind: len(rows) for kind, (rows, _) in products.items()}
    assert counts == {"envelope": 6167, "seed grid": 6167, "f0 envelope": 771,
                      "mel filterbank": 6167, "dct": 6167}


@pytest.mark.parametrize("kind", KINDS)
def test_rows_equal_their_one_row_stacks_at_every_tile_position(products, alone, kind):
    rows, matrix = products[kind]
    for lead in range(TILE_ROWS):
        # `lead` other rows ahead move every row `lead` places along its tile
        out = stacked_product(np.concatenate([rows[len(rows) - lead:], rows]), matrix)
        assert out.shape == (len(rows) + lead, matrix.shape[1])
        assert out[lead:].tobytes() == alone[kind].tobytes(), lead


@pytest.mark.parametrize("kind", KINDS)
def test_rows_equal_their_one_row_stacks_in_stacks_of_every_height(products, alone, kind):
    rows, matrix = products[kind]
    # heights up to 2*TILE_ROWS + 1 end in a partial tile of every size, twice;
    # height 1 is `alone` itself
    for height in range(2, 2 * TILE_ROWS + 2):
        assert _in_stacks_of(height, rows, matrix).tobytes() == alone[kind].tobytes(), height


@pytest.mark.parametrize("kind", KINDS)
def test_products_are_within_the_rounding_bound_of_one_row_products(products, kind):
    # Each entry is a k-term dot product x.y, and any summation order computes
    # it to within gamma_k * |x|.|y|, gamma_k = k*u/(1 - k*u), u = eps/2
    # (Higham 2002, eq. 3.5). The one-row BLAS products the tiles replaced
    # carry the same bound, so the two differ by at most 2*gamma_k*|x|.|y|;
    # |x|.|y| is itself computed, so it is divided by (1 - gamma_k).
    rows, matrix = products[kind]
    k = rows.shape[1]
    u = np.finfo(np.float64).eps / 2
    gamma = k * u / (1 - k * u)
    bound = 2 * gamma / (1 - gamma) * (np.abs(rows) @ np.abs(matrix))
    one_row = (rows[:, None, :] @ matrix)[:, 0]
    diff = np.abs(stacked_product(rows, matrix) - one_row)
    assert np.all(diff <= bound)


def test_empty_stack_gives_an_empty_product():
    out = stacked_product(np.empty((0, 19)), _unit_circle_table(19, 64))
    assert out.shape == (0, 128)


def _per_segment_means(table, cfg):
    """The loop `mean_mfccs` replaced, kept as a reference: one
    `segment_mfcc_matrix` call per segment's frames."""
    out = []
    for rows, truths, block, counts, rate in segment_blocks(table, cfg):
        for i, truth, frames in zip(rows.tolist(), truths,
                                    np.split(block, np.cumsum(counts)[:-1])):
            mat = segment_mfcc_matrix(frames, rate)
            out.append((i, truth, mat.mean(axis=0) if len(mat) else None))
    return out


def _assert_same_means(got, expected):
    assert [(i, truth) for i, truth, _ in got] == [(i, truth) for i, truth, _ in expected]
    for (_, _, mean), (_, _, ref) in zip(got, expected):
        if ref is None:
            assert mean is None
        else:
            assert mean.tobytes() == ref.tobytes()


@pytest.mark.parametrize("corpus", ["small_corpus_dir", "corpus_dir"])
def test_mean_mfccs_equal_the_per_segment_loop(request, corpus):
    table = collect_segments(request.getfixturevalue(corpus), ".phn", timit_inventory())
    cfg = PipelineConfig()
    expected = _per_segment_means(table, cfg)
    assert len(expected) in (63, 500) and all(m is not None for _, _, m in expected)
    _assert_same_means(mean_mfccs(table, cfg), expected)


def _table(segments):
    """A SegmentTable of int16 sample arrays at FS, alternately front and back."""
    offsets = np.concatenate(([0], np.cumsum([len(s) for s in segments])))
    n = len(segments)
    return SegmentTable(np.concatenate(segments).astype(np.int16), offsets, np.full(n, FS),
                        np.array(["iy", "aa"] * n)[:n], np.array(["front", "back"] * n)[:n],
                        np.array([f"u{i}" for i in range(n)]), np.zeros(n, dtype=int))


def test_mean_mfccs_skip_all_zero_frames_and_give_none_without_a_frame():
    rng = np.random.default_rng(4)

    def sound(n):
        return rng.integers(500, 3000, n) * rng.choice([-1, 1], n)

    # 20 ms frames with a 10 ms hop: frame 4 covers samples 640..959. After
    # pre-emphasis it is all zero, and its neighbours are not, when the samples
    # 639..959 are zero.
    one_zero_frame = sound(2400)
    one_zero_frame[639:960] = 0
    segments = [sound(1600), one_zero_frame, np.zeros(1600, dtype=int), sound(100), sound(3200)]
    table = _table(segments)
    cfg = PipelineConfig()
    (_, _, frames, counts, _), = segment_blocks(table, cfg)
    assert counts.tolist() == [9, 14, 9, 0, 19]
    zero = ~np.any(frames, axis=1)
    assert np.flatnonzero(zero[9:23]).tolist() == [4] and zero[23:32].all()

    expected = _per_segment_means(table, cfg)
    assert [m is None for _, _, m in expected] == [False, False, True, True, False]
    _assert_same_means(mean_mfccs(table, cfg), expected)
