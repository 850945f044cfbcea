"""Benchmark classifier: MFCC features and a small two-layer network."""

import functools
from dataclasses import dataclass

import numpy as np

from .classify import segment_blocks
from .errors import DegenerateInputError
from .sigproc import CHUNK_ROWS, stacked_product, window

CLASS_TO_TARGET = {"front": 0.0, "back": 1.0}

# MFCCs: N_FILTERS mel filters from 0 Hz to Nyquist on a spectrum of NFFT
# points, or of the frame length rounded up to a power of two where that is
# more, and c1..c_N_COEFFS kept
N_FILTERS = 26
N_COEFFS = 12
NFFT = 512

# training: mini-batch gradient descent with momentum, stopped early on a
# held-out share of the data
LEARNING_RATE = 0.1
MOMENTUM = 0.9
BATCH_SIZE = 32
HOLDOUT_FRACTION = 0.1
PATIENCE = 30  # epochs without a better held-out loss before training stops
# the widest hidden layer `baseline --hidden` accepts: far past the paper's
# 10 units, and small enough that the weights stay a few MB
MAX_HIDDEN_UNITS = 10000


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def mel_filterbank(sample_rate: float, n_fft: int) -> np.ndarray:
    """Triangular mel filters as an (N_FILTERS, n_fft//2 + 1) weight matrix.

    Built once per sample rate and FFT size; the cached matrix is read-only.
    """
    mels = np.linspace(_hz_to_mel(0.0), _hz_to_mel(sample_rate / 2.0), N_FILTERS + 2)
    hz = _mel_to_hz(mels)
    bins = np.floor((n_fft + 1) * hz / sample_rate).astype(int)
    bins = np.clip(bins, 0, n_fft // 2)
    fb = np.zeros((N_FILTERS, n_fft // 2 + 1))
    for i in range(N_FILTERS):
        left, center, right = bins[i], bins[i + 1], bins[i + 2]
        if center == left:
            center = left + 1
        if right <= center:
            right = center + 1
        fb[i, left:center] = (np.arange(left, center) - left) / (center - left)
        fb[i, center:right] = (right - np.arange(center, right)) / (right - center)
    fb.setflags(write=False)
    return fb


@functools.lru_cache(maxsize=8)
def dct_basis(n: int) -> np.ndarray:
    """The orthonormal DCT-II as an (n, n) matrix: row k holds coefficient k's weights.

    Built once per size; the cached matrix is read-only.
    """
    k = np.arange(n)[:, None]
    basis = np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n)) * np.sqrt(2.0 / n)
    basis[0] /= np.sqrt(2.0)
    basis.setflags(write=False)
    return basis


def mfcc(frames: np.ndarray, sample_rate: float) -> np.ndarray:
    """c1..c12 of each row of a frame stack: power spectrum, mel filterbank, log, DCT-II.

    An (n_frames, frame_len) stack gives an (n_frames, N_COEFFS) matrix from
    one rfft, long enough for every sample (see NFFT), and two
    `sigproc.stacked_product` calls, the filterbank and the DCT, so each row
    equals what its frame gives alone. c0 is dropped, which makes the kept
    coefficients invariant to audio gain.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError(f"frames must be an (n_frames, frame_len) stack, got shape {frames.shape}")
    if not np.all(np.any(frames, axis=1)):
        raise DegenerateInputError("all-zero frame has no spectrum to describe")
    n_fft = max(NFFT, 1 << (frames.shape[1] - 1).bit_length())
    spectrum = np.abs(np.fft.rfft(frames, n_fft, axis=1))
    spectrum *= spectrum
    energies = stacked_product(spectrum, mel_filterbank(sample_rate, n_fft).T)
    log_e = np.log(np.maximum(energies, 1e-300))
    return stacked_product(log_e, dct_basis(N_FILTERS)[1 : N_COEFFS + 1].T)


def segment_mfcc_matrix(frames: np.ndarray, sample_rate: float) -> np.ndarray:
    """Frame-level MFCC matrix of a pre-emphasized frame stack, as
    `classify.segment_blocks` gives it for one block of segments.

    All-zero frames are skipped; the rest are windowed and go through `mfcc`
    `sigproc.CHUNK_ROWS` frames at a time, so the block's padded and complex
    spectra are never held at once. Each row is what its frame gives alone.
    """
    rows = [np.empty((0, N_COEFFS))]
    for first in range(0, len(frames), CHUNK_ROWS):
        chunk = frames[first:first + CHUNK_ROWS]
        chunk = chunk[np.any(chunk, axis=1)]
        if len(chunk):
            rows.append(mfcc(window(chunk), sample_rate))
    return np.concatenate(rows)


def mean_mfccs(table, cfg, include_central: bool = False):
    """(segment index, truth, mean MFCC vector, or None without a non-silent frame)
    per scored segment of a `corpus.SegmentTable`, framed by `classify.segment_blocks`.

    Each block is one `segment_mfcc_matrix` call; a segment's mean is taken
    over its own rows of the block's matrix.
    """
    out = []
    for rows, truths, block, counts, rate in segment_blocks(table, cfg, include_central):
        mat = segment_mfcc_matrix(block, rate)
        # segment j's rows of mat are bounds[j]:bounds[j+1], its frames not all zero
        kept = np.concatenate(([0], np.cumsum(np.any(block, axis=1))))
        bounds = kept[np.concatenate(([0], np.cumsum(counts)))].tolist()
        for i, truth, lo, hi in zip(rows.tolist(), truths, bounds[:-1], bounds[1:]):
            out.append((i, truth, mat[lo:hi].mean(axis=0) if hi > lo else None))
    return out


@dataclass
class MlpModel:
    """Two-layer network: tanh hidden layer, logistic output."""

    input_dim: int
    hidden_units: int
    w1: np.ndarray  # (hidden, input)
    b1: np.ndarray
    w2: np.ndarray  # (hidden,)
    b2: float
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    seed: int = 0


def _forward(w1, b1, w2, b2, x):
    """Hidden activations and output probabilities. exp(-z) = inf gives the limit p = 0,
    so callers run it under np.errstate(over="ignore"), entered once per call site."""
    h = np.tanh(x @ w1.T + b1)
    z = h @ w2 + b2
    return h, 1.0 / (1.0 + np.exp(-z))


def _loss(p, y, eps=1e-12):
    return -np.mean(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps))


def _gradients(w2, x, y, h, p, out):
    """Write the mean cross-entropy's gradients into `out`, the (w1, b1, w2, b2) arrays."""
    g_w1, g_b1, g_w2, g_b2 = out
    dz = (p - y) / len(y)  # (n,)
    dh = np.outer(dz, w2) * (1.0 - h * h)
    np.matmul(dh.T, x, out=g_w1)
    dh.sum(axis=0, out=g_b1)
    np.matmul(h.T, dz, out=g_w2)
    g_b2[...] = np.sum(dz)


def _layers(flat, hidden_units, d):
    """The w1 (hidden, d), b1, w2 and 0-d b2 views of a flat w1 | b1 | w2 | b2 vector."""
    n1 = hidden_units * d
    return (flat[:n1].reshape(hidden_units, d), flat[n1 : n1 + hidden_units],
            flat[n1 + hidden_units : -1], flat[-1:].reshape(()))


def loss_and_gradients(w1, b1, w2, b2, x, y):
    """Mean cross-entropy and its analytic gradients, as (w1, b1, w2, b2) arrays.

    The public form of the loss and `_gradients` that `train_mlp` steps with
    on one flat vector; gradient checks compare it with finite differences.
    """
    with np.errstate(over="ignore"):
        h, p = _forward(w1, b1, w2, b2, x)
    g_w1, g_b1, g_w2, g_b2 = grads = _layers(np.empty(w1.size + 2 * len(b1) + 1), *w1.shape)
    _gradients(w2, x, y, h, p, grads)
    return _loss(p, y), (g_w1, g_b1, g_w2, float(g_b2))


def train_mlp(
    samples,
    labels,
    hidden_units: int = 10,
    seed: int = 0,
    epochs: int = 300,
) -> MlpModel:
    """Seeded mini-batch gradient descent with momentum and early stopping.

    HOLDOUT_FRACTION of the data (seeded shuffle) is held out; training stops
    when its loss has not improved for PATIENCE epochs and the best weights
    are restored. Identical inputs and seed give identical weights. The
    weights, their gradients and the velocity are each one flat
    w1 | b1 | w2 | b2 vector, so a step updates all layers in three calls.
    """
    x = np.asarray(samples, dtype=np.float64)
    y = np.asarray([CLASS_TO_TARGET[l] if isinstance(l, str) else float(l) for l in labels])
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("samples must be (n, d) with one label per row")
    if len(set(y.tolist())) < 2:
        raise ValueError("training needs both classes present")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    rng = np.random.default_rng(seed)
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0] = 1.0
    xn = (x - mean) / scale
    n_hold = max(1, int(round(HOLDOUT_FRACTION * len(xn))))
    perm = rng.permutation(len(xn))
    hold, tr = perm[:n_hold], perm[n_hold:]
    if len(tr) == 0:
        raise ValueError("not enough samples to train")
    x_hold, y_hold = xn[hold], y[hold]
    d = xn.shape[1]
    size = hidden_units * (d + 2) + 1
    params, grad, vel = np.zeros(size), np.empty(size), np.zeros(size)
    layers, grads = _layers(params, hidden_units, d), _layers(grad, hidden_units, d)
    w1, _, w2, _ = layers
    w1[...] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(hidden_units, d))
    w2[...] = rng.normal(0.0, 1.0 / np.sqrt(hidden_units), size=hidden_units)
    best_loss, best = np.inf, params.copy()
    stale = 0
    with np.errstate(over="ignore"):
        for _ in range(epochs):
            idx = tr[rng.permutation(len(tr))]
            x_epoch, y_epoch = xn[idx], y[idx]
            for start in range(0, len(idx), BATCH_SIZE):
                xb = x_epoch[start : start + BATCH_SIZE]
                h, p = _forward(*layers, xb)
                _gradients(w2, xb, y_epoch[start : start + BATCH_SIZE], h, p, grads)
                vel *= MOMENTUM
                vel -= LEARNING_RATE * grad
                params += vel
            val_loss = _loss(_forward(*layers, x_hold)[1], y_hold)
            if val_loss < best_loss - 1e-9:
                best_loss, best = val_loss, params.copy()
                stale = 0
            else:
                stale += 1
                if stale >= PATIENCE:
                    break
    w1, b1, w2, b2 = _layers(best, hidden_units, d)
    return MlpModel(input_dim=d, hidden_units=hidden_units, w1=w1, b1=b1, w2=w2,
                    b2=float(b2), feature_mean=mean, feature_scale=scale, seed=seed)


def predict(model: MlpModel, feature):
    """(label, score); score > 0.5 reads back, exactly 0.5 reads front."""
    feature = np.asarray(feature, dtype=np.float64)
    if feature.shape != (model.input_dim,):
        raise ValueError(
            f"feature dimension {feature.shape} does not match model ({model.input_dim},)"
        )
    xn = (feature - model.feature_mean) / model.feature_scale
    with np.errstate(over="ignore"):
        _, p = _forward(model.w1, model.b1, model.w2, model.b2, xn[None, :])
    score = float(p[0])
    return ("back" if score > 0.5 else "front"), score


def save_model(model: MlpModel, path):
    """Persist as text: dims header then row-major weights, exact round trip."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("specvalley-mlp 1\n")
        fh.write(f"{model.input_dim} {model.hidden_units} {model.seed}\n")
        for vec in (
            model.feature_mean,
            model.feature_scale,
            model.w1.ravel(),
            model.b1,
            model.w2,
            np.array([model.b2]),
        ):
            fh.write(" ".join(repr(float(v)) for v in vec) + "\n")


def load_model(path) -> MlpModel:
    with open(path, "r", encoding="utf-8") as fh:
        magic = fh.readline().strip()
        if magic != "specvalley-mlp 1":
            raise ValueError(f"not a model file (header {magic!r})")
        d, h, seed = (int(v) for v in fh.readline().split())
        rows = [np.array([float(v) for v in fh.readline().split()]) for _ in range(6)]
    mean, scale, w1, b1, w2, b2 = rows
    return MlpModel(input_dim=d, hidden_units=h, w1=w1.reshape(h, d), b1=b1, w2=w2,
                    b2=float(b2[0]), feature_mean=mean, feature_scale=scale, seed=seed)
