"""Benchmark classifier: MFCC features and a small two-layer network."""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .sigproc import frame_signal, preemphasize, window
from .types import SignalBuffer

CLASS_TO_TARGET = {"front": 0.0, "back": 1.0}

# MFCCs: N_FILTERS mel filters from 0 Hz to Nyquist on an NFFT-point spectrum,
# and c1..c_N_COEFFS kept
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


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def mel_filterbank(sample_rate: float) -> np.ndarray:
    """Triangular mel filters as an (N_FILTERS, NFFT//2 + 1) weight matrix.

    Built once per sample rate; the cached matrix is read-only.
    """
    mels = np.linspace(_hz_to_mel(0.0), _hz_to_mel(sample_rate / 2.0), N_FILTERS + 2)
    hz = _mel_to_hz(mels)
    bins = np.floor((NFFT + 1) * hz / sample_rate).astype(int)
    bins = np.clip(bins, 0, NFFT // 2)
    fb = np.zeros((N_FILTERS, NFFT // 2 + 1))
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


def mfcc(frames: np.ndarray, sample_rate: float) -> np.ndarray:
    """c1..c12 of a frame: power spectrum, mel filterbank, log, DCT-II.

    `frames` is one frame or an (n_frames, frame_len) stack, which gives an
    (n_frames, N_COEFFS) matrix from one rfft, one filterbank, one stacked
    filterbank product and one DCT. c0 is dropped, which makes the kept
    coefficients invariant to audio gain.
    """
    from scipy.fft import dct  # kept off the import path of commands without MFCCs

    frames = np.asarray(frames, dtype=np.float64)
    if not np.all(np.any(frames, axis=-1)):
        raise DegenerateInputError("all-zero frame has no spectrum to describe")
    filterbank = mel_filterbank(sample_rate)
    spectrum = np.abs(np.fft.rfft(frames, NFFT, axis=-1)) ** 2
    # one filterbank-times-spectrum product per frame, the same BLAS call a
    # single frame makes, so a stacked row equals the single-frame result exactly
    energies = (filterbank @ spectrum[..., None])[..., 0]
    log_e = np.log(np.maximum(energies, 1e-300))
    coeffs = dct(log_e, type=2, norm="ortho", axis=-1)
    return coeffs[..., 1 : N_COEFFS + 1]


def segment_mfcc_matrix(
    audio: SignalBuffer,
    frame_ms: float = 20.0,
    overlap_fraction: float = 0.5,
    preemphasis: float = 0.97,
) -> np.ndarray:
    """Frame-level MFCC matrix under the standard analysis conditions.

    All-zero frames are skipped; the rest go through `mfcc` as one stack.
    """
    emphasized = preemphasize(audio, preemphasis)
    frames = frame_signal(emphasized, frame_ms, overlap_fraction)
    frames = frames[np.any(frames, axis=1)]
    if len(frames) == 0:
        return np.empty((0, N_COEFFS))
    return mfcc(window(frames), audio.sample_rate)


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
    h = np.tanh(x @ w1.T + b1)
    z = h @ w2 + b2
    return h, 1.0 / (1.0 + np.exp(-z))


def _loss(p, y, eps=1e-12):
    return -np.mean(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps))


def _gradients(w2, x, y, h, p):
    dz = (p - y) / len(y)  # (n,)
    dh = np.outer(dz, w2) * (1.0 - h * h)
    return dh.T @ x, dh.sum(axis=0), h.T @ dz, float(np.sum(dz))


def loss_and_gradients(w1, b1, w2, b2, x, y):
    """Mean cross-entropy and its analytic gradients (for checking too)."""
    h, p = _forward(w1, b1, w2, b2, x)
    return _loss(p, y), _gradients(w2, x, y, h, p)


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
    are restored. Identical inputs and seed give identical weights.
    """
    x = np.asarray(samples, dtype=np.float64)
    y = np.asarray([CLASS_TO_TARGET[l] if isinstance(l, str) else float(l) for l in labels])
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("samples must be (n, d) with one label per row")
    if len(np.unique(y)) < 2:
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
    d = xn.shape[1]
    w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(hidden_units, d))
    b1 = np.zeros(hidden_units)
    w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden_units), size=hidden_units)
    b2 = 0.0
    vel = [np.zeros_like(w1), np.zeros_like(b1), np.zeros_like(w2), 0.0]
    best = (np.inf, w1.copy(), b1.copy(), w2.copy(), b2)
    stale = 0
    for _ in range(epochs):
        order = rng.permutation(len(tr))
        for start in range(0, len(order), BATCH_SIZE):
            idx = tr[order[start : start + BATCH_SIZE]]
            xb = xn[idx]
            h, p = _forward(w1, b1, w2, b2, xb)
            grads = _gradients(w2, xb, y[idx], h, p)
            for slot, g in enumerate(grads):
                vel[slot] = MOMENTUM * vel[slot] - LEARNING_RATE * g
            w1 += vel[0]
            b1 += vel[1]
            w2 += vel[2]
            b2 += vel[3]
        val_loss = _loss(_forward(w1, b1, w2, b2, xn[hold])[1], y[hold])
        if val_loss < best[0] - 1e-9:
            best = (val_loss, w1.copy(), b1.copy(), w2.copy(), b2)
            stale = 0
        else:
            stale += 1
            if stale >= PATIENCE:
                break
    _, w1, b1, w2, b2 = best
    return MlpModel(input_dim=d, hidden_units=hidden_units, w1=w1, b1=b1, w2=w2, b2=b2,
                    feature_mean=mean, feature_scale=scale, seed=seed)


def predict(model: MlpModel, feature):
    """(label, score); score > 0.5 reads back, exactly 0.5 reads front."""
    feature = np.asarray(feature, dtype=np.float64)
    if feature.shape != (model.input_dim,):
        raise ValueError(
            f"feature dimension {feature.shape} does not match model ({model.input_dim},)"
        )
    xn = (feature - model.feature_mean) / model.feature_scale
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
