"""Benchmark classifier: MFCC features and a small two-layer network."""

import functools
from dataclasses import dataclass

import numpy as np

from .classify import segment_blocks
from .corpus import _read, _text_lines
from .errors import DegenerateInputError, FormatError, ValidationError
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
    over its own rows of the block's matrix, as np.mean takes it: one sum
    over the rows, divided by their count.
    """
    out = []
    for rows, truths, block, counts, rate in segment_blocks(table, cfg, include_central):
        mat = segment_mfcc_matrix(block, rate)
        # segment j's rows of mat are bounds[j]:bounds[j+1], its frames not all zero
        kept = np.concatenate(([0], np.cumsum(np.any(block, axis=1))))
        bounds = kept[np.concatenate(([0], np.cumsum(counts)))].tolist()
        for i, truth, lo, hi in zip(rows.tolist(), truths, bounds[:-1], bounds[1:]):
            out.append((i, truth, np.add.reduce(mat[lo:hi], axis=0) / (hi - lo) if hi > lo
                        else None))
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


def _forward(w1t, b1, w2, b2, x, out=None):
    """Hidden activations h and output probabilities p of the rows of x, with
    w1t the (input, hidden) view w1.T. `out`, an (h, p) pair of buffers of
    x's rows, is written in place and returned; without it both are new
    arrays. exp(-z) = inf gives the limit p = 0, so callers run it under
    np.errstate(over="ignore"), entered once per call site."""
    h, p = (np.empty((len(x), len(b1))), np.empty(len(x))) if out is None else out
    np.matmul(x, w1t, out=h)
    h += b1
    np.tanh(h, out=h)
    np.matmul(h, w2, out=p)
    p += b2
    np.negative(p, out=p)
    np.exp(p, out=p)
    p += 1.0
    np.divide(1.0, p, out=p)
    return h, p


def _loss(p, y, eps=1e-12):
    """Mean cross-entropy, its mean taken as np.mean takes it, without the wrapper."""
    return -(np.add.reduce(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps)) / len(y))


def _gradients(w2, x, y, h, p, dh, out):
    """Write the mean cross-entropy's gradients into `out`, the (w1, b1, w2, b2) arrays.

    `h` and `p` are `_forward`'s arrays for the rows x, and `dh` a buffer of
    their shape; the three are overwritten: p with dz = (p - y) / n, h with
    1 - h², dh with the hidden layer's error.
    """
    g_w1, g_b1, g_w2, g_b2 = out
    dz = np.subtract(p, y, out=p)
    dz /= len(y)
    np.matmul(h.T, dz, out=g_w2)
    np.add.reduce(dz, out=g_b2)
    np.multiply(h, h, out=h)
    np.subtract(1.0, h, out=h)
    np.multiply.outer(dz, w2, out=dh)
    dh *= h
    np.matmul(dh.T, x, out=g_w1)
    np.add.reduce(dh, axis=0, out=g_b1)


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
        h, p = _forward(w1.T, b1, w2, b2, x)
    loss = _loss(p, y)
    g_w1, g_b1, g_w2, g_b2 = grads = _layers(np.empty(w1.size + 2 * len(b1) + 1), *w1.shape)
    _gradients(w2, x, y, h, p, np.empty_like(h), grads)
    return loss, (g_w1, g_b1, g_w2, float(g_b2))


def _target(label):
    """The training target of a label: a class name, or a finite number in [0, 1]."""
    if isinstance(label, str):
        if label in CLASS_TO_TARGET:
            return CLASS_TO_TARGET[label]
    else:
        try:
            target = float(label)
        except (TypeError, ValueError):
            target = np.nan
        if 0.0 <= target <= 1.0:
            return target
    raise ValueError(f"label {label!r} is neither a class name ({', '.join(CLASS_TO_TARGET)}) "
                     f"nor a finite target in [0, 1]")


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
    w1 | b1 | w2 | b2 vector, so a step updates all layers in four calls.
    Each epoch's shuffled rows and each batch's hidden, output and error
    arrays are written into buffers allocated once per call.
    """
    x = np.asarray(samples, dtype=np.float64)
    y = np.asarray([_target(l) for l in labels], dtype=np.float64)
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
    w1, b1, w2, b2 = layers
    w1[...] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(hidden_units, d))
    w2[...] = rng.normal(0.0, 1.0 / np.sqrt(hidden_units), size=hidden_units)
    w1t = w1.T
    x_epoch, y_epoch = np.empty((len(tr), d)), np.empty(len(tr))
    h, p, dh = (np.empty((BATCH_SIZE, hidden_units)), np.empty(BATCH_SIZE),
                np.empty((BATCH_SIZE, hidden_units)))
    batches = []  # per batch, its views of the epoch's rows and of the buffers
    for start in range(0, len(tr), BATCH_SIZE):
        n = min(BATCH_SIZE, len(tr) - start)
        rows = slice(start, start + n)
        batches.append((x_epoch[rows], y_epoch[rows], h[:n], p[:n], dh[:n]))
    hold_out = np.empty((n_hold, hidden_units)), np.empty(n_hold)
    best_loss, best = np.inf, params.copy()
    stale = 0
    with np.errstate(over="ignore"):
        for _ in range(epochs):
            idx = tr[rng.permutation(len(tr))]
            np.take(xn, idx, axis=0, out=x_epoch)
            np.take(y, idx, out=y_epoch)
            for xb, yb, hb, pb, dhb in batches:
                _forward(w1t, b1, w2, b2, xb, (hb, pb))
                _gradients(w2, xb, yb, hb, pb, dhb, grads)
                vel *= MOMENTUM
                grad *= LEARNING_RATE  # the step, in place of the gradients
                vel -= grad
                params += vel
            val_loss = _loss(_forward(w1t, b1, w2, b2, x_hold, hold_out)[1], y_hold)
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
    if not np.all(np.isfinite(feature)):
        raise ValueError("feature is not finite")
    xn = (feature - model.feature_mean) / model.feature_scale
    with np.errstate(over="ignore"):
        _, p = _forward(model.w1.T, model.b1, model.w2, model.b2, xn[None, :])
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
    """The model `save_model` wrote to `path`.

    Row 1 is the header, row 2 the input dimension d, the hidden units h (each
    an integer of at least 1) and the seed (an integer of at least 0), and rows
    3 to 8 hold d, d, h * d, h, h and 1 finite numbers, none of row 4's feature
    scales zero. A file that breaks this raises one FormatError or
    ValidationError with the path in front of the message, and the row in it.
    """
    return _read(_model, path)


def _model(path):
    lines = _text_lines(path)
    magic = lines[0].strip() if lines else ""
    if magic != "specvalley-mlp 1":
        raise FormatError(f"not a model file (header {magic!r})", field="header")
    try:
        d, h, seed = (int(v) for v in lines[1].split())
    except (IndexError, ValueError):
        raise ValidationError("expected the integers 'input_dim hidden_units seed'",
                              row=2) from None
    if d < 1 or h < 1 or seed < 0:
        raise ValidationError(f"input_dim and hidden_units must be at least 1 and seed at "
                              f"least 0, got {d} {h} {seed}", row=2)
    rows = []
    for row, (name, n) in enumerate((("feature_mean", d), ("feature_scale", d), ("w1", h * d),
                                     ("b1", h), ("w2", h), ("b2", 1)), start=3):
        if row > len(lines):
            raise ValidationError(f"the file ends before its {name} row", row=row)
        try:
            values = np.array([float(v) for v in lines[row - 1].split()])
        except ValueError:
            raise ValidationError(f"non-numeric value in the {name} row", row=row) from None
        if len(values) != n:
            raise ValidationError(f"{name} needs {n} values, got {len(values)}", row=row)
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"{name} holds a value that is not finite", row=row)
        rows.append(values)
    mean, scale, w1, b1, w2, b2 = rows
    if not np.all(scale):
        raise ValidationError("feature_scale holds a zero", row=4)
    return MlpModel(input_dim=d, hidden_units=h, w1=w1.reshape(h, d), b1=b1, w2=w2,
                    b2=float(b2[0]), feature_mean=mean, feature_scale=scale, seed=seed)
