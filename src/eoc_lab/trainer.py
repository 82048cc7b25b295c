"""Desk-scale MLP training driver.

This exists to make the trainability effect observable on a laptop: at high
sparsity, raising the fixed-point variance q* of the initialisation should
make a deep sparse MLP reach a given training loss in fewer steps.  It is a
plain numpy implementation: cross-entropy, shuffled minibatch SGD and
nothing else, so the initialisation is the only thing under study.

Conventions carried over from the theory side:

* each input vector is normalised to mean zero and variance q*,
* the first layer consumes the raw (unactivated) input, so it uses a
  variance-preserving 1/fan_in weight law with zero biases; every later
  layer consumes activation outputs and uses weights N(0, sw2 / fan_in)
  and biases N(0, sb2),
* the sparsifying activation is applied to every pre-activation except the
  final layer's, which feeds the softmax directly,
* kink subgradients are 0, matching the activation derivative convention.

A non-finite loss raises nothing: training halts, the report carries a
divergence flag and whatever history accumulated.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ._streams import _check_seed, _philox
from .solver import EocInit

SYNTHETIC_BLOBS = "synthetic-blobs"
SMALL_DIGITS = "small-digits"
DATASETS = (SYNTHETIC_BLOBS, SMALL_DIGITS)
LOG_COLUMNS = ("epoch", "step", "loss", "val_acc", "sparsity")


@dataclass(frozen=True)
class TrainConfig:
    init: EocInit
    depth: int
    width: int
    epochs: int
    lr: float
    batch: int
    seed: int = 0
    dataset: str = SYNTHETIC_BLOBS
    data_csv: str | None = None
    n_samples: int = 2000
    input_dim: int = 64
    n_classes: int = 10

    def __post_init__(self):
        if self.depth < 2:
            raise ValueError("depth must be at least 2 (first affine plus classifier)")
        if self.width < 2:
            raise ValueError("width must be at least 2")
        if self.batch < 1:
            raise ValueError("batch must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        _check_seed(self.seed)
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        if self.input_dim < 2:
            # per-sample normalisation maps a single feature to 0
            raise ValueError(f"input_dim must be at least 2, got {self.input_dim}")
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be at least 2, got {self.n_classes}")
        _check_sample_count("n_samples", self.n_samples)
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}")
        if self.dataset == SMALL_DIGITS and self.data_csv is None:
            raise ValueError("small-digits requires data_csv")
        if self.data_csv is not None and self.dataset != SMALL_DIGITS:
            raise ValueError(
                f"data_csv {self.data_csv!r} is read only by dataset {SMALL_DIGITS!r},"
                f" got dataset {self.dataset!r}"
            )

    def to_dict(self) -> dict:
        return {**asdict(self), "init": self.init.to_dict()}


# --------------------------------------------------------------------------
# datasets
# --------------------------------------------------------------------------

def make_blobs(seed: int, n_samples: int, dim: int, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian mixture with one unit-covariance blob per class.

    Class centres sit at twice the within-class spread, so the task is easy
    in the Bayes sense; any difficulty in fitting it comes from propagating
    signal through the depth of the stack, which is the point of the demo.
    """
    rng = _philox(seed, 1000)
    means = rng.normal(0.0, 2.0, size=(n_classes, dim))
    labels = rng.integers(0, n_classes, size=n_samples)
    x = means[labels] + rng.normal(0.0, 1.0, size=(n_samples, dim))
    return x, labels


def load_digits_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load the 8x8 grayscale digit CSV.

    Schema: header ``label,pixel_0,...,pixel_63``; labels are integers in
    [0, 9] and pixels finite numbers in [0, 16] (NaN is not), with at least
    as many rows as the train, validation and test splits need.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        expected = ["label"] + [f"pixel_{i}" for i in range(64)]
        if next(reader, None) != expected:
            raise ValueError("digit CSV header does not match label,pixel_0..pixel_63")
        labels, rows = [], []
        for row in reader:
            if not row:
                raise ValueError(f"digit CSV line {reader.line_num} is blank")
            try:
                labels.append(int(row[0]))
                pixels = [float(v) for v in row[1:]]
            except ValueError:
                raise ValueError(
                    f"digit CSV line {reader.line_num} has a field that is not a number"
                ) from None
            if len(pixels) != 64:
                raise ValueError("digit CSV row does not have 64 pixels")
            rows.append(pixels)
    _check_sample_count("digit CSV data rows", len(rows))
    x = np.asarray(rows, dtype=float)
    y = np.asarray(labels, dtype=int)
    if not np.all((x >= 0.0) & (x <= 16.0)):
        raise ValueError("digit pixels must lie in [0, 16]")
    if not np.all((y >= 0) & (y <= 9)):
        raise ValueError("digit labels must lie in [0, 9]")
    return x, y


def normalize_inputs(x: np.ndarray, q_star: float) -> np.ndarray:
    """Per-sample normalisation to mean zero and variance q*."""
    x = np.asarray(x, dtype=float)
    mean = x.mean(axis=1, keepdims=True)
    std = x.std(axis=1, keepdims=True)
    std = np.where(std < 1e-8, 1.0, std)
    return (x - mean) / std * math.sqrt(q_star)


# the smallest sample count from which train_val_test_split leaves every
# split nonempty
_MIN_SAMPLES = 7


def _check_sample_count(name: str, n: int) -> None:
    if n < _MIN_SAMPLES:
        raise ValueError(
            f"{name} must be at least {_MIN_SAMPLES} so that the train, validation"
            f" and test splits are nonempty, got {n}"
        )


def train_val_test_split(x, y, seed):
    """20 percent held out for test, then 10 percent of the rest for validation."""
    rng = _philox(seed, 1001)
    order = rng.permutation(len(x))
    x, y = x[order], y[order]
    n_test = int(round(0.2 * len(x)))
    n_val = int(round(0.1 * (len(x) - n_test)))
    test = (x[:n_test], y[:n_test])
    val = (x[n_test : n_test + n_val], y[n_test : n_test + n_val])
    tr = (x[n_test + n_val :], y[n_test + n_val :])
    return tr, val, test


# --------------------------------------------------------------------------
# model
# --------------------------------------------------------------------------

class _Layers(list):
    """Per-layer (W, b) pairs, each a view into one contiguous float64
    buffer, ``flat``: layer 1's W then b, layer 2's W then b, and so on.

    An SGD update is then two calls on ``flat`` whatever the depth.  The
    layers between the first and the last all map width to width, so
    their W and b sit one fixed stride apart: ``hidden_w`` and
    ``hidden_b`` view them as one (depth - 2, width, width) and one
    (depth - 2, width) array.
    """

    def __init__(self, sizes):
        super().__init__()
        shapes = list(zip(sizes[1:], sizes))  # (fan_out, fan_in) per layer
        self.flat = np.empty(sum(fan_out * (fan_in + 1) for fan_out, fan_in in shapes))
        offset = 0
        for fan_out, fan_in in shapes:
            w = self.flat[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in)
            offset += w.size
            self.append((w, self.flat[offset : offset + fan_out]))
            offset += fan_out
        width, count, first = sizes[1], len(sizes) - 3, sizes[1] * (sizes[0] + 1)
        blocks = self.flat[first : first + count * width * (width + 1)]
        blocks = blocks.reshape(count, width * (width + 1))
        self.hidden_w = blocks[:, : width * width].reshape(count, width, width)
        self.hidden_b = blocks[:, width * width :]


class _Workspace:
    """The arrays one step of :func:`loss_and_grads` writes, allocated once
    per training run.

    ``grads`` is a ``_Layers`` like the parameters.  ``h``, ``a`` and
    ``mask`` hold every hidden layer's pre-activations, activations and
    segment mask, each as one (depth - 1, rows, width) array; a batch of
    n rows uses the first n.  Once the masks are taken, ``h`` holds the
    backpropagated errors.
    """

    def __init__(self, params, rows: int):
        self.grads = _Layers([params[0][0].shape[1]] + [w.shape[0] for w, _ in params])
        shape = (len(params) - 1, rows, params[0][0].shape[0])
        self.h, self.a = np.empty(shape), np.empty(shape)
        self.mask = np.empty(shape, dtype=bool)


def init_params(config: TrainConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Draw (W, b) per layer exactly per the initialisation record.

    The pairs are views into one buffer (see ``_Layers``).
    """
    init = config.init
    sizes = [config.input_dim] + [config.width] * (config.depth - 1) + [config.n_classes]
    params = _Layers(sizes)
    for layer, (w, b) in enumerate(params, start=1):
        fan_in = w.shape[1]
        rng = _philox(config.seed, 2000 + layer)
        if layer == 1:
            w[...] = rng.normal(0.0, math.sqrt(1.0 / fan_in), size=w.shape)
            b[...] = 0.0
        else:
            w[...] = rng.normal(0.0, math.sqrt(init.sw2 / fan_in), size=w.shape)
            b[...] = rng.normal(0.0, math.sqrt(init.sb2), size=b.shape)
    return params


def forward(params, spec, x, out=None):
    """Each layer's pre-activations and activations as (h, a), in order;
    the logits last, as both.  The activation applies to every layer but
    the logits.  The hidden layers go into the slices of ``out``, two
    (depth - 1, len(x), width) arrays, or into fresh ones; callers set
    numpy's error state.
    """
    hs, acts = out or ([None] * (len(params) - 1),) * 2
    a = x
    for (w, b), h, act in zip(params, hs, acts):
        # the sum is that of a @ w.T + b, bit for bit
        h = np.matmul(a, w.T, out=h)
        h += b
        a = spec.evaluate(h, out=act)
        yield h, a
    w, b = params[-1]
    logits = a @ w.T
    logits += b
    yield logits, logits


def loss_and_grads(params, spec, x, y, out=None):
    """Cross-entropy and its analytic gradients for one minibatch.

    The gradients are (dW, db) pairs laid out as ``_Layers``.  ``out``, a
    ``_Workspace`` for ``params`` of at least len(x) rows, takes every
    array the step writes; without it they are allocated for this call.
    """
    n = len(y)
    work = _Workspace(params, n) if out is None else out
    grads = work.grads
    hs, acts, masks = work.h[:, :n], work.a[:, :n], work.mask[:, :n]
    rows = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        *_, (p, _) = forward(params, spec, x, out=(hs, acts))
        # the softmax, in place in the logits, which nothing below reads
        p -= np.maximum.reduce(p, axis=1, keepdims=True)
        np.exp(p, out=p)
        p /= np.add.reduce(p, axis=1, keepdims=True)
        loss = float(-np.mean(np.log(p[rows, y] + 1e-300)))

        delta = p
        delta[rows, y] -= 1.0
        delta /= n

        gw, gb = grads[-1]
        np.matmul(delta.T, acts[-1], out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        # the error below each layer, down to the first: (delta @ W) times
        # the segment mask of the pre-activations there, which are spent
        # once the masks are taken, so their array takes the errors
        spec.segment_mask(hs, out=masks)
        deltas = hs
        for (w, _), below, mask in zip(reversed(params[1:]), deltas[::-1], masks[::-1]):
            delta = np.matmul(delta, w, out=below)
            delta *= mask
        # the weight gradients of every layer between the first and the
        # last in one call each: slice by slice the products and sums above
        np.matmul(deltas[1:].transpose(0, 2, 1), acts[:-1], out=grads.hidden_w)
        np.add.reduce(deltas[1:], axis=1, out=grads.hidden_b)
        gw, gb = grads[0]
        np.matmul(delta.T, x, out=gw)
        np.add.reduce(delta, axis=0, out=gb)
    return loss, grads


def _split_pass(params, spec, x):
    """Mean zero-activation fraction over the hidden stack, and the logits,
    from one pass over a whole split that holds about one layer at a time."""
    zeros = []
    with np.errstate(over="ignore", invalid="ignore"):
        for h, a in forward(params, spec, x):
            zeros.append(float(np.mean(a == 0.0)))
    return float(np.mean(zeros[:-1])), h


def observed_sparsity(params, spec, x) -> float:
    """Mean fraction of exactly-zero activations over the hidden stack."""
    return _split_pass(params, spec, x)[0]


# --------------------------------------------------------------------------
# training loop
# --------------------------------------------------------------------------

@dataclass
class TrainReport:
    """Everything observable about one training run."""

    train_losses: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)
    test_accuracy: float | None = None
    sparsity_at_init: float = 0.0
    sparsity_final: float = 0.0
    diverged: bool = False
    epochs_run: int = 0
    steps_per_epoch: int = 0
    step_log: list[tuple[int, int, float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        """The report's fields, less the per-step log of :meth:`log_rows`."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "step_log"}

    def log_rows(self) -> list[tuple]:
        """One row per step under ``LOG_COLUMNS``.  Validation accuracy and
        sparsity are epoch-level quantities, given at the last step of each
        epoch and of the run, respectively, and None elsewhere."""
        val_acc = {i * self.steps_per_epoch: acc for i, acc in enumerate(self.val_accuracies, 1)}
        sparsity = {len(self.step_log): self.sparsity_final}
        return [(epoch, step, loss, val_acc.get(step), sparsity.get(step))
                for epoch, step, loss in self.step_log]


def _accuracy(params, spec, x, y) -> float:
    pred = np.argmax(_split_pass(params, spec, x)[1], axis=1)
    return float(np.mean(pred == y))


def load_dataset(config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    if config.dataset == SYNTHETIC_BLOBS:
        return make_blobs(config.seed, config.n_samples, config.input_dim, config.n_classes)
    x, y = load_digits_csv(config.data_csv)
    if x.shape[1] != config.input_dim:
        raise ValueError(f"digit data has dim {x.shape[1]}, config says {config.input_dim}")
    if y.max() >= config.n_classes:
        raise ValueError(
            f"digit label {y.max()} needs n_classes of at least {y.max() + 1},"
            f" config says {config.n_classes}"
        )
    return x, y


def train(config: TrainConfig) -> TrainReport:
    """Shuffled minibatch SGD on cross-entropy; deterministic in the seed."""
    x_raw, y = load_dataset(config)
    x = normalize_inputs(x_raw, config.init.q_star)
    (x_tr, y_tr), (x_val, y_val), (x_te, y_te) = train_val_test_split(x, y, config.seed)

    spec = config.init.spec
    params = init_params(config)
    report = TrainReport()
    report.steps_per_epoch = max(1, math.ceil(len(x_tr) / config.batch))
    report.sparsity_at_init = observed_sparsity(params, spec, x_tr)
    # no minibatch is longer than the training split
    work = _Workspace(params, min(config.batch, len(x_tr)))

    shuffle_rng = _philox(config.seed, 3000)
    step = 0
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(x_tr))
        epoch_losses = []
        for start in range(0, len(x_tr), config.batch):
            idx = order[start : start + config.batch]
            loss, grads = loss_and_grads(params, spec, x_tr[idx], y_tr[idx], out=work)
            step += 1
            report.step_log.append((epoch, step, loss))
            if not math.isfinite(loss):
                report.diverged = True
                report.train_losses.append(float("nan"))
                report.epochs_run = epoch
                report.sparsity_final = observed_sparsity(params, spec, x_tr)
                return report
            epoch_losses.append(loss)
            # the elementwise products and differences of w - lr * gw,
            # bit for bit, on every layer's parameters at once
            grads.flat *= config.lr
            params.flat -= grads.flat
        report.train_losses.append(float(np.mean(epoch_losses)))
        report.val_accuracies.append(_accuracy(params, spec, x_val, y_val))
        report.epochs_run = epoch

    report.test_accuracy = _accuracy(params, spec, x_te, y_te)
    report.sparsity_final = observed_sparsity(params, spec, x_tr)
    return report
