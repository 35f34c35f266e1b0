"""Fully-connected feedforward classifier trained from scratch.

Architecture: input, three hidden layers of 12, 8, and 6 units with ReLU,
then a softmax output over the classes. Training is mini-batch SGD on
categorical cross-entropy; everything is driven by a single seed so a
(data, config) pair always reproduces the same network bit for bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .features import ModelVariant, Normalizer, apply_normalizer
from .stack_io import atomic_write_json

HIDDEN_SIZES = (12, 8, 6)

PROB_FLOOR = 1e-12

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 500
    batch_size: int = 32
    seed: int = 0
    l2: float = 0.0

    def __post_init__(self):
        for name, kind in (("learning_rate", float), ("l2", float), ("epochs", int),
                           ("batch_size", int), ("seed", int)):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, kind(value))
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a number, got {value!r}") from None
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")


@dataclass
class Network:
    """Layer weights (out x in) and biases; ReLU hidden, softmax output."""

    layer_sizes: tuple
    weights: list
    biases: list

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2:
            raise ValueError("network needs at least input and output layers")
        if sizes[-1] < 2:
            raise ValueError("output layer must have >= 2 classes")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("one weight matrix and bias vector per layer required")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[i + 1], sizes[i]):
                raise ValueError(
                    f"layer {i}: weight shape {w.shape} != {(sizes[i + 1], sizes[i])}"
                )
            if b.shape != (sizes[i + 1],):
                raise ValueError(f"layer {i}: bias shape {b.shape}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i}: non-finite parameters")
        self.layer_sizes = sizes

    @property
    def input_dim(self):
        return self.layer_sizes[0]

    @property
    def num_classes(self):
        return self.layer_sizes[-1]

    def copy(self):
        return Network(
            layer_sizes=self.layer_sizes,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


def relu(v):
    return np.maximum(0.0, v)


def softmax(z):
    """Normalized exponential along the last axis, computed with max-logit
    subtraction so arbitrarily large logits cannot overflow."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def init_network(input_dim, num_classes, rng, hidden_sizes=HIDDEN_SIZES):
    """He-uniform weights (limit sqrt(6/fan_in)), zero biases."""
    sizes = (int(input_dim),) + tuple(hidden_sizes) + (int(num_classes),)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Network(layer_sizes=sizes, weights=weights, biases=biases)


def _forward_trace(weights, biases, x):
    """Pre-activations and activations for every layer.

    Works on one network (weights (out, in), x (n, d_in)) or on R networks
    stacked along a leading run axis (weights (R, out, in), biases (R, out),
    x (R, n, d_in)); the stacked matmul computes each run's product exactly
    as the single-network one does.
    """
    zs = []
    activations = [x]
    a = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w.swapaxes(-1, -2)
        z += b[..., None, :]
        zs.append(z)
        a = softmax(z) if i == last else relu(z)
        activations.append(a)
    return zs, activations


def forward_batch(net, x):
    """Class probabilities (n, k) for the n input rows of x (n, d_in)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(f"input shape {x.shape} incompatible with d_in={net.input_dim}")
    _, activations = _forward_trace(net.weights, net.biases, x)
    return activations[-1]


def loss(probs, labels):
    """Mean cross-entropy -log p[label] over the rows of probs (n, k), with
    p floored at 1e-12 before the log."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    k = probs.shape[-1]
    if labels.shape != probs.shape[:1] or np.any((labels < 0) | (labels >= k)):
        raise ValueError(f"labels must be one class id in [0, {k}) per row")
    p_true = np.maximum(probs[np.arange(len(labels)), labels], PROB_FLOOR)
    return float(-np.log(p_true).mean())


def _gradients(weights, biases, x, onehot):
    """Mean gradients over a batch, for one network or a run-stacked set
    (see `_forward_trace`); `onehot` holds the one-hot labels, (..., n, k).
    Softmax and cross-entropy fuse to (probs - onehot) at the output
    pre-activation; the ReLU subgradient at exactly 0 is taken as 0."""
    n = x.shape[-2]
    zs, activations = _forward_trace(weights, biases, x)
    delta = activations[-1] - onehot
    delta /= n
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        grads_w[i] = delta.swapaxes(-1, -2) @ activations[i]
        grads_b[i] = delta.sum(axis=-2)
        if i > 0:
            delta = (delta @ weights[i]) * (zs[i - 1] > 0)
    return grads_w, grads_b


def backward(net, x, labels):
    """Analytic gradients of the mean cross-entropy loss over a batch
    (x (n, d_in), labels (n,)) with respect to every weight matrix and bias
    vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(f"input shape {x.shape} incompatible with d_in={net.input_dim}")
    k = net.num_classes
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != x.shape[:1] or np.any((labels < 0) | (labels >= k)):
        raise ValueError(f"labels must be one class id in [0, {k}) per input row")
    return _gradients(net.weights, net.biases, x, np.eye(k)[labels])


def train(x, y, cfg=None, num_classes=None):
    """Mini-batch SGD for cfg.epochs; returns (network, final mean loss).

    Initialization and per-epoch shuffling derive solely from cfg.seed, so
    identical (data, cfg) produce bitwise-identical weights. This is the
    one-run case of `train_runs`, which checks the shapes of x and y.
    """
    cfg = cfg or TrainConfig()
    return train_runs(np.asarray(x)[None], np.asarray(y)[None], [cfg.seed], cfg=cfg,
                      num_classes=num_classes)[0]


def train_runs(x, y, seeds, cfg=None, num_classes=None):
    """Train R networks in lockstep; returns one (network, final mean loss)
    per run.

    x is (R, n, d) and y (R, n): every run has its own n training samples
    (its own split and normalizer), and all runs share n, so their
    mini-batch boundaries line up. Run r draws its He-uniform init and then
    one permutation per epoch from default_rng(seeds[r]), in that order;
    cfg.seed is not used. Each step gathers every run's own mini-batch into
    an (R, B, d) array and runs forward, backward and update as matmuls over
    the leading run axis, so every run's weights are bitwise those of
    training it alone with seed seeds[r].
    """
    cfg = cfg or TrainConfig()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 3 or y.ndim != 2 or x.shape[:2] != y.shape:
        raise ValueError("x must be (runs, n, d) and y (runs, n) with matching n")
    runs, n, d = x.shape
    if len(seeds) != runs:
        raise ValueError(f"{len(seeds)} seeds for {runs} runs")
    if not np.all(np.isfinite(x)):
        raise ValueError("training inputs contain non-finite values")
    for labels in y:
        if len(np.unique(labels)) < 2:
            raise ValueError("training data must contain at least 2 classes")
    if y.min() < 0:
        raise ValueError("labels must be non-negative class ids")
    k = int(num_classes) if num_classes is not None else int(y.max()) + 1
    if k <= int(y.max()):
        raise ValueError(f"num_classes={k} too small for labels up to {y.max()}")
    if cfg.batch_size > n:
        raise ValueError(f"batch_size {cfg.batch_size} exceeds training size {n}")

    rngs = [np.random.default_rng(seed) for seed in seeds]
    nets = [init_network(d, k, rng) for rng in rngs]
    weights = [np.stack(ws) for ws in zip(*(net.weights for net in nets))]
    biases = [np.stack(bs) for bs in zip(*(net.biases for net in nets))]
    onehot = np.eye(k)[y]
    run_axis = np.arange(runs)[:, None]
    lr = cfg.learning_rate
    for _ in range(cfg.epochs):
        # one gather per epoch: each run's samples in its own shuffled order
        order = np.stack([rng.permutation(n) for rng in rngs])
        x_epoch, t_epoch = x[run_axis, order], onehot[run_axis, order]
        for start in range(0, n, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            grads_w, grads_b = _gradients(
                weights, biases, x_epoch[:, batch], t_epoch[:, batch])
            for i in range(len(weights)):
                step = grads_w[i]
                if cfg.l2:
                    step = step + cfg.l2 * weights[i]
                weights[i] -= lr * step
                biases[i] -= lr * grads_b[i]

    results = []
    for r, net in enumerate(nets):
        net.weights = [w[r].copy() for w in weights]
        net.biases = [b[r].copy() for b in biases]
        results.append((net, loss(forward_batch(net, x[r]), y[r])))
    return results


def predict_batch(net, x):
    """Most probable class id per row; exact ties resolve to the smallest id."""
    return np.argmax(forward_batch(net, x), axis=1)


@dataclass
class TrainedModel:
    """A network bundled with everything inference needs: the variant, the
    feature order it was trained on, the normalizer, and class names."""

    network: Network
    variant: ModelVariant
    normalizer: Normalizer | None = None
    feature_names: tuple = ()
    class_names: tuple = ()

    def predict_features(self, x):
        """Class ids for the rows of an (n, d) matrix of raw features."""
        if self.normalizer is not None:
            x = apply_normalizer(self.normalizer, x)
        return predict_batch(self.network, x)


def save_model(model, path, extra_fields=None):
    """JSON model file; floats round-trip exactly via repr."""
    net = model.network
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "variant": model.variant.value,
        "layer_sizes": list(net.layer_sizes),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "feature_names": list(model.feature_names),
        "class_names": list(model.class_names),
        "normalizer": None if model.normalizer is None else {
            "mean": model.normalizer.mean.tolist(),
            "std": model.normalizer.std.tolist(),
            "constant": model.normalizer.constant.tolist(),
        },
    }
    if extra_fields:
        doc.update(extra_fields)
    atomic_write_json(path, doc)


def load_model(path):
    if not os.path.exists(path):
        raise FileNotFoundError(f"model file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: model schema version {version!r} unsupported "
            f"(expected {MODEL_SCHEMA_VERSION})"
        )
    net = Network(
        layer_sizes=tuple(doc["layer_sizes"]),
        weights=[np.array(w, dtype=np.float64) for w in doc["weights"]],
        biases=[np.array(b, dtype=np.float64) for b in doc["biases"]],
    )
    nrm = None
    if doc.get("normalizer") is not None:
        nd = doc["normalizer"]
        nrm = Normalizer(
            mean=np.array(nd["mean"]), std=np.array(nd["std"]),
            constant=np.array(nd["constant"], dtype=bool),
        )
    return TrainedModel(
        network=net,
        variant=ModelVariant(doc["variant"]),
        normalizer=nrm,
        feature_names=tuple(doc.get("feature_names", ())),
        class_names=tuple(doc.get("class_names", ())),
    )
