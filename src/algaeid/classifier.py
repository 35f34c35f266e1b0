"""Fully-connected feedforward classifier trained from scratch.

Architecture: input, three hidden layers of 12, 8, and 6 units with ReLU,
then a softmax output over the classes. Training is mini-batch SGD on
categorical cross-entropy; everything is driven by a single seed so a
(data, config) pair always reproduces the same network bit for bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import fields, stack_io
from .features import ModelVariant, Normalizer, apply_normalizer, fit_normalizer
from .stack_io import atomic_write_json, read_json_object, string_list

HIDDEN_SIZES = (12, 8, 6)

PROB_FLOOR = 1e-12

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 500
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        fields.coerce(self)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        fields.non_negative(self, "seed")


@dataclass(frozen=True)
class Network:
    """Layer weights (out x in) and biases; ReLU hidden, softmax output."""

    weights: list
    biases: list

    def __post_init__(self):
        for name in ("weights", "biases"):
            object.__setattr__(self, name, [fields.as_array(f"layer {i} {name}", a)
                                            for i, a in enumerate(getattr(self, name))])
        weights, biases = self.weights, self.biases
        if not weights or len(weights) != len(biases) or any(w.ndim != 2 for w in weights):
            raise ValueError("one weight matrix and bias vector per layer required")
        sizes = self.layer_sizes
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape[1] != sizes[i] or b.shape != (sizes[i + 1],):
                raise ValueError(f"layer {i}: weights {w.shape} and biases {b.shape} do not "
                                 f"map {sizes[i]} inputs to {sizes[i + 1]} outputs")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i}: non-finite parameters")
        if sizes[-1] < 2:
            raise ValueError("output layer must have >= 2 classes")

    @property
    def layer_sizes(self):
        return (self.input_dim,) + tuple(w.shape[0] for w in self.weights)

    @property
    def input_dim(self):
        return self.weights[0].shape[1]

    @property
    def num_classes(self):
        return self.weights[-1].shape[0]


def relu(v, out=None):
    return np.maximum(0.0, v, out=out)


def softmax(z, out=None, rows=None):
    """Normalized exponential along the last axis, computed with max-logit
    subtraction so arbitrarily large logits cannot overflow.

    The result goes to `out` (which may be z itself) or to a new array;
    `rows`, if given, holds two arrays of z.shape[:-1] for the row max and
    the row sum. Both reductions run as chains over the columns, cheaper
    than numpy's reduction over a short last axis: the max is exact in any
    order, and the sum `((e0 + e1) + e2) + ...` is numpy's own order below
    8 columns. From 8 columns on, numpy adds pairwise, so the sum stays
    `np.add.reduce`.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.empty_like(z) if out is None else out
    top, total = (np.empty(z.shape[:-1]), np.empty(z.shape[:-1])) if rows is None else rows
    k = z.shape[-1]
    np.maximum(z[..., 0], z[..., k - 1], out=top)
    for j in range(1, k - 1):
        np.maximum(top, z[..., j], out=top)
    np.subtract(z, top[..., None], out=e)
    np.exp(e, out=e)
    if k >= 8:
        np.add.reduce(e, axis=-1, out=total)
    elif k == 1:
        np.copyto(total, e[..., 0])
    else:
        np.add(e[..., 0], e[..., 1], out=total)
        for j in range(2, k):
            np.add(total, e[..., j], out=total)
    return np.divide(e, total[..., None], out=e)


def init_network(input_dim, num_classes, rng):
    """He-uniform weights (limit sqrt(6/fan_in)), zero biases."""
    sizes = (int(input_dim),) + HIDDEN_SIZES + (int(num_classes),)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Network(weights=weights, biases=biases)


def _batch_major(runs, rows, width):
    """An empty (runs, rows, width) array whose memory holds the row axis
    outermost, as (rows, runs, width), and its (rows, runs * width) flat
    view. In the flat view every row of all runs is one contiguous
    stretch, so a bias add or a ReLU over all runs is one call, and a bias
    gradient adds the rows one after another, as `delta.sum(axis=0)` does
    for one network."""
    flat = np.empty((rows, runs * width))
    return flat.reshape(rows, runs, width).swapaxes(0, 1), flat


class _Step:
    """The arrays of one SGD step of `runs` stacked networks on `rows`
    samples, allocated once and written in place by every step of that
    batch size: each layer's output (its pre-activation, then its
    activation; at the output layer the class probabilities, then the
    output delta), each hidden layer's delta and ReLU mask, and the
    softmax's row max and row sum. `sizes` are the layer sizes after the
    input. Each output and delta is `_batch_major`, with its flat view at
    the same index of `flat_outs` or `flat_deltas`."""

    def __init__(self, runs, rows, sizes):
        self.rows = rows
        outs = [_batch_major(runs, rows, m) for m in sizes]
        deltas = [_batch_major(runs, rows, m) for m in sizes[:-1]]
        self.outs, self.flat_outs = [a for a, _ in outs], [f for _, f in outs]
        self.deltas, self.flat_deltas = [a for a, _ in deltas], [f for _, f in deltas]
        self.masks = [np.empty((rows, runs * m), bool) for m in sizes[:-1]]
        self.softmax_rows = tuple(np.empty((rows, runs)).T for _ in range(2))


def _group_slices(groups):
    """The slice of the run axis that each of `groups` (arrays stacked along
    a leading run axis, one after another) covers."""
    stop = 0
    for group in groups:
        start, stop = stop, stop + len(group)
        yield slice(start, stop)


def _activations(weights, biases, x, step):
    """The inputs and every layer's activation for R networks stacked along
    a leading run axis, written into the outputs of `step` (a `_Step`).

    Only layer 0 depends on the input width, so it comes in groups of
    consecutive runs of one width: x holds each group's (R_g, n, d_g)
    inputs and weights[0] its (R_g, out, d_g) weights. Every later layer's
    weights (R, out, in) and every bias (R, out) cover all R runs. Each
    group's product is written into its runs' slice of layer 0's output;
    the stacked matmuls compute each run's product exactly as a single
    network's 2-D one does. A later layer multiplies by a contiguous copy
    of its transposed weights, which BLAS takes faster with the same bits;
    a one-row batch keeps the transposed view, because a one-row product
    goes through gemv, whose bits differ between the two.
    """
    outs = step.outs
    for runs, xg, w in zip(_group_slices(weights[0]), x, weights[0]):
        np.matmul(xg, w.swapaxes(-1, -2), out=outs[0][runs])
    last = len(weights) - 1
    for i, (b, flat) in enumerate(zip(biases, step.flat_outs)):
        if i > 0:
            w = weights[i].swapaxes(-1, -2)
            np.matmul(outs[i - 1], w if step.rows == 1 else np.ascontiguousarray(w),
                      out=outs[i])
        flat += b.reshape(-1)
        if i == last:
            softmax(outs[i], out=outs[i], rows=step.softmax_rows)
        else:
            relu(flat, out=flat)
    return [x] + outs


def _one_run(net):
    """net's weights and biases as a stack of one run (see `_activations`)."""
    return ([[net.weights[0][None]]] + [w[None] for w in net.weights[1:]],
            [b[None] for b in net.biases])


def forward_batch(net, x):
    """Class probabilities (n, k) for the n input rows of x (n, d_in)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(f"input shape {x.shape} incompatible with d_in={net.input_dim}")
    step = _Step(1, len(x), net.layer_sizes[1:])
    return _activations(*_one_run(net), [x[None]], step)[-1][0]


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


def _gradients(weights, biases, x, onehot, grads_w, grads_b, step):
    """Mean gradients over a batch for a run-stacked set of networks (see
    `_activations`), computed in the arrays of `step`; `onehot` holds the
    one-hot labels in the flat layout of the output layer (see `_Step`).
    Softmax and cross-entropy fuse to (probs - onehot) at the output
    pre-activation; the ReLU subgradient at exactly 0 is taken as 0, so a
    unit passes the gradient where its activation is positive.

    Layer i's gradients are written into grads_w[i] and grads_b[i] (layer
    0's weight gradients into grads_w[0][g] per group g), or into new
    arrays where those entries are None; the filled lists are returned.
    """
    activations = _activations(weights, biases, x, step)
    flat = step.flat_outs[-1]
    flat -= onehot
    flat /= step.rows
    delta = step.outs[-1]
    for i in range(len(weights) - 1, 0, -1):
        grads_w[i] = np.matmul(delta.swapaxes(-1, -2), activations[i], out=grads_w[i])
        grads_b[i] = np.add.reduce(delta, axis=-2, out=grads_b[i])
        delta = np.matmul(delta, weights[i], out=step.deltas[i - 1])
        flat, mask = step.flat_deltas[i - 1], step.masks[i - 1]
        np.greater(step.flat_outs[i - 1], 0.0, out=mask)
        np.multiply(flat, mask, out=flat)
    for g, (runs, xg) in enumerate(zip(_group_slices(weights[0]), x)):
        grads_w[0][g] = np.matmul(delta[runs].swapaxes(-1, -2), xg, out=grads_w[0][g])
    grads_b[0] = np.add.reduce(delta, axis=-2, out=grads_b[0])
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
    layers = len(net.weights)
    grads_w, grads_b = _gradients(*_one_run(net), [x[None]], np.eye(k)[labels],
                                  [[None]] + [None] * (layers - 1), [None] * layers,
                                  _Step(1, len(x), net.layer_sizes[1:]))
    return [grads_w[0][0][0]] + [g[0] for g in grads_w[1:]], [g[0] for g in grads_b]


def _split(flat, shapes):
    """Consecutive views of the 1-D buffer `flat`, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


def train_runs(x, y, seeds, cfg=None, num_classes=None, names=()):
    """Train R networks in lockstep; returns one (network, final mean loss)
    per run.

    x holds one (n, d_r) matrix per run and y (R, n) their labels: every
    run has its own n training samples (its own split and normalizer), and
    all runs share n, so their mini-batch boundaries line up; their input
    widths d_r may differ. Run r draws its He-uniform init at its own
    width and then one permutation per epoch from default_rng(seeds[r]),
    in that order; cfg.seed is not used. Every run's weights are bitwise
    those of training it alone with seed seeds[r], so the runs are split
    into P = min(R, usable CPUs) contiguous chunks, each trained by
    `_lockstep` in its own forked worker process (in this process when P
    is 1 or the platform cannot fork), and the results are joined in run
    order. No output depends on P. A diverged run raises ValueError naming
    its names[r], if given, and its seed; of several, the first in run
    order is named.
    """
    cfg = cfg or TrainConfig()
    x = [np.asarray(a, dtype=np.float64) for a in x]
    y = np.asarray(y, dtype=np.int64)
    if y.ndim != 2 or len(x) != len(y) or any(a.ndim != 2 or len(a) != y.shape[1] for a in x):
        raise ValueError("x must hold one (n, d) matrix and y one row of n labels per run, "
                         "with the same n for every run")
    runs, n = y.shape
    if len(seeds) != runs:
        raise ValueError(f"{len(seeds)} seeds for {runs} runs")
    if not all(np.all(np.isfinite(a)) for a in x):
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

    workers = min(runs, stack_io.usable_cpus()) if hasattr(os, "fork") else 1
    if workers == 1:
        return _lockstep(x, y, seeds, cfg, k, names)
    # imported here: every process that imports the package would pay for
    # them, while only a multi-run training uses them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    bounds = [runs * i // workers for i in range(workers + 1)]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        chunks = [pool.submit(_lockstep, x[a:b], y[a:b], seeds[a:b], cfg, k, names[a:b])
                  for a, b in zip(bounds, bounds[1:])]
        return [trained for chunk in chunks for trained in chunk.result()]


@np.errstate(over="ignore", invalid="ignore")  # a diverged run fails its Network check
def _lockstep(x, y, seeds, cfg, k, names):
    """Train the runs of checked inputs x (one (n, d_r) matrix per run) and
    y (R, n) with k classes together; returns one (network, final mean
    loss) per run.

    Consecutive runs of one input width form a group. Each epoch gathers
    every run's samples in its own order, and each step runs forward and
    backward as matmuls over the leading run axis on an (R, B, .)
    mini-batch, layer 0 as one matmul per group (`_activations`). A step
    allocates nothing but the later layers' transposed weight copies: the
    arrays it computes in are made once per batch size (`_Step`), for the
    full batch and for a shorter last one, and the matmuls and the
    elementwise work write into them. All weights and biases live in one
    flat buffer, so the update is two ufunc calls.
    """
    runs, n = y.shape
    cuts = [r for r in range(1, runs) if x[r].shape[1] != x[r - 1].shape[1]]
    groups = [slice(a, b) for a, b in zip([0] + cuts, cuts + [runs])]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    nets = [init_network(a.shape[1], k, rng) for a, rng in zip(x, rngs)]
    # one flat buffer of each group's (R_g, out, d_g) layer-0 weights, every
    # later layer's (R, out, in) weights, then every layer's (R, out)
    # biases, and a twin buffer for their gradients
    stacked = ([np.stack([net.weights[0] for net in nets[g]]) for g in groups]
               + [np.stack(p) for p in zip(*(net.weights[1:] + net.biases for net in nets))])
    shapes = [p.shape for p in stacked]
    params = np.concatenate([p.ravel() for p in stacked])
    grads = np.empty_like(params)
    # arrays [0, first) of the buffer are layer 0's weights, [first, last)
    # the later layers' weights and [last, ...) the biases
    first, last = len(groups), len(groups) + len(nets[0].weights) - 1
    param_views, grad_views = _split(params, shapes), _split(grads, shapes)
    weights, biases = [param_views[:first]] + param_views[first:last], param_views[last:]
    grads_w, grads_b = [grad_views[:first]] + grad_views[first:last], grad_views[last:]
    # sample i of a group's j-th run is column j*n+i of its x table (one row
    # per feature), and sample i of run r is row r*n+i of t_table (its
    # one-hot label)
    x_tables = [np.ascontiguousarray(np.concatenate(x[g]).T) for g in groups]
    t_table = np.eye(k)[y.reshape(runs * n)]
    first_row = np.arange(runs)[:, None] * n
    # each epoch gathers every run's samples in its own shuffled order into
    # arrays made once: the inputs feature-major, for which the first
    # layer's matmul takes a faster BLAS path with the same bits, and the
    # labels in the flat layout of the output deltas they are subtracted
    # from. Row r of `order` is shuffled in place from 0..n-1, the draws of
    # rng.permutation(n); take's mode="clip" (the indices are in range)
    # lets it write straight into its out array.
    order = np.empty((runs, n), np.intp)
    x_index = [np.empty((g.stop - g.start, n), np.intp) for g in groups]
    x_gathered = [np.empty_like(table) for table in x_tables]
    x_epoch = [a.reshape(len(a), -1, n).transpose(1, 2, 0) for a in x_gathered]
    t_index = np.empty((n, runs), np.intp)
    t_epoch = np.empty((n, runs * k))
    size = cfg.batch_size
    steps = {rows: _Step(runs, rows, nets[0].layer_sizes[1:])
             for rows in {size, n % size or size}}
    batches = [(slice(start, start + size), steps[min(size, n - start)])
               for start in range(0, n, size)]
    lr = cfg.learning_rate
    for _ in range(cfg.epochs):
        np.copyto(order, np.arange(n))
        for rng, row in zip(rngs, order):
            rng.shuffle(row)
        for g, table, index, out in zip(groups, x_tables, x_index, x_gathered):
            np.add(order[g], first_row[:len(index)], out=index)
            table.take(index.reshape(-1), axis=1, out=out, mode="clip")
        np.add(order.T, first_row.T, out=t_index)
        t_table.take(t_index.reshape(-1), axis=0, out=t_epoch.reshape(-1, k), mode="clip")
        for batch, step in batches:
            _gradients(weights, biases, [xg[:, batch] for xg in x_epoch], t_epoch[batch],
                       grads_w, grads_b, step)
            grads *= lr
            params -= grads

    first_layer = [w for group in weights[0] for w in group]
    results = []
    for r, seed in enumerate(seeds):
        try:
            net = Network([first_layer[r]] + [w[r] for w in weights[1:]], [b[r] for b in biases])
        except ValueError as e:
            what = f"{names[r]} " if names else ""
            raise ValueError(f"training {what}with seed {seed} diverged: {e}") from None
        results.append((net, loss(forward_batch(net, x[r]), y[r])))
    return results


def predict_batch(net, x):
    """Most probable class id per row; exact ties resolve to the smallest id."""
    return np.argmax(forward_batch(net, x), axis=1)


@dataclass(frozen=True)
class TrainedModel:
    """A network bundled with everything inference needs: the variant, the
    feature order it was trained on, the normalizer, and class names."""

    network: Network
    variant: ModelVariant
    normalizer: Normalizer
    feature_names: tuple = ()
    class_names: tuple = ()

    def __post_init__(self):
        net, nrm = self.network, self.normalizer
        for key, size, side in (("feature_names", net.input_dim, "inputs"),
                                ("class_names", net.num_classes, "outputs")):
            names = tuple(string_list(getattr(self, key), key))
            if names and len(names) != size:
                raise ValueError(f"{len(names)} {key} for the network's {size} {side}")
            object.__setattr__(self, key, names)
        if not (nrm.mean.shape == nrm.std.shape == nrm.constant.shape == (net.input_dim,)
                and np.all(np.isfinite(nrm.mean))
                and np.all(np.isfinite(nrm.std) & (nrm.std > 0))):
            raise ValueError("normalizer must hold one finite mean, finite positive std and "
                             f"constant flag per network input ({net.input_dim})")

    def predict_features(self, x):
        """Class ids for the rows of an (n, d) matrix of raw features."""
        return predict_batch(self.network, apply_normalizer(self.normalizer, x))


def fit_models(models, y, cfg=None, num_classes=None, class_names=()):
    """One (TrainedModel, final mean loss) per (variant, x, rows, seed) entry
    of `models`, where x is the variant's (n, d) feature matrix and y the n
    labels. A model's normalizer is fit on x[rows] alone, and its network
    trains on those rows z-scored, with its own seed; all models, of any
    variants, train in one `train_runs` call."""
    normalizers = [fit_normalizer(x[rows]) for _, x, rows, _ in models]
    trained = train_runs([apply_normalizer(nrm, x[rows])
                          for nrm, (_, x, rows, _) in zip(normalizers, models)],
                         [y[rows] for _, _, rows, _ in models], [seed for *_, seed in models],
                         cfg=cfg, num_classes=num_classes,
                         names=[variant.value for variant, *_ in models])
    return [(TrainedModel(network=net, variant=variant, normalizer=nrm,
                          class_names=class_names), final_loss)
            for (net, final_loss), nrm, (variant, *_) in zip(trained, normalizers, models)]


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
        "normalizer": {
            "mean": model.normalizer.mean.tolist(),
            "std": model.normalizer.std.tolist(),
            "constant": model.normalizer.constant.tolist(),
        },
    }
    if extra_fields:
        doc.update(extra_fields)
    atomic_write_json(path, doc)


def load_model(path):
    """The model in the JSON file at `path`, as save_model writes it. Its
    layer_sizes must be those of its weights; the records built from it
    check the rest. Every error names the file."""
    doc = read_json_object(path, "model")
    try:
        version = doc.get("schema_version")
        if version != MODEL_SCHEMA_VERSION:
            raise ValueError(f"model schema version {version!r} unsupported "
                             f"(expected {MODEL_SCHEMA_VERSION})")
        nd = doc["normalizer"]
        if not isinstance(nd, dict):
            raise ValueError(f"normalizer must be a JSON object, got {nd!r}")
        sizes = [fields.as_number("layer_sizes", s, int) for s in doc["layer_sizes"]]
        net = Network(weights=doc["weights"], biases=doc["biases"])
        if sizes != list(net.layer_sizes):
            raise ValueError(f"layer_sizes {sizes} != the weights' {list(net.layer_sizes)}")
        return TrainedModel(
            network=net, variant=ModelVariant(doc["variant"]),
            normalizer=Normalizer(mean=nd["mean"], std=nd["std"], constant=nd["constant"]),
            feature_names=doc.get("feature_names", ()), class_names=doc.get("class_names", ()))
    except KeyError as e:
        raise ValueError(f"{path}: model file has no key {e}") from None
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from None
