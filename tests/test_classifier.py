import ast
import dataclasses
import json
import math
import multiprocessing
import pathlib

import numpy as np
import pytest

import algaeid
from algaeid import classifier, stack_io
from algaeid.classifier import (HIDDEN_SIZES, Network, TrainConfig,
                                TrainedModel, backward, forward_batch,
                                init_network, load_model, loss,
                                predict_batch, relu, save_model, softmax,
                                train_runs)
from algaeid.features import (ModelVariant, Normalizer, apply_normalizer,
                              fit_normalizer)

from helpers import _reference_backward_batch, reference_train


def unit_normalizer(d):
    return Normalizer(mean=np.zeros(d), std=np.ones(d), constant=np.zeros(d, dtype=bool))


def tiny_net(weights, biases):
    return Network(weights=[np.array(w, dtype=np.float64) for w in weights],
                   biases=[np.array(b, dtype=np.float64) for b in biases])


def test_relu_fixtures():
    assert np.array_equal(relu(np.array([-3.0, 0.0, 2.0])), [0.0, 0.0, 2.0])
    assert np.array_equal(relu(np.array([-1.0, -5.0])), [0.0, 0.0])
    v = np.array([0.5, 3.0, 0.0])
    assert np.array_equal(relu(v), v)


def test_single_linear_layer_preactivation():
    # z = x . w + b with w=[1,1], b=0, x=[2,3] -> 5; softmax needs >= 2
    # outputs, so pair the unit with a dead second row
    net = tiny_net([[[1.0, 1.0], [0.0, 0.0]]], [[0.0, 0.0]])
    probs = forward_batch(net, np.array([[2.0, 3.0]]))[0]
    z = np.array([5.0, 0.0])
    expected = np.exp(z - 5.0) / np.exp(z - 5.0).sum()
    assert np.allclose(probs, expected, atol=1e-15)


def test_zero_network_uniform_output():
    rng = np.random.default_rng(0)
    net = init_network(5, 6, rng)
    for w in net.weights:
        w[:] = 0.0
    probs = forward_batch(net, np.zeros((1, 5)))[0]
    assert np.allclose(probs, np.full(6, 1 / 6), atol=1e-15)


def test_softmax_huge_logits_no_overflow():
    logits = np.array([1000.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    p = softmax(logits)
    assert np.isfinite(p).all()
    assert abs(p[0] - 1.0) < 1e-12
    assert np.all(p[1:] < 1e-12)


def test_softmax_sum_and_range():
    rng = np.random.default_rng(26)
    for _ in range(50):
        z = rng.uniform(-1e4, 1e4, size=6)
        p = softmax(z)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.isfinite(p).all()
        # components can underflow to exactly 0 when logit gaps exceed the
        # double-precision exp range, so only [0, 1] is assertable here
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
    for _ in range(50):
        # gaps small enough that no component rounds to exactly 0 or 1
        z = rng.uniform(-15.0, 15.0, size=6)
        p = softmax(z)
        assert np.all(p > 0.0) and np.all(p < 1.0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(27)
    scale = 2.0 ** -30
    for _ in range(50):
        # logits on a fine binary grid so z + c is exact in float64 and the
        # invariance can be asserted at 1e-12 even at magnitude 1e4
        z = np.round(rng.uniform(-1e4, 1e4, size=6) / scale) * scale
        for c in (-1e4, -3.25, 0.5, 1000.0, 1e4):
            assert np.max(np.abs(softmax(z + c) - softmax(z))) <= 1e-12
    z = rng.uniform(-1.0, 1.0, size=6)
    for c in (-0.7, 0.3):
        assert np.max(np.abs(softmax(z + c) - softmax(z))) <= 1e-12


@pytest.mark.parametrize("shape,batch_major", [
    ((6,), False), ((50, 6), False), ((20, 32, 6), False), ((20, 32, 6), True),
    ((30, 9), False), ((4, 7, 20), True),
], ids=["1d", "rows", "runs", "runs-batch-major", "nine-classes", "twenty-classes"])
def test_softmax_bitwise_pinned(shape, batch_major):
    # softmax is the formula below to the bit; batch-major inputs are laid
    # out as the lockstep step lays out the output layer's pre-activations
    rng = np.random.default_rng(28)
    z = rng.normal(scale=3.0, size=shape)
    z.reshape(-1, shape[-1])[::3] *= 300.0  # logits of about +-1e3 in every third row
    if batch_major:
        z = np.ascontiguousarray(z.swapaxes(0, -2)).swapaxes(0, -2)
    e = np.exp(z - z.max(-1, keepdims=True))
    assert np.array_equal(softmax(z), e / e.sum(-1, keepdims=True))


def test_loss_fixtures():
    assert loss(np.array([[0.0, 1.0]]), [1]) == 0.0
    assert abs(loss(np.full((1, 6), 1 / 6), [3]) - math.log(6)) < 1e-12
    assert abs(loss(np.array([[1.0, 0.0]]), [1]) - (-math.log(1e-12))) < 1e-9
    with pytest.raises(ValueError):
        loss(np.array([[0.5, 0.5]]), [2])


def test_backward_fused_output_delta():
    rng = np.random.default_rng(1)
    net = init_network(5, 6, rng)
    for w in net.weights:
        w[:] = 0.0
    grads_w, grads_b = backward(net, np.zeros((1, 5)), [2])
    expected = np.full(6, 1 / 6)
    expected[2] -= 1.0
    assert np.allclose(grads_b[-1], expected, atol=1e-15)


def _flatten_params(net):
    for i in range(len(net.weights)):
        yield from (("w", i, idx) for idx in np.ndindex(net.weights[i].shape))
        yield from (("b", i, (j,)) for j in range(len(net.biases[i])))


def _loss_at(net, x, label):
    return loss(forward_batch(net, x), label)


def gradient_check(d_in, seed, h=1e-5):
    rng = np.random.default_rng(seed)
    net = init_network(d_in, 6, rng)
    x = rng.normal(size=d_in)[None, :]
    label = [int(rng.integers(0, 6))]
    grads_w, grads_b = backward(net, x, label)
    worst = 0.0
    for kind, i, idx in _flatten_params(net):
        params = net.weights[i] if kind == "w" else net.biases[i]
        original = params[idx]
        params[idx] = original + h
        up = _loss_at(net, x, label)
        params[idx] = original - h
        down = _loss_at(net, x, label)
        params[idx] = original
        fd = (up - down) / (2 * h)
        analytic = (grads_w[i] if kind == "w" else grads_b[i])[idx]
        rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8)
        worst = max(worst, rel)
    return worst


def test_gradient_check_small():
    assert gradient_check(5, seed=100) < 1e-4
    assert gradient_check(11, seed=200) < 1e-4


def test_dead_relu_paths_zero_gradient():
    rng = np.random.default_rng(2)
    net = init_network(3, 6, rng)
    # first hidden unit can never activate: negative weights, negative bias,
    # non-negative inputs
    net.weights[0][0, :] = -1.0
    net.biases[0][0] = -1.0
    x = np.array([[0.5, 1.0, 0.2]])
    grads_w, grads_b = backward(net, x, [1])
    assert np.array_equal(grads_w[0][0, :], np.zeros(3))
    assert grads_b[0][0] == 0.0


def test_train_separable_blobs():
    rng = np.random.default_rng(3)
    n = 120
    x0 = rng.normal(loc=(-2.0, 0.0), scale=0.35, size=(n, 2))
    x1 = rng.normal(loc=(2.0, 0.0), scale=0.35, size=(n, 2))
    x = np.vstack([x0, x1])
    y = np.array([0] * n + [1] * n)
    cfg = TrainConfig(epochs=200, seed=5)
    net, final_loss = train_runs([x], [y], [cfg.seed], cfg=cfg)[0]
    acc = (np.argmax(forward_batch(net, x), axis=1) == y).mean()
    assert acc >= 0.99
    assert final_loss < 0.3
    assert net.layer_sizes == (2,) + HIDDEN_SIZES + (2,)


def test_train_deterministic_bitwise():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(60, 5))
    y = rng.integers(0, 3, size=60)
    cfg = TrainConfig(epochs=30, seed=9)
    net1, loss1 = train_runs([x], [y], [cfg.seed], cfg=cfg)[0]
    net2, loss2 = train_runs([x], [y], [cfg.seed], cfg=cfg)[0]
    assert loss1 == loss2
    for a, b in zip(net1.weights + net1.biases, net2.weights + net2.biases):
        assert np.array_equal(a, b)


def test_train_runs_bitwise_equal_to_per_run_reference():
    # three runs with their own data, normalizer and seed; 50 samples leave
    # a partial last batch of 2 at batch size 16
    rng = np.random.default_rng(12)
    raw = rng.normal(size=(3, 50, 6)) * rng.uniform(0.5, 4.0, size=(3, 1, 6)) \
        + rng.normal(scale=3.0, size=(3, 1, 6))
    x = np.stack([apply_normalizer(fit_normalizer(r), r) for r in raw])
    y = rng.integers(0, 4, size=(3, 50))
    seeds = [3, 1234567, 2 ** 40 + 5]
    cfg = TrainConfig(epochs=25, batch_size=16)
    trained = train_runs(x, y, seeds, cfg=cfg, num_classes=5)
    assert len(trained) == 3
    for r, (net, final_loss) in enumerate(trained):
        ref_net, ref_loss = reference_train(
            x[r], y[r], cfg=TrainConfig(epochs=25, batch_size=16, seed=seeds[r]),
            num_classes=5)
        assert final_loss == ref_loss
        assert net.layer_sizes == ref_net.layer_sizes
        for a, b in zip(net.weights + net.biases, ref_net.weights + ref_net.biases):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("runs,n,d,k,batch_size,epochs", [
    (3, 24, 4, 3, 24, 20),
    (3, 17, 4, 3, 1, 3),
    (2, 33, 5, 4, 8, 10),
    (4, 448, 11, 6, 32, 3),
    (2, 21, 1, 2, 5, 5),
], ids=["one-batch-per-epoch", "single-row-batches", "single-row-last-batch", "mccv-shaped",
        "one-feature-two-classes"])
def test_train_runs_bitwise_cases(runs, n, d, k, batch_size, epochs):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(runs, n, d))
    y = rng.integers(0, k, size=(runs, n))
    y[:, :2] = [0, 1]
    seeds = [int(s) for s in rng.integers(0, 2 ** 32, size=runs)]
    trained = train_runs(x, y, seeds, cfg=TrainConfig(epochs=epochs, batch_size=batch_size),
                         num_classes=k)
    for r, (net, final_loss) in enumerate(trained):
        ref_net, ref_loss = reference_train(
            x[r], y[r], cfg=TrainConfig(epochs=epochs, batch_size=batch_size, seed=seeds[r]),
            num_classes=k)
        assert final_loss == ref_loss
        for a, b in zip(net.weights + net.biases, ref_net.weights + ref_net.biases):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("runs", [2, 5, 7])
def test_train_runs_chunked_bitwise(monkeypatch, pools, runs, cpus):
    # min(runs, cpus) workers train contiguous chunks of runs: 7 runs on 3
    # make chunks of 2, 2 and 3, and 2 runs on 3 CPUs start only 2 workers
    rng = np.random.default_rng(runs)
    x = rng.normal(size=(runs, 30, 4))
    y = rng.integers(0, 3, size=(runs, 30))
    y[:, :2] = [0, 1]
    seeds = [int(s) for s in rng.integers(0, 2 ** 32, size=runs)]
    cfg = TrainConfig(epochs=6, batch_size=8)
    monkeypatch.setattr(stack_io, "usable_cpus", lambda: 1)
    serial = train_runs(x, y, seeds, cfg=cfg, num_classes=3)
    monkeypatch.setattr(stack_io, "usable_cpus", lambda: cpus)
    trained = train_runs(x, y, seeds, cfg=cfg, num_classes=3)
    assert multiprocessing.active_children() == []
    workers = min(runs, cpus)
    assert pools == ([] if workers == 1 else [workers])
    assert len(trained) == runs
    for r, ((net, final_loss), (one_net, one_loss)) in enumerate(zip(trained, serial)):
        ref_net, ref_loss = reference_train(
            x[r], y[r], cfg=TrainConfig(epochs=6, batch_size=8, seed=seeds[r]),
            num_classes=3)
        assert final_loss == one_loss == ref_loss
        for a, b, c in zip(net.weights + net.biases, one_net.weights + one_net.biases,
                           ref_net.weights + ref_net.biases):
            assert np.array_equal(a, b) and np.array_equal(a, c)

    with pytest.raises(ValueError, match="batch_size 31 exceeds training size 30"):
        train_runs(x, y, seeds, cfg=TrainConfig(batch_size=31))
    assert multiprocessing.active_children() == []
    assert len(pools) <= 1


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("widths,n,k,batch_size,epochs", [
    ([5, 5, 6, 6, 6, 11, 11], 17, 3, 1, 3),
    ([5, 5, 6, 6, 6, 11, 11], 33, 4, 8, 10),
    ([5, 5, 5, 5, 10, 10], 24, 3, 24, 20),
], ids=["single-row-batches", "single-row-last-batch", "shared-width"])
def test_train_runs_mixed_widths_bitwise(monkeypatch, pools, widths, n, k, batch_size,
                                         epochs, cpus):
    # runs of several input widths, as the three variants' MCCV runs are,
    # train in one lockstep; 7 runs on 2 or 3 CPUs make chunks that straddle
    # the width boundaries, and with 5 bands the morph and spectral runs
    # (both 5 wide) form one group
    rng = np.random.default_rng(n)
    x = [rng.normal(size=(n, d)) for d in widths]
    y = rng.integers(0, k, size=(len(widths), n))
    y[:, :2] = [0, 1]
    seeds = [int(s) for s in rng.integers(0, 2 ** 32, size=len(widths))]
    monkeypatch.setattr(stack_io, "usable_cpus", lambda: cpus)
    trained = train_runs(x, y, seeds, cfg=TrainConfig(epochs=epochs, batch_size=batch_size),
                         num_classes=k)
    workers = min(len(widths), cpus)
    assert pools == ([] if workers == 1 else [workers])
    assert [net.input_dim for net, _ in trained] == widths
    for r, (net, final_loss) in enumerate(trained):
        ref_net, ref_loss = reference_train(
            x[r], y[r], cfg=TrainConfig(epochs=epochs, batch_size=batch_size, seed=seeds[r]),
            num_classes=k)
        assert final_loss == ref_loss
        for a, b in zip(net.weights + net.biases, ref_net.weights + ref_net.biases):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("n,d,k", [(1, 5, 6), (2, 11, 6), (40, 6, 6), (25, 3, 9)])
def test_backward_bitwise_equal_to_reference(n, d, k):
    rng = np.random.default_rng(n + d + k)
    net = init_network(d, k, rng)
    for b in net.biases:
        b[:] = rng.normal(scale=0.1, size=b.shape)
    x = rng.normal(size=(n, d))
    labels = rng.integers(0, k, size=n)
    grads_w, grads_b = backward(net, x, labels)
    ref_w, ref_b = _reference_backward_batch(net, x, labels)
    for a, b in zip(grads_w + grads_b, ref_w + ref_b):
        assert np.array_equal(a, b)


def test_train_rejects_non_finite_inputs():
    rng = np.random.default_rng(13)
    y = rng.integers(0, 2, size=20)
    for bad in (np.nan, np.inf):
        x = rng.normal(size=(20, 5))
        x[7, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            train_runs([x], [y], [0], cfg=TrainConfig(epochs=1))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="learning_rate must be finite, got nan"):
        TrainConfig(learning_rate=float("nan"))
    with pytest.raises(ValueError, match="learning_rate must be finite, got inf"):
        TrainConfig(learning_rate=float("inf"))
    # JSON numbers arrive as int or float; fields take their declared type
    cfg = TrainConfig(learning_rate=1, epochs=3.0, batch_size=8.0, seed=2.0)
    assert (cfg.epochs, cfg.batch_size, cfg.seed) == (3, 8, 2)
    assert all(type(v) is int for v in (cfg.epochs, cfg.batch_size, cfg.seed))
    assert type(cfg.learning_rate) is float


def test_train_input_validation():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 5))
    with pytest.raises(ValueError):
        train_runs([x], [np.zeros(20, dtype=int)], [0], cfg=TrainConfig(epochs=1))  # one class
    with pytest.raises(ValueError):
        train_runs([x], [rng.integers(0, 2, size=20)], [0],
                   cfg=TrainConfig(epochs=1, batch_size=21))  # batch > n


def test_descent_direction_property():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(32, 5))
    y = rng.integers(0, 4, size=32)
    net = init_network(5, 4, np.random.default_rng(7))

    def batch_loss(n):
        probs = forward_batch(n, x)
        return float(-np.log(np.maximum(probs[np.arange(32), y], 1e-12)).mean())

    grads_w, grads_b = backward(net, x, y)
    before = batch_loss(net)
    stepped = Network(weights=[w - 1e-6 * g for w, g in zip(net.weights, grads_w)],
                      biases=[b - 1e-6 * g for b, g in zip(net.biases, grads_b)])
    after = batch_loss(stepped)
    assert after <= before + 1e-12


def test_batch_gradient_is_mean_of_samples():
    rng = np.random.default_rng(8)
    net = init_network(4, 3, rng)
    x = rng.normal(size=(5, 4))
    y = rng.integers(0, 3, size=5)
    gw_batch, gb_batch = backward(net, x, y)
    gw_sum = [np.zeros_like(w) for w in net.weights]
    gb_sum = [np.zeros_like(b) for b in net.biases]
    for i in range(5):
        gw, gb = backward(net, x[i:i + 1], y[i:i + 1])
        for j in range(len(gw)):
            gw_sum[j] += gw[j] / 5
            gb_sum[j] += gb[j] / 5
    for j in range(len(gw_sum)):
        assert np.allclose(gw_batch[j], gw_sum[j], atol=1e-12)
        assert np.allclose(gb_batch[j], gb_sum[j], atol=1e-12)


def test_predict_argmax_and_ties():
    # equal logits for classes 2 and 4, both above the rest: tie resolves
    # to the smaller id
    net = tiny_net([np.zeros((6, 2))], [[0.0, 0.0, 3.0, 0.0, 3.0, 0.0]])
    assert predict_batch(net, np.zeros((1, 2)))[0] == 2
    net2 = tiny_net([np.zeros((6, 2))], [[0.0, 5.0, 0.0, 0.0, 0.0, 0.0]])
    assert predict_batch(net2, np.zeros((1, 2)))[0] == 1


def test_predict_monotone_transform_invariance():
    rng = np.random.default_rng(9)
    for _ in range(20):
        logits = rng.normal(size=6) * 3
        base = int(np.argmax(softmax(logits)))
        squashed = int(np.argmax(softmax(logits / 10.0 + 2.0)))
        assert base == squashed


def test_model_save_load_bitwise(tmp_path):
    rng = np.random.default_rng(10)
    x = rng.normal(size=(40, 6))
    y = rng.integers(0, 6, size=40)
    cfg = TrainConfig(epochs=20, seed=11)
    net, _ = train_runs([x], [y], [cfg.seed], cfg=cfg, num_classes=6)[0]
    model = TrainedModel(
        network=net, variant=ModelVariant.SPECTRAL,
        normalizer=unit_normalizer(6),
        feature_names=("em405", "em420", "em450", "em470", "em500", "em530"),
        class_names=("a", "b", "c", "d", "e", "f"),
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.variant is ModelVariant.SPECTRAL
    assert loaded.feature_names == model.feature_names
    assert loaded.class_names == model.class_names
    inputs = rng.normal(size=(100, 6))
    p1 = forward_batch(net, inputs)
    p2 = forward_batch(loaded.network, inputs)
    assert np.array_equal(p1, p2)  # bitwise identical probabilities


def test_model_save_load_keeps_edge_values_bitwise(tmp_path):
    # subnormals, -0.0 and the largest finite doubles in every saved array;
    # a std must be positive, so it holds the positive ones
    edge = np.array([5e-324, -5e-324, 1e-310, -0.0,
                     1.7976931348623157e308, -1.7976931348623157e308])
    net = tiny_net([np.resize(edge, (4, 6)), np.resize(edge[::-1], (3, 4))],
                   [np.resize(edge, 4), np.resize(edge[::-1], 3)])
    normalizer = Normalizer(mean=edge, std=np.resize(edge[edge > 0], 6),
                            constant=np.zeros(6, dtype=bool))
    path = tmp_path / "model.json"
    save_model(TrainedModel(network=net, variant=ModelVariant.SPECTRAL,
                            normalizer=normalizer), path)
    loaded = load_model(path)
    saved = [*net.weights, *net.biases, normalizer.mean, normalizer.std]
    back = [*loaded.network.weights, *loaded.network.biases,
            loaded.normalizer.mean, loaded.normalizer.std]
    for got, want in zip(back, saved, strict=True):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_model_schema_version_checked(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 99}', encoding="utf-8")
    with pytest.raises(ValueError):
        load_model(path)


@pytest.mark.parametrize("key", ["layer_sizes", "weights", "variant", "normalizer"])
def test_model_missing_key_named(tmp_path, key):
    net = init_network(5, 6, np.random.default_rng(12))
    path = tmp_path / "model.json"
    save_model(TrainedModel(network=net, variant=ModelVariant.MORPHOLOGICAL,
                            normalizer=unit_normalizer(5)), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc[key]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: model file has no key '{key}'"


def test_only_classifier_fits_and_applies_normalizers():
    # fit_models fits each normalizer on its own training rows and
    # predict_features applies it: no other module z-scores features, so no
    # other module can leak held-out rows into the statistics
    callers = []
    for source in sorted(pathlib.Path(algaeid.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in ("fit_normalizer", "apply_normalizer"):
                    callers.append(f"{source.name}:{node.lineno}")
    assert any(c.startswith("classifier.py:") for c in callers)
    assert [c for c in callers if not c.startswith("classifier.py:")] == []


def test_network_validation():
    with pytest.raises(ValueError, match=r"^one weight matrix and bias vector per layer"):
        Network(weights=[], biases=[])
    with pytest.raises(ValueError, match=r"^one weight matrix and bias vector per layer"):
        tiny_net([np.zeros((3, 2))], [])
    with pytest.raises(ValueError, match=r"^one weight matrix and bias vector per layer"):
        tiny_net([np.zeros(3)], [np.zeros(3)])
    with pytest.raises(ValueError, match=r"^layer 1: weights \(2, 4\) and biases \(2,\) do "
                                         r"not map 3 inputs to 2 outputs$"):
        tiny_net([np.zeros((3, 2)), np.zeros((2, 4))], [np.zeros(3), np.zeros(2)])
    with pytest.raises(ValueError, match=r"^layer 0: weights \(3, 2\) and biases \(2,\) do "
                                         r"not map 2 inputs to 3 outputs$"):
        tiny_net([np.zeros((3, 2))], [np.zeros(2)])
    with pytest.raises(ValueError, match=r"^layer 0: non-finite parameters$"):
        tiny_net([[[np.inf, 0.0], [0.0, 0.0]]], [[0.0, 0.0]])
    with pytest.raises(ValueError, match=r"^layer 0: non-finite parameters$"):
        tiny_net([[[0.0, 0.0], [0.0, 0.0]]], [[np.nan, 0.0]])
    with pytest.raises(ValueError, match=r"^output layer must have >= 2 classes$"):
        Network(weights=[np.zeros((1, 5))], biases=[np.zeros(1)])  # k < 2


def test_network_sizes_follow_from_weights():
    net = tiny_net([np.zeros((4, 3)), np.zeros((2, 4))], [np.zeros(4), np.zeros(2)])
    assert net.layer_sizes == (3, 4, 2)
    assert (net.input_dim, net.num_classes) == (3, 2)


def test_records_are_frozen():
    net = init_network(5, 6, np.random.default_rng(0))
    model = TrainedModel(network=net, variant=ModelVariant.MORPHOLOGICAL,
                         normalizer=unit_normalizer(5))
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.weights = [w * 0 for w in net.weights]
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.network = init_network(5, 6, np.random.default_rng(1))
    assert not hasattr(classifier.Network, "copy")


@pytest.mark.parametrize("edit,problem", [
    (lambda nrm: {"normalizer": nrm, "feature_names": ("a",) * 4},
     "4 feature_names for the network's 5 inputs"),
    (lambda nrm: {"normalizer": nrm, "class_names": "abcdef"},
     "class_names must be a list of strings, got 'abcdef'"),
    (lambda nrm: {"normalizer": Normalizer(mean=np.zeros(4), std=np.ones(4),
                                           constant=np.zeros(4, dtype=bool))},
     "normalizer must hold one finite mean, finite positive std and constant flag "
     "per network input (5)"),
    (lambda nrm: {"normalizer": Normalizer(mean=nrm.mean, std=nrm.std * 0,
                                           constant=nrm.constant)},
     "normalizer must hold one finite mean, finite positive std and constant flag "
     "per network input (5)"),
], ids=["feature-names-short", "class-names-string", "normalizer-short", "normalizer-zero-std"])
def test_trained_model_checks_itself(edit, problem):
    # the checks load_model relies on hold for a model built in memory too
    net = init_network(5, 6, np.random.default_rng(0))
    nrm = fit_normalizer(np.random.default_rng(1).normal(size=(10, 5)))
    with pytest.raises(ValueError) as err:
        TrainedModel(network=net, variant=ModelVariant.MORPHOLOGICAL, **edit(nrm))
    assert str(err.value) == problem
