import math

import numpy as np
import pytest

from algaeid.classifier import (HIDDEN_SIZES, Network, TrainConfig,
                                TrainedModel, backward, forward_batch,
                                init_network, load_model, loss,
                                predict_batch, relu, save_model, softmax,
                                train, train_runs)
from algaeid.features import (ModelVariant, Normalizer, apply_normalizer,
                              fit_normalizer)

from helpers import reference_train


def tiny_net(weights, biases, sizes):
    return Network(layer_sizes=sizes,
                   weights=[np.array(w, dtype=np.float64) for w in weights],
                   biases=[np.array(b, dtype=np.float64) for b in biases])


def test_relu_fixtures():
    assert np.array_equal(relu(np.array([-3.0, 0.0, 2.0])), [0.0, 0.0, 2.0])
    assert np.array_equal(relu(np.array([-1.0, -5.0])), [0.0, 0.0])
    v = np.array([0.5, 3.0, 0.0])
    assert np.array_equal(relu(v), v)


def test_single_linear_layer_preactivation():
    # z = x . w + b with w=[1,1], b=0, x=[2,3] -> 5; softmax needs >= 2
    # outputs, so pair the unit with a dead second row
    net = tiny_net([[[1.0, 1.0], [0.0, 0.0]]], [[0.0, 0.0]], (2, 2))
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
    net, final_loss = train(x, y, cfg=cfg)
    acc = (np.argmax(forward_batch(net, x), axis=1) == y).mean()
    assert acc >= 0.99
    assert final_loss < 0.3
    assert net.layer_sizes == (2,) + HIDDEN_SIZES + (2,)


def test_train_deterministic_bitwise():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(60, 5))
    y = rng.integers(0, 3, size=60)
    cfg = TrainConfig(epochs=30, seed=9)
    net1, loss1 = train(x, y, cfg=cfg)
    net2, loss2 = train(x, y, cfg=cfg)
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
    cfg = TrainConfig(epochs=25, batch_size=16, l2=1e-3)
    trained = train_runs(x, y, seeds, cfg=cfg, num_classes=5)
    assert len(trained) == 3
    for r, (net, final_loss) in enumerate(trained):
        ref_net, ref_loss = reference_train(
            x[r], y[r], cfg=TrainConfig(epochs=25, batch_size=16, l2=1e-3,
                                        seed=seeds[r]), num_classes=5)
        assert final_loss == ref_loss
        assert net.layer_sizes == ref_net.layer_sizes
        for a, b in zip(net.weights + net.biases, ref_net.weights + ref_net.biases):
            assert np.array_equal(a, b)


def test_train_rejects_non_finite_inputs():
    rng = np.random.default_rng(13)
    y = rng.integers(0, 2, size=20)
    for bad in (np.nan, np.inf):
        x = rng.normal(size=(20, 5))
        x[7, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            train(x, y, cfg=TrainConfig(epochs=1))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    # JSON numbers arrive as int or float; fields take their declared type
    cfg = TrainConfig(learning_rate=1, epochs=3.0, batch_size=8.0, seed=2.0, l2=0)
    assert (cfg.epochs, cfg.batch_size, cfg.seed) == (3, 8, 2)
    assert all(type(v) is int for v in (cfg.epochs, cfg.batch_size, cfg.seed))
    assert type(cfg.learning_rate) is float and type(cfg.l2) is float


def test_train_input_validation():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 5))
    with pytest.raises(ValueError):
        train(x, np.zeros(20, dtype=int), cfg=TrainConfig(epochs=1))  # one class
    with pytest.raises(ValueError):
        train(x, rng.integers(0, 2, size=20),
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
    stepped = net.copy()
    for i in range(len(stepped.weights)):
        stepped.weights[i] -= 1e-6 * grads_w[i]
        stepped.biases[i] -= 1e-6 * grads_b[i]
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
    net = tiny_net(
        [np.zeros((6, 2))], [[0.0, 0.0, 3.0, 0.0, 3.0, 0.0]], (2, 6))
    assert predict_batch(net, np.zeros((1, 2)))[0] == 2
    net2 = tiny_net([np.zeros((6, 2))], [[0.0, 5.0, 0.0, 0.0, 0.0, 0.0]], (2, 6))
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
    net, _ = train(x, y, cfg=TrainConfig(epochs=20, seed=11), num_classes=6)
    model = TrainedModel(
        network=net, variant=ModelVariant.SPECTRAL,
        normalizer=Normalizer(mean=np.zeros(6), std=np.ones(6),
                              constant=np.zeros(6, dtype=bool)),
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


def test_model_schema_version_checked(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 99}', encoding="utf-8")
    with pytest.raises(ValueError):
        load_model(path)


def test_network_validation():
    with pytest.raises(ValueError):
        tiny_net([np.zeros((3, 2))], [np.zeros(3)], (2, 3, 4))
    with pytest.raises(ValueError):
        tiny_net([[[np.inf, 0.0], [0.0, 0.0]]], [[0.0, 0.0]], (2, 2))
    with pytest.raises(ValueError):
        Network(layer_sizes=(5, 1), weights=[np.zeros((1, 5))],
                biases=[np.zeros(1)])  # k < 2
