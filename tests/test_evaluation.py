import dataclasses
import json
import math

import numpy as np
import pytest

from algaeid.classifier import TrainConfig
from algaeid.evaluation import (ConfusionMatrix, MccvReport, _run_seeds,
                                accuracy, build_report,
                                confusion_from_predictions, mccv_split,
                                paired_t_test, regularized_incomplete_beta,
                                render_report_text, run_mccv, t_two_sided_p)
from algaeid.features import (FeatureVector, ModelVariant, apply_normalizer,
                              assemble, fit_normalizer)
from algaeid.stack_io import atomic_write_json, read_json_object

from helpers import reference_predict, reference_train

# fixed six-class confusion-matrix fixtures for the shape-only and
# spectral-only variants; their accuracy ratios are asserted exactly
BEST_MODEL1 = [
    [189, 9, 31, 12, 0, 2],
    [4, 70, 8, 7, 0, 10],
    [10, 3, 119, 11, 3, 7],
    [65, 10, 50, 21, 11, 9],
    [14, 2, 34, 8, 20, 7],
    [2, 6, 5, 2, 1, 21],
]
BEST_MODEL2 = [
    [220, 0, 0, 0, 0, 0],
    [0, 117, 1, 1, 0, 3],
    [0, 0, 160, 0, 0, 0],
    [0, 0, 0, 146, 6, 0],
    [1, 0, 0, 0, 85, 0],
    [0, 4, 1, 0, 1, 37],
]


def t_pdf(t, df):
    ln_c = (math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
            - 0.5 * math.log(df * math.pi))
    return math.exp(ln_c) * (1.0 + t * t / df) ** (-(df + 1) / 2.0)


def quadrature_t_cdf(t, df, steps=20000):
    """Simpson integration of the t density from 0 to |t| plus symmetry."""
    if t == 0.0:
        return 0.5
    hi = abs(t)
    h = hi / steps
    total = t_pdf(0.0, df) + t_pdf(hi, df)
    for i in range(1, steps):
        total += (4.0 if i % 2 else 2.0) * t_pdf(i * h, df)
    integral = total * h / 3.0
    return 0.5 + integral if t > 0 else 0.5 - integral


def test_accuracy_fixed_confusions():
    cm1 = ConfusionMatrix(np.array(BEST_MODEL1))
    cm2 = ConfusionMatrix(np.array(BEST_MODEL2))
    assert cm1.total == 783 and cm2.total == 783
    assert abs(accuracy(cm1) - 440 / 783) < 1e-12
    assert abs(accuracy(cm2) - 765 / 783) < 1e-12


def test_accuracy_identity_and_empty():
    assert accuracy(ConfusionMatrix(np.eye(4, dtype=int) * 7)) == 1.0
    with pytest.raises(ValueError):
        accuracy(ConfusionMatrix(np.zeros((3, 3), dtype=int)))


def test_confusion_validation():
    with pytest.raises(ValueError):
        ConfusionMatrix(np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError):
        ConfusionMatrix(np.array([[-1, 0], [0, 0]]))


def test_confusion_from_predictions_counts():
    # one count per (true, predicted) pair, as a loop over the pairs counts;
    # class 3 has no sample and class 0 is never predicted
    rng = np.random.default_rng(4)
    y_true = rng.integers(0, 3, size=200)
    y_pred = rng.integers(1, 4, size=200)
    expected = np.zeros((4, 4), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        expected[t, p] += 1
    assert np.array_equal(confusion_from_predictions(y_true, y_pred, 4).counts, expected)
    assert confusion_from_predictions([], [], 3).counts.tolist() == [[0] * 3] * 3


def test_incomplete_beta_basic():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    # I_x(1,1) = x
    for x in (0.1, 0.5, 0.9):
        assert abs(regularized_incomplete_beta(1.0, 1.0, x) - x) < 1e-12
    # I_x(1/2, 1/2) = 2/pi * asin(sqrt(x))
    for x in (0.2, 0.7):
        expected = 2.0 / math.pi * math.asin(math.sqrt(x))
        assert abs(regularized_incomplete_beta(0.5, 0.5, x) - expected) < 1e-12


def test_t_cdf_against_quadrature():
    # half the two-sided p-value is the lower tail CDF(-|t|)
    for df in (1, 4, 19, 100):
        for t in (-10.0, -3.5, -1.0, -0.2, 0.0, 0.4, 1.5, 2.7, 6.0, 10.0):
            assert abs(0.5 * t_two_sided_p(t, df) - quadrature_t_cdf(-abs(t), df)) < 1e-6


def test_t_cdf_known_values():
    # CDF(0) = 1/2; df=1 is a Cauchy: CDF(1) = 3/4
    assert 0.5 * t_two_sided_p(0.0, 7) == 0.5
    assert abs(1.0 - 0.5 * t_two_sided_p(1.0, 1) - 0.75) < 1e-12
    assert abs(t_two_sided_p(1.0, 1) - 0.5) < 1e-12


def test_paired_t_fixture():
    a = np.array([2.0, 4.0, 6.0, 8.0, 10.0])
    b = np.array([1.0, 2.0, 3.0, 4.0, 5.0])  # d = 1..5
    res = paired_t_test(a, b)
    assert abs(res.t - 4.2426) < 1e-4
    assert res.df == 4
    assert abs(res.p_value - 0.0132) < 1e-3
    # two-sided p agrees with the quadrature oracle
    oracle_p = 2.0 * (1.0 - quadrature_t_cdf(res.t, 4))
    assert abs(res.p_value - oracle_p) < 1e-6
    assert res.reject is False  # 0.0132 > 0.01


def test_paired_t_degenerate_conventions():
    same = [0.5, 0.6, 0.7]
    res = paired_t_test(same, same)
    assert res.p_value == 1.0 and res.reject is False and res.t == 0.0

    # differences exactly representable so the variance is exactly zero
    shifted = paired_t_test([1.0, 2.0, 3.0], [0.5, 1.5, 2.5])
    assert shifted.p_value == 0.0 and shifted.reject is True
    assert math.isinf(shifted.t) and shifted.t > 0


def test_paired_t_antisymmetry():
    rng = np.random.default_rng(30)
    a = rng.random(20)
    b = rng.random(20)
    r_ab = paired_t_test(a, b)
    r_ba = paired_t_test(b, a)
    assert abs(r_ab.t + r_ba.t) < 1e-12
    assert abs(r_ab.p_value - r_ba.p_value) < 1e-15
    assert r_ab.df == r_ba.df == 19


def test_paired_t_validation():
    with pytest.raises(ValueError):
        paired_t_test([1.0], [2.0])
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])


def test_mccv_split_sizes_disjoint_covering():
    train, test = mccv_split(1000, seed=1)
    assert len(train) == 700 and len(test) == 300
    assert len(np.intersect1d(train, test)) == 0
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(1000))

    train, test = mccv_split(10, seed=2)
    assert len(train) == 7 and len(test) == 3


def test_mccv_split_determinism_and_variation():
    t1, s1 = mccv_split(200, seed=42)
    t2, s2 = mccv_split(200, seed=42)
    assert np.array_equal(t1, t2) and np.array_equal(s1, s2)
    t3, _ = mccv_split(200, seed=43)
    assert not np.array_equal(t1, t3)


def test_mccv_split_degenerate():
    with pytest.raises(ValueError):
        mccv_split(1, seed=0)
    # the 70/30 split leaves both parts non-empty from 2 samples up
    for n in range(2, 40):
        train, test = mccv_split(n, seed=n)
        assert len(train) > 0 and len(test) > 0


def _toy_feature_vectors(rng, n_per_class=40, separation=6.0):
    """Perfectly separable spectral clusters for 3 classes."""
    fvs = []
    for label in range(3):
        center = np.array([separation * label + 1.0] * 6) + np.arange(6)
        for i in range(n_per_class):
            spectral = center + rng.normal(0, 0.05, size=6)
            fvs.append(FeatureVector(
                organism_id=f"{label}:{i}", label=label,
                area=10 + label, convex_area=12 + label,
                eccentricity=0.1 * (label + 1),
                equivalent_diameter=3.0 + label, extent=0.5,
                spectral=tuple(spectral),
            ))
    return fvs


def test_run_mccv_bookkeeping():
    rng = np.random.default_rng(31)
    fvs = _toy_feature_vectors(rng)
    cfg = TrainConfig(epochs=60, batch_size=16)
    [rep] = run_mccv(fvs, [ModelVariant.SPECTRAL], cfg=cfg, runs=5, master_seed=7)
    assert len(rep.accuracies) == 5
    assert len(rep.confusions) == 5
    assert abs(rep.mean - float(np.mean(rep.accuracies))) < 1e-12
    assert abs(rep.std - float(np.std(rep.accuracies, ddof=1))) < 1e-12
    assert all(0.0 <= a <= 1.0 for a in rep.accuracies)
    # separable data: every run perfect, std exactly 0
    assert rep.accuracies == [1.0] * 5
    assert rep.std == 0.0


def test_run_mccv_row_sums_match_test_counts():
    rng = np.random.default_rng(32)
    fvs = _toy_feature_vectors(rng, n_per_class=30)
    cfg = TrainConfig(epochs=30, batch_size=16)
    [rep] = run_mccv(fvs, [ModelVariant.SPECTRAL], cfg=cfg, runs=3, master_seed=9)
    y = np.array([fv.label for fv in fvs])
    for r in range(3):
        split_seed = np.random.SeedSequence([9, r, 0])
        _, test_idx = mccv_split(len(fvs), split_seed)
        expected = np.bincount(y[test_idx], minlength=3)
        assert np.array_equal(rep.confusions[r].counts.sum(axis=1), expected)
        assert rep.confusions[r].total == len(test_idx)


def test_run_mccv_splits_shared_across_variants():
    rng = np.random.default_rng(33)
    fvs = _toy_feature_vectors(rng, n_per_class=20)
    cfg = TrainConfig(epochs=5, batch_size=8)
    rep_a, rep_b = run_mccv(fvs, [ModelVariant.SPECTRAL, ModelVariant.MORPHOLOGICAL],
                            cfg=cfg, runs=3, master_seed=11)
    assert (rep_a.variant, rep_b.variant) == (ModelVariant.SPECTRAL, ModelVariant.MORPHOLOGICAL)
    # same master seed means identical per-run test sets, which is what
    # makes index pairing a valid paired t-test
    for r in range(3):
        assert rep_a.confusions[r].counts.sum(axis=1).tolist() == \
            rep_b.confusions[r].counts.sum(axis=1).tolist()


def test_run_mccv_matches_per_run_reference():
    # overlapping spectral clusters, so runs differ and misclassify some
    # samples; 55 training samples leave a partial last batch of 7. All
    # three variants' runs train in one call, and each run matches its
    # variant's columns trained and scored on their own.
    rng = np.random.default_rng(35)
    fvs = _toy_feature_vectors(rng, n_per_class=26, separation=0.1)
    cfg = TrainConfig(epochs=20, batch_size=16)
    variants = list(ModelVariant)
    reports = run_mccv(fvs, variants, cfg=cfg, runs=4, master_seed=3)
    assert [rep.variant for rep in reports] == variants
    y = np.array([fv.label for fv in fvs])
    for variant, rep in zip(variants, reports):
        x = assemble(fvs, variant)
        accuracies = []
        for r in range(4):
            split_seed, train_seed = _run_seeds(3, r)
            train_idx, test_idx = mccv_split(len(fvs), split_seed)
            nrm = fit_normalizer(x[train_idx])
            net, _ = reference_train(
                apply_normalizer(nrm, x[train_idx]), y[train_idx],
                cfg=TrainConfig(epochs=20, batch_size=16, seed=train_seed),
                num_classes=3)
            y_pred = reference_predict(net, apply_normalizer(nrm, x[test_idx]))
            cm = confusion_from_predictions(y[test_idx], y_pred, 3)
            assert np.array_equal(rep.confusions[r].counts, cm.counts)
            accuracies.append(accuracy(cm))
        assert rep.accuracies == accuracies
    assert len(set(reports[1].accuracies)) > 1


def test_run_mccv_single_class_training_split():
    # ten class-0 samples and one class-1 sample: a run whose test split
    # draws the class-1 sample trains on class 0 alone
    rng = np.random.default_rng(36)
    fvs = [fv for fv in _toy_feature_vectors(rng, n_per_class=10) if fv.label == 0]
    fvs.append(_toy_feature_vectors(rng, n_per_class=1)[1])
    splits = [mccv_split(11, _run_seeds(0, r)[0]) for r in range(5)]
    assert any(10 not in train_idx for train_idx, _ in splits)
    with pytest.raises(ValueError, match="training data must contain at least 2 classes"):
        run_mccv(fvs, [ModelVariant.SPECTRAL], cfg=TrainConfig(epochs=1, batch_size=2),
                 runs=5, master_seed=0)


def test_run_mccv_validation():
    rng = np.random.default_rng(34)
    fvs = _toy_feature_vectors(rng, n_per_class=5)
    with pytest.raises(ValueError):
        run_mccv(fvs, [ModelVariant.SPECTRAL], runs=1)
    one_class = [fv for fv in fvs if fv.label == 0]
    with pytest.raises(ValueError):
        run_mccv(one_class, [ModelVariant.SPECTRAL], runs=2)
    unlabeled = fvs[:10] + [FeatureVector(
        organism_id="u", label=None, area=5, convex_area=5, eccentricity=0.1,
        equivalent_diameter=2.5, extent=0.9, spectral=(1.0,) * 6)]
    with pytest.raises(ValueError):
        run_mccv(unlabeled, [ModelVariant.SPECTRAL], runs=2)
    # class names, when given, set the class count and must cover every label
    with pytest.raises(ValueError, match=r"^num_classes=2 too small for labels up to 2$"):
        run_mccv(fvs, [ModelVariant.SPECTRAL], runs=2, class_names=("a", "b"))


def _fake_report(variant, accs, k=3):
    # 100 samples per run, round(100 * acc) of them on the diagonal
    cms = []
    for acc in accs:
        counts = np.zeros((k, k), dtype=int)
        counts[0, 0] = round(100 * acc)
        counts[0, 1] = 100 - counts[0, 0]
        cms.append(ConfusionMatrix(counts))
    rep = MccvReport(variant=variant, confusions=tuple(cms), master_seed=0,
                     class_names=("a", "b", "c"))
    assert rep.accuracies == list(accs) and rep.runs == len(accs)
    return rep


def test_build_report_three_variants():
    reports = [
        _fake_report(ModelVariant.MORPHOLOGICAL, [0.5, 0.6]),
        _fake_report(ModelVariant.SPECTRAL, [0.9, 0.95]),
        _fake_report(ModelVariant.SPECTRAL_MORPHOLOGICAL, [0.92, 0.96]),
    ]
    doc = build_report(reports)
    assert len(doc["variants"]) == 3
    # every pair of reports, in report order
    assert [(tt["a"], tt["b"]) for tt in doc["ttests"]] == [
        ("morph", "spectral"), ("morph", "both11"), ("spectral", "both11")]
    tt = paired_t_test([0.5, 0.6], [0.9, 0.95])
    assert (doc["ttests"][0]["t"], doc["ttests"][0]["p_value"]) == (tt.t, tt.p_value)
    text = render_report_text(doc)
    assert text.count("%") >= 6  # a mean and std per variant
    assert "morph vs spectral" in text

    # JSON round trip preserves the statistics exactly
    parsed = json.loads(json.dumps(doc))
    for name in doc["variants"]:
        assert parsed["variants"][name]["mean_accuracy"] == \
            doc["variants"][name]["mean_accuracy"]
        assert parsed["variants"][name]["std_accuracy"] == \
            doc["variants"][name]["std_accuracy"]
        assert parsed["variants"][name]["accuracies"] == \
            doc["variants"][name]["accuracies"]


def test_mccv_records_are_frozen():
    res = paired_t_test([0.5, 0.6, 0.7], [0.4, 0.6, 0.5])
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.p_value = 0.0
    rep = _fake_report(ModelVariant.SPECTRAL, [0.9, 0.95])
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.confusions = ()


def test_degenerate_t_test_report_round_trip(tmp_path):
    # equal nonzero differences give t = inf, which JSON cannot hold as a
    # number; the report's reader must accept what its writer wrote
    doc = build_report([_fake_report(ModelVariant.SPECTRAL, [0.5, 0.6, 0.7]),
                        _fake_report(ModelVariant.MORPHOLOGICAL, [0.4, 0.5, 0.6])])
    path = tmp_path / "report.json"
    atomic_write_json(path, doc)
    back = read_json_object(path, "report")
    assert (back["ttests"][0]["t"], back["ttests"][0]["p_value"]) == ("inf", 0.0)
    assert "spectral vs morph: reject null: yes   (t=inf, p=0," in render_report_text(back)
    flipped = build_report([_fake_report(ModelVariant.MORPHOLOGICAL, [0.4, 0.5, 0.6]),
                            _fake_report(ModelVariant.SPECTRAL, [0.5, 0.6, 0.7])])
    assert flipped["ttests"][0]["t"] == "-inf"
    assert "(t=-inf, p=0," in render_report_text(flipped)
    with pytest.raises(ValueError):
        atomic_write_json(tmp_path / "nan.json", {"t": math.nan})
    assert not (tmp_path / "nan.json").exists()


def test_report_without_ttests():
    doc = build_report([_fake_report(ModelVariant.SPECTRAL, [0.9, 0.95])])
    assert doc["ttests"] == []
    text = render_report_text(doc)
    assert "t-test" not in text.lower() or "Pairwise" not in text
    assert "spectral" in text
