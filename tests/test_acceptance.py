"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s` to see them live).

The end-to-end criteria share one synthetic corpus built at module scope;
its construction plus all three MCCV evaluations count toward the timing
budget of the qualitative reproduction criterion.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from algaeid.classifier import TrainConfig, forward_batch, init_network, train
from algaeid.cli import main
from algaeid.evaluation import (ConfusionMatrix, accuracy, paired_t_test,
                                run_mccv, t_cdf)
from algaeid.features import ModelVariant, compute_features
from algaeid.illumination import (CorrectionConfig, estimate_background,
                                  subtract_background)
from algaeid.segmentation import (BinaryMask, connected_components,
                                  otsu_index, segment)
from algaeid.stack_io import ImageStack, load_stack, save_stack
from algaeid.synthgen import (SceneSpec, default_catalog, generate_corpus,
                              majority_truth_ids)

from helpers import (disk_pixels, ellipse_pixels, flood_fill_components,
                     oracle_otsu_index, organism_from_pixels,
                     random_histogram)
from test_classifier import gradient_check
from test_evaluation import BEST_MODEL1, BEST_MODEL2, quadrature_t_cdf

CORPUS_SEED = 20260808


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: {description} ... FAIL")
        raise
    print(f"ACCEPTANCE {number}: {description} ... PASS")


# --- shared end-to-end corpus (criterion 7 and the corpus properties) ---

@pytest.fixture(scope="module")
def corpus():
    started = time.monotonic()
    catalog = default_catalog()
    template = SceneSpec(width=192, height=192, n_organisms=16)
    scenes = generate_corpus(catalog, 40, template, master_seed=CORPUS_SEED)
    fvs = []
    rank_ok = 0
    rank_total = 0
    for scene in scenes:
        background = estimate_background(scene.stack, CorrectionConfig())
        corrected = subtract_background(scene.stack, background, clamp=True)
        _, organisms, _ = segment(corrected)
        planted_by_id = {p.id: p for p in scene.organisms}
        for org, truth_id in zip(organisms, majority_truth_ids(organisms, scene.truth)):
            planted = None if truth_id is None else planted_by_id[truth_id]
            fv = compute_features(
                org, corrected, label=None if planted is None else planted.species_index)
            fvs.append(fv)
            if planted is not None:
                rank_total += 1
                if tuple(np.argsort(planted.signature)) == \
                        tuple(np.argsort(fv.spectral)):
                    rank_ok += 1
    return {
        "catalog": catalog,
        "fvs": fvs,
        "rank_ok": rank_ok,
        "rank_total": rank_total,
        "n_planted": sum(len(s.organisms) for s in scenes),
        "started": started,
    }


@pytest.fixture(scope="module")
def mccv_reports(corpus):
    labeled = [fv for fv in corpus["fvs"] if fv.label is not None]
    names = tuple(sp.name for sp in corpus["catalog"])
    reports = {}
    for variant in (ModelVariant.MORPHOLOGICAL, ModelVariant.SPECTRAL,
                    ModelVariant.SPECTRAL_MORPHOLOGICAL):
        reports[variant] = run_mccv(
            labeled, variant, cfg=TrainConfig(), runs=20, train_fraction=0.7,
            master_seed=CORPUS_SEED, class_names=names)
    return reports


def test_criterion_1_otsu_oracle():
    with criterion(1, "Otsu matches exhaustive search on 500 histograms"):
        rng = np.random.default_rng(41)
        started = time.monotonic()
        for _ in range(500):
            counts = random_histogram(rng)
            assert otsu_index(counts) == oracle_otsu_index(counts)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"otsu oracle took {elapsed:.1f}s"


def test_criterion_2_labeling_oracle():
    with criterion(2, "component labeling matches flood fill on 200 masks"):
        rng = np.random.default_rng(42)
        started = time.monotonic()
        for _ in range(200):
            mask = rng.random((64, 64)) < rng.uniform(0.15, 0.75)
            got = connected_components(BinaryMask(foreground=mask))
            oracle_labels, oracle_count = flood_fill_components(mask)
            assert got.count == oracle_count
            assert np.array_equal(got.labels, oracle_labels)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"labeling oracle took {elapsed:.1f}s"


def test_criterion_3_feature_analytics():
    with criterion(3, "shape feature fixtures and analytic values"):
        from algaeid.features import (area, convex_area, eccentricity,
                                      equivalent_diameter, extent)
        disk = organism_from_pixels(disk_pixels(10))
        assert eccentricity(disk) <= 0.1
        ellipse = organism_from_pixels(ellipse_pixels(20, 10))
        assert abs(eccentricity(ellipse) - 0.866) <= 0.02

        square = organism_from_pixels(
            [(y, x) for y in range(5) for x in range(5)])
        l_shape = organism_from_pixels([(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)])
        single = organism_from_pixels([(0, 0)])
        assert area(square) == 25 and convex_area(square) == 25
        assert extent(square) == 1.0
        assert area(l_shape) == 5 and extent(l_shape) == 5.0 / 9.0
        assert area(single) == 1 and convex_area(single) == 1
        assert extent(single) == 1.0
        triangle = organism_from_pixels(
            [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)])
        assert convex_area(triangle) == 6

        assert abs(equivalent_diameter(square) - math.sqrt(100 / math.pi)) < 1e-5
        assert abs(equivalent_diameter(square) - 5.64190) < 1e-5
        assert abs(equivalent_diameter(single) - 1.12838) < 1e-5


def test_criterion_4_gradient_check():
    with criterion(4, "backprop matches central differences, 10 seeds"):
        for d_in in (5, 11):
            for seed in range(10):
                worst = gradient_check(d_in, seed=1000 + seed)
                assert worst < 1e-4, f"d_in={d_in} seed={seed} rel={worst:.2e}"


def test_criterion_5_softmax_stability():
    with criterion(5, "softmax sums to 1 and is shift-invariant at 1e4"):
        from algaeid.classifier import softmax
        rng = np.random.default_rng(43)
        grid = 2.0 ** -30
        for _ in range(200):
            z = np.round(rng.uniform(-1e4, 1e4, size=6) / grid) * grid
            p = softmax(z)
            assert np.isfinite(p).all()
            assert abs(p.sum() - 1.0) <= 1e-12
            for c in (-1e4, -1.0, 0.5, 1e3, 1e4):
                shifted = softmax(z + c)
                assert np.max(np.abs(shifted - p)) <= 1e-12


def test_criterion_6_statistics_fixtures():
    with criterion(6, "accuracy fixtures, t CDF oracle, paired test values"):
        assert abs(accuracy(ConfusionMatrix(np.array(BEST_MODEL2))) - 765 / 783) < 1e-12
        assert abs(accuracy(ConfusionMatrix(np.array(BEST_MODEL1))) - 440 / 783) < 1e-12
        for df in (1, 4, 19, 100):
            for t in np.linspace(-10.0, 10.0, 41):
                assert abs(t_cdf(float(t), df) - quadrature_t_cdf(float(t), df)) < 1e-6
        res = paired_t_test([2.0, 4.0, 6.0, 8.0, 10.0], [1.0, 2.0, 3.0, 4.0, 5.0])
        assert abs(res.t - 4.2426) <= 1e-4
        assert res.df == 4
        assert abs(res.p_value - 0.0132) <= 1e-3


def test_criterion_7_qualitative_reproduction(corpus, mccv_reports):
    with criterion(7, "synthetic corpus reproduces the qualitative ordering"):
        assert corpus["n_planted"] >= 600
        m1 = mccv_reports[ModelVariant.MORPHOLOGICAL]
        m2 = mccv_reports[ModelVariant.SPECTRAL]
        m3 = mccv_reports[ModelVariant.SPECTRAL_MORPHOLOGICAL]
        assert len(m1.accuracies) == len(m2.accuracies) == len(m3.accuracies) == 20

        # accuracy ordering: shape-only below spectral, combined comparable
        assert m1.mean < m2.mean
        assert m2.mean <= m3.mean + 0.02
        assert m2.mean >= 0.90 and m3.mean >= 0.90

        # shape-only vs spectral difference is statistically significant
        tt = paired_t_test(m1.accuracies, m2.accuracies, alpha=0.01)
        assert tt.reject is True

        # shape-only errors concentrate between the two filament species,
        # not between filaments and the disk-colony species
        names = [sp.name for sp in corpus["catalog"]]
        families = [sp.shape_family for sp in corpus["catalog"]]
        fil_a, fil_b = [i for i, f in enumerate(families) if f == "filament"]
        disk = families.index("disk-colony")
        best = m1.confusions[m1.best_run_index].counts
        filament_pair = best[fil_a, fil_b] + best[fil_b, fil_a]
        filament_disk = (best[fil_a, disk] + best[disk, fil_a]
                         + best[fil_b, disk] + best[disk, fil_b])
        assert filament_pair > filament_disk

        elapsed = time.monotonic() - corpus["started"]
        assert elapsed < 300.0, f"end-to-end run took {elapsed:.0f}s"
        print(f"  [model means: {m1.mean:.3f} / {m2.mean:.3f} / {m3.mean:.3f}; "
              f"filament-pair errors {filament_pair} vs filament-disk "
              f"{filament_disk}; {elapsed:.0f}s]")


def test_corpus_spectral_rank_order(corpus):
    # planted per-band intensity ordering survives the whole pipeline
    assert corpus["rank_total"] >= 600
    assert corpus["rank_ok"] / corpus["rank_total"] >= 0.95


def test_corpus_spectral_beats_morphological(corpus, mccv_reports):
    m1 = mccv_reports[ModelVariant.MORPHOLOGICAL]
    m2 = mccv_reports[ModelVariant.SPECTRAL]
    assert m2.mean >= 0.90
    assert m2.mean > m1.mean


def test_criterion_8_pipeline_determinism(tmp_path):
    with criterion(8, "synth->mccv twice with one seed is byte-identical"):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "synth": {"scenes": 3, "width": 120, "height": 120,
                      "organisms_per_scene": 8, "master_seed": 77},
            "train": {"epochs": 60, "batch_size": 8},
            "mccv": {"runs": 4, "master_seed": 77},
        }), encoding="utf-8")
        reports = []
        for attempt in ("a", "b"):
            base = tmp_path / attempt
            assert main(["synth", "--config", str(config),
                         "--out", str(base / "raw")]) == 0
            assert main(["correct", str(base / "raw"), "--config", str(config),
                         "--out", str(base / "corrected")]) == 0
            assert main(["segment", str(base / "corrected"), "--config",
                         str(config), "--out", str(base / "segmented")]) == 0
            assert main(["features", str(base / "corrected"),
                         str(base / "segmented"), "--truth", str(base / "raw"),
                         "--config", str(config),
                         "--out", str(base / "features.csv")]) == 0
            assert main(["mccv", str(base / "features.csv"), "--config",
                         str(config), "--out", str(base / "eval")]) == 0
            reports.append((base / "eval" / "report.json").read_bytes())
        assert reports[0] == reports[1]


def test_criterion_9_round_trips(tmp_path):
    with criterion(9, "stack and model files round-trip bit-exactly"):
        rng = np.random.default_rng(44)
        bands = tuple(rng.integers(0, 65536, size=(48, 48)).astype(np.float64)
                      for _ in range(6))
        stack = ImageStack(bands=bands,
                           wavelengths_nm=(405.0, 420.0, 450.0, 470.0, 500.0, 530.0))
        save_stack(stack, tmp_path / "stack")
        loaded = load_stack(tmp_path / "stack")
        assert loaded.wavelengths_nm == stack.wavelengths_nm
        assert loaded.pixel_pitch_um == stack.pixel_pitch_um
        assert loaded.role_tag == stack.role_tag
        for a, b in zip(loaded.bands, stack.bands):
            assert np.array_equal(a, b)

        from algaeid.classifier import TrainedModel, load_model, save_model
        x = rng.normal(size=(80, 11))
        y = rng.integers(0, 6, size=80)
        net, _ = train(x, y, cfg=TrainConfig(epochs=25, seed=3), num_classes=6)
        model = TrainedModel(network=net,
                             variant=ModelVariant.SPECTRAL_MORPHOLOGICAL)
        save_model(model, tmp_path / "model.json")
        restored = load_model(tmp_path / "model.json")
        inputs = rng.normal(size=(100, 11))
        assert np.array_equal(forward_batch(net, inputs),
                              forward_batch(restored.network, inputs))
