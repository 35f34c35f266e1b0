import json
import os

import pytest

from algaeid.cli import main
from algaeid.features import read_features_csv
from algaeid.stack_io import load_stack


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Small end-to-end run shared by the CLI tests: synth through features."""
    root = tmp_path_factory.mktemp("pipe")
    config = root / "config.json"
    config.write_text(json.dumps({
        "synth": {"scenes": 2, "width": 120, "height": 120,
                  "organisms_per_scene": 7, "master_seed": 5},
        "train": {"epochs": 40, "batch_size": 8},
        "mccv": {"runs": 3, "master_seed": 5},
    }), encoding="utf-8")
    raw = root / "raw"
    corrected = root / "corrected"
    segmented = root / "segmented"
    csv = root / "features.csv"
    assert main(["synth", "--config", str(config), "--out", str(raw)]) == 0
    assert main(["correct", str(raw), "--config", str(config),
                 "--out", str(corrected)]) == 0
    assert main(["segment", str(corrected), "--config", str(config),
                 "--out", str(segmented)]) == 0
    assert main(["features", str(corrected), str(segmented), "--truth", str(raw),
                 "--config", str(config), "--out", str(csv)]) == 0
    return {"root": root, "config": config, "raw": raw, "corrected": corrected,
            "segmented": segmented, "csv": csv}


def test_synth_outputs(pipeline):
    raw = pipeline["raw"]
    scenes = sorted(os.listdir(raw))
    assert scenes == ["scene_000", "scene_001"]
    stack = load_stack(raw / "scene_000")
    assert stack.role_tag == "raw"
    assert stack.num_bands == 6
    truth = json.loads((raw / "scene_000" / "truth.json").read_text())
    assert len(truth["organisms"]) == 7
    assert "config_sha256" in truth


def test_correct_outputs(pipeline):
    stack = load_stack(pipeline["corrected"] / "scene_000")
    assert stack.role_tag == "corrected"
    manifest = json.loads(
        (pipeline["corrected"] / "scene_000" / "stack.json").read_text())
    assert "config_sha256" in manifest


def test_segment_outputs(pipeline):
    seg = pipeline["segmented"] / "scene_000"
    doc = json.loads((seg / "organisms.json").read_text())
    assert doc["component_count"] >= len(doc["organisms"]) >= 1
    assert len(doc["thresholds"]) == 6
    assert "config_sha256" in doc
    assert (seg / "labels.pgm").exists()
    for rec in doc["organisms"]:
        assert set(rec) == {"id", "bbox", "area", "touches_border"}


def test_features_output(pipeline):
    fvs, wavelengths = read_features_csv(pipeline["csv"])
    assert wavelengths == [405.0, 420.0, 450.0, 470.0, 500.0, 530.0]
    assert len(fvs) == 14  # 7 organisms per scene, both recovered fully
    assert all(fv.label is not None for fv in fvs)
    meta = json.loads((pipeline["root"] / "features.csv.meta.json").read_text())
    assert meta["rows"] == len(fvs)
    assert len(meta["class_names"]) == 6
    assert "config_sha256" in meta


def test_features_rerun_byte_identical(pipeline):
    out2 = pipeline["root"] / "features2.csv"
    assert main(["features", str(pipeline["corrected"]), str(pipeline["segmented"]),
                 "--truth", str(pipeline["raw"]), "--config", str(pipeline["config"]),
                 "--out", str(out2)]) == 0
    assert out2.read_bytes() == pipeline["csv"].read_bytes()


def test_train_and_classify_deterministic(pipeline):
    root = pipeline["root"]
    model = root / "model.json"
    assert main(["train", str(pipeline["csv"]), "--variant", "spectral",
                 "--config", str(pipeline["config"]), "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    assert doc["schema_version"] == 1
    assert doc["layer_sizes"] == [6, 12, 8, 6, 6]
    assert "config_sha256" in doc
    assert doc["feature_names"][0] == "em405"

    pred1 = root / "pred1.csv"
    pred2 = root / "pred2.csv"
    for out in (pred1, pred2):
        assert main(["classify", str(model), str(pipeline["csv"]),
                     "--config", str(pipeline["config"]), "--out", str(out)]) == 0
    assert pred1.read_bytes() == pred2.read_bytes()
    lines = pred1.read_text().splitlines()
    assert lines[0] == "organism_id,predicted_label,predicted_class"
    assert len(lines) == 15

    # the model reproduces its own training-set predictions
    fvs, _ = read_features_csv(pipeline["csv"])
    from algaeid.classifier import load_model
    from algaeid.features import assemble
    trained = load_model(model)
    expected = trained.predict_features(assemble(fvs, trained.variant))
    got = [int(line.split(",")[1]) for line in lines[1:]]
    assert got == list(expected)


def test_classify_stack_dir(pipeline):
    root = pipeline["root"]
    model = root / "model_dir.json"
    assert main(["train", str(pipeline["csv"]), "--variant", "both11",
                 "--config", str(pipeline["config"]), "--out", str(model)]) == 0
    out = root / "pred_stack.csv"
    assert main(["classify", str(model), str(pipeline["corrected"] / "scene_000"),
                 "--config", str(pipeline["config"]), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 8  # header + 7 organisms


def test_mccv_report(pipeline):
    root = pipeline["root"]
    out = root / "eval"
    assert main(["mccv", str(pipeline["csv"]), "--config", str(pipeline["config"]),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert set(doc["variants"]) == {"morph", "spectral", "both11"}
    assert len(doc["ttests"]) == 3
    assert doc["config"]["mccv"]["runs"] == 3
    assert "config_sha256" in doc
    for v in doc["variants"].values():
        assert len(v["accuracies"]) == 3
        assert len(v["per_run_confusions"]) == 3
    text = (out / "report.txt").read_text()
    assert "3 runs" in text and "70/30" in text


def test_mccv_echoes_runs_and_split(pipeline, capsys):
    root = pipeline["root"]
    out = root / "eval20"
    assert main(["mccv", str(pipeline["csv"]), "--config", str(pipeline["config"]),
                 "--runs", "20", "--variants", "spectral", "--out", str(out)]) == 0
    text = (out / "report.txt").read_text()
    assert "20 runs" in text
    assert "70/30" in text
    doc = json.loads((out / "report.json").read_text())
    assert doc["variants"]["spectral"]["runs"] == 20


@pytest.mark.parametrize("command,value", [("train", "nan"), ("mccv", "inf")])
def test_non_finite_feature_rejected(pipeline, tmp_path, capsys, command, value):
    lines = pipeline["csv"].read_text(encoding="utf-8").splitlines()
    column = lines[0].split(",").index("em450")
    row = lines[3].split(",")
    row[column] = value
    lines[3] = ",".join(row)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = {"train": ["--variant", "spectral", "--out", str(tmp_path / "m.json")],
            "mccv": ["--variants", "spectral", "--out", str(tmp_path / "eval")]}
    assert main([command, str(bad), "--config", str(pipeline["config"])]
                + args[command]) == 1
    err = capsys.readouterr().err
    assert f"{bad}: row 3 (line 4), column em450: non-finite value '{value}'" in err


def test_exit_code_validation_error(pipeline, tmp_path, capsys):
    # segment requires a corrected stack: feeding raw input fails validation
    code = main(["segment", str(pipeline["raw"]), "--config",
                 str(pipeline["config"]), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "role_tag" in capsys.readouterr().err

    code = main(["train", str(tmp_path / "missing.csv"), "--variant",
                 "spectral", "--out", str(tmp_path / "m.json")])
    assert code == 1

    code = main(["train", str(pipeline["csv"]), "--variant", "bogus",
                 "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_exit_code_io_error(pipeline, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    code = main(["synth", "--config", str(pipeline["config"]),
                 "--out", str(blocker / "sub")])
    assert code == 2


def test_bad_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"segmentation": {"fusion": "intersection"}}))
    code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "fusion" in capsys.readouterr().err

    cfg.write_text(json.dumps({"unknown_section": {}}))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("doc,message", [
    ({"correction": {"gausian_sigma_px": 2.0}},
     "unknown config keys ['correction.gausian_sigma_px']"),
    ({"train": 5}, "config section train must be a JSON object"),
    (5, "config must be a JSON object"),
    ({"correction": {"clamp_negative": False}},
     "unknown config keys ['correction.clamp_negative']"),
    ({"train": {"epochs": 0}}, "invalid train config: epochs must be >= 1"),
    ({"train": {"epochs": "abc"}},
     "invalid train config: epochs must be a number, got 'abc'"),
], ids=["unknown-key", "section-not-object", "config-not-object",
        "removed-clamp-knob", "value-out-of-range", "value-not-a-number"])
def test_config_keys_and_sections_checked(tmp_path, capsys, doc, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"


def _band_subset(src, dst, bands, names=None):
    """Copy of a feature CSV keeping the em columns of `bands`, renamed to
    the wavelengths `names` when given."""
    rows = [line.split(",") for line in src.read_text(encoding="utf-8").splitlines()]
    cols = list(range(7)) + [rows[0].index(f"em{b}") for b in bands]
    rows = [[row[c] for c in cols] for row in rows]
    rows[0][7:] = [f"em{b}" for b in (names or bands)]
    dst.write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8")
    return dst


def test_variants_fit_any_band_count(pipeline, tmp_path):
    csv = _band_subset(pipeline["csv"], tmp_path / "four.csv", (405, 450, 500, 530))
    config = str(pipeline["config"])
    model = tmp_path / "model.json"
    assert main(["train", str(csv), "--variant", "spectral", "--config", config,
                 "--out", str(model)]) == 0
    assert json.loads(model.read_text())["layer_sizes"][0] == 4
    out = tmp_path / "eval"
    assert main(["mccv", str(csv), "--variants", "spectral,both11", "--runs", "2",
                 "--config", config, "--out", str(out)]) == 0
    assert set(json.loads((out / "report.json").read_text())["variants"]) == {
        "spectral", "both11"}


@pytest.mark.parametrize("bands,names", [
    ((405, 450, 500, 530), None),
    ((405, 420, 450, 470, 500, 530), (400, 420, 450, 470, 500, 530)),
], ids=["fewer-bands", "other-wavelengths"])
def test_classify_checks_feature_columns(pipeline, tmp_path, capsys, bands, names):
    config = str(pipeline["config"])
    model = tmp_path / "model.json"
    assert main(["train", str(pipeline["csv"]), "--variant", "both11", "--config", config,
                 "--out", str(model)]) == 0
    csv = _band_subset(pipeline["csv"], tmp_path / "other.csv", bands, names)
    out = tmp_path / "pred.csv"
    assert main(["classify", str(model), str(csv), "--config", config,
                 "--out", str(out)]) == 1
    assert not out.exists()
    shape = ["area", "convex_area", "eccentricity", "equivalent_diameter", "extent"]
    given = shape + [f"em{b}" for b in (names or bands)]
    trained = shape + ["em405", "em420", "em450", "em470", "em500", "em530"]
    assert capsys.readouterr().err == (
        f"error: {csv}: input features {given} do not match the model's {trained}\n")
