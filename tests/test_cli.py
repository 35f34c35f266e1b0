import ast
import concurrent.futures
import csv
import hashlib
import json
import multiprocessing
import os
import pathlib
import re
import shutil
import weakref

import numpy as np
import pytest

from algaeid import classifier, cli, evaluation, segmentation, stack_io, synthgen
from algaeid.cli import DEFAULT_CONFIG, config_hash, load_config, main
from algaeid.features import read_features_csv
from algaeid.stack_io import load_stack, read_json_object


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
    assert main(["correct", str(raw), "--out", str(corrected)]) == 0
    assert main(["segment", str(corrected), "--out", str(segmented)]) == 0
    assert main(["features", str(corrected), str(segmented), "--truth", str(raw),
                 "--out", str(csv)]) == 0
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


def test_synth_writes_each_scene_before_rendering_the_next(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": {"scenes": 3, "width": 48, "height": 48,
                                            "organisms_per_scene": 2}}), encoding="utf-8")
    out = tmp_path / "raw"
    on_disk, alive, rendered, render = [], [], [], synthgen.generate_scene

    def spy(spec, catalog):
        on_disk.append(sorted(p.parent.name for p in out.glob("scene_*/truth.json")))
        alive.append(sum(ref() is not None for ref in rendered))
        scene = render(spec, catalog)
        rendered.append(weakref.ref(scene))
        return scene

    monkeypatch.setattr(synthgen, "generate_scene", spy)
    assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
    assert on_disk == [[], ["scene_000"], ["scene_000", "scene_001"]]
    assert alive == [0, 0, 0]  # no earlier scene is held while the next renders
    assert sorted(os.listdir(out)) == ["scene_000", "scene_001", "scene_002"]


def test_correct_outputs(pipeline):
    stack = load_stack(pipeline["corrected"] / "scene_000")
    assert stack.role_tag == "corrected"
    manifest = json.loads(
        (pipeline["corrected"] / "scene_000" / "stack.json").read_text())
    # the image stages read no config, so their outputs record none
    assert set(manifest) == {"wavelengths_nm", "pixel_pitch_um", "band_filenames", "role_tag"}


def test_segment_outputs(pipeline):
    seg = pipeline["segmented"] / "scene_000"
    doc = json.loads((seg / "organisms.json").read_text())
    assert doc["component_count"] >= len(doc["organisms"]) >= 1
    assert len(doc["thresholds"]) == 6
    assert set(doc) == {"thresholds", "component_count", "organisms"}
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
    assert set(meta) == {"class_names", "wavelengths_nm", "rows"}


@pytest.mark.parametrize("tree,manifest,key,value", [
    ("corrected", "stack.json", "wavelengths_nm", [400.0, 420.0, 450.0, 470.0, 500.0, 530.0]),
    ("raw", "truth.json", "class_names", ["a", "b", "c", "d", "e", "f"]),
], ids=["wavelengths", "class-names"])
def test_features_rejects_scenes_that_disagree(pipeline, tmp_path, capsys,
                                              tree, manifest, key, value):
    trees = {name: pipeline[name] for name in ("corrected", "segmented", "raw")}
    trees[tree] = shutil.copytree(pipeline[tree], tmp_path / tree)
    path = trees[tree] / "scene_001" / manifest
    doc = json.loads(path.read_text())
    first = doc[key]
    doc[key] = value
    path.write_text(json.dumps(doc))
    out = tmp_path / "features.csv"
    assert main(["features", str(trees["corrected"]), str(trees["segmented"]),
                 "--truth", str(trees["raw"]), "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"error: {trees[tree] / 'scene_001'}: {key} {value} differ from the first "
        f"scene's {first}\n")


@pytest.mark.parametrize("edit,problem", [
    (lambda doc: doc["organisms"].pop(0), "truth.pgm id 1 has no record in truth.json"),
    (lambda doc: doc.pop("class_names"), "truth.json has no key 'class_names'"),
], ids=["missing-record", "missing-class-names"])
def test_features_rejects_truth_files_that_disagree(pipeline, tmp_path, capsys,
                                                    edit, problem):
    raw = shutil.copytree(pipeline["raw"], tmp_path / "raw")
    path = raw / "scene_000" / "truth.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    out = tmp_path / "features.csv"
    assert main(["features", str(pipeline["corrected"]), str(pipeline["segmented"]),
                 "--truth", str(raw), "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {raw / 'scene_000'}: {problem}\n"


@pytest.mark.parametrize("resize", [
    lambda labels: np.pad(labels, ((0, 16), (0, 9))),
    lambda labels: labels[:100, :90],
], ids=["larger", "smaller"])
def test_features_rejects_truth_map_of_another_size(pipeline, tmp_path, capsys, resize):
    # a truth map of another size belongs to another scene
    raw = shutil.copytree(pipeline["raw"], tmp_path / "raw")
    path = raw / "scene_001" / "truth.pgm"
    labels = resize(stack_io.read_pgm(path))
    segmentation.labelmap_to_pgm(segmentation.LabelMap(labels), path)
    out = tmp_path / "features.csv"
    assert main(["features", str(pipeline["corrected"]), str(pipeline["segmented"]),
                 "--truth", str(raw), "--out", str(out)]) == 1
    assert not out.exists()
    h, w = labels.shape
    assert capsys.readouterr().err == (
        f"error: {raw / 'scene_001'}: truth map {h}x{w} does not match stack 120x120\n")


@pytest.mark.parametrize("resize", [
    lambda labels: np.pad(labels, ((0, 16), (0, 9))),
    lambda labels: labels[:100, :90],
], ids=["larger", "smaller"])
def test_features_rejects_label_map_of_another_size(pipeline, tmp_path, capsys, resize):
    # the error names the label map, so the failing scene is known
    segmented = shutil.copytree(pipeline["segmented"], tmp_path / "segmented")
    path = segmented / "scene_001" / "labels.pgm"
    labels = resize(stack_io.read_pgm(path))
    segmentation.labelmap_to_pgm(segmentation.LabelMap(labels), path)
    out = tmp_path / "features.csv"
    assert main(["features", str(pipeline["corrected"]), str(segmented), "--out", str(out)]) == 1
    assert not out.exists()
    h, w = labels.shape
    assert capsys.readouterr().err == (
        f"error: {path}: label map {h}x{w} does not match stack 120x120\n")


def test_scene_name_with_comma(pipeline, tmp_path):
    # a scene's name starts each of its organism ids, so the feature and
    # prediction files quote it
    trees = {}
    for tree in ("corrected", "segmented", "raw"):
        trees[tree] = shutil.copytree(pipeline[tree], tmp_path / tree)
        (trees[tree] / "scene_001").rename(trees[tree] / "scene,001")
    cfg = ["--config", str(pipeline["config"])]
    features, model, pred = (tmp_path / name for name in ("f.csv", "model.json", "pred.csv"))
    assert main(["features", str(trees["corrected"]), str(trees["segmented"]),
                 "--truth", str(trees["raw"]), "--out", str(features)]) == 0
    assert main(["train", str(features), "--variant", "spectral", *cfg,
                 "--out", str(model)]) == 0
    assert main(["classify", str(model), str(features), "--out", str(pred)]) == 0
    fvs, _ = read_features_csv(features)
    ids = [fv.organism_id for fv in fvs]
    assert sorted({i.split(":")[0] for i in ids}) == ["scene,001", "scene_000"]
    with open(pred, encoding="utf-8", newline="") as fh:
        assert [row[0] for row in csv.reader(fh)] == ["organism_id", *ids]


def test_scene_name_with_carriage_return(pipeline, tmp_path, capsys):
    # the CSV writer leaves a carriage return unquoted and the reader would
    # end the row there, so `features` refuses the id and writes nothing
    trees = {}
    for tree in ("corrected", "segmented", "raw"):
        trees[tree] = shutil.copytree(pipeline[tree], tmp_path / tree)
        (trees[tree] / "scene_001").rename(trees[tree] / "scene\r001")
    out = tmp_path / "f.csv"
    assert main(["features", str(trees["corrected"]), str(trees["segmented"]),
                 "--truth", str(trees["raw"]), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {out}: CSV field 'scene\\r001:1' holds a carriage return\n")
    assert not out.exists() and not (tmp_path / "f.csv.meta.json").exists()


def test_every_json_output_reads_back(pipeline, tmp_path):
    # each JSON file a stage writes goes back through the one JSON reader
    cfg = ["--config", str(pipeline["config"])]
    assert main(["train", str(pipeline["csv"]), "--variant", "morph", *cfg,
                 "--out", str(tmp_path / "model.json")]) == 0
    assert main(["classify", str(tmp_path / "model.json"), str(pipeline["csv"]),
                 "--out", str(tmp_path / "pred.csv")]) == 0
    assert main(["mccv", str(pipeline["csv"]), "--variants", "morph,spectral", *cfg,
                 "--out", str(tmp_path / "eval")]) == 0
    written = sorted(pipeline["root"].rglob("*.json")) + sorted(tmp_path.rglob("*.json"))
    names = {p.name for p in written}
    assert {"stack.json", "truth.json", "organisms.json", "features.csv.meta.json",
            "model.json", "pred.csv.meta.json", "report.json"} <= names
    for path in written:
        assert isinstance(read_json_object(path, "output"), dict)


def test_features_rerun_byte_identical(pipeline):
    out2 = pipeline["root"] / "features2.csv"
    assert main(["features", str(pipeline["corrected"]), str(pipeline["segmented"]),
                 "--truth", str(pipeline["raw"]), "--out", str(out2)]) == 0
    assert out2.read_bytes() == pipeline["csv"].read_bytes()


def test_features_rows_are_the_organisms_segment_kept(pipeline):
    # segment and features apply one area filter: per scene, the feature
    # rows are exactly the organisms that organisms.json lists, in order
    fvs, _ = read_features_csv(pipeline["csv"])
    rows = [(fv.organism_id, fv.area) for fv in fvs]
    kept = []
    for scene in sorted(os.listdir(pipeline["segmented"])):
        doc = json.loads((pipeline["segmented"] / scene / "organisms.json").read_text())
        kept += [(f"{scene}:{rec['id']}", rec["area"]) for rec in doc["organisms"]]
    assert rows == kept


@pytest.mark.parametrize("argv,flag,section,key,report", [
    (["synth"], "--seed", "synth", "master_seed", "scene_000/truth.json"),
    (["synth"], "--scenes", "synth", "scenes", "scene_000/truth.json"),
    (["train", "CSV", "--variant", "morph"], "--seed", "train", "seed", ""),
    (["mccv", "CSV", "--variants", "morph"], "--runs", "mccv", "runs", "report.json"),
    (["mccv", "CSV", "--variants", "morph"], "--seed", "mccv", "master_seed", "report.json"),
], ids=["synth-seed", "synth-scenes", "train-seed", "mccv-runs", "mccv-seed"])
def test_override_flag_reaches_config(pipeline, tmp_path, argv, flag, section, key, report):
    # each override flag sets one config key: it reaches the output's
    # config_sha256, and the config that report.json records
    config = str(pipeline["config"])
    argv = [str(pipeline["csv"]) if arg == "CSV" else arg for arg in argv]
    digests = []
    for value in (2, 3):
        out = tmp_path / f"out{value}"
        assert main([*argv, flag, str(value), "--config", config, "--out", str(out)]) == 0
        doc = json.loads((out / report).read_text() if report else out.read_text())
        assert doc["config_sha256"] == config_hash(load_config(config, **{section: {key: value}}))
        if "config" in doc:
            assert doc["config"][section][key] == value
        digests.append(doc["config_sha256"])
    assert digests[0] != digests[1]


def test_calls_in_one_process_share_no_state(tmp_path, capsys):
    # one parser serves every call of the process: a flag given to one call,
    # a call that exits 1 and a call argparse rejects leave nothing behind
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": {"scenes": 1, "width": 40, "height": 40,
                                            "organisms_per_scene": 2}}), encoding="utf-8")

    def synth(out, *flags):
        return main(["synth", *flags, "--config", str(config), "--out", str(tmp_path / out)])

    def written(out):
        return {name: (tmp_path / out / "scene_000" / name).read_bytes()
                for name in ("stack.json", "band_00.pgm", "truth.json")}

    assert synth("seeded", "--seed", "7") == 0
    assert synth("plain") == 0
    assert synth("no-scenes", "--scenes", "0") == 1
    with pytest.raises(SystemExit):
        synth("unknown-flag", "--frames", "3")
    assert synth("again") == 0
    digest = config_hash(load_config(str(config)))
    for out in ("plain", "again"):
        assert json.loads(written(out)["truth.json"])["config_sha256"] == digest
    assert written("again") == written("plain")
    assert written("seeded")["band_00.pgm"] != written("plain")["band_00.pgm"]
    assert sorted(os.listdir(tmp_path)) == ["again", "config.json", "plain", "seeded"]
    assert cli._parser() is cli._parser()


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
        assert main(["classify", str(model), str(pipeline["csv"]), "--out", str(out)]) == 0
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
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 8  # header + 7 organisms


def test_classify_stack_dir_matches_its_feature_csv(pipeline, tmp_path):
    # `classify` on a loaded uint16 stack segments and featurizes it as
    # `segment` and `features` do, so both inputs give the same bytes
    scene = pipeline["corrected"] / "scene_000"
    model, seg, csv = tmp_path / "model.json", tmp_path / "seg", tmp_path / "f.csv"
    cfg = ["--config", str(pipeline["config"])]
    assert main(["train", str(pipeline["csv"]), "--variant", "both11", *cfg,
                 "--out", str(model)]) == 0
    assert main(["segment", str(scene), "--out", str(seg)]) == 0
    assert main(["features", str(scene), str(seg), "--out", str(csv)]) == 0
    outs = [tmp_path / "from_stack.csv", tmp_path / "from_csv.csv"]
    for source, out in zip((scene, csv), outs):
        assert main(["classify", str(model), str(source), "--out", str(out)]) == 0
    assert load_stack(scene).bands[0].dtype == np.uint16
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert len(outs[0].read_text().splitlines()) == 8


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


def test_mccv_outputs_independent_of_worker_count(pipeline, tmp_path, monkeypatch):
    # the runs of all variants are split over min(total runs, usable CPUs)
    # worker processes; the count must not reach any output
    reports = []
    for cpus in (1, 3):
        monkeypatch.setattr(stack_io, "usable_cpus", lambda: cpus)
        out = tmp_path / f"eval{cpus}"
        assert main(["mccv", str(pipeline["csv"]), "--config", str(pipeline["config"]),
                     "--runs", "5", "--out", str(out)]) == 0
        reports.append([(out / name).read_bytes() for name in ("report.json", "report.txt")])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command,variants,cpus", [
    pytest.param("train", "spectral", 3, id="train"),
    pytest.param("mccv", "spectral", 3, id="mccv"),
    pytest.param("mccv", "morph,spectral", 1, id="mccv-two-variants-1cpu"),
    pytest.param("mccv", "morph,spectral", 3, id="mccv-two-variants-3cpus"),
])
def test_diverged_training_rejected(pipeline, tmp_path, capsys, monkeypatch, command,
                                    variants, cpus):
    # on the pipeline's 14 rows a learning rate of 1e6 drives the weights to
    # about 1e122 but leaves them finite; 1e300 overflows them
    doc = json.loads(pipeline["config"].read_text(encoding="utf-8"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**doc, "train": {**doc["train"], "learning_rate": 1e300}}),
                      encoding="utf-8")
    shutdowns = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def shutdown(self, wait=True, **kwargs):
            shutdowns.append(wait)
            super().shutdown(wait, **kwargs)

    # on 3 CPUs the mccv runs train in forked workers, and the error is raised
    # in one; 6 runs make chunks of 2, so one chunk straddles the two variants
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(stack_io, "usable_cpus", lambda: cpus)
    out = tmp_path / "out"
    args = {"train": ["--variant", variants], "mccv": ["--variants", variants]}
    assert main([command, str(pipeline["csv"]), *args[command], "--config", str(config),
                 "--out", str(out)]) == 1
    # the first diverged run in run order is named, here the first
    # variant's first run; the other variants' first runs share its seed
    seed = 0 if command == "train" else evaluation._run_seeds(doc["mccv"]["master_seed"], 0)[1]
    first = variants.split(",")[0]
    assert re.fullmatch(rf"error: training {first} with seed {seed} diverged: "
                        r"layer \d: non-finite parameters\n", capsys.readouterr().err)
    assert not out.exists()
    assert shutdowns == ([True] if command == "mccv" and cpus > 1 else [])
    assert multiprocessing.active_children() == []


def test_mccv_trains_every_variant_in_one_call(pipeline, tmp_path, monkeypatch, pools):
    # all variants' runs train in one lockstep, chunked over one pool
    calls = []
    train_runs = classifier.train_runs

    def counted(x, *args, **kwargs):
        calls.append([len(a[0]) for a in x])
        return train_runs(x, *args, **kwargs)

    monkeypatch.setattr(classifier, "train_runs", counted)
    monkeypatch.setattr(stack_io, "usable_cpus", lambda: 2)
    assert main(["mccv", str(pipeline["csv"]), "--config", str(pipeline["config"]),
                 "--variants", "morph,spectral,both11", "--out", str(tmp_path / "eval")]) == 0
    assert calls == [[5] * 3 + [6] * 3 + [11] * 3]
    assert pools == [2]


def test_mccv_rejects_duplicate_variant(pipeline, tmp_path, capsys):
    out = tmp_path / "eval"
    assert main(["mccv", str(pipeline["csv"]), "--config", str(pipeline["config"]),
                 "--variants", "morph, spectral,morph", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: duplicate variant 'morph'\n"
    assert not out.exists()


@pytest.mark.parametrize("batch_size", [10, 11])
def test_mccv_checks_batch_size_against_training_split(pipeline, tmp_path, capsys,
                                                       monkeypatch, batch_size):
    # the pipeline's 14 labelled rows give training splits of round(0.7 * 14)
    # = 10 rows: a batch of 10 trains, and one of 11 is rejected before any
    # training, naming the split and the config key
    assert len(pipeline["csv"].read_text(encoding="utf-8").splitlines()) == 15
    doc = json.loads(pipeline["config"].read_text(encoding="utf-8"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**doc, "train": {**doc["train"], "batch_size": batch_size}}),
                      encoding="utf-8")
    calls = []
    train_runs = classifier.train_runs
    monkeypatch.setattr(classifier, "train_runs",
                        lambda *args, **kwargs: calls.append(1) or train_runs(*args, **kwargs))
    out = tmp_path / "eval"
    code = main(["mccv", str(pipeline["csv"]), "--config", str(config), "--runs", "2",
                 "--variants", "spectral", "--out", str(out)])
    if batch_size == 10:
        assert code == 0 and calls == [1]
        return
    assert code == 1 and calls == []
    assert capsys.readouterr().err == (
        "error: train.batch_size 11 exceeds the 10 rows of each MCCV training split "
        "(round(0.7 * 14) of 14 labelled rows)\n")
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["train", "mccv"])
def test_label_without_class_name_rejected(pipeline, tmp_path, capsys, command):
    lines = pipeline["csv"].read_text(encoding="utf-8").splitlines()
    row = lines[3].split(",")
    row[1] = "7"  # the meta file names 6 classes, 0-5
    lines[3] = ",".join(row)
    csv = tmp_path / "features.csv"
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    meta = tmp_path / "features.csv.meta.json"
    shutil.copy(pipeline["root"] / "features.csv.meta.json", meta)
    out = tmp_path / "out"
    args = {"train": ["--variant", "morph"], "mccv": ["--variants", "morph"]}
    assert main([command, str(csv), *args[command], "--config", str(pipeline["config"]),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {csv}: label 7 has no class name in {meta}, which names 6 classes\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "mccv"])
def test_label_beyond_row_count_rejected(pipeline, tmp_path, capsys, command):
    # without a meta file naming classes, a label at or above the number of
    # labelled rows would set the class count
    lines = pipeline["csv"].read_text(encoding="utf-8").splitlines()
    row = lines[3].split(",")
    row[1] = "40"  # among 14 rows
    lines[3] = ",".join(row)
    csv = tmp_path / "features.csv"
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    args = {"train": ["--variant", "morph"], "mccv": ["--variants", "morph"]}
    assert main([command, str(csv), *args[command], "--config", str(pipeline["config"]),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {csv}: label 40 is not below its 14 labeled rows, "
        f"and {csv}.meta.json names no classes\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "mccv"])
def test_label_beyond_int64_rejected(pipeline, tmp_path, capsys, command):
    # without a meta file naming classes, the labels alone set the class ids
    lines = pipeline["csv"].read_text(encoding="utf-8").splitlines()
    row = lines[3].split(",")
    row[1] = "100000000000000000000"
    lines[3] = ",".join(row)
    csv = tmp_path / "features.csv"
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    args = {"train": ["--variant", "morph"], "mccv": ["--variants", "morph"]}
    assert main([command, str(csv), *args[command], "--config", str(pipeline["config"]),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {csv}: row 3 (line 4), column label: "
        "label '100000000000000000000' too large for int64\n")
    assert not out.exists()


@pytest.mark.parametrize("side,text,problem", [
    ("meta", '{"class_names": oops}',
     "invalid feature meta JSON: Expecting value: line 1 column 17 (char 16)"),
    ("meta", '["a", "b"]', "feature meta must be a JSON object"),
    ("meta", '{"class_names": "abc"}', "class_names must be a list of strings, got 'abc'"),
    ("meta", '{"class_names": ["a", 3, null]}',
     "class_names must be a list of strings, got ['a', 3, None]"),
    ("truth", '[{"class_names": []}]', "ground truth must be a JSON object"),
    ("truth", '{"class_names": "abcdef", "organisms": []}',
     "class_names must be a list of strings, got 'abcdef'"),
    ("truth", '{"class_names": [], "organisms": [1, 2]}',
     "organisms must be a list of objects"),
], ids=["meta-invalid-json", "meta-array", "meta-class-names-string",
        "meta-class-names-mixed", "truth-array", "truth-class-names-string",
        "truth-organisms-not-objects"])
def test_side_files_checked(pipeline, tmp_path, capsys, side, text, problem):
    # the feature meta file and truth.json are read like the config: each
    # must be a JSON object, and its class_names a list of strings
    out = tmp_path / "out"
    if side == "meta":
        csv = shutil.copy(pipeline["csv"], tmp_path / "features.csv")
        path = tmp_path / "features.csv.meta.json"
        argv = ["train", str(csv), "--variant", "morph", "--config", str(pipeline["config"])]
    else:
        raw = shutil.copytree(pipeline["raw"], tmp_path / "raw")
        path = raw / "scene_000" / "truth.json"
        argv = ["features", str(pipeline["corrected"]), str(pipeline["segmented"]),
                "--truth", str(raw)]
    path.write_text(text, encoding="utf-8")
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {problem}\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def model_doc(pipeline, tmp_path_factory):
    """The JSON document of a spectral model trained on the pipeline's features."""
    model = tmp_path_factory.mktemp("model") / "model.json"
    assert main(["train", str(pipeline["csv"]), "--variant", "spectral",
                 "--config", str(pipeline["config"]), "--out", str(model)]) == 0
    return json.loads(model.read_text(encoding="utf-8"))


def _set(key, value):
    return lambda doc: {**doc, key: value}


def _set_entry(value, *keys):
    """An edit that sets the entry of the document at `keys` (keys and
    indices, outermost first) to `value`, in a copy."""
    def edit(doc):
        doc = json.loads(json.dumps(doc))
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return doc
    return edit


def _set_normalizer(key, edit):
    return lambda doc: {**doc, "normalizer": {**doc["normalizer"],
                                              key: edit(doc["normalizer"][key])}}


@pytest.mark.parametrize("edit,problem", [
    ("[1, 2]", "model must be a JSON object"),
    ('{"schema_version": 1,', "invalid model JSON: Expecting property name enclosed in "
     "double quotes: line 1 column 22 (char 21)"),
    ('{"schema_version": 1, "weights": [[NaN]]}', "invalid model JSON: NaN is not a number"),
    (_set("class_names", "abc"), "class_names must be a list of strings, got 'abc'"),
    (_set("class_names", ["a", 3, None]),
     "class_names must be a list of strings, got ['a', 3, None]"),
    (_set("class_names", ["a"]), "1 class_names for the network's 6 outputs"),
    (_set("feature_names", ["em405"]), "1 feature_names for the network's 6 inputs"),
    (_set("normalizer", [1, 2]), "normalizer must be a JSON object, got [1, 2]"),
    (_set("normalizer", None), "normalizer must be a JSON object, got None"),
    (lambda doc: {k: v for k, v in doc.items() if k != "normalizer"},
     "model file has no key 'normalizer'"),
    (_set_normalizer("std", lambda std: [0.0] + std[1:]),
     "normalizer must hold one finite mean, finite positive std and constant flag "
     "per network input (6)"),
    (_set_normalizer("mean", lambda mean: mean[1:]),
     "normalizer must hold one finite mean, finite positive std and constant flag "
     "per network input (6)"),
    (_set("layer_sizes", "ab"), "layer_sizes must be a number, got 'a'"),
    (_set("layer_sizes", [6, 12, 8, 6, 7]),
     "layer_sizes [6, 12, 8, 6, 7] != the weights' [6, 12, 8, 6, 6]"),
    (_set_entry("0.5", "weights", 0, 0, 0), "layer 0 weights must hold only numbers, got '0.5'"),
    (_set_entry(True, "weights", 1, 2, 3), "layer 1 weights must hold only numbers, got True"),
    (_set_entry(10 ** 400, "weights", 2, 1, 0),
     "layer 2 weights holds a number too large for a float"),
    (_set_entry(None, "biases", 3, 0), "layer 3 biases must hold only numbers, got None"),
    (_set_entry("1", "normalizer", "mean", 0), "normalizer mean must hold only numbers, got '1'"),
    (_set_entry(True, "normalizer", "std", 5), "normalizer std must hold only numbers, got True"),
    (_set_normalizer("constant", lambda flags: ["x"] * len(flags)),
     "normalizer constant must hold only booleans, got 'x'"),
    (_set_entry(0, "normalizer", "constant", 2),
     "normalizer constant must hold only booleans, got 0"),
], ids=["array", "invalid-json", "nan", "class-names-string", "class-names-mixed",
        "class-names-short", "feature-names-short", "normalizer-list", "normalizer-null",
        "normalizer-missing", "normalizer-zero-std",
        "normalizer-short-mean", "layer-sizes-string", "layer-sizes-not-the-weights",
        "weights-string", "weights-bool", "weights-beyond-float", "biases-null",
        "normalizer-mean-string", "normalizer-std-bool", "normalizer-constant-string",
        "normalizer-constant-number"])
def test_model_file_checked(pipeline, model_doc, tmp_path, capsys, edit, problem):
    model = tmp_path / "model.json"
    text = edit if isinstance(edit, str) else json.dumps(edit(model_doc))
    model.write_text(text, encoding="utf-8")
    out = tmp_path / "pred.csv"
    assert main(["classify", str(model), str(pipeline["csv"]), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {model}: {problem}\n"
    assert not out.exists()


def test_classify_missing_model(pipeline, tmp_path, capsys):
    model = tmp_path / "none.json"
    assert main(["classify", str(model), str(pipeline["csv"]),
                 "--out", str(tmp_path / "pred.csv")]) == 1
    assert capsys.readouterr().err == f"error: model file not found: {model}\n"


def _edit_manifests(pipeline, tmp_path, edit, scenes=("scene_000",)):
    """A copy of the corrected tree with `edit` applied to the manifest
    document of each of `scenes`, written back as JSON text (NaN and
    Infinity included)."""
    corrected = shutil.copytree(pipeline["corrected"], tmp_path / "corrected")
    for scene in scenes:
        path = corrected / scene / "stack.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))), encoding="utf-8")
    return corrected


def _set_wavelength(index, value):
    return lambda doc: {**doc, "wavelengths_nm": [
        value if i == index else w for i, w in enumerate(doc["wavelengths_nm"])]}


@pytest.mark.parametrize("edit,problem", [
    (_set_wavelength(0, float("nan")), "invalid manifest JSON: NaN is not a number"),
    (_set_wavelength(5, float("inf")), "invalid manifest JSON: Infinity is not a number"),
    (_set_wavelength(0, True), "wavelengths_nm must be a number, got True"),
    (_set_wavelength(0, "405"), "wavelengths_nm must be a number, got '405'"),
    (_set_wavelength(2, 10 ** 400), "wavelengths_nm is too large for a float"),
    (_set("wavelengths_nm", 405), "wavelengths_nm must be a list of numbers, got 405"),
    (_set("band_filenames", "band_00.pgm"),
     "band_filenames must be a list of strings, got 'band_00.pgm'"),
    (_set("pixel_pitch_um", None), "pixel_pitch_um must be a number, got None"),
    (lambda doc: {**doc, "wavelengths_nm": doc["wavelengths_nm"][:5]},
     "5 wavelengths for 6 bands"),
    (_set_wavelength(1, 405.0),
     "wavelengths_nm must be strictly increasing, got (405.0, 405.0, 450.0, 470.0, 500.0, 530.0)"),
    (_set("role_tag", "bogus"),
     "role_tag must be one of ('raw', 'background', 'corrected'), got 'bogus'"),
], ids=["nan", "infinity", "true", "string", "beyond-float", "not-a-list",
        "band-filenames-string",
        "pitch-null", "wavelength-count", "wavelengths-not-increasing", "role-tag-unknown"])
def test_manifest_fields_checked(pipeline, tmp_path, capsys, edit, problem):
    corrected = _edit_manifests(pipeline, tmp_path, edit)
    out = tmp_path / "features.csv"
    assert main(["features", str(corrected), str(pipeline["segmented"]), "--out", str(out)]) == 1
    manifest = corrected / "scene_000" / "stack.json"
    assert capsys.readouterr().err == f"error: {manifest}: {problem}\n"
    assert not out.exists()


def test_features_rejects_fractional_wavelength(pipeline, tmp_path, capsys):
    # em405 would name both bands, and every reader rejects a repeated column
    corrected = _edit_manifests(
        pipeline, tmp_path,
        lambda doc: {**doc, "wavelengths_nm": [405.2, 405.7] + doc["wavelengths_nm"][2:]},
        scenes=("scene_000", "scene_001"))
    out = tmp_path / "features.csv"
    assert main(["features", str(corrected), str(pipeline["segmented"]), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {corrected / 'scene_000' / 'stack.json'}: wavelength 405.2 nm is not a "
        "whole number of nm, so no feature column can name it\n")
    assert not out.exists()


def test_classify_stack_rejects_fractional_wavelength(pipeline, model_doc, tmp_path, capsys,
                                                      monkeypatch):
    # the stack's manifest is named, and the stack is not segmented first
    def segment(*args, **kwargs):
        raise AssertionError("segmented before the feature names were checked")

    monkeypatch.setattr(segmentation, "segment", segment)
    corrected = _edit_manifests(
        pipeline, tmp_path,
        lambda doc: {**doc, "wavelengths_nm": [405.2] + doc["wavelengths_nm"][1:]})
    model = tmp_path / "model.json"
    model.write_text(json.dumps(model_doc), encoding="utf-8")
    out = tmp_path / "pred.csv"
    assert main(["classify", str(model), str(corrected / "scene_000"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {corrected / 'scene_000' / 'stack.json'}: wavelength 405.2 nm is not a "
        "whole number of nm, so no feature column can name it\n")
    assert not out.exists()


def test_classify_meta_names_the_model_by_content(pipeline, model_doc, tmp_path, monkeypatch):
    # the meta file records the model file's SHA-256, not its path, so its
    # bytes do not depend on where the model lies or where classify runs
    model = tmp_path / "models" / "model.json"
    model.parent.mkdir()
    model.write_text(json.dumps(model_doc), encoding="utf-8")
    shutil.copy(model, tmp_path / "copy.json")
    monkeypatch.chdir(tmp_path)
    metas = []
    for source, out in ((str(model), "a.csv"), ("copy.json", "b.csv")):
        assert main(["classify", source, str(pipeline["csv"]), "--out", out]) == 0
        metas.append((tmp_path / f"{out}.meta.json").read_bytes())
    assert metas[0] == metas[1]
    assert json.loads(metas[0]) == {
        "rows": 14, "model_sha256": hashlib.sha256(model.read_bytes()).hexdigest()}


COMMANDS = {  # each command's positional arguments, and whether it reads a config section
    "synth": ([], True),
    "correct": (["raw"], False),
    "segment": (["corrected"], False),
    "features": (["corrected", "segmented"], False),
    "train": (["features.csv", "--variant", "morph"], True),
    "mccv": (["features.csv"], True),
    "classify": (["model.json", "features.csv"], False),
}


def test_config_is_taken_by_exactly_the_commands_that_read_it(tmp_path, capsys):
    # synth, train and mccv read a section; an image stage reads none, so
    # --config is a usage error there, like any flag it does not define (and
    # no config can give features an area filter apart from segment's)
    assert "{%s}" % ",".join(COMMANDS) in cli.build_parser().format_usage()
    for command, (positionals, reads_config) in COMMANDS.items():
        argv = [command, *positionals, "--config", "c.json", "--out", str(tmp_path / "o")]
        if reads_config:
            assert cli.build_parser().parse_args(argv).config == "c.json"
            continue
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2, command
        err = capsys.readouterr().err
        assert err.startswith(f"usage: algaeid {command} [-h] --out OUT"), err
        assert err.endswith(
            f"\nalgaeid {command}: error: unrecognized arguments: --config c.json\n")
    assert list(tmp_path.iterdir()) == []


def test_exit_code_validation_error(pipeline, tmp_path, capsys):
    # segment requires a corrected stack: feeding raw input fails validation
    code = main(["segment", str(pipeline["raw"]), "--out", str(tmp_path / "x")])
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
    assert capsys.readouterr().err == f"error: {cfg}: unknown config sections ['segmentation']\n"

    cfg.write_text(json.dumps({"unknown_section": {}}))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("doc,message", [
    ({"train": {"learning_rat": 0.1}}, "unknown config keys ['train.learning_rat']"),
    ({"train": 5}, "config section train must be a JSON object"),
    (5, "config must be a JSON object"),
    # a file that sets a removed knob, to any value, is rejected naming its
    # section or key
    ({"correction": {"clamp_negative": False}}, "unknown config sections ['correction']"),
    ({"train": {"l2": 0.0}}, "unknown config keys ['train.l2']"),
    ({"mccv": {"train_fraction": 0.7}}, "unknown config keys ['mccv.train_fraction']"),
    ({"segmentation": {"num_bins": 256}}, "unknown config sections ['segmentation']"),
    ({"segmentation": {"min_area_px": 3.9}}, "unknown config sections ['segmentation']"),
    ({"correction": {"opening_radii_px": "48"}}, "unknown config sections ['correction']"),
    ({"correction": {"opening_radii_px": 8}}, "unknown config sections ['correction']"),
    ({"correction": {"opening_radii_px": [4.5, 8]}}, "unknown config sections ['correction']"),
    ({"correction": {"gaussian_sigma_px": True}}, "unknown config sections ['correction']"),
    ({"synth": {"background_level": 0.0}}, "unknown config keys ['synth.background_level']"),
    ({"synth": {"vignette_strength": 0.0}},
     "unknown config keys ['synth.vignette_strength']"),
    ({"synth": {"noise_sigma": True}}, "unknown config keys ['synth.noise_sigma']"),
    ({"train": {"epochs": 0}}, "invalid train config: epochs must be >= 1"),
    ({"train": {"epochs": "abc"}},
     "invalid train config: epochs must be a number, got 'abc'"),
    ({"train": {"learning_rate": float("inf")}},
     "invalid config JSON: Infinity is not a number"),
    ({"mccv": {"runs": float("nan")}}, "invalid config JSON: NaN is not a number"),
    ({"train": {"learning_rate": 10 ** 400}},
     "invalid train config: learning_rate is too large for a float"),
    ({"train": {"epochs": 2.7}}, "invalid train config: epochs must be an integer, got 2.7"),
    ({"train": {"batch_size": 8.5}},
     "invalid train config: batch_size must be an integer, got 8.5"),
    ({"train": {"seed": True}}, "invalid train config: seed must be a number, got True"),
    ({"train": {"learning_rate": True}},
     "invalid train config: learning_rate must be a number, got True"),
    ({"mccv": {"runs": "abc"}}, "invalid mccv config: runs must be a number, got 'abc'"),
    ({"mccv": {"runs": 2.5}}, "invalid mccv config: runs must be an integer, got 2.5"),
    ({"mccv": {"master_seed": None}},
     "invalid mccv config: master_seed must be a number, got None"),
    ({"synth": {"width": 100.7}}, "invalid synth config: width must be an integer, got 100.7"),
    ({"synth": {"width": "abc"}}, "invalid synth config: width must be a number, got 'abc'"),
    ({"synth": {"width": 4}}, "invalid synth config: scene must be at least 8x8"),
    ({"synth": {"height": 2 ** 31}}, "invalid synth config: scene must have at most "
     "16777216 pixels (2^24), got 192x2147483648"),
    ({"synth": {"organisms_per_scene": 2.5}},
     "invalid synth config: organisms_per_scene must be an integer, got 2.5"),
    ({"synth": {"master_seed": -1}},
     "invalid synth config: master_seed must be non-negative, got -1"),
    ({"mccv": {"master_seed": -1}},
     "invalid mccv config: master_seed must be non-negative, got -1"),
    ({"train": {"seed": -1}}, "invalid train config: seed must be non-negative, got -1"),
], ids=["unknown-key", "section-not-object", "config-not-object",
        "removed-clamp-knob", "removed-l2-knob", "removed-split-knob", "removed-bins-knob",
        "segmentation-min-area-fractional", "radii-string", "radii-number",
        "radii-fractional", "float-bool",
        "removed-background-knob", "removed-vignette-knob", "synth-noise-bool",
        "value-out-of-range", "value-not-a-number",
        "infinity", "nan", "float-beyond-range", "epochs-fractional", "batch-size-fractional",
        "seed-bool", "learning-rate-bool", "mccv-runs-string", "mccv-runs-fractional",
        "mccv-seed-null", "synth-width-fractional",
        "synth-width-string", "synth-width-too-small", "synth-height-too-large",
        "synth-organisms-fractional",
        "synth-seed-negative", "mccv-seed-negative",
        "train-seed-negative"])
def test_config_keys_and_sections_checked(tmp_path, capsys, doc, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"


def test_default_config_pinned():
    assert config_hash(load_config()) == (
        "a20b39663cf8d7a744fe978d622b0e07feec8b2fdca7355b1d9e20811a9f2dcb")
    assert {section: list(keys) for section, keys in DEFAULT_CONFIG.items()} == {
        "synth": ["scenes", "width", "height", "organisms_per_scene", "master_seed"],
        "train": ["learning_rate", "epochs", "batch_size", "seed"],
        "mccv": ["runs", "master_seed"],
    }


@pytest.mark.parametrize("argv,message", [
    (["synth", "--scenes", "1", "--seed", "-1"],
     "invalid synth config: master_seed must be non-negative, got -1"),
    (["mccv", "CSV", "--seed", "-1"],
     "invalid mccv config: master_seed must be non-negative, got -1"),
    (["train", "CSV", "--variant", "morph", "--seed", "-1"],
     "invalid train config: seed must be non-negative, got -1"),
], ids=["synth", "mccv", "train"])
def test_negative_seed_flag_rejected(pipeline, tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    argv = [str(pipeline["csv"]) if arg == "CSV" else arg for arg in argv]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("section,name", [
    (classifier.TrainConfig, "seed"), (evaluation.MccvConfig, "master_seed"),
    (synthgen.SynthConfig, "master_seed"), (synthgen.SceneSpec, "seed"),
], ids=["train", "mccv", "synth", "scene"])
def test_negative_seed_rejected_by_dataclass(section, name):
    with pytest.raises(ValueError, match=f"^{name} must be non-negative, got -1$"):
        section(**{name: -1})


def test_flag_error_names_no_file():
    with pytest.raises(ValueError) as err:
        load_config(mccv={"runs": 2.5, "master_seed": None})
    assert str(err.value) == "invalid mccv config: runs must be an integer, got 2.5"


@pytest.mark.parametrize("argv,doc", [
    (["--scenes", "0"], {}),
    ([], {"synth": {"scenes": -1}}),
], ids=["flag-zero", "config-negative"])
def test_synth_rejects_no_scenes(tmp_path, capsys, argv, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["synth", "--config", str(cfg), "--out", str(out), *argv]) == 1
    assert "n_scenes must be >= 1" in capsys.readouterr().err
    assert not out.exists()


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
    assert main(["classify", str(model), str(csv), "--out", str(out)]) == 1
    assert not out.exists()
    shape = ["area", "convex_area", "eccentricity", "equivalent_diameter", "extent"]
    given = shape + [f"em{b}" for b in (names or bands)]
    trained = shape + ["em405", "em420", "em450", "em470", "em500", "em530"]
    assert capsys.readouterr().err == (
        f"error: {csv}: input features {given} do not match the model's {trained}\n")


def test_cli_featurizes_each_scene_in_one_batch():
    # every module featurizes through feature_vectors, never one organism at
    # a time through compute_features; `features` and `classify` on a stack
    # each make one feature_vectors call per scene
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        called = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                called.append(func.attr if isinstance(func, ast.Attribute)
                              else getattr(func, "id", ""))
        assert "compute_features" not in called, path.name
        if path.name == "cli.py":
            assert called.count("feature_vectors") == 2
