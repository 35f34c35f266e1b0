"""Command-line pipeline: synth -> correct -> segment -> features ->
train / mccv / classify, each stage reading and writing the documented
file formats so stages can be rerun or swapped independently.

Exit codes: 0 success, 1 validation error, 2 I/O error. Every JSON output
embeds the SHA-256 of the effective configuration; the feature CSV gets a
sidecar meta file because its header is a fixed interface.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from . import classifier, evaluation, features, illumination, segmentation, synthgen
from .stack_io import (atomic_write_bytes, atomic_write_json, load_stack,
                       read_pgm, save_stack)

DEFAULT_CONFIG = {
    "synth": {
        "scenes": 8,
        "width": 192,
        "height": 192,
        "organisms_per_scene": 16,
        "background_level": 120.0,
        "vignette_strength": 0.25,
        "noise_sigma": 2.0,
        "master_seed": 0,
    },
    "correction": dataclasses.asdict(illumination.CorrectionConfig()),
    "segmentation": {
        "num_bins": 256,
        "min_area_px": 8,
    },
    "train": dataclasses.asdict(classifier.TrainConfig()),
    "mccv": {
        "runs": 20,
        "train_fraction": 0.7,
        "master_seed": 0,
    },
}


def load_config(path=None):
    """DEFAULT_CONFIG with the sections of the JSON file at `path` laid
    over it. Only the sections and keys of DEFAULT_CONFIG are accepted, and
    the correction and train sections must make valid configs."""
    cfg = {k: dict(v) for k, v in DEFAULT_CONFIG.items()}
    if path is None:
        return cfg
    if not os.path.exists(path):
        raise ValueError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            user = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: invalid config JSON: {e}") from None
    if not isinstance(user, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(user) - set(DEFAULT_CONFIG)
    if unknown:
        raise ValueError(f"{path}: unknown config sections {sorted(unknown)}")
    for section, values in user.items():
        if not isinstance(values, dict):
            raise ValueError(f"{path}: config section {section} must be a JSON object")
        unknown = [f"{section}.{key}" for key in values if key not in cfg[section]]
        if unknown:
            raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
        cfg[section].update(values)
    for section, make in (("correction", illumination.CorrectionConfig),
                          ("train", classifier.TrainConfig)):
        try:
            make(**cfg[section])
        except (TypeError, ValueError) as e:
            raise ValueError(f"{path}: invalid {section} config: {e}") from None
    return cfg


def config_hash(cfg):
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _load_role(path, role):
    """Stack at `path`, which must carry `role` as its role_tag."""
    stack = load_stack(path)
    if stack.role_tag != role:
        raise ValueError(f"{path}: expected role_tag {role!r}, got {stack.role_tag!r}")
    return stack


def _segment(corrected, cfg):
    """segmentation.segment with the settings of the config's segmentation section."""
    seg = cfg["segmentation"]
    return segmentation.segment(corrected, num_bins=int(seg["num_bins"]),
                                min_area_px=int(seg["min_area_px"]))


def _scene_dirs(root):
    """Directories holding a stack manifest: the root itself or scene_* children."""
    if os.path.exists(os.path.join(root, "stack.json")):
        return [("", root)]
    if not os.path.isdir(root):
        raise ValueError(f"input directory not found: {root}")
    out = []
    for name in sorted(os.listdir(root)):
        sub = os.path.join(root, name)
        if os.path.isdir(sub) and os.path.exists(os.path.join(sub, "stack.json")):
            out.append((name, sub))
    if not out:
        raise ValueError(f"{root}: no stack manifests found")
    return out


def cmd_synth(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["synth"]["master_seed"] = args.seed
    if args.scenes is not None:
        cfg["synth"]["scenes"] = args.scenes
    digest = config_hash(cfg)
    s = cfg["synth"]
    catalog = synthgen.default_catalog()
    template = synthgen.SceneSpec(
        width=int(s["width"]), height=int(s["height"]),
        n_organisms=int(s["organisms_per_scene"]),
        background_level=float(s["background_level"]),
        vignette_strength=float(s["vignette_strength"]),
        noise_sigma=float(s["noise_sigma"]),
    )
    scenes = synthgen.generate_corpus(
        catalog, int(s["scenes"]), template, master_seed=int(s["master_seed"]))
    os.makedirs(args.out, exist_ok=True)
    for i, scene in enumerate(scenes):
        scene_dir = os.path.join(args.out, f"scene_{i:03d}")
        save_stack(scene.stack, scene_dir, extra_fields={"config_sha256": digest})
        segmentation.labelmap_to_pgm(scene.truth, os.path.join(scene_dir, "truth.pgm"))
        truth_doc = synthgen.ground_truth_json(scene, catalog)
        truth_doc["config_sha256"] = digest
        atomic_write_json(os.path.join(scene_dir, "truth.json"), truth_doc)
    print(f"wrote {len(scenes)} scene(s) to {args.out}")
    return 0


def cmd_correct(args):
    cfg = load_config(args.config)
    digest = config_hash(cfg)
    correction = illumination.CorrectionConfig(**cfg["correction"])
    for name, src in _scene_dirs(args.input):
        raw = _load_role(src, "raw")
        background = illumination.estimate_background(raw, correction)
        corrected = illumination.subtract_background(raw, background)
        dst = os.path.join(args.out, name) if name else args.out
        save_stack(corrected, dst, extra_fields={"config_sha256": digest})
    print(f"corrected stacks written to {args.out}")
    return 0


def cmd_segment(args):
    cfg = load_config(args.config)
    digest = config_hash(cfg)
    for name, src in _scene_dirs(args.input):
        labels, organisms, thresholds = _segment(_load_role(src, "corrected"), cfg)
        dst = os.path.join(args.out, name) if name else args.out
        os.makedirs(dst, exist_ok=True)
        segmentation.labelmap_to_pgm(labels, os.path.join(dst, "labels.pgm"))
        atomic_write_json(os.path.join(dst, "organisms.json"), {
            "config_sha256": digest,
            "component_count": labels.count,
            "thresholds": thresholds,
            "organisms": segmentation.organisms_to_json(organisms),
        })
    print(f"segmentation written to {args.out}")
    return 0


def _features_for_scene(corrected, labels_pgm, cfg, truth_dir=None):
    labels_raw = read_pgm(labels_pgm).astype(np.int32)
    labels = segmentation.LabelMap(labels=labels_raw, count=int(labels_raw.max()))
    organisms = segmentation.extract_organisms(
        labels, corrected, min_area_px=int(cfg["segmentation"]["min_area_px"]))
    matched = [None] * len(organisms)
    class_names = None
    if truth_dir is not None:
        truth_raw = read_pgm(os.path.join(truth_dir, "truth.pgm")).astype(np.int32)
        truth = segmentation.LabelMap(labels=truth_raw, count=int(truth_raw.max()))
        with open(os.path.join(truth_dir, "truth.json"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        class_names = doc["class_names"]
        species_by_id = {o["id"]: o["species_index"] for o in doc["organisms"]}
        matched = [None if i is None else species_by_id[i]
                   for i in synthgen.majority_truth_ids(organisms, truth)]
    fvs = [
        features.compute_features(org, corrected, label=lab)
        for org, lab in zip(organisms, matched)
    ]
    return fvs, class_names


def cmd_features(args):
    cfg = load_config(args.config)
    digest = config_hash(cfg)
    all_fvs = []
    wavelengths = None
    class_names = None
    for name, src in _scene_dirs(args.corrected):
        corrected = _load_role(src, "corrected")
        wavelengths = corrected.wavelengths_nm
        seg_dir = os.path.join(args.segmented, name) if name else args.segmented
        labels_pgm = os.path.join(seg_dir, "labels.pgm")
        if not os.path.exists(labels_pgm):
            raise ValueError(f"label map not found: {labels_pgm}")
        truth_dir = None
        if args.truth is not None:
            truth_dir = os.path.join(args.truth, name) if name else args.truth
            if not os.path.exists(os.path.join(truth_dir, "truth.json")):
                raise ValueError(f"ground truth not found in {truth_dir}")
        fvs, names = _features_for_scene(corrected, labels_pgm, cfg, truth_dir)
        if names is not None:
            class_names = names
        prefix = f"{name}:" if name else ""
        all_fvs += [dataclasses.replace(fv, organism_id=f"{prefix}{fv.organism_id}")
                    for fv in fvs]
    if not all_fvs:
        raise ValueError(f"{args.corrected}: no organisms found to featurize")
    features.write_features_csv(args.out, all_fvs, wavelengths)
    atomic_write_json(_meta_path(args.out), {
        "config_sha256": digest,
        "class_names": class_names,
        "wavelengths_nm": list(wavelengths),
        "rows": len(all_fvs),
    })
    print(f"wrote {len(all_fvs)} feature rows to {args.out}")
    return 0


def _meta_path(csv_path):
    return csv_path + ".meta.json"


def _parse_variant(name):
    try:
        return features.ModelVariant(name)
    except ValueError:
        valid = ", ".join(v.value for v in features.ModelVariant)
        raise ValueError(f"unknown variant {name!r} (expected one of: {valid})") from None


def _labeled_rows(csv_path):
    """Labelled feature vectors of a feature CSV, its wavelengths, and the
    class names of its meta file (empty without one)."""
    if not os.path.exists(csv_path):
        raise ValueError(f"feature file not found: {csv_path}")
    fvs, wavelengths = features.read_features_csv(csv_path)
    labeled = [fv for fv in fvs if fv.label is not None]
    if not labeled:
        raise ValueError(f"{csv_path}: no labeled rows")
    class_names = ()
    if os.path.exists(_meta_path(csv_path)):
        with open(_meta_path(csv_path), "r", encoding="utf-8") as fh:
            class_names = tuple(json.load(fh).get("class_names") or ())
    return labeled, wavelengths, class_names


def cmd_train(args):
    cfg = load_config(args.config)
    digest = config_hash(cfg)
    variant = _parse_variant(args.variant)
    labeled, wavelengths, class_names = _labeled_rows(args.features)
    x = features.assemble(labeled, variant)
    y = np.array([fv.label for fv in labeled], dtype=np.int64)
    nrm = features.fit_normalizer(x)
    train_cfg = classifier.TrainConfig(**cfg["train"])
    if args.seed is not None:
        train_cfg = dataclasses.replace(train_cfg, seed=args.seed)
    net, final_loss = classifier.train(
        features.apply_normalizer(nrm, x), y, cfg=train_cfg,
        num_classes=len(class_names) or None)
    model = classifier.TrainedModel(
        network=net, variant=variant, normalizer=nrm,
        feature_names=tuple(features.feature_names(variant, wavelengths)),
        class_names=class_names,
    )
    classifier.save_model(model, args.out, extra_fields={"config_sha256": digest})
    print(f"trained {variant.value} model (final loss {final_loss:.4f}) -> {args.out}")
    return 0


def cmd_mccv(args):
    cfg = load_config(args.config)
    if args.runs is not None:
        cfg["mccv"]["runs"] = args.runs
    if args.seed is not None:
        cfg["mccv"]["master_seed"] = args.seed
    digest = config_hash(cfg)
    variants = [_parse_variant(v.strip()) for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ValueError("at least one variant required")
    labeled, _, class_names = _labeled_rows(args.features)
    mccv_cfg = cfg["mccv"]
    train_cfg = classifier.TrainConfig(**cfg["train"])
    reports = []
    for variant in variants:
        reports.append(evaluation.run_mccv(
            labeled, variant,
            cfg=train_cfg,
            runs=int(mccv_cfg["runs"]),
            train_fraction=float(mccv_cfg["train_fraction"]),
            master_seed=int(mccv_cfg["master_seed"]),
            class_names=class_names,
        ))
    ttests = []
    for i in range(len(reports)):
        for j in range(i + 1, len(reports)):
            result = evaluation.paired_t_test(
                reports[i].accuracies, reports[j].accuracies, alpha=0.01)
            ttests.append((reports[i].variant.value, reports[j].variant.value, result))
    doc = evaluation.build_report(reports, ttests)
    doc["config_sha256"] = digest
    doc["config"] = cfg
    os.makedirs(args.out, exist_ok=True)
    atomic_write_json(os.path.join(args.out, "report.json"), doc)
    text = evaluation.render_report_text(doc)
    atomic_write_bytes(os.path.join(args.out, "report.txt"), text.encode("utf-8"))
    sys.stdout.write(text)
    return 0


def cmd_classify(args):
    cfg = load_config(args.config)
    digest = config_hash(cfg)
    if not os.path.exists(args.model):
        raise ValueError(f"model file not found: {args.model}")
    model = classifier.load_model(args.model)
    if os.path.isdir(args.input):
        corrected = _load_role(args.input, "corrected")
        wavelengths = corrected.wavelengths_nm
        _, organisms, _ = _segment(corrected, cfg)
        fvs = [features.compute_features(org, corrected) for org in organisms]
    else:
        if not os.path.exists(args.input):
            raise ValueError(f"input not found: {args.input}")
        fvs, wavelengths = features.read_features_csv(args.input)
    names = features.feature_names(model.variant, wavelengths)
    if tuple(names) != model.feature_names:
        raise ValueError(f"{args.input}: input features {names} do not match the "
                         f"model's {list(model.feature_names)}")
    if not fvs:
        raise ValueError(f"{args.input}: nothing to classify")
    preds = model.predict_features(features.assemble(fvs, model.variant))
    lines = ["organism_id,predicted_label,predicted_class"]
    for fv, p in zip(fvs, preds):
        name = model.class_names[int(p)] if model.class_names else ""
        lines.append(f"{fv.organism_id},{int(p)},{name}")
    atomic_write_bytes(args.out, ("\n".join(lines) + "\n").encode("utf-8"))
    atomic_write_json(_meta_path(args.out), {
        "config_sha256": digest,
        "model": os.path.abspath(args.model),
        "rows": len(fvs),
    })
    print(f"wrote {len(fvs)} predictions to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="algaeid",
        description="Multi-band fluorescence algae identification pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic scenes with ground truth")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--scenes", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("correct", help="estimate and subtract illumination background")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("segment", help="threshold, fuse bands, label components")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("features", help="extract per-organism feature vectors")
    p.add_argument("corrected")
    p.add_argument("segmented")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", help="synth output dir providing ground-truth labels")
    p.add_argument("--config")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train one classifier variant")
    p.add_argument("features")
    p.add_argument("--variant", required=True, help="morph | spectral | both11")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("mccv", help="Monte Carlo cross-validation and t-tests")
    p.add_argument("features")
    p.add_argument("--out", required=True)
    p.add_argument("--variants", default="morph,spectral,both11")
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.set_defaults(func=cmd_mccv)

    p = sub.add_parser("classify", help="predict classes for features or a stack")
    p.add_argument("model")
    p.add_argument("input", help="feature CSV or corrected stack directory")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
