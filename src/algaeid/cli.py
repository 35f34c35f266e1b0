"""Command-line pipeline: synth -> correct -> segment -> features ->
train / mccv / classify, each stage reading and writing the documented
file formats so stages can be rerun or swapped independently.

Exit codes: 0 success, 1 validation error, 2 I/O error. Only the commands
that read a config section (synth, train and mccv) take --config, and each
embeds the SHA-256 of its effective configuration in its JSON output; the
image stages have no settings. The feature CSV and the predictions get a
sidecar meta file because their header is a fixed interface.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import classifier, evaluation, features, illumination, segmentation, synthgen
from .stack_io import (MANIFEST_NAME, atomic_write_bytes, atomic_write_csv,
                       atomic_write_json, load_stack, read_json_object, read_pgm,
                       save_stack, string_list)


@dataclasses.dataclass(frozen=True)
class Config:
    """The effective configuration: one typed section per config file section."""
    synth: synthgen.SynthConfig = synthgen.SynthConfig()
    train: classifier.TrainConfig = classifier.TrainConfig()
    mccv: evaluation.MccvConfig = evaluation.MccvConfig()


DEFAULT_CONFIG = dataclasses.asdict(Config())


def _read_config(path):
    """The JSON config file at `path`, if it holds only DEFAULT_CONFIG's sections and keys."""
    user = read_json_object(path, "config")
    unknown = set(user) - set(DEFAULT_CONFIG)
    if unknown:
        raise ValueError(f"{path}: unknown config sections {sorted(unknown)}")
    for section, values in user.items():
        if not isinstance(values, dict):
            raise ValueError(f"{path}: config section {section} must be a JSON object")
        unknown = [f"{section}.{key}" for key in values if key not in DEFAULT_CONFIG[section]]
        if unknown:
            raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    return user


def load_config(path=None, **overrides):
    """Config from the JSON file at `path` and then `overrides` (the CLI flags:
    section -> {key: value}, None values skipped) laid over the defaults.
    Every section is built, and so checked, here."""
    user = _read_config(path) if path is not None else {}
    prefix = f"{path}: " if path is not None else ""
    sections = {}
    for section in dataclasses.fields(Config):
        values = {**user.get(section.name, {}),
                  **{k: v for k, v in overrides.get(section.name, {}).items() if v is not None}}
        try:
            sections[section.name] = type(section.default)(**values)
        except (TypeError, ValueError) as e:
            raise ValueError(f"{prefix}invalid {section.name} config: {e}") from None
    return Config(**sections)


def config_hash(cfg):
    canon = json.dumps(dataclasses.asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _load_role(path, role):
    """Stack at `path`, which must carry `role` as its role_tag."""
    stack = load_stack(path)
    if stack.role_tag != role:
        raise ValueError(f"{path}: expected role_tag {role!r}, got {stack.role_tag!r}")
    return stack


def _scene_dirs(root, *trees):
    """Per scene under `root` (the root itself or its scene_* children that
    hold a stack manifest): its name ("" for the root) and its directory in
    `root` and in each of `trees` (a None tree stays None)."""
    if os.path.exists(os.path.join(root, MANIFEST_NAME)):
        names = [""]
    elif not os.path.isdir(root):
        raise ValueError(f"input directory not found: {root}")
    else:
        names = [name for name in sorted(os.listdir(root))
                 if os.path.exists(os.path.join(root, name, MANIFEST_NAME))]
        if not names:
            raise ValueError(f"{root}: no stack manifests found")
    return [(name, *(os.path.join(tree, name) if name and tree else tree
                     for tree in (root, *trees)))
            for name in names]


def cmd_synth(args, cfg, digest):
    catalog = synthgen.default_catalog()
    specs = synthgen.corpus_specs(cfg.synth.scenes, cfg.synth.scene_spec(),
                                  master_seed=cfg.synth.master_seed)
    provenance = {"config_sha256": digest}
    # render, write and free one scene at a time, so memory holds only one
    for i, spec in enumerate(specs):
        scene = synthgen.generate_scene(spec, catalog)
        scene_dir = os.path.join(args.out, f"scene_{i:03d}")
        save_stack(scene.stack, scene_dir, extra_fields=provenance)
        synthgen.save_ground_truth(scene, catalog, scene_dir, extra_fields=provenance)
        del scene
    print(f"wrote {len(specs)} scene(s) to {args.out}")
    return 0


def cmd_correct(args):
    for _, src, dst in _scene_dirs(args.input, args.out):
        raw = _load_role(src, "raw")
        background = illumination.estimate_background(raw)
        corrected = illumination.subtract_background(raw, background)
        save_stack(corrected, dst)
    print(f"corrected stacks written to {args.out}")
    return 0


def cmd_segment(args):
    for _, src, dst in _scene_dirs(args.input, args.out):
        seg = segmentation.segment(_load_role(src, "corrected"))
        os.makedirs(dst, exist_ok=True)
        segmentation.labelmap_to_pgm(seg.labels, os.path.join(dst, "labels.pgm"))
        segmentation.write_organisms_json(os.path.join(dst, "organisms.json"), seg)
    print(f"segmentation written to {args.out}")
    return 0


def _stack_feature_names(variant, stack_dir, wavelengths):
    """`features.feature_names` of the stack in `stack_dir`: a wavelength no
    feature column can name fails here, naming the stack's manifest."""
    try:
        return features.feature_names(variant, wavelengths)
    except ValueError as e:
        raise ValueError(f"{os.path.join(stack_dir, MANIFEST_NAME)}: {e}") from None


def _same_as_first(key, value, first, where):
    """`value` of `key` read from `where`, which must equal the first scene's
    `first` unless there is none yet."""
    if first is not None and value != first:
        raise ValueError(f"{where}: {key} {value} differ from the first scene's {first}")
    return value


def cmd_features(args):
    all_fvs = []
    wavelengths = None
    class_names = None
    for name, src, seg_dir, truth_dir in _scene_dirs(args.corrected, args.segmented,
                                                     args.truth):
        corrected = _load_role(src, "corrected")
        wavelengths = _same_as_first(
            "wavelengths_nm", list(corrected.wavelengths_nm), wavelengths, src)
        _stack_feature_names(features.ModelVariant.SPECTRAL_MORPHOLOGICAL, src, wavelengths)
        labels_pgm = os.path.join(seg_dir, "labels.pgm")
        if not os.path.exists(labels_pgm):
            raise ValueError(f"label map not found: {labels_pgm}")
        labels = segmentation.LabelMap(read_pgm(labels_pgm))
        try:
            organisms = segmentation.extract_organisms(labels, corrected)
        except ValueError as e:
            raise ValueError(f"{labels_pgm}: {e}") from None
        matched = [None] * len(organisms)
        if truth_dir is not None:
            truth, planted, names = synthgen.read_ground_truth(truth_dir)
            class_names = _same_as_first("class_names", names, class_names, truth_dir)
            h, w = truth.labels.shape
            if (h, w) != (corrected.height, corrected.width):
                raise ValueError(f"{truth_dir}: truth map {h}x{w} does not match "
                                 f"stack {corrected.height}x{corrected.width}")
            try:
                matched = synthgen.match_organisms_to_truth(organisms, truth, planted)
            except ValueError as e:
                raise ValueError(f"{truth_dir}: {e}") from None
        fvs = features.feature_vectors(organisms, corrected, matched)
        if name:
            fvs = [dataclasses.replace(fv, organism_id=f"{name}:{fv.organism_id}") for fv in fvs]
        all_fvs += fvs
    if not all_fvs:
        raise ValueError(f"{args.corrected}: no organisms found to featurize")
    features.write_features_csv(args.out, all_fvs, wavelengths)
    atomic_write_json(_meta_path(args.out), {"class_names": class_names,
                                             "wavelengths_nm": wavelengths, "rows": len(all_fvs)})
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
    class names of its meta file (empty without one), which must name every
    label. Without class names every label is below the number of labelled
    rows, which bounds the class count."""
    if not os.path.exists(csv_path):
        raise ValueError(f"feature file not found: {csv_path}")
    fvs, wavelengths = features.read_features_csv(csv_path)
    labeled = [fv for fv in fvs if fv.label is not None]
    if not labeled:
        raise ValueError(f"{csv_path}: no labeled rows")
    meta = _meta_path(csv_path)
    doc = read_json_object(meta, "feature meta") if os.path.exists(meta) else {}
    names = doc.get("class_names")
    class_names = () if names is None else tuple(string_list(names, f"{meta}: class_names"))
    top = max(fv.label for fv in labeled)
    if class_names and top >= len(class_names):
        raise ValueError(f"{csv_path}: label {top} has no class name in {meta}, "
                         f"which names {len(class_names)} classes")
    if not class_names and top >= len(labeled):
        raise ValueError(f"{csv_path}: label {top} is not below its {len(labeled)} "
                         f"labeled rows, and {meta} names no classes")
    return labeled, wavelengths, class_names


def cmd_train(args, cfg, digest):
    variant = _parse_variant(args.variant)
    labeled, wavelengths, class_names = _labeled_rows(args.features)
    names = features.feature_names(variant, wavelengths)
    y = np.array([fv.label for fv in labeled], dtype=np.int64)
    [(model, final_loss)] = classifier.fit_models(
        [(variant, features.assemble(labeled, variant), np.arange(len(y)), cfg.train.seed)], y,
        cfg=cfg.train, num_classes=len(class_names) or None, class_names=class_names)
    classifier.save_model(dataclasses.replace(model, feature_names=names), args.out,
                          extra_fields={"config_sha256": digest})
    print(f"trained {variant.value} model (final loss {final_loss:.4f}) -> {args.out}")
    return 0


def cmd_mccv(args, cfg, digest):
    variants = [_parse_variant(v.strip()) for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ValueError("at least one variant required")
    for i, variant in enumerate(variants):
        if variant in variants[:i]:
            raise ValueError(f"duplicate variant {variant.value!r}")
    labeled, _, class_names = _labeled_rows(args.features)
    doc = evaluation.build_report(evaluation.run_mccv(
        labeled, variants, cfg=cfg.train, class_names=class_names, **dataclasses.asdict(cfg.mccv)))
    doc["config_sha256"] = digest
    doc["config"] = dataclasses.asdict(cfg)
    os.makedirs(args.out, exist_ok=True)
    atomic_write_json(os.path.join(args.out, "report.json"), doc)
    text = evaluation.render_report_text(doc)
    atomic_write_bytes(os.path.join(args.out, "report.txt"), text.encode("utf-8"))
    sys.stdout.write(text)
    return 0


def cmd_classify(args):
    model = classifier.load_model(args.model)
    if os.path.isdir(args.input):
        corrected = _load_role(args.input, "corrected")
        names = _stack_feature_names(model.variant, args.input, corrected.wavelengths_nm)
        seg = segmentation.segment(corrected)
        fvs = features.feature_vectors(seg.organisms, corrected)
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
    atomic_write_csv(args.out, [("organism_id", "predicted_label", "predicted_class")] + [
        (fv.organism_id, int(p), model.class_names[int(p)] if model.class_names else "")
        for fv, p in zip(fvs, preds)])
    with open(args.model, "rb") as fh:
        model_sha256 = hashlib.sha256(fh.read()).hexdigest()
    atomic_write_json(_meta_path(args.out), {"rows": len(fvs), "model_sha256": model_sha256})
    print(f"wrote {len(fvs)} predictions to {args.out}")
    return 0


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: an argument the command does not define is its
    own usage error, so the message shows the command's usage rather than
    the top-level one argparse would show."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser():
    """The argument parser. Only the commands that read a config section
    take --config. An override flag's dest is the config key it sets, as
    "section.key"."""
    parser = argparse.ArgumentParser(
        prog="algaeid",
        description="Multi-band fluorescence algae identification pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True)
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config")

    def command(name, func, help, config=False):
        # the function's name: `main` looks it up in the module on each call
        parents = [common, configured] if config else [common]
        p = sub.add_parser(name, parents=parents, help=help)
        p.set_defaults(func=func.__name__)
        return p

    p = command("synth", cmd_synth, "generate synthetic scenes with ground truth", config=True)
    p.add_argument("--seed", type=int, dest="synth.master_seed")
    p.add_argument("--scenes", type=int, dest="synth.scenes")

    p = command("correct", cmd_correct, "estimate and subtract illumination background")
    p.add_argument("input")

    p = command("segment", cmd_segment, "threshold, fuse bands, label components")
    p.add_argument("input")

    p = command("features", cmd_features, "extract per-organism feature vectors")
    p.add_argument("corrected")
    p.add_argument("segmented")
    p.add_argument("--truth", help="synth output dir providing ground-truth labels")

    p = command("train", cmd_train, "train one classifier variant", config=True)
    p.add_argument("features")
    p.add_argument("--variant", required=True, help="morph | spectral | both11")
    p.add_argument("--seed", type=int, dest="train.seed")

    p = command("mccv", cmd_mccv, "Monte Carlo cross-validation and t-tests", config=True)
    p.add_argument("features")
    p.add_argument("--variants", default=",".join(v.value for v in features.ModelVariant))
    p.add_argument("--runs", type=int, dest="mccv.runs")
    p.add_argument("--seed", type=int, dest="mccv.master_seed")

    p = command("classify", cmd_classify, "predict classes for features or a stack")
    p.add_argument("model")
    p.add_argument("input", help="feature CSV or corrected stack directory")

    return parser


# built on the first call and shared by every later one: parse_args leaves
# the parser as it was and returns a new namespace each time
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    overrides = {}
    for dest, value in vars(args).items():
        if "." in dest:
            section, key = dest.split(".")
            overrides.setdefault(section, {})[key] = value
    try:
        if "config" not in args:  # an image stage, which reads no config
            return globals()[args.func](args)
        cfg = load_config(args.config, **overrides)
        return globals()[args.func](args, cfg, config_hash(cfg))
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
