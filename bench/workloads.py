"""The benchmark's workloads.

Each workload builds its inputs from the seed in `setup` (repeated
`SETUPS` times per run), then offers a fixed list of operations that make
one round. `run(op)` performs one
operation through algaeid and returns whether it succeeded; `check()`
verifies the outputs of the last round against independent computations
and returns figures derived from them; the one named by `QUALITY` is the
run's `quality` metric.

All calls into algaeid go through module attributes (`illumination.x`, not
`from ... import x`), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import os

import numpy as np

from algaeid import (classifier, cli, evaluation, features, illumination,
                     segmentation, stack_io, synthgen)

import checks
from checks import require

MODULES = (synthgen, stack_io, illumination, segmentation, features,
           classifier, evaluation, cli)

# Defaults of `algaeid.cli.DEFAULT_CONFIG`, spelled out for the library path.
NUM_BINS = 256
MIN_AREA_PX = 8
SCENE = dict(width=192, height=192, n_organisms=16)
NO_ILLUMINATION = dict(background_level=0.0, vignette_strength=0.0)


def seed_for(seed, stream):
    """Independent 32-bit seed per workload input stream."""
    return int(np.random.SeedSequence([int(seed), stream]).generate_state(1)[0])


def _quiet(fn, *args):
    """Run fn with stdout and stderr captured; returns (result, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        result = fn(*args)
    return result, err.getvalue()


def segment_library(corrected):
    """Per-band Otsu -> binarize -> union fusion -> labelling -> extraction."""
    thresholds = [segmentation.otsu_threshold(b, num_bins=NUM_BINS)
                  for b in corrected.bands]
    masks = [segmentation.binarize(b, t) for b, t in zip(corrected.bands, thresholds)]
    labels = segmentation.connected_components(segmentation.fuse_masks(masks))
    organisms = segmentation.extract_organisms(labels, corrected, min_area_px=MIN_AREA_PX)
    return thresholds, labels, organisms


def write_labelled_csv(path, scenes, catalog):
    """Feature CSV (plus its `.meta.json` with class names) from scenes
    generated without illumination, treated as already corrected."""
    fvs = []
    for i, scene in enumerate(scenes):
        corrected = scene.stack.with_bands(scene.stack.bands, role_tag="corrected")
        _, _, organisms = segment_library(corrected)
        matched = synthgen.match_organisms_to_truth(organisms, scene.truth, scene.organisms)
        fvs += [dataclasses.replace(features.compute_features(o, corrected, label=lab),
                                    organism_id=f"scene_{i:03d}:{o.id}")
                for o, lab in zip(organisms, matched)]
    features.write_features_csv(path, fvs, scenes[0].stack.wavelengths_nm)
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump({"class_names": [sp.name for sp in catalog]}, fh)
    return fvs


class Corpus:
    """Scenes of the acceptance corpus's make-up (192x192, 6 bands, 16
    organisms, illumination on) through the library path, raw stack to
    feature vectors."""

    name = "corpus"
    QUALITY = "recall"
    SETUPS = 25          # set-up takes about 0.15 s, so it is repeated more
    SCENES = 8
    RANK_FLOOR = 0.95

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        catalog = synthgen.default_catalog()
        self.scenes = synthgen.generate_corpus(
            catalog, self.SCENES, synthgen.SceneSpec(**SCENE),
            master_seed=seed_for(self.seed, 0))
        self.ops = list(range(self.SCENES))
        self.outputs = {}
        self.attempts_per_op = 1

    def run(self, op):
        raw = self.scenes[op].stack
        background = illumination.estimate_background(raw, illumination.CorrectionConfig())
        corrected = illumination.subtract_background(raw, background, clamp=True)
        thresholds, labels, organisms = segment_library(corrected)
        matched = synthgen.match_organisms_to_truth(
            organisms, self.scenes[op].truth, self.scenes[op].organisms)
        fvs = [features.compute_features(o, corrected, label=lab)
               for o, lab in zip(organisms, matched)]
        self.outputs[op] = (background, corrected, thresholds, labels, organisms, fvs)
        return True

    def check(self):
        sigma = illumination.CorrectionConfig().gaussian_sigma_px
        rank_ok = rank_total = matched_planted = planted = 0
        for op, scene in enumerate(self.scenes):
            background, corrected, thresholds, labels, organisms, fvs = self.outputs[op]
            for b, (raw, bg, cor) in enumerate(zip(scene.stack.bands, background.bands,
                                                   corrected.bands)):
                lowpass = checks.gaussian_lowpass(raw, sigma)
                require(np.all(bg <= lowpass + 1e-9 * np.abs(lowpass).max()),
                        f"scene {op} band {b}: background exceeds its Gaussian low-pass")
                require(np.array_equal(cor, np.maximum(raw - bg, 0.0)),
                        f"scene {op} band {b}: corrected != max(raw - background, 0)")
                lo, hi = float(cor.min()), float(cor.max())
                hist, _ = np.histogram(cor, bins=NUM_BINS, range=(lo, hi))
                k = int(round((thresholds[b] - lo) * NUM_BINS / (hi - lo) - 0.5))
                best, objective = checks.otsu_index_exact(hist)
                # a float near-tie may pick another split of the same objective
                require(k == best or abs(objective[k] - objective[best])
                        <= 1e-9 * max(1, abs(objective[best])),
                        f"scene {op} band {b}: Otsu index {k}, exhaustive search {best}")
            fused = np.zeros(labels.labels.shape, dtype=bool)
            for b, t in zip(corrected.bands, thresholds):
                fused |= b > t
            oracle, count = checks.flood_fill(fused)
            require(count == labels.count and np.array_equal(oracle, labels.labels),
                    f"scene {op}: labels differ from flood fill")
            signature = {p.id: p.signature for p in scene.organisms}
            truth = scene.truth.labels
            lab = np.zeros(truth.shape, dtype=np.int64)
            for o in organisms:
                lab[o.pixels[:, 0], o.pixels[:, 1]] = o.id
            matches = checks.majority_truth(lab, truth)
            for o, fv in zip(organisms, fvs):
                if o.id in matches:
                    rank_total += 1
                    rank_ok += (tuple(np.argsort(signature[matches[o.id]]))
                                == tuple(np.argsort(fv.spectral)))
            matched_planted += len(set(matches.values()))
            planted += len(scene.organisms)
        require(rank_total and rank_ok / rank_total >= self.RANK_FLOOR,
                f"planted spectral rank order kept for {rank_ok}/{rank_total} "
                f"matched organisms, below {self.RANK_FLOOR}")
        return {"recall": matched_planted / planted}


class Mccv:
    """`algaeid mccv` in-process on a labelled feature CSV of the acceptance
    corpus's size, default variants, training and MCCV config."""

    name = "mccv"
    QUALITY = "acc.spectral"
    SETUPS = 3
    SCENES = 40
    VARIANTS = ("morph", "spectral", "both11")
    RUNS = 20            # the default `mccv.runs`
    TRAIN_FRACTION = 0.7  # the default `mccv.train_fraction`

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        catalog = synthgen.default_catalog()
        scenes = synthgen.generate_corpus(
            catalog, self.SCENES, synthgen.SceneSpec(**SCENE, **NO_ILLUMINATION),
            master_seed=seed_for(self.seed, 1))
        self.csv = os.path.join(self.workdir, "features.csv")
        fvs = write_labelled_csv(self.csv, scenes, catalog)
        self.labelled = sum(fv.label is not None for fv in fvs)
        self.out = os.path.join(self.workdir, "eval")
        self.ops = [0]
        self.attempts_per_op = len(self.VARIANTS) * self.RUNS

    def run(self, op):
        rc, _ = _quiet(cli.main, ["mccv", self.csv, "--out", self.out])
        return rc == 0

    def check(self):
        with open(os.path.join(self.out, "report.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        test_size = self.labelled - round(self.TRAIN_FRACTION * self.labelled)
        acc = {}
        for name in self.VARIANTS:
            v = doc["variants"][name]
            require(v["runs"] == self.RUNS, f"{name}: {v['runs']} runs, expected {self.RUNS}")
            for r, (cm, a) in enumerate(zip(v["per_run_confusions"], v["accuracies"])):
                cm = np.array(cm, dtype=np.int64)
                require(cm.sum() == test_size,
                        f"{name} run {r}: confusion sums to {cm.sum()}, test split {test_size}")
                require(a == float(np.trace(cm)) / cm.sum(),
                        f"{name} run {r}: accuracy {a} != trace / total")
            acc[name] = v["mean_accuracy"]
        require(acc["morph"] < acc["spectral"],
                f"morph {acc['morph']} not below spectral {acc['spectral']}")
        require(acc["spectral"] >= 0.90, f"spectral accuracy {acc['spectral']} below 0.90")
        for tt in doc["ttests"]:
            a = np.array(doc["variants"][tt["a"]]["accuracies"])
            b = np.array(doc["variants"][tt["b"]]["accuracies"])
            d = a - b
            if d.std(ddof=1) > 0:
                t = d.mean() / (d.std(ddof=1) / np.sqrt(len(d)))
                require(abs(t - tt["t"]) <= 1e-9 * abs(t),
                        f"{tt['a']} vs {tt['b']}: t {tt['t']}, recomputed {t}")
            p = checks.t_two_sided_p(tt["t"], tt["df"])
            require(abs(p - tt["p_value"]) <= 1e-6 * p + 1e-300,
                    f"{tt['a']} vs {tt['b']}: p {tt['p_value']}, integrated {p}")
            if (tt["a"], tt["b"]) == ("morph", "spectral"):
                require(tt["reject"] and tt["p_value"] < 0.01,
                        "morph vs spectral t-test does not reject at 1%")
        return {f"acc.{name}": acc[name] for name in self.VARIANTS}


class DenseField:
    """Large crowded fields without illumination, saved as corrected stacks,
    through `algaeid segment`, `features --truth` and `classify` with file
    handoff. The last field of each round has a dead 530 nm band."""

    name = "dense_field"
    QUALITY = "recall"
    SETUPS = 3
    SIZE = 1024
    ORGANISMS = 600
    FIELDS = 2
    TRAIN_SCENES = 12
    DEAD_SEED = 530      # fixed: the dead field does not depend on --seed
    AGREEMENT_FLOOR = 0.90

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        catalog = synthgen.default_catalog()
        field = dict(width=self.SIZE, height=self.SIZE, n_organisms=self.ORGANISMS,
                     **NO_ILLUMINATION)
        seeds = [seed_for(self.seed, 10 + i) for i in range(self.FIELDS)]
        self.fields = [synthgen.generate_scene(synthgen.SceneSpec(**field, seed=s), catalog)
                       for s in seeds + [self.DEAD_SEED]]
        dead = self.fields[-1]
        bands = dead.stack.bands[:-1] + (np.zeros_like(dead.stack.bands[-1]),)
        self.fields[-1] = dataclasses.replace(
            dead, stack=dead.stack.with_bands(bands, role_tag="raw"))
        for i, scene in enumerate(self.fields):
            d = os.path.join(self.workdir, f"field_{i}")
            stack_io.save_stack(
                scene.stack.with_bands(scene.stack.bands, role_tag="corrected"), d)
            segmentation.labelmap_to_pgm(scene.truth, os.path.join(d, "truth.pgm"))
            with open(os.path.join(d, "truth.json"), "w", encoding="utf-8") as fh:
                json.dump(synthgen.ground_truth_json(scene, catalog), fh)
        train = synthgen.generate_corpus(
            catalog, self.TRAIN_SCENES, synthgen.SceneSpec(**SCENE, **NO_ILLUMINATION),
            master_seed=seed_for(self.seed, 2))
        train_csv = os.path.join(self.workdir, "train.csv")
        write_labelled_csv(train_csv, train, catalog)
        self.model = os.path.join(self.workdir, "model.json")
        rc, err = _quiet(cli.main, ["train", train_csv, "--variant", "spectral",
                                    "--out", self.model])
        require(rc == 0, f"training the spectral model failed: {err}")
        self.ops = list(range(len(self.fields)))
        self.attempts_per_op = 1
        self.results = {}

    def _paths(self, op):
        d = os.path.join(self.workdir, f"field_{op}")
        return d, os.path.join(d, "seg"), os.path.join(d, "features.csv"), \
            os.path.join(d, "pred.csv")

    def run(self, op):
        d, seg, feats, pred = self._paths(op)
        for argv in (["segment", d, "--out", seg],
                     ["features", d, seg, "--truth", d, "--out", feats],
                     ["classify", self.model, feats, "--out", pred]):
            rc, err = _quiet(cli.main, argv)
            if rc != 0:
                self.results[op] = err
                return False
        self.results[op] = None
        return True

    def check(self):
        matched = planted = 0
        dead = len(self.fields) - 1
        for op, scene in enumerate(self.fields):
            err = self.results[op]
            if err is not None:
                require(op == dead and "degenerate" in err,
                        f"field {op} failed: {err.strip()}")
                continue
            d, seg, feats, pred = self._paths(op)
            labels = checks.read_pgm(os.path.join(seg, "labels.pgm"))
            with open(os.path.join(seg, "organisms.json"), encoding="utf-8") as fh:
                doc = json.load(fh)
            count = doc["component_count"]
            require(labels.max() == count,
                    f"field {op}: labels.pgm max {labels.max()} != component_count {count}")
            area = np.bincount(labels.ravel(), minlength=count + 1)
            kept = [o["id"] for o in doc["organisms"]]
            dropped = int(np.sum(area[1:] < MIN_AREA_PX))
            require(len(kept) + dropped == count,
                    f"field {op}: {len(kept)} kept + {dropped} dropped != {count}")
            require(kept == [i for i in range(1, count + 1) if area[i] >= MIN_AREA_PX],
                    f"field {op}: kept organisms are not the components >= {MIN_AREA_PX} px")
            with open(feats, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            require([int(r["organism_id"]) for r in rows] == kept,
                    f"field {op}: feature rows do not match kept organisms")
            for r in rows:
                i = int(r["organism_id"])
                require(int(r["area"]) == area[i], f"field {op} organism {i}: area")
                require(int(r["convex_area"]) >= int(r["area"]),
                        f"field {op} organism {i}: convex_area < area")
                require(0.0 <= float(r["eccentricity"]) <= 1.0,
                        f"field {op} organism {i}: eccentricity outside [0, 1]")
            with open(pred, encoding="utf-8", newline="") as fh:
                preds = list(csv.DictReader(fh))
            require([p["organism_id"] for p in preds] == [r["organism_id"] for r in rows],
                    f"field {op}: prediction rows do not match feature rows")
            matches = checks.majority_truth(labels, scene.truth.labels.astype(np.int64))
            species = {p.id: p.species_index for p in scene.organisms}
            scored = [(int(p["predicted_label"]), species[matches[int(p["organism_id"])]])
                      for p in preds if int(p["organism_id"]) in matches]
            agree = sum(a == b for a, b in scored) / len(scored)
            require(agree >= self.AGREEMENT_FLOOR,
                    f"field {op}: predictions agree with planted species for "
                    f"{agree:.3f}, below {self.AGREEMENT_FLOOR}")
            matched += len({matches[i] for i in kept if i in matches})
            planted += len(scene.organisms)
        require(planted, "no field was segmented")
        return {"recall": matched / planted}


WORKLOADS = {w.name: w for w in (Corpus, Mccv, DenseField)}

