"""Synthetic multi-band fluorescence scenes with ground truth.

Generates raster scenes that exercise the whole pipeline: organisms of
several shape families with per-species emission signatures, a radial
vignette standing in for inhomogeneous illumination, and Gaussian sensor
noise. Everything derives from the scene seed, so a (spec, catalog) pair
always renders bit-identical output.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import fields
from .features import pixel_batch
from .segmentation import LabelMap, connected_components, labelmap_to_pgm
from .stack_io import (ImageStack, atomic_write_json, read_json_object, read_pgm,
                       string_list)

SHAPE_FAMILIES = (
    "disk-colony", "paired-cells", "filament", "spindle", "flagellate-ellipse",
)

DEFAULT_WAVELENGTHS_NM = (405.0, 420.0, 450.0, 470.0, 500.0, 530.0)

# 4096 x 4096: one float64 band is 128 MiB, and a scene renders several
MAX_SCENE_PIXELS = 2 ** 24

TRUTH_PGM = "truth.pgm"
TRUTH_JSON = "truth.json"
# the truth.json key of each PlantedOrganism field, in field order
_TRUTH_RECORD_KEYS = ("id", "species_index", "species", "pixel_count", "signature")


@dataclass(frozen=True)
class SpeciesSpec:
    name: str
    shape_family: str
    size_range: tuple          # overall length in px (min, max)
    eccentricity_range: tuple
    signature: tuple           # mean emission per band, ascending wavelength
    jitter: float              # per-organism brightness factor spread
    abundance: float

    def __post_init__(self):
        if self.shape_family not in SHAPE_FAMILIES:
            raise ValueError(f"unknown shape family {self.shape_family!r}")
        if any(s < 0 for s in self.signature):
            raise ValueError("signature values must be non-negative")
        lo, hi = self.size_range
        if lo <= 0 or hi < lo:
            raise ValueError("size range must be positive and ordered")
        if not 0.0 < self.jitter < 1.0:
            raise ValueError("jitter must lie in (0, 1)")
        if self.abundance <= 0:
            raise ValueError("abundance weight must be positive")


@dataclass(frozen=True)
class SceneSpec:
    width: int = 192
    height: int = 192
    n_organisms: int = 16
    background_level: float = 120.0
    vignette_strength: float = 0.25
    noise_sigma: float = 2.0
    seed: int = 0

    def __post_init__(self):
        fields.coerce(self)
        if self.width < 8 or self.height < 8:
            raise ValueError("scene must be at least 8x8")
        if self.width * self.height > MAX_SCENE_PIXELS:
            raise ValueError(f"scene must have at most {MAX_SCENE_PIXELS} pixels (2^24), "
                             f"got {self.width}x{self.height}")
        if self.n_organisms < 0:
            raise ValueError("organism count must be non-negative")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be non-negative")
        if not 0.0 <= self.vignette_strength < 1.0:
            raise ValueError("vignette strength must lie in [0, 1)")
        if self.background_level < 0:
            raise ValueError("background level must be non-negative")
        fields.non_negative(self, "seed")


@dataclass(frozen=True)
class SynthConfig:
    """The `synth` config section: `scenes` scenes like `scene_spec()`,
    with SceneSpec's default illumination and noise."""
    scenes: int = 8
    width: int = SceneSpec.width
    height: int = SceneSpec.height
    organisms_per_scene: int = SceneSpec.n_organisms
    master_seed: int = 0

    def __post_init__(self):
        fields.coerce(self)
        fields.non_negative(self, "master_seed")
        self.scene_spec()  # SceneSpec checks the ranges

    def scene_spec(self):
        return SceneSpec(self.width, self.height, self.organisms_per_scene)


@dataclass(frozen=True)
class PlantedOrganism:
    """Generator-side record for one organism: the oracle for tests."""

    id: int
    species_index: int
    species_name: str
    pixel_count: int
    signature: tuple       # per-band planted intensity (jitter applied)

    def __post_init__(self):
        fields.coerce(self)
        fields.non_negative(self, "species_index")
        object.__setattr__(self, "signature", fields.as_numbers("signature", self.signature))


@dataclass(frozen=True)
class SceneResult:
    stack: ImageStack
    truth: LabelMap
    organisms: tuple


def default_catalog():
    """Six species across three signature clusters, with two filamentous
    species whose shape parameters differ by well under 10 percent so only
    their emission signatures tell them apart. Abundance weights are fixed
    at 751:382:500:548:299:131, making rarity differ strongly by class."""
    return (
        SpeciesSpec("scenedesmus_obliquus", "disk-colony",
                    (14.0, 26.0), (0.0, 0.45),
                    (150.0, 130.0, 118.0, 92.0, 46.0, 24.0), 0.18, 751.0),
        SpeciesSpec("scenedesmus_quadricauda", "paired-cells",
                    (10.0, 20.0), (0.55, 0.75),
                    (118.0, 132.0, 104.0, 70.0, 52.0, 20.0), 0.18, 382.0),
        SpeciesSpec("ankistrodesmus_falcatus", "spindle",
                    (16.0, 28.0), (0.93, 0.97),
                    (144.0, 118.0, 132.0, 100.0, 38.0, 28.0), 0.18, 500.0),
        SpeciesSpec("anabaena_flos_aquae", "filament",
                    (26.0, 40.0), (0.990, 0.998),
                    (46.0, 56.0, 66.0, 98.0, 134.0, 154.0), 0.18, 548.0),
        SpeciesSpec("pseudanabaena_tremula", "filament",
                    (24.5, 37.5), (0.991, 0.998),
                    (40.0, 47.0, 59.0, 80.0, 112.0, 140.0), 0.18, 299.0),
        SpeciesSpec("euglena_gracilis", "flagellate-ellipse",
                    (12.0, 24.0), (0.75, 0.90),
                    (108.0, 126.0, 142.0, 152.0, 88.0, 58.0), 0.18, 131.0),
    )


def _trim(mask):
    ys, xs = np.nonzero(mask)
    return mask[ys.min():ys.max() + 1, xs.min():xs.max() + 1]


def _frame(r, angle):
    """Coordinates u (along `angle`) and v (across it) of the pixels of a
    (2r+1)-square grid centred on 0."""
    xx = np.arange(-r, r + 1)
    yy = xx[:, None]
    ca, sa = math.cos(angle), math.sin(angle)
    return xx * ca + yy * sa, -xx * sa + yy * ca


def _ellipse_mask(length, ecc, angle):
    """Filled rotated ellipse; semi-minor axis floored at 1.2 px so the
    rasterization stays 8-connected."""
    a = max(length / 2.0, 1.2)
    b = max(a * math.sqrt(max(0.0, 1.0 - ecc * ecc)), 1.2)
    r = int(math.ceil(a)) + 1
    u, v = _frame(r, angle)
    return _trim((u / a) ** 2 + (v / b) ** 2 <= 1.0)


def _segment_mask(length, thickness, angle):
    """Pixels within thickness/2 of a centered line segment."""
    half = length / 2.0
    r = int(math.ceil(half + thickness)) + 1
    u, v = _frame(r, angle)
    du = np.maximum(np.abs(u) - half, 0.0)
    dist = np.sqrt(du ** 2 + v ** 2)
    return _trim(dist <= max(thickness / 2.0, 1.05))


def _paste(canvas, mask, cy, cx):
    h, w = mask.shape
    y0 = cy - h // 2
    x0 = cx - w // 2
    canvas[y0:y0 + h, x0:x0 + w] |= mask


def _colony_mask(length, ecc, rng):
    """Cluster of overlapping cells inside an elliptical envelope."""
    size = int(math.ceil(length)) + 8
    canvas = np.zeros((2 * size + 1, 2 * size + 1), dtype=bool)
    n_cells = int(rng.integers(3, 6))
    cell_r = max(length / 4.0, 2.0)
    env_b = (length / 2.0) * math.sqrt(max(0.0, 1.0 - ecc * ecc))
    squares = np.arange(-size, size + 1) ** 2
    r2 = squares[:, None] + squares
    _paste(canvas, _trim(r2 <= cell_r ** 2), size, size)
    for _ in range(n_cells - 1):
        # anchor each new cell on the existing blob so the colony stays connected
        ys, xs = np.nonzero(canvas)
        k = int(rng.integers(0, len(ys)))
        ang = rng.uniform(0, 2 * math.pi)
        step = cell_r * rng.uniform(0.4, 0.9)
        cy = int(round(ys[k] + step * math.sin(ang)))
        cx = int(round(xs[k] + step * math.cos(ang)))
        cy = int(min(max(cy, size - length / 2), size + length / 2))
        cx = int(min(max(cx, size - max(env_b, cell_r)), size + max(env_b, cell_r)))
        rr = cell_r * rng.uniform(0.7, 1.0)
        _paste(canvas, _trim(r2 <= rr ** 2), cy, cx)
    return _trim(canvas)


def _paired_mask(length, ecc, angle):
    """Two touching ellipsoidal cells side by side."""
    cell_len = length * 0.95
    a = max(cell_len / 2.0, 1.5)
    b = max(a * math.sqrt(max(0.0, 1.0 - ecc * ecc)), 1.3)
    r = int(math.ceil(a + 2 * b)) + 2
    u, v = _frame(r, angle)
    m1 = (u / a) ** 2 + ((v - b * 0.95) / b) ** 2 <= 1.0
    m2 = (u / a) ** 2 + ((v + b * 0.95) / b) ** 2 <= 1.0
    return _trim(m1 | m2)


def _render_mask(species, rng):
    length = rng.uniform(*species.size_range)
    ecc = rng.uniform(*species.eccentricity_range)
    angle = rng.uniform(0.0, math.pi)
    family = species.shape_family
    if family == "disk-colony":
        return _colony_mask(length, ecc, rng)
    if family == "paired-cells":
        return _paired_mask(length, ecc, angle)
    if family == "filament":
        thickness = max(length * math.sqrt(max(0.0, 1.0 - ecc * ecc)), 2.1)
        return _segment_mask(length, thickness, angle)
    # spindle and flagellate-ellipse share the ellipse renderer; their
    # parameter ranges set them apart
    return _ellipse_mask(length, ecc, angle)


def _dilate1(mask):
    """8-neighbourhood dilation of an (h, w) mask onto an (h+2, w+2) canvas
    whose pixel (y, x) lies over mask pixel (y-1, x-1): the mask ORed in at
    each of the 9 offsets."""
    h, w = mask.shape
    out = np.zeros((h + 2, w + 2), dtype=bool)
    for dy in range(3):
        for dx in range(3):
            out[dy:dy + h, dx:dx + w] |= mask
    return out


def generate_scene(spec, catalog):
    """Render one scene: a raw stack, the ground-truth label map, and the
    per-organism records.

    Organisms are placed without overlap and with at least one background
    pixel between them in the 8-neighbourhood sense, so the ground-truth
    component count always equals the planted organism count. Raises if a
    placement cannot be found after bounded retries (density too high).
    """
    if not catalog:
        raise ValueError("catalog must be non-empty")
    m = len(catalog[0].signature)
    for sp in catalog:
        if len(sp.signature) != m:
            raise ValueError("all species must share the signature length")
    weights = np.array([sp.abundance for sp in catalog], dtype=np.float64)
    weights = weights / weights.sum()

    rng = np.random.default_rng(spec.seed)
    h, w = spec.height, spec.width
    truth = np.zeros((h, w), dtype=np.int32)
    occupied_dilated = np.zeros((h, w), dtype=bool)
    contributions = np.zeros((m, h, w), dtype=np.float64)
    planted = []

    for organism_id in range(1, spec.n_organisms + 1):
        species_index = int(rng.choice(len(catalog), p=weights))
        species = catalog[species_index]
        placed = False
        for _ in range(60):
            mask = _render_mask(species, rng)
            if connected_components(mask).count != 1:
                continue
            mh, mw = mask.shape
            if mh > h - 4 or mw > w - 4:
                continue
            grown = _dilate1(mask)
            for _ in range(120):
                y0 = int(rng.integers(2, h - mh - 1))
                x0 = int(rng.integers(2, w - mw - 1))
                if np.any(occupied_dilated[y0:y0 + mh, x0:x0 + mw] & mask):
                    continue
                factor = 1.0 + species.jitter * rng.uniform(-1.0, 1.0)
                signature = tuple(s * factor for s in species.signature)
                contributions[:, y0:y0 + mh, x0:x0 + mw] += np.multiply.outer(signature, mask)
                truth[y0:y0 + mh, x0:x0 + mw][mask] = organism_id
                # grown is (mh+2, mw+2); placement margins keep it in bounds
                occupied_dilated[y0 - 1:y0 + mh + 1, x0 - 1:x0 + mw + 1] |= grown
                planted.append(PlantedOrganism(
                    id=organism_id,
                    species_index=species_index,
                    species_name=species.name,
                    pixel_count=int(mask.sum()),
                    signature=signature,
                ))
                placed = True
                break
            if placed:
                break
        if not placed:
            raise RuntimeError(
                f"could not place organism {organism_id} after bounded retries; "
                "reduce density or enlarge the scene"
            )

    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    # 1 - strength * d2 / max(d2), built in the d2 buffer in that order
    vignette = (np.arange(h)[:, None] - cy) ** 2 + (np.arange(w) - cx) ** 2
    top = vignette.max()
    vignette *= spec.vignette_strength
    vignette /= top
    np.subtract(1.0, vignette, out=vignette)

    wavelengths = (DEFAULT_WAVELENGTHS_NM if m == len(DEFAULT_WAVELENGTHS_NM)
                   else tuple(400.0 + 25.0 * i for i in range(m)))
    # each band is rendered in its own slice of the contributions, which
    # the stack then holds as its bands
    for band in contributions:
        band += spec.background_level
        band *= vignette
        if spec.noise_sigma > 0:
            band += rng.normal(0.0, spec.noise_sigma, size=(h, w))
        np.clip(band, 0.0, None, out=band)
    stack = ImageStack(bands=tuple(contributions), wavelengths_nm=wavelengths, role_tag="raw")
    return SceneResult(
        stack=stack,
        truth=LabelMap(truth),
        organisms=tuple(planted),
    )


def corpus_specs(n_scenes, scene_template=None, master_seed=0):
    """Specs of `n_scenes` independent scenes like the template, with
    per-scene seeds derived from the master seed."""
    if n_scenes < 1:
        raise ValueError(f"n_scenes must be >= 1, got {n_scenes}")
    template = scene_template or SceneSpec()
    return [replace(template, seed=int(np.random.SeedSequence(
                [int(master_seed), i]).generate_state(1)[0]))
            for i in range(n_scenes)]


def generate_corpus(catalog, n_scenes, scene_template=None, master_seed=0):
    """The scenes of `corpus_specs(n_scenes, scene_template, master_seed)`."""
    return [generate_scene(spec, catalog)
            for spec in corpus_specs(n_scenes, scene_template, master_seed)]


def match_organisms_to_truth(organisms, truth, planted):
    """Species index per extracted organism: that of the ground-truth id
    covering most of its pixels (ties go to the smaller id), or None when
    it overlaps no planted organism. A majority id with no record among
    `planted` raises ValueError for the first organism in order that has
    one, as does a pixel outside the truth map.

    The truth id under every pixel of the organisms' `pixel_batch` is read
    once; one sort groups the (organism, id) pairs, and each organism's
    majority is the largest of its pairs' counts, ranked with the smaller
    id first."""
    organisms = list(organisms)
    if not organisms:
        return []
    pixels, sizes, _ = pixel_batch(organisms, *truth.labels.shape, "truth map")
    ids = truth.labels[pixels[:, 0], pixels[:, 1]].astype(np.int64)
    owner = np.repeat(np.arange(len(organisms)), sizes)
    span = truth.count + 1  # above every id
    pairs = np.sort((owner * span + ids)[ids > 0], kind="stable")
    new = np.empty(len(pairs), dtype=bool)
    new[:1] = True
    np.not_equal(pairs[1:], pairs[:-1], out=new[1:])
    heads = np.flatnonzero(new)
    counts = np.diff(np.append(heads, len(pairs)))
    owners, top_ids = np.divmod(pairs[heads], span)
    # a larger count ranks higher, and of equal counts the smaller id
    rank = np.full(len(organisms), -1)
    np.maximum.at(rank, owners, counts * span + (span - 1 - top_ids))
    species_by_id = {p.id: p.species_index for p in planted}
    matched = []
    for r in rank.tolist():
        top = None if r < 0 else span - 1 - r % span
        if top is not None and top not in species_by_id:
            raise ValueError(f"truth.pgm id {top} has no record in truth.json")
        matched.append(species_by_id.get(top))
    return matched


def ground_truth_json(scene, catalog):
    """JSON-ready ground truth: the class names and one record per planted
    organism."""
    return {"class_names": [sp.name for sp in catalog],
            "organisms": [dict(zip(_TRUTH_RECORD_KEYS, (
                p.id, p.species_index, p.species_name, p.pixel_count, p.signature)))
                for p in scene.organisms]}


def save_ground_truth(scene, catalog, directory, extra_fields=None):
    """Write the scene's truth label map and its `ground_truth_json`, with
    `extra_fields` added, into `directory`."""
    os.makedirs(directory, exist_ok=True)
    labelmap_to_pgm(scene.truth, os.path.join(directory, TRUTH_PGM))
    atomic_write_json(os.path.join(directory, TRUTH_JSON),
                      {**ground_truth_json(scene, catalog), **(extra_fields or {})})


def read_ground_truth(directory):
    """(truth LabelMap, PlantedOrganism records, class_names) of the ground
    truth that `save_ground_truth` wrote into `directory`; errors name the
    file or, for a missing key, the directory."""
    path = os.path.join(directory, TRUTH_JSON)
    doc = read_json_object(path, "ground truth")
    truth = LabelMap(read_pgm(os.path.join(directory, TRUTH_PGM)))
    try:
        class_names = string_list(doc["class_names"], "class_names")
        records = doc["organisms"]
        if not isinstance(records, list) or not all(isinstance(o, dict) for o in records):
            raise ValueError("organisms must be a list of objects")
        planted = tuple(PlantedOrganism(*(o[key] for key in _TRUTH_RECORD_KEYS))
                        for o in records)
    except KeyError as e:
        raise ValueError(f"{directory}: truth.json has no key {e}") from None
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return truth, planted, class_names
