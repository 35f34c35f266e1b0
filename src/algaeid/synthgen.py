"""Synthetic multi-band fluorescence scenes with ground truth.

Generates raster scenes that exercise the whole pipeline: organisms of
several shape families with per-species emission signatures, a radial
vignette standing in for inhomogeneous illumination, and Gaussian sensor
noise. Everything derives from the scene seed, so a (spec, catalog) pair
always renders bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .segmentation import BinaryMask, LabelMap, connected_components
from .stack_io import ImageStack

SHAPE_FAMILIES = (
    "disk-colony", "paired-cells", "filament", "spindle", "flagellate-ellipse",
)

DEFAULT_WAVELENGTHS_NM = (405.0, 420.0, 450.0, 470.0, 500.0, 530.0)


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
    species_mix: tuple | None = None

    def __post_init__(self):
        if self.width < 8 or self.height < 8:
            raise ValueError("scene must be at least 8x8")
        if self.n_organisms < 0:
            raise ValueError("organism count must be non-negative")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be non-negative")
        if not 0.0 <= self.vignette_strength < 1.0:
            raise ValueError("vignette strength must lie in [0, 1)")
        if self.background_level < 0:
            raise ValueError("background level must be non-negative")


@dataclass(frozen=True)
class PlantedOrganism:
    """Generator-side record for one organism: the oracle for tests."""

    id: int
    species_index: int
    species_name: str
    pixel_count: int
    signature: tuple       # per-band planted intensity (jitter applied)
    brightness_factor: float


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


def _ellipse_mask(length, ecc, angle):
    """Filled rotated ellipse; semi-minor axis floored at 1.2 px so the
    rasterization stays 8-connected."""
    a = max(length / 2.0, 1.2)
    b = max(a * math.sqrt(max(0.0, 1.0 - ecc * ecc)), 1.2)
    r = int(math.ceil(a)) + 1
    yy, xx = np.mgrid[-r:r + 1, -r:r + 1]
    ca, sa = math.cos(angle), math.sin(angle)
    u = xx * ca + yy * sa
    v = -xx * sa + yy * ca
    return _trim((u / a) ** 2 + (v / b) ** 2 <= 1.0)


def _segment_mask(length, thickness, angle):
    """Pixels within thickness/2 of a centered line segment."""
    half = length / 2.0
    r = int(math.ceil(half + thickness)) + 1
    yy, xx = np.mgrid[-r:r + 1, -r:r + 1]
    ca, sa = math.cos(angle), math.sin(angle)
    u = xx * ca + yy * sa
    v = -xx * sa + yy * ca
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
    yy, xx = np.mgrid[-size:size + 1, -size:size + 1]
    _paste(canvas, _trim(xx ** 2 + yy ** 2 <= cell_r ** 2), size, size)
    for _ in range(n_cells - 1):
        # anchor each new cell on the existing blob so the colony stays connected
        ys, xs = np.nonzero(canvas)
        k = int(rng.integers(0, len(ys)))
        ang = rng.uniform(0, 2 * math.pi)
        step = cell_r * rng.uniform(0.4, 0.9)
        cy = int(round(ys[k] + step * math.sin(ang)))
        cx = int(round(xs[k] + step * math.cos(ang)))
        cy = int(np.clip(cy, size - length / 2, size + length / 2))
        cx = int(np.clip(cx, size - max(env_b, cell_r), size + max(env_b, cell_r)))
        rr = cell_r * rng.uniform(0.7, 1.0)
        cell = _trim(xx ** 2 + yy ** 2 <= rr ** 2)
        _paste(canvas, cell, cy, cx)
    return _trim(canvas)


def _paired_mask(length, ecc, angle):
    """Two touching ellipsoidal cells side by side."""
    cell_len = length * 0.95
    a = max(cell_len / 2.0, 1.5)
    b = max(a * math.sqrt(max(0.0, 1.0 - ecc * ecc)), 1.3)
    r = int(math.ceil(a + 2 * b)) + 2
    yy, xx = np.mgrid[-r:r + 1, -r:r + 1]
    ca, sa = math.cos(angle), math.sin(angle)
    u = xx * ca + yy * sa
    v = -xx * sa + yy * ca
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


def _is_single_component(mask):
    lab = connected_components(BinaryMask(foreground=mask))
    return lab.count == 1


def _dilate1(mask):
    """8-neighbourhood dilation, returned on a 1-px-larger canvas."""
    p = np.pad(mask, 2)
    out = np.zeros_like(p)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            out |= np.roll(np.roll(p, dy, axis=0), dx, axis=1)
    return out[1:-1, 1:-1]


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
    weights = np.array(
        spec.species_mix if spec.species_mix is not None
        else [sp.abundance for sp in catalog], dtype=np.float64)
    if len(weights) != len(catalog) or np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("species mix must be non-negative weights per species")
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
            if not _is_single_component(mask):
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
                for b in range(m):
                    contributions[b, y0:y0 + mh, x0:x0 + mw] += signature[b] * mask
                truth[y0:y0 + mh, x0:x0 + mw][mask] = organism_id
                # grown is (mh+2, mw+2); placement margins keep it in bounds
                occupied_dilated[y0 - 1:y0 + mh + 1, x0 - 1:x0 + mw + 1] |= grown
                planted.append(PlantedOrganism(
                    id=organism_id,
                    species_index=species_index,
                    species_name=species.name,
                    pixel_count=int(mask.sum()),
                    signature=signature,
                    brightness_factor=factor,
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
    yy, xx = np.mgrid[0:h, 0:w]
    d2 = (yy - cy) ** 2 + (xx - cx) ** 2
    vignette = 1.0 - spec.vignette_strength * d2 / d2.max()

    wavelengths = (DEFAULT_WAVELENGTHS_NM if m == len(DEFAULT_WAVELENGTHS_NM)
                   else tuple(400.0 + 25.0 * i for i in range(m)))
    bands = []
    for b in range(m):
        band = (spec.background_level + contributions[b]) * vignette
        if spec.noise_sigma > 0:
            band = band + rng.normal(0.0, spec.noise_sigma, size=(h, w))
        bands.append(np.clip(band, 0.0, None))
    stack = ImageStack(bands=tuple(bands), wavelengths_nm=wavelengths,
                       pixel_pitch_um=1.2, role_tag="raw")
    return SceneResult(
        stack=stack,
        truth=LabelMap(labels=truth, count=spec.n_organisms),
        organisms=tuple(planted),
    )


def generate_corpus(catalog, n_scenes, scene_template=None, master_seed=0):
    """Independent scenes with per-scene seeds derived from the master seed."""
    template = scene_template or SceneSpec()
    scenes = []
    for i in range(n_scenes):
        seed = int(np.random.SeedSequence(
            [int(master_seed), i]).generate_state(1)[0])
        scenes.append(generate_scene(replace(template, seed=seed), catalog))
    return scenes


def majority_truth_ids(organisms, truth):
    """Ground-truth id covering most pixels of each extracted organism (ties
    go to the smaller id); None when an organism overlaps no planted one."""
    ids_per_organism = []
    for org in organisms:
        ids = truth.labels[org.pixels[:, 0], org.pixels[:, 1]]
        ids = ids[ids > 0]
        ids_per_organism.append(int(np.argmax(np.bincount(ids))) if len(ids) else None)
    return ids_per_organism


def match_organisms_to_truth(organisms, truth, planted):
    """Species index per extracted organism by majority overlap with the
    ground-truth label map; None when an organism overlaps no planted one."""
    species_by_id = {p.id: p.species_index for p in planted}
    return [None if i is None else species_by_id[i]
            for i in majority_truth_ids(organisms, truth)]


def ground_truth_json(scene, catalog):
    """JSON-ready ground truth: one record per planted organism."""
    return {
        "class_names": [sp.name for sp in catalog],
        "organisms": [
            {
                "id": p.id,
                "species_index": p.species_index,
                "species": p.species_name,
                "pixel_count": p.pixel_count,
                "signature": list(p.signature),
            }
            for p in scene.organisms
        ],
    }
