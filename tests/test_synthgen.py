import ast
import hashlib
import json
import pathlib

import numpy as np
import pytest

import algaeid
from algaeid.illumination import CorrectionConfig, estimate_background, subtract_background
from algaeid.segmentation import (LabelMap, Organism, binarize,
                                  connected_components, extract_organisms,
                                  fuse_masks, otsu_threshold)
from algaeid.synthgen import (MAX_SCENE_PIXELS, PlantedOrganism, SceneSpec, SpeciesSpec,
                              _dilate1, default_catalog, generate_corpus, generate_scene,
                              ground_truth_json, match_organisms_to_truth,
                              read_ground_truth, save_ground_truth)

from helpers import numpy_build, oracle_dilate1, traced_peak

CATALOG_ABUNDANCE_WEIGHTS = (751, 382, 500, 548, 299, 131)


def test_catalog_shape():
    catalog = default_catalog()
    assert len(catalog) == 6
    names = [sp.name for sp in catalog]
    assert len(set(names)) == 6
    for sp in catalog:
        assert len(sp.signature) == 6
        assert all(s >= 0 for s in sp.signature)


def test_catalog_abundance_ratios():
    catalog = default_catalog()
    weights = [sp.abundance for sp in catalog]
    assert tuple(int(w) for w in weights) == CATALOG_ABUNDANCE_WEIGHTS
    rarest = min(weights) / sum(weights)
    assert abs(rarest - 131 / 2611) < 1e-12


def test_catalog_filament_pair_shapes_close_signatures_apart():
    catalog = default_catalog()
    filaments = [sp for sp in catalog if sp.shape_family == "filament"]
    assert len(filaments) == 2
    a, b = filaments
    for pa, pb in zip(a.size_range + a.eccentricity_range,
                      b.size_range + b.eccentricity_range):
        assert abs(pa - pb) / max(abs(pa), abs(pb)) < 0.10
    sig_a = np.array(a.signature)
    sig_b = np.array(b.signature)
    # signatures differ by more than any within-pair shape parameter does
    assert np.linalg.norm(sig_a - sig_b) / np.linalg.norm(sig_a) > 0.10


def test_species_validation():
    with pytest.raises(ValueError):
        SpeciesSpec("x", "blob", (5, 10), (0, 0.5), (1.0,) * 6, 0.1, 1.0)
    with pytest.raises(ValueError):
        SpeciesSpec("x", "filament", (0, 10), (0, 0.5), (1.0,) * 6, 0.1, 1.0)
    with pytest.raises(ValueError):
        SpeciesSpec("x", "filament", (5, 10), (0, 0.5), (-1.0,) * 6, 0.1, 1.0)
    with pytest.raises(ValueError):
        SpeciesSpec("x", "filament", (5, 10), (0, 0.5), (1.0,) * 6, 0.0, 1.0)


def test_scene_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec(noise_sigma=-1.0)
    with pytest.raises(ValueError):
        SceneSpec(vignette_strength=1.0)
    with pytest.raises(ValueError):
        SceneSpec(width=4)
    with pytest.raises(ValueError, match=r"^scene must have at most 16777216 pixels \(2\^24\), "
                                         r"got 4097x4096$"):
        SceneSpec(width=4097, height=4096)
    spec = SceneSpec(width=4096, height=4096)  # at the limit; nothing is rendered
    assert spec.width * spec.height == MAX_SCENE_PIXELS
    with pytest.raises(ValueError, match="^noise_sigma must be a number, got True$"):
        SceneSpec(noise_sigma=True)


def test_scene_deterministic_bitwise():
    spec = SceneSpec(width=96, height=96, n_organisms=5, seed=99)
    catalog = default_catalog()
    s1 = generate_scene(spec, catalog)
    s2 = generate_scene(spec, catalog)
    for b1, b2 in zip(s1.stack.bands, s2.stack.bands):
        assert np.array_equal(b1, b2)
    assert np.array_equal(s1.truth.labels, s2.truth.labels)
    assert s1.organisms == s2.organisms


# SHA-256 of each part of two scenes, pinned when the renderer last changed
# its output on purpose; tests/golden.json hashes rounded PGMs, so only
# these see a one-ulp change in a band
PINNED_BUILD = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}
SCENE_DIGESTS = {
    "vignette-and-noise": (SceneSpec(seed=7), {
        "bands": "4b4ea9f151b906f1e51c81fd2ab364c580dfdd95213638c29616b7132fb16ee1",
        "truth": "e0f12bba7456197c257e52900cb86c741c35b4788eae663edaf05454e34b29f3",
        "organisms": "2e60c040be2c590ee1ce79b908f4e15bdc2765ccd492b3fba1be747910543416",
    }),
    "crowded-no-illumination": (SceneSpec(n_organisms=60, background_level=0.0,
                                          vignette_strength=0.0, seed=9), {
        "bands": "14e5df1d2fc016bbdc02ea49dfc1989caa72f1e426a1fcc8cbcffab8f04cc1ce",
        "truth": "648c54473dd99090e0d9361d015e11667f83272530e4342bb6911b7c5e260dd7",
        "organisms": "b918b8edb0aaaa05f30354b983ada6141c4c28ea88714324f2842ecc6c42ba48",
    }),
}


def scene_digests(scene):
    """SHA-256 of the band float bytes, the truth labels and the records."""
    parts = {"bands": b"".join(band.tobytes() for band in scene.stack.bands),
             "truth": scene.truth.labels.tobytes(),
             "organisms": repr(scene.organisms).encode()}
    return {name: hashlib.sha256(data).hexdigest() for name, data in parts.items()}


@pytest.mark.parametrize("case", list(SCENE_DIGESTS))
def test_scene_float_bits_pinned(case):
    spec, pinned = SCENE_DIGESTS[case]
    got = scene_digests(generate_scene(spec, default_catalog()))
    moved = [name for name in pinned if got[name] != pinned[name]]
    assert not moved, (f"{case}: the {moved} digests moved; they were pinned with "
                       f"{PINNED_BUILD}, this run uses {numpy_build()}")


def test_scene_renders_each_band_in_place():
    # every band is rendered in its own slice of one (m, h, w) float64
    # buffer, which the stack keeps; the vignette, one band of noise and the
    # truth and placement maps come on top: about 1.7 times the stack at
    # 256x256 with six bands
    spec = SceneSpec(width=256, height=256, n_organisms=16, seed=3)
    stack_bytes = 6 * 256 * 256 * 8
    assert traced_peak(generate_scene, spec, default_catalog()) <= 2.0 * stack_bytes
    bands = generate_scene(spec, default_catalog()).stack.bands
    assert all(band.base is bands[0].base for band in bands)


def test_dilate1_matches_per_pixel_oracle():
    rng = np.random.default_rng(21)
    masks = [np.ones((1, 1), bool), np.ones((1, 7), bool), np.ones((7, 1), bool),
             np.ones((5, 6), bool), np.eye(4, dtype=bool)]
    masks += [rng.random(shape) < density
              for shape in [(1, 9), (9, 1), (3, 3), (6, 11), (13, 8)] * 4
              for density in (0.1, 0.5)]
    for mask in masks:
        grown = _dilate1(mask)
        assert grown.shape == (mask.shape[0] + 2, mask.shape[1] + 2)
        assert grown.dtype == bool
        assert np.array_equal(grown, oracle_dilate1(mask)), mask.astype(int)


def test_organisms_keep_a_background_pixel_between_them():
    # no truth pixel has an 8-neighbour that belongs to another organism
    labels = generate_scene(SceneSpec(width=128, height=128, n_organisms=40, seed=4),
                            default_catalog()).truth.labels
    assert labels.max() == 40
    h, w = labels.shape
    padded = np.pad(labels, 1)
    touching = 0
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            near = padded[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
            touching += int(np.sum((labels > 0) & (near > 0) & (near != labels)))
    assert touching == 0


def test_truth_component_count_and_masks():
    spec = SceneSpec(width=128, height=128, n_organisms=10, seed=3)
    scene = generate_scene(spec, default_catalog())
    assert scene.truth.count == 10
    assert len(scene.organisms) == 10
    lab = connected_components(scene.truth.labels > 0)
    assert lab.count == 10
    for planted in scene.organisms:
        assert (scene.truth.labels == planted.id).sum() == planted.pixel_count


def test_no_negative_intensities():
    spec = SceneSpec(width=96, height=96, n_organisms=6, noise_sigma=25.0, seed=5)
    scene = generate_scene(spec, default_catalog())
    for band in scene.stack.bands:
        assert band.min() >= 0.0


def test_noiseless_single_disk_recovered_exactly():
    catalog = (SpeciesSpec("disc", "disk-colony", (16.0, 16.0), (0.0, 0.0),
                           (120.0, 100.0, 90.0, 70.0, 50.0, 30.0), 0.01, 1.0),)
    spec = SceneSpec(width=96, height=96, n_organisms=1, noise_sigma=0.0,
                     vignette_strength=0.0, background_level=100.0, seed=8)
    scene = generate_scene(spec, catalog)
    bg = estimate_background(scene.stack, CorrectionConfig())
    corrected = subtract_background(scene.stack, bg, clamp=True)
    masks = [binarize(b, otsu_threshold(b)) for b in corrected.bands]
    labels = connected_components(fuse_masks(masks))
    orgs = extract_organisms(labels, corrected, min_area_px=8)
    assert labels.count == 1
    assert len(orgs) == 1
    assert orgs[0].area == scene.organisms[0].pixel_count
    planted_mask = scene.truth.labels > 0
    found_mask = labels.labels > 0
    assert np.array_equal(planted_mask, found_mask)


def test_corpus_seeding_independent_scenes():
    catalog = default_catalog()
    template = SceneSpec(width=96, height=96, n_organisms=4)
    scenes = generate_corpus(catalog, 3, template, master_seed=1)
    assert len(scenes) == 3
    assert not np.array_equal(scenes[0].stack.bands[0], scenes[1].stack.bands[0])
    again = generate_corpus(catalog, 3, template, master_seed=1)
    for a, b in zip(scenes, again):
        assert np.array_equal(a.stack.bands[0], b.stack.bands[0])


def test_match_organisms_to_truth():
    spec = SceneSpec(width=96, height=96, n_organisms=5, seed=12)
    scene = generate_scene(spec, default_catalog())
    bg = estimate_background(scene.stack, CorrectionConfig())
    corrected = subtract_background(scene.stack, bg, clamp=True)
    masks = [binarize(b, otsu_threshold(b)) for b in corrected.bands]
    labels = connected_components(fuse_masks(masks))
    orgs = extract_organisms(labels, corrected, min_area_px=8)
    matched = match_organisms_to_truth(orgs, scene.truth, scene.organisms)
    assert len(matched) == len(orgs)
    planted_counts = np.bincount([p.species_index for p in scene.organisms],
                                 minlength=6)
    found_counts = np.bincount([m for m in matched if m is not None], minlength=6)
    assert np.array_equal(planted_counts, found_counts)

    # a tie goes to the smaller id, no overlap gives None, and a majority id
    # with no planted record is an error naming it
    truth = LabelMap(np.array([[3, 3, 2, 2, 0]]))
    planted = (PlantedOrganism(2, 4, "b", 2, (1.0,)), PlantedOrganism(3, 5, "c", 2, (1.0,)))
    tie = Organism(id=1, pixels=[(0, 0), (0, 1), (0, 2), (0, 3)])
    apart = Organism(id=2, pixels=[(0, 4)])
    assert match_organisms_to_truth([tie, apart], truth, planted) == [4, None]
    with pytest.raises(ValueError, match=r"^truth\.pgm id 2 has no record in truth\.json$"):
        match_organisms_to_truth([apart, tie], truth, planted[1:])


def test_match_counts_each_organism_of_a_batch_on_its_own():
    rng = np.random.default_rng(31)
    truth = LabelMap(rng.integers(0, 9, size=(30, 40)) * (rng.random((30, 40)) < 0.7))
    planted = tuple(PlantedOrganism(i, i % 6, "s", 1, (1.0,)) for i in range(1, 9))
    organisms = [Organism(id=k, pixels=rng.integers(0, (30, 40), size=(rng.integers(1, 30), 2)))
                 for k in range(200)]
    # ties: ids 3 and 5 on four pixels each, and ids 7 and 2 on three each
    # beside nine background pixels
    organisms.append(Organism(id=200, pixels=np.argwhere(truth.labels == 3)[:4].tolist()
                              + np.argwhere(truth.labels == 5)[:4].tolist()))
    organisms.append(Organism(id=201, pixels=np.argwhere(truth.labels == 7)[:3].tolist()
                              + np.argwhere(truth.labels == 2)[:3].tolist()
                              + np.argwhere(truth.labels == 0)[:9].tolist()))
    # no overlap, and two organisms on the same id
    organisms.append(Organism(id=202, pixels=np.argwhere(truth.labels == 0)[:20]))
    organisms += [Organism(id=203 + k, pixels=np.argwhere(truth.labels == 4)[k::2])
                  for k in range(2)]
    organisms = [organisms[i] for i in rng.permutation(len(organisms))]
    species = {p.id: p.species_index for p in planted}

    def majority(org):
        ids = truth.labels[org.pixels[:, 0], org.pixels[:, 1]]
        ids = ids[ids > 0]
        return int(np.argmax(np.bincount(ids))) if len(ids) else None

    majorities = [majority(org) for org in organisms]
    matched = match_organisms_to_truth(organisms, truth, planted)
    assert matched == [species.get(top) for top in majorities]
    by_id = dict(zip((org.id for org in organisms), matched))
    assert (by_id[200], by_id[201], by_id[202], by_id[203], by_id[204]) == (3, 2, None, 4, 4)
    # the first organism, in order, whose majority has no record is named
    for missing in ((2, 3), (3, 7), (8,)):
        first = next(top for top in majorities if top in missing)
        with pytest.raises(ValueError, match=rf"^truth\.pgm id {first} has no record"):
            match_organisms_to_truth(organisms, truth,
                                     [p for p in planted if p.id not in missing])
    # a pixel outside the map is named before any record is looked up
    outside = Organism(id=999, pixels=[(0, 0), (30, 0)])
    with pytest.raises(ValueError, match=r"^organism 999: pixel \(30, 0\) lies outside"):
        match_organisms_to_truth(organisms + [outside], truth, planted[:1])


@pytest.mark.parametrize("pixel", [(-1, 2), (2, -1), (4, 2), (2, 5)],
                         ids=["negative-row", "negative-column", "row-past-edge",
                              "column-past-edge"])
def test_match_pixels_outside_the_truth_map_name_their_organism(pixel):
    # a negative coordinate would otherwise wrap round to another organism's
    # pixel, and one past the edge raise a bare IndexError
    truth = LabelMap(np.array([[1, 1, 0, 2, 2]] * 4))
    planted = (PlantedOrganism(1, 4, "b", 8, (1.0,)), PlantedOrganism(2, 5, "c", 8, (1.0,)))
    inside = Organism(id=3, pixels=[(0, 0), (3, 4)])
    outside = Organism(id=9, pixels=[(1, 1), pixel])
    later = Organism(id=11, pixels=[(0, 0), (-1, -1)])
    message = rf"^organism 9: pixel \({pixel[0]}, {pixel[1]}\) lies outside the 4x5 truth map$"
    # with or without another organism out of range after it
    for batch in ([inside, outside, later], [inside, outside]):
        with pytest.raises(ValueError, match=message):
            match_organisms_to_truth(batch, truth, planted)
    assert match_organisms_to_truth([], truth, planted) == []


def test_ground_truth_json():
    spec = SceneSpec(width=96, height=96, n_organisms=3, seed=4)
    catalog = default_catalog()
    scene = generate_scene(spec, catalog)
    doc = ground_truth_json(scene, catalog)
    assert doc["class_names"] == [sp.name for sp in catalog]
    assert len(doc["organisms"]) == 3
    rec = doc["organisms"][0]
    assert set(rec) == {"id", "species_index", "species", "pixel_count", "signature"}
    assert len(rec["signature"]) == 6


def test_ground_truth_round_trip(tmp_path):
    catalog = default_catalog()
    scene = generate_scene(SceneSpec(width=64, height=64, n_organisms=3, seed=4), catalog)
    save_ground_truth(scene, catalog, tmp_path / "s", extra_fields={"config_sha256": "abc"})
    truth, planted, class_names = read_ground_truth(tmp_path / "s")
    assert np.array_equal(truth.labels, scene.truth.labels)
    assert planted == scene.organisms
    assert class_names == [sp.name for sp in catalog]


@pytest.mark.parametrize("edit,problem", [
    (lambda rec: {**rec, "species_index": "1"}, "species_index must be a number, got '1'"),
    (lambda rec: {**rec, "species_index": -1}, "species_index must be non-negative, got -1"),
    (lambda rec: {**rec, "signature": 5}, "signature must be a list of numbers, got 5"),
], ids=["species-string", "species-negative", "signature-number"])
def test_read_ground_truth_checks_records(tmp_path, edit, problem):
    catalog = default_catalog()
    scene = generate_scene(SceneSpec(width=64, height=64, n_organisms=2, seed=4), catalog)
    save_ground_truth(scene, catalog, tmp_path)
    doc = ground_truth_json(scene, catalog)
    doc["organisms"][1] = edit(doc["organisms"][1])
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_ground_truth(tmp_path)
    assert str(err.value) == f"{path}: {problem}"


def test_only_synthgen_names_the_truth_files():
    # synthgen writes and reads truth.pgm and truth.json; elsewhere only
    # error messages may name them
    names = []
    for source in sorted(pathlib.Path(algaeid.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in ("truth.json", "truth.pgm"):
                names.append(f"{source.name}:{node.lineno}")
    assert [n for n in names if not n.startswith("synthgen.py:")] == []


def test_placement_failure_is_reported():
    spec = SceneSpec(width=48, height=48, n_organisms=60, seed=6)
    with pytest.raises(RuntimeError):
        generate_scene(spec, default_catalog())
