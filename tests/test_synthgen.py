import ast
import json
import pathlib

import numpy as np
import pytest

import algaeid
from algaeid.illumination import CorrectionConfig, estimate_background, subtract_background
from algaeid.segmentation import (LabelMap, Organism, binarize,
                                  connected_components, extract_organisms,
                                  fuse_masks, otsu_threshold)
from algaeid.synthgen import (PlantedOrganism, SceneSpec, SpeciesSpec,
                              default_catalog, generate_corpus, generate_scene,
                              ground_truth_json, match_organisms_to_truth,
                              read_ground_truth, save_ground_truth)

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
    with pytest.raises(ValueError, match=message):
        match_organisms_to_truth([inside, outside, later], truth, planted)
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
