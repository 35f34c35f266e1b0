import dataclasses
import math

import numpy as np
import pytest

from algaeid.features import (FeatureVector, ModelVariant, _convex_areas,
                              apply_normalizer, assemble, compute_features,
                              feature_names, feature_vectors, fit_normalizer,
                              read_features_csv, write_features_csv)
from algaeid.illumination import (CorrectionConfig, estimate_background,
                                  subtract_background)
from algaeid.segmentation import Organism, bboxes, pixel_table, segment
from algaeid.stack_io import ImageStack
from algaeid.synthgen import SceneSpec, default_catalog, generate_corpus, generate_scene

from helpers import (disk_pixels, ellipse_pixels, oracle_convex_area,
                     organism_from_pixels, random_organism, reference_convex_area,
                     reference_features)

L_SHAPE = [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)]


def square(n, oy=0, ox=0):
    return [(oy + y, ox + x) for y in range(n) for x in range(n)]


def _corrected_stack(bands):
    wl = tuple(405.0 + 25 * i for i in range(len(bands)))
    base = ImageStack(bands=tuple(np.zeros_like(b) for b in bands),
                      wavelengths_nm=wl, role_tag="background")
    return base.with_bands(tuple(bands), role_tag="corrected")


def _features(pixels):
    """The FeatureVector of the organism with these pixels, from
    `feature_vectors` on a zero stack that covers it."""
    org = organism_from_pixels(pixels)
    height, width = org.pixels.max(axis=0) + 1
    return feature_vectors([org], _corrected_stack([np.zeros((height, width))]))[0]


def _batch_convex_areas(organisms):
    """`_convex_areas` of the organisms as one batch, for pixel sets that no
    stack holds: negative coordinates, or coordinates 2**30 apart."""
    pixels, sizes = pixel_table(organisms)
    return _convex_areas(pixels, sizes, bboxes(pixels, sizes))


def test_area_fixtures():
    assert _features(square(5)).area == 25
    assert _features([(3, 4)]).area == 1
    assert _features(L_SHAPE).area == 5


def test_convex_area_convex_blobs():
    assert _features(square(5)).convex_area == 25
    triangle = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert _features(triangle).convex_area == 6


def test_convex_area_degenerate_shapes():
    assert _features([(2, 2)]).convex_area == 1
    # diagonal line: hull is a segment, lattice points via gcd
    diag = [(i, i) for i in range(5)]
    assert _features(diag).convex_area == 5
    horiz = [(0, x) for x in range(7)]
    assert _features(horiz).convex_area == 7
    sparse = [(0, 0), (2, 4)]  # collinear endpoints only
    assert _features(sparse).convex_area == 3


def test_convex_area_matches_halfplane_oracle():
    rng = np.random.default_rng(19)
    organisms = [random_organism(rng) for _ in range(100)]
    # shapes random_organism never yields: strips one or two pixels wide,
    # diagonals, L shapes, single pixels, two pixels far apart and scattered
    # pixel sets that are not connected
    for n in range(1, 9):
        organisms += [organism_from_pixels([(4, x) for x in range(n)]),
                      organism_from_pixels([(y, 3) for y in range(n)]),
                      organism_from_pixels([(y, x) for y in (5, 6) for x in range(n)]),
                      organism_from_pixels([(y, x) for y in range(n) for x in (2, 3)]),
                      organism_from_pixels([(i, i) for i in range(n)]),
                      organism_from_pixels([(i, -2 * i) for i in range(n)]),
                      organism_from_pixels([(y, 0) for y in range(n)] + [(n - 1, x)
                                                                        for x in range(1, n)]),
                      organism_from_pixels([(0, x) for x in range(n)] + [(y, n - 1)
                                                                        for y in range(1, n)])]
    organisms += [organism_from_pixels([rng.integers(-20, 20, size=2)]) for _ in range(5)]
    organisms += [organism_from_pixels([(0, 0), rng.integers(-600, 600, size=2)])
                  for _ in range(5)]
    while len(organisms) < 400:
        h, w = rng.integers(1, 13, size=2)
        mask = rng.random((h, w)) < rng.uniform(0.05, 0.6)
        if mask.any():
            organisms.append(organism_from_pixels(np.argwhere(mask) - [h // 2, w // 2]))
    organisms = [organisms[i] for i in rng.permutation(len(organisms))]
    counts = _batch_convex_areas(organisms)
    for org, count in zip(organisms, counts):
        assert count == oracle_convex_area(org.pixels)
        assert count >= org.area
        # no side leaks across an organism boundary of the batch
        assert _batch_convex_areas([org]) == [count]
    # the hull must not depend on the pixels being in row-major order
    shuffled = [dataclasses.replace(org, pixels=rng.permutation(org.pixels))
                for org in organisms]
    assert _batch_convex_areas(shuffled) == counts


def test_convex_area_long_cascade_in_a_batch_of_small_ones():
    # a disk with a flat foot along the row below it: the foot's far ends
    # hide most of the disk's lower sides, which lose their points one
    # layer per pass, about 19 passes, while the small organisms' sides
    # finish within a few
    ys, xs = np.mgrid[-40:41, -40:41]
    disk = np.argwhere(xs * xs + ys * ys <= 40 * 40)
    foot = [(81, x) for x in range(-100, 180)]
    footed = organism_from_pixels(np.concatenate((disk, foot)))
    rng = np.random.default_rng(31)
    small = [random_organism(rng) for _ in range(60)]
    for place in (0, 30, 60):
        organisms = small[:place] + [footed] + small[place:]
        counts = _batch_convex_areas(organisms)
        assert counts == [reference_convex_area(org) for org in organisms]
    assert counts[-1] > footed.area


def test_convex_area_of_pixels_far_apart():
    # an extent of 2**30 - 1 is counted exactly, wherever the organism lies
    far = 2 ** 30 - 1
    rng = np.random.default_rng(23)
    scattered = [(0, 0), (far, far)] + [tuple(p) for p in rng.integers(0, far, size=(40, 2))]
    shapes = [[(0, 0), (0, far), (far, 0), (1, 1)],
              [(0, 0), (far, far), (far // 2, far // 2)],
              [(0, far), (far, 0)],
              scattered]
    organisms = [organism_from_pixels(np.array(pixels) + offset) for pixels in shapes
                 for offset in ((0, 0), (-2 ** 62, 2 ** 62 - 2 ** 30))]
    counts = _batch_convex_areas(organisms + [organism_from_pixels([(3, 4)])])
    assert counts[:6] == [(far + 1) * (far + 2) // 2] * 2 + [far + 1] * 4
    assert counts[-1] == 1
    for org, count in zip(organisms, counts):
        assert count == reference_convex_area(org)
    # from an extent of 2**30 a product could overflow int64: the count is
    # refused, never silently wrong
    for span in (2 ** 30, 2 ** 32, 2 ** 63):
        tall = organism_from_pixels([(-2 ** 62, 0), (span - 2 ** 62, 1)])
        wide = organism_from_pixels([(0, 2 ** 62 - span), (1, 2 ** 62)])
        for org in (tall, wide):
            with pytest.raises(ValueError, match="organism 1 of the batch: .* 2\\*\\*30"):
                _batch_convex_areas([organism_from_pixels([(0, 0)]), org])


def test_eccentricity_single_pixel():
    assert _features([(0, 0)]).eccentricity == 0.0


def test_eccentricity_disk_near_zero():
    assert _features(disk_pixels(10, cy=10, cx=10)).eccentricity <= 0.1


def test_eccentricity_ellipse():
    fv = _features(ellipse_pixels(20, 10, cy=11, cx=21))
    # continuous ellipse with semi-axes 20 and 10: sqrt(1 - 1/4)
    assert abs(fv.eccentricity - math.sqrt(3) / 2) <= 0.02


def test_eccentricity_matches_moment_oracle():
    rng = np.random.default_rng(20)
    for _ in range(30):
        org = random_organism(rng)
        ys = org.pixels[:, 0].astype(float)
        xs = org.pixels[:, 1].astype(float)
        cov = np.cov(np.stack([xs, ys]), bias=True) + np.eye(2) / 12.0
        evals = np.linalg.eigvalsh(cov)
        expected = math.sqrt(max(0.0, 1.0 - evals[0] / evals[1])) if evals[1] > 0 else 0.0
        assert abs(_features(org.pixels).eccentricity - expected) < 1e-9


def test_eccentricity_translation_and_rotation_invariance():
    rng = np.random.default_rng(21)
    for _ in range(20):
        org = random_organism(rng)
        e0 = _features(org.pixels).eccentricity
        shifted = org.pixels + np.array([7, 13])
        assert abs(_features(shifted).eccentricity - e0) < 1e-12
        rotated = np.stack([org.pixels[:, 1], -org.pixels[:, 0] + 50], axis=1)
        assert abs(_features(rotated).eccentricity - e0) <= 1e-9


def test_equivalent_diameter_closed_form():
    assert abs(_features(square(5)).equivalent_diameter - 5.64190) < 1e-5
    assert abs(_features([(0, 0)]).equivalent_diameter - 1.12838) < 1e-5


def test_equivalent_diameter_rasterized_disk():
    pixels = disk_pixels(10, cy=10, cx=10)
    d = _features(pixels).equivalent_diameter
    n = len(pixels)  # derived by the rasterization oracle itself
    assert d == math.sqrt(4.0 * n / math.pi)
    # pixel count tracks the ideal pi*r^2, so the diameter lands near 2r
    assert abs(d - 20.0) < 0.15


def test_equivalent_diameter_area_identity():
    rng = np.random.default_rng(22)
    for _ in range(20):
        org = random_organism(rng)
        d = _features(org.pixels).equivalent_diameter
        assert abs(d * d * math.pi / 4.0 - org.area) < 1e-9


def test_extent_fixtures():
    assert _features(square(5)).extent == 1.0
    assert abs(_features(L_SHAPE).extent - 5.0 / 9.0) < 1e-15
    assert _features([(4, 9)]).extent == 1.0


def test_spectral_means_fixture():
    band = np.zeros((4, 4))
    band[0, 0], band[1, 1], band[2, 2] = 10.0, 20.0, 30.0
    stack = _corrected_stack([band])
    org = organism_from_pixels([(0, 0), (1, 1), (2, 2)])
    assert feature_vectors([org], stack)[0].spectral == (20.0,)


def test_spectral_means_ignore_bbox_padding():
    rng = np.random.default_rng(23)
    band = rng.random((8, 8))
    org = organism_from_pixels([(2, 2), (2, 4), (4, 3)])  # sparse in its bbox
    before = feature_vectors([org], _corrected_stack([band.copy()]))[0].spectral
    noisy = band.copy()
    noisy[3, 3] += 100.0  # inside bbox, outside the pixel set
    after = feature_vectors([org], _corrected_stack([noisy]))[0].spectral
    assert before == after


def test_spectral_means_match_summation_oracle():
    rng = np.random.default_rng(24)
    for _ in range(20):
        org = random_organism(rng)
        bands = [rng.random((20, 20)) * 100 for _ in range(3)]
        stack = _corrected_stack(bands)
        got = feature_vectors([org], stack)[0].spectral
        for b, band in enumerate(bands):
            total = sum(band[y, x] for y, x in org.pixels)
            assert abs(got[b] - total / org.area) < 1e-9


def _sample_fv():
    return FeatureVector(
        organism_id=7, label=2, area=25, convex_area=30,
        eccentricity=0.5, equivalent_diameter=math.sqrt(100 / math.pi),
        extent=0.8, spectral=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
    )


def test_assemble_dimensions_and_order():
    fv = _sample_fv()
    morph = assemble([fv], ModelVariant.MORPHOLOGICAL)[0]
    spectral = assemble([fv], ModelVariant.SPECTRAL)[0]
    both = assemble([fv], ModelVariant.SPECTRAL_MORPHOLOGICAL)[0]
    assert len(morph) == 5
    assert len(spectral) == 6
    assert len(both) == 11
    assert np.array_equal(both[:5], morph)
    assert np.array_equal(both[5:], spectral)
    assert np.array_equal(morph, [25.0, 30.0, 0.5, fv.equivalent_diameter, 0.8])
    assert np.array_equal(spectral, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


def test_assemble_positions_injective():
    # all-distinct field values land in distinct, documented positions
    fv = FeatureVector(organism_id=1, label=None, area=11, convex_area=13,
                       eccentricity=0.17, equivalent_diameter=19.0,
                       extent=0.23, spectral=(29.0, 31.0, 37.0, 41.0, 43.0, 47.0))
    both = assemble([fv], ModelVariant.SPECTRAL_MORPHOLOGICAL)[0]
    assert len(set(both.tolist())) == 11


def test_feature_names_match_assembly():
    wl = (405, 420, 450, 470, 500, 530)
    assert feature_names(ModelVariant.MORPHOLOGICAL, wl) == [
        "area", "convex_area", "eccentricity", "equivalent_diameter", "extent"]
    assert feature_names(ModelVariant.SPECTRAL, wl) == [
        "em405", "em420", "em450", "em470", "em500", "em530"]
    assert len(feature_names(ModelVariant.SPECTRAL_MORPHOLOGICAL, wl)) == 11
    # variants select columns for any band count
    fv = FeatureVector(organism_id=1, label=None, area=11, convex_area=13,
                       eccentricity=0.17, equivalent_diameter=19.0,
                       extent=0.23, spectral=(29.0, 31.0, 37.0, 41.0))
    for variant in ModelVariant:
        names = feature_names(variant, (405, 450, 500, 530))
        assert assemble([fv, fv], variant).shape == (2, len(names))
    assert feature_names(ModelVariant.SPECTRAL, (405, 450, 500, 530)) == [
        "em405", "em450", "em500", "em530"]


def test_feature_vector_invariants():
    with pytest.raises(ValueError):
        FeatureVector(organism_id=1, label=None, area=10, convex_area=5,
                      eccentricity=0.5, equivalent_diameter=1.0, extent=0.5,
                      spectral=(1.0,))
    with pytest.raises(ValueError):
        FeatureVector(organism_id=1, label=None, area=10, convex_area=10,
                      eccentricity=1.5, equivalent_diameter=1.0, extent=0.5,
                      spectral=(1.0,))
    with pytest.raises(ValueError):
        FeatureVector(organism_id=1, label=None, area=10, convex_area=10,
                      eccentricity=0.5, equivalent_diameter=1.0, extent=0.0,
                      spectral=(1.0,))


def test_normalizer_fixture():
    nrm = fit_normalizer([[0.0], [2.0]])
    assert nrm.mean[0] == 1.0
    assert nrm.std[0] == 1.0  # population std
    assert apply_normalizer(nrm, [2.0])[0] == 1.0


def test_normalizer_zscore_property():
    rng = np.random.default_rng(25)
    x = rng.random((50, 4)) * 100 + 3
    nrm = fit_normalizer(x)
    z = apply_normalizer(nrm, x)
    assert np.max(np.abs(z.mean(axis=0))) < 1e-9
    assert np.max(np.abs(z.std(axis=0) - 1.0)) < 1e-9


def test_normalizer_constant_dimension():
    x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    nrm = fit_normalizer(x)
    assert nrm.constant.tolist() == [False, True]
    z = apply_normalizer(nrm, x)
    assert np.allclose(z[:, 1], 0.0)  # passes through shifted only
    assert nrm.std[1] == 1.0


def test_csv_round_trip_and_format(tmp_path):
    band = np.arange(36, dtype=np.float64).reshape(6, 6)
    stack = _corrected_stack([band + i for i in range(6)])
    org = organism_from_pixels([(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)])
    fv = feature_vectors([org], stack, [3])[0]
    path = tmp_path / "features.csv"
    write_features_csv(path, [fv], stack.wavelengths_nm)

    raw = path.read_bytes()
    assert b"\r" not in raw  # LF only
    header = raw.decode("utf-8").splitlines()[0]
    assert header == ("organism_id,label,area,convex_area,eccentricity,"
                      "equivalent_diameter,extent,em405,em430,em455,em480,"
                      "em505,em530")

    fvs, wl = read_features_csv(path)
    assert wl == [405.0, 430.0, 455.0, 480.0, 505.0, 530.0]
    back = fvs[0]
    assert back.label == 3
    assert back.area == fv.area
    assert back.convex_area == fv.convex_area
    assert back.eccentricity == fv.eccentricity  # repr round-trips exactly
    assert back.equivalent_diameter == fv.equivalent_diameter
    assert back.extent == fv.extent
    assert back.spectral == fv.spectral

    # odd ids and extreme floats come back field for field, bit for bit
    tiny, huge = 5e-324, 1.7976931348623157e308
    edge = [dataclasses.replace(fv, organism_id=oid, label=lab, eccentricity=ecc,
                                extent=ext, equivalent_diameter=diam, spectral=spec)
            for oid, lab, ecc, ext, diam, spec in [
                ('say "hi":1', None, tiny, tiny, huge, (tiny, huge, -huge, -0.0, 0.0, 1 / 3)),
                ("a,b:2", 0, 1.0, 1.0, tiny, (-tiny,) * 6),
                ("algues-été:3", 5, 0.0, 0.5, 1.0, (huge,) * 6),
                ("", 1, 0.25, 1e-300, 1e300, (2.5,) * 6),
            ]]
    write_features_csv(path, edge, stack.wavelengths_nm)
    back, _ = read_features_csv(path)
    assert back == edge
    assert [repr(dataclasses.astuple(b)) for b in back] == \
        [repr(dataclasses.astuple(e)) for e in edge]  # -0.0 keeps its sign


def test_csv_standard_header_for_default_bands(tmp_path):
    stack_wl = (405.0, 420.0, 450.0, 470.0, 500.0, 530.0)
    fv = _sample_fv()
    path = tmp_path / "f.csv"
    write_features_csv(path, [fv], stack_wl)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == ("organism_id,label,area,convex_area,eccentricity,"
                      "equivalent_diameter,extent,em405,em420,em450,em470,"
                      "em500,em530")


def test_csv_unlabeled_rows(tmp_path):
    fv = FeatureVector(organism_id="s1:4", label=None, area=9, convex_area=9,
                       eccentricity=0.1, equivalent_diameter=3.385,
                       extent=1.0, spectral=(1.0, 2.0))
    path = tmp_path / "u.csv"
    write_features_csv(path, [fv], (405.0, 450.0))
    fvs, _ = read_features_csv(path)
    assert fvs[0].label is None
    assert fvs[0].organism_id == "s1:4"


def test_csv_bad_spectral_header_names_column(tmp_path):
    path = tmp_path / "f.csv"
    write_features_csv(path, [_sample_fv()], (405.0, 420.0, 450.0, 470.0, 500.0, 530.0))
    path.write_text(path.read_text(encoding="utf-8").replace("em420", "emX"),
                    encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_features_csv(path)
    assert str(err.value) == (
        f"{path}: header column 'emX': could not convert string to float: 'X'")


@pytest.mark.parametrize("column,problem", [
    ("em405", "wavelength 405 nm repeated"),
    ("em405.0", "wavelength 405 nm repeated"),
    ("em405.7", "wavelength 405 nm repeated"),
    ("emnan", "non-finite wavelength"),
    ("eminf", "non-finite wavelength"),
    ("em-inf", "non-finite wavelength"),
    ("em420.9", "non-integer wavelength"),
], ids=["repeated", "repeated-spelled-apart", "repeated-as-named", "nan", "inf",
        "minus-inf", "fractional"])
def test_csv_bad_header_wavelength_names_column(tmp_path, column, problem):
    path = tmp_path / "f.csv"
    write_features_csv(path, [_sample_fv()], (405.0, 420.0, 450.0, 470.0, 500.0, 530.0))
    path.write_text(path.read_text(encoding="utf-8").replace("em420", column),
                    encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_features_csv(path)
    assert str(err.value) == f"{path}: header column {column!r}: {problem}"


@pytest.mark.parametrize("edit,column,problem", [
    (lambda row: row[:-1], "em530", "missing value"),
    (lambda row: row + ["7.0"], "14", "value '7.0' beyond the 13 header columns"),
    (lambda row: row[:2] + ["4.9"] + row[3:], "area", "non-integer pixel count '4.9'"),
    (lambda row: row[:3] + ["30.5"] + row[4:], "convex_area",
     "non-integer pixel count '30.5'"),
    (lambda row: row[:4] + ["abc"] + row[5:], "eccentricity", "non-numeric value 'abc'"),
    (lambda row: row[:1] + ["x"] + row[2:], "label", "non-integer label 'x'"),
    (lambda row: row[:1] + ["-1"] + row[2:], "label", "negative label '-1'"),
    (lambda row: row[:1] + [str(2 ** 63)] + row[2:], "label",
     f"label '{2 ** 63}' too large for int64"),
    (lambda row: row[:4] + ["1.5"] + row[5:], "eccentricity",
     "eccentricity must lie in [0, 1]"),
    (lambda row: row[:6] + ["0"] + row[7:], "extent", "extent must lie in (0, 1]"),
    (lambda row: row[:3] + ["20"] + row[4:], "convex_area",
     "convex_area must be >= area"),
], ids=["short-row", "long-row", "fractional-area", "fractional-convex-area",
        "non-numeric", "non-integer-label", "negative-label", "label-beyond-int64",
        "eccentricity-range", "extent-range", "convex-area-below-area"])
def test_csv_malformed_row_rejected(tmp_path, edit, column, problem):
    path = tmp_path / "f.csv"
    write_features_csv(path, [_sample_fv(), _sample_fv()],
                       (405.0, 420.0, 450.0, 470.0, 500.0, 530.0))
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = ",".join(edit(lines[2].split(",")))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_features_csv(path)
    assert str(err.value) == f"{path}: row 2 (line 3), column {column}: {problem}"


# --- the batch against each organism featurized on its own ---

def _bits(fvs):
    """Every field of every vector, floats by repr: equal strings are equal bits."""
    return [repr(dataclasses.astuple(fv)) for fv in fvs]


def _assert_batch_matches_reference(organisms, corrected, labels=None):
    labels = [None] * len(organisms) if labels is None else labels
    expected = [reference_features(org, corrected, lab) for org, lab in zip(organisms, labels)]
    assert _bits(feature_vectors(organisms, corrected, labels)) == _bits(expected)
    assert _bits(compute_features(org, corrected, lab)
                 for org, lab in zip(organisms, labels)) == _bits(expected)


@pytest.fixture(scope="module")
def synth_segmentations():
    """Two illuminated 192x192 corpus scenes, corrected, and one crowded
    512x512 field without illumination, each with its organisms."""
    catalog = default_catalog()
    out = []
    for scene in generate_corpus(catalog, 2, SceneSpec(), master_seed=31):
        background = estimate_background(scene.stack, CorrectionConfig())
        corrected = subtract_background(scene.stack, background, clamp=True)
        out.append((corrected, segment(corrected).organisms))
    field = generate_scene(SceneSpec(width=512, height=512, n_organisms=150,
                                     background_level=0.0, vignette_strength=0.0,
                                     seed=32), catalog)
    corrected = field.stack.with_bands(field.stack.bands, role_tag="corrected")
    out.append((corrected, segment(corrected).organisms))
    return out


def test_feature_vectors_match_reference_on_synth_scenes(synth_segmentations):
    assert len(synth_segmentations[-1][1]) >= 100  # the crowded field
    for corrected, organisms in synth_segmentations:
        labels = [org.id % 6 for org in organisms]
        _assert_batch_matches_reference(list(organisms), corrected, labels)


def test_feature_vectors_match_reference_on_shuffled_pixels(synth_segmentations):
    rng = np.random.default_rng(33)
    for corrected, organisms in synth_segmentations:
        shuffled = [dataclasses.replace(org, pixels=rng.permutation(org.pixels))
                    for org in organisms]
        _assert_batch_matches_reference(shuffled, corrected)
        # the sums change order, but the counts do not
        counts = [[(fv.area, fv.convex_area, fv.extent) for fv in feature_vectors(orgs, corrected)]
                  for orgs in (shuffled, organisms)]
        assert counts[0] == counts[1]


def test_convex_areas_do_not_depend_on_pixel_order(synth_segmentations):
    # extracted organisms come row by row and skip the sort; pixels shuffled
    # within their rows still do; shuffled across rows, in one organism of
    # the batch or in all, they are sorted first
    rng = np.random.default_rng(34)
    for _, organisms in synth_segmentations:
        organisms = list(organisms)
        counts = _batch_convex_areas(organisms)
        assert counts == [reference_convex_area(org) for org in organisms]
        within_rows = [dataclasses.replace(org, pixels=org.pixels[np.lexsort(
            (rng.random(org.area), org.pixels[:, 0]))]) for org in organisms]
        shuffled = [dataclasses.replace(org, pixels=rng.permutation(org.pixels))
                    for org in organisms]
        one = organisms[:-1] + shuffled[-1:]
        for batch in (within_rows, shuffled, one):
            assert _batch_convex_areas(batch) == counts


def _noise_stack(rng, shape, bands=6):
    return _corrected_stack([rng.random(shape) * 10.0 ** rng.integers(0, 5)
                             for _ in range(bands)])


def test_feature_vectors_match_reference_at_summation_block_edges():
    # numpy sums pairwise in blocks of 8 and of 128 values, so these sizes
    # sit on each side of every block edge
    rng = np.random.default_rng(34)
    stack = _noise_stack(rng, (40, 40))
    cells = [(y, x) for y in range(40) for x in range(40)]
    organisms = []
    for size in (1, 7, 8, 9, 127, 128, 129, 256, 257):
        for _ in range(2):
            chosen = rng.choice(len(cells), size=size, replace=False)
            organisms.append(Organism(id=len(organisms) + 1,
                                      pixels=[cells[i] for i in sorted(chosen)]))
    _assert_batch_matches_reference(organisms, stack)
    _assert_batch_matches_reference(organisms[::-1], stack)


def test_feature_vectors_match_reference_on_lines():
    rng = np.random.default_rng(35)
    stack = _noise_stack(rng, (30, 41))  # not square: rows and columns differ in length
    organisms = [organism_from_pixels([(4, x) for x in range(3, 3 + n)], org_id=n)
                 for n in (1, 2, 9, 27)]
    organisms += [organism_from_pixels([(y, 6) for y in range(n)], org_id=100 + n)
                  for n in (2, 9, 30)]
    organisms += [organism_from_pixels([(i, i) for i in range(n)], org_id=200 + n)
                  for n in (2, 9, 30)]
    organisms += [organism_from_pixels([(i, 29 - i) for i in range(n)], org_id=300 + n)
                  for n in (2, 9, 30)]
    _assert_batch_matches_reference(organisms, stack)
    got = feature_vectors(organisms, stack)
    assert [fv.convex_area for fv in got] == [org.area for org in organisms]


def test_feature_vectors_of_raster_stack_are_those_of_its_float64_copy(synth_segmentations):
    # a uint16 stack, as loaded from PGMs, is gathered and cast before any
    # sum, so every value equals, bit for bit, that of its float64 copy
    corrected, organisms = synth_segmentations[-1]
    rasters = [np.rint(np.clip(b, 0, 65535)).astype(np.uint16) for b in corrected.bands]
    as_float = corrected.with_bands([r.astype(np.float64) for r in rasters], "corrected")
    as_raster = corrected.with_bands(rasters, "corrected")
    assert as_raster.bands[0].dtype == np.uint16
    labels = [org.id % 6 for org in organisms]
    assert repr(feature_vectors(organisms, as_raster, labels)) == \
        repr(feature_vectors(organisms, as_float, labels))


def test_feature_vectors_of_no_organisms():
    stack = _noise_stack(np.random.default_rng(36), (4, 4))
    assert feature_vectors([], stack) == []
    assert feature_vectors([], stack, []) == []


def test_feature_vectors_label_count_must_match():
    stack = _noise_stack(np.random.default_rng(37), (4, 4))
    org = organism_from_pixels([(1, 1)])
    with pytest.raises(ValueError, match=r"^2 labels for 1 organisms$"):
        feature_vectors([org], stack, [0, 1])


@pytest.mark.parametrize("pixel", [(-1, 2), (2, -1), (4, 2), (2, 5)],
                         ids=["negative-row", "negative-column", "row-past-edge",
                              "column-past-edge"])
def test_pixels_outside_the_stack_name_their_organism(pixel):
    # a column one past the edge would otherwise read the next row's first pixel
    stack = _noise_stack(np.random.default_rng(38), (4, 5))
    inside = organism_from_pixels([(0, 0), (3, 4)], org_id=3)
    outside = organism_from_pixels([(1, 1), pixel], org_id=9)
    later = organism_from_pixels([(0, 0), (-1, -1)], org_id=11)
    message = rf"^organism 9: pixel \({pixel[0]}, {pixel[1]}\) lies outside the 4x5 stack$"
    # with or without another organism out of range after it
    for batch in ([inside, outside, later], [inside, outside]):
        with pytest.raises(ValueError, match=message):
            feature_vectors(batch, stack)
