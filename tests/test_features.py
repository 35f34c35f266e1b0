import math

import numpy as np
import pytest

from algaeid.features import (FeatureVector, ModelVariant, apply_normalizer,
                              area, assemble, compute_features, convex_area,
                              eccentricity, equivalent_diameter, extent,
                              feature_names, fit_normalizer,
                              read_features_csv, spectral_means,
                              write_features_csv)
from algaeid.stack_io import ImageStack

from helpers import (disk_pixels, ellipse_pixels, oracle_convex_area,
                     organism_from_pixels, random_organism)

L_SHAPE = [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)]


def square(n, oy=0, ox=0):
    return [(oy + y, ox + x) for y in range(n) for x in range(n)]


def test_area_fixtures():
    assert area(organism_from_pixels(square(5))) == 25
    assert area(organism_from_pixels([(3, 4)])) == 1
    assert area(organism_from_pixels(L_SHAPE)) == 5


def test_convex_area_convex_blobs():
    assert convex_area(organism_from_pixels(square(5))) == 25
    triangle = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert convex_area(organism_from_pixels(triangle)) == 6


def test_convex_area_degenerate_shapes():
    assert convex_area(organism_from_pixels([(2, 2)])) == 1
    # diagonal line: hull is a segment, lattice points via gcd
    diag = [(i, i) for i in range(5)]
    assert convex_area(organism_from_pixels(diag)) == 5
    horiz = [(0, x) for x in range(7)]
    assert convex_area(organism_from_pixels(horiz)) == 7
    sparse = [(0, 0), (2, 4)]  # collinear endpoints only
    assert convex_area(organism_from_pixels(sparse)) == 3


def test_convex_area_matches_halfplane_oracle():
    rng = np.random.default_rng(19)
    for _ in range(100):
        org = random_organism(rng)
        assert convex_area(org) == oracle_convex_area(org.pixels)
        assert convex_area(org) >= org.area


def test_eccentricity_single_pixel():
    assert eccentricity(organism_from_pixels([(0, 0)])) == 0.0


def test_eccentricity_disk_near_zero():
    assert eccentricity(organism_from_pixels(disk_pixels(10))) <= 0.1


def test_eccentricity_ellipse():
    org = organism_from_pixels(ellipse_pixels(20, 10))
    # continuous ellipse with semi-axes 20 and 10: sqrt(1 - 1/4)
    assert abs(eccentricity(org) - math.sqrt(3) / 2) <= 0.02


def test_eccentricity_matches_moment_oracle():
    rng = np.random.default_rng(20)
    for _ in range(30):
        org = random_organism(rng)
        ys = org.pixels[:, 0].astype(float)
        xs = org.pixels[:, 1].astype(float)
        cov = np.cov(np.stack([xs, ys]), bias=True) + np.eye(2) / 12.0
        evals = np.linalg.eigvalsh(cov)
        expected = math.sqrt(max(0.0, 1.0 - evals[0] / evals[1])) if evals[1] > 0 else 0.0
        assert abs(eccentricity(org) - expected) < 1e-9


def test_eccentricity_translation_and_rotation_invariance():
    rng = np.random.default_rng(21)
    for _ in range(20):
        org = random_organism(rng)
        e0 = eccentricity(org)
        shifted = organism_from_pixels(org.pixels + np.array([7, 13]))
        assert abs(eccentricity(shifted) - e0) < 1e-12
        rotated = organism_from_pixels(
            np.stack([org.pixels[:, 1], -org.pixels[:, 0] + 50], axis=1))
        assert abs(eccentricity(rotated) - e0) <= 1e-9


def test_equivalent_diameter_closed_form():
    assert abs(equivalent_diameter(organism_from_pixels(square(5))) - 5.64190) < 1e-5
    assert abs(equivalent_diameter(organism_from_pixels([(0, 0)])) - 1.12838) < 1e-5


def test_equivalent_diameter_rasterized_disk():
    pixels = disk_pixels(10)
    org = organism_from_pixels(pixels)
    n = len(pixels)  # derived by the rasterization oracle itself
    assert equivalent_diameter(org) == math.sqrt(4.0 * n / math.pi)
    # pixel count tracks the ideal pi*r^2, so the diameter lands near 2r
    assert abs(equivalent_diameter(org) - 20.0) < 0.15


def test_equivalent_diameter_area_identity():
    rng = np.random.default_rng(22)
    for _ in range(20):
        org = random_organism(rng)
        d = equivalent_diameter(org)
        assert abs(d * d * math.pi / 4.0 - org.area) < 1e-9


def test_extent_fixtures():
    assert extent(organism_from_pixels(square(5))) == 1.0
    assert abs(extent(organism_from_pixels(L_SHAPE)) - 5.0 / 9.0) < 1e-15
    assert extent(organism_from_pixels([(4, 9)])) == 1.0


def _corrected_stack(bands):
    wl = tuple(405.0 + 25 * i for i in range(len(bands)))
    base = ImageStack(bands=tuple(np.zeros_like(b) for b in bands),
                      wavelengths_nm=wl, role_tag="background")
    return base.with_bands(tuple(bands), role_tag="corrected")


def test_spectral_means_fixture():
    band = np.zeros((4, 4))
    band[0, 0], band[1, 1], band[2, 2] = 10.0, 20.0, 30.0
    stack = _corrected_stack([band])
    org = organism_from_pixels([(0, 0), (1, 1), (2, 2)])
    assert spectral_means(org, stack) == (20.0,)


def test_spectral_means_ignore_bbox_padding():
    rng = np.random.default_rng(23)
    band = rng.random((8, 8))
    org = organism_from_pixels([(2, 2), (2, 4), (4, 3)])  # sparse in its bbox
    before = spectral_means(org, _corrected_stack([band.copy()]))
    noisy = band.copy()
    noisy[3, 3] += 100.0  # inside bbox, outside the pixel set
    after = spectral_means(org, _corrected_stack([noisy]))
    assert before == after


def test_spectral_means_match_summation_oracle():
    rng = np.random.default_rng(24)
    for _ in range(20):
        org = random_organism(rng)
        bands = [rng.random((20, 20)) * 100 for _ in range(3)]
        stack = _corrected_stack(bands)
        got = spectral_means(org, stack)
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
    fv = compute_features(org, stack, label=3)
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


@pytest.mark.parametrize("edit,column,problem", [
    (lambda row: row[:-1], "em530", "missing value"),
    (lambda row: row + ["7.0"], "14", "value '7.0' beyond the 13 header columns"),
    (lambda row: row[:2] + ["4.9"] + row[3:], "area", "non-integer pixel count '4.9'"),
    (lambda row: row[:3] + ["30.5"] + row[4:], "convex_area",
     "non-integer pixel count '30.5'"),
    (lambda row: row[:4] + ["abc"] + row[5:], "eccentricity", "non-numeric value 'abc'"),
    (lambda row: row[:1] + ["x"] + row[2:], "label", "non-integer label 'x'"),
    (lambda row: row[:4] + ["1.5"] + row[5:], "eccentricity",
     "eccentricity must lie in [0, 1]"),
    (lambda row: row[:6] + ["0"] + row[7:], "extent", "extent must lie in (0, 1]"),
    (lambda row: row[:3] + ["20"] + row[4:], "convex_area",
     "convex_area must be >= area"),
], ids=["short-row", "long-row", "fractional-area", "fractional-convex-area",
        "non-numeric", "non-integer-label", "eccentricity-range", "extent-range",
        "convex-area-below-area"])
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
