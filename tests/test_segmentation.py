import dataclasses
import json
import math

import numpy as np
import pytest

from algaeid.segmentation import (DegenerateBandError, LabelMap, Organism,
                                  Segmentation, bboxes, binarize, connected_components,
                                  extract_organisms, fuse_masks,
                                  labelmap_to_pgm, otsu_index, otsu_threshold,
                                  pixel_table, segment, segmentation_json,
                                  write_organisms_json)
from algaeid.stack_io import ImageStack, read_pgm
from algaeid.synthgen import SceneSpec, default_catalog, generate_scene

from helpers import (flood_fill_components, oracle_otsu_index, pixel_bbox, random_histogram,
                     traced_peak)


def test_otsu_index_matches_bruteforce():
    rng = np.random.default_rng(13)
    for _ in range(100):
        counts = random_histogram(rng)
        assert otsu_index(counts) == oracle_otsu_index(counts)


def test_otsu_two_level_band():
    band = np.zeros((10, 10))
    band[:5] = 200.0
    band[5:] = 10.0
    theta = otsu_threshold(band)
    mask = binarize(band, theta)
    assert mask.dtype == bool
    assert np.all(mask[:5])
    assert not np.any(mask[5:])
    # smallest optimal threshold: center of the first bin
    assert theta == 10.0 + 0.5 * (200.0 - 10.0) / 256


def test_otsu_constant_band_degenerate():
    with pytest.raises(DegenerateBandError):
        otsu_threshold(np.full((8, 8), 42.0))


def _whole_band_threshold(band, num_bins=256):
    """The threshold of an np.histogram over every pixel of the band."""
    band = np.asarray(band, dtype=np.float64)
    lo, hi = float(band.min()), float(band.max())
    counts, _ = np.histogram(band, bins=num_bins, range=(lo, hi))
    return lo + (otsu_index(counts) + 0.5) * (hi - lo) / num_bins


@pytest.fixture
def histogram_calls(monkeypatch):
    """(weighted, values binned) of each np.histogram call from here on."""
    calls = []
    histogram = np.histogram

    def spy(a, *args, **kwargs):
        calls.append((kwargs.get("weights") is not None, np.size(a)))
        return histogram(a, *args, **kwargs)

    monkeypatch.setattr(np, "histogram", spy)
    return calls


def _integer_bands(rng):
    shape = (37, 53)
    yield rng.integers(0, 65536, size=shape)
    yield rng.integers(0, 300, size=shape)
    yield rng.choice([0, 65535], size=shape)
    with_extremes = rng.integers(1000, 2000, size=shape)
    with_extremes[0, 0], with_extremes[-1, -1] = 0, 65535
    yield with_extremes
    # every value on an edge of the 256 bins spanning [0, 1024]
    yield rng.integers(0, 257, size=shape) * 4
    for a, b in ((0, 1), (7, 9), (0, 65535), (65534, 65535)):
        yield np.where(rng.random(shape) < 0.3, a, b)


@pytest.mark.parametrize("num_bins", [256, 7, 100, 2])
def test_otsu_integer_band_histogrammed_by_value(histogram_calls, num_bins):
    rng = np.random.default_rng(num_bins)
    for values in _integer_bands(rng):
        band = values.astype(np.uint16)
        if band.min() == band.max():
            continue
        expected = _whole_band_threshold(band, num_bins)
        histogram_calls.clear()
        assert otsu_threshold(band, num_bins=num_bins) == expected
        # one weighted histogram of the distinct values
        assert histogram_calls == [(True, len(np.unique(values)))]


@pytest.mark.parametrize("num_bins", [256, 7])
def test_otsu_whole_number_float_band_histograms_every_pixel(histogram_calls, num_bins):
    # only a uint8 or uint16 raster is tallied by value; the same numbers as
    # float64 are binned pixel by pixel, to the same threshold
    rng = np.random.default_rng(100 + num_bins)
    for values in _integer_bands(rng):
        if values.min() == values.max():
            continue
        band = values.astype(np.float64)
        expected = otsu_threshold(values.astype(np.uint16), num_bins=num_bins)
        histogram_calls.clear()
        assert otsu_threshold(band, num_bins=num_bins) == expected
        assert histogram_calls == [(False, band.size)]


def test_otsu_eight_bit_band_histogrammed_by_value(histogram_calls):
    values = np.random.default_rng(14).integers(3, 250, size=(40, 30))
    expected = _whole_band_threshold(values)
    histogram_calls.clear()
    assert otsu_threshold(values.astype(np.uint8)) == expected
    assert histogram_calls == [(True, len(np.unique(values)))]


@pytest.mark.parametrize("dtype", [np.uint32, np.int64, ">u2"])
def test_otsu_other_integer_dtypes_take_the_float_path(histogram_calls, dtype):
    # a tally of a 32-bit band could need gigabytes, so it is binned as float64
    values = np.random.default_rng(15).integers(0, 65536, size=(20, 30))
    values[0, 0] = 65535
    band = values.astype(dtype)
    expected = _whole_band_threshold(values)
    histogram_calls.clear()
    assert otsu_threshold(band) == expected
    assert histogram_calls == [(False, band.size)]


@pytest.mark.parametrize("band", [
    np.arange(-5.0, 6.0).reshape(1, -1),
    np.array([[0.0, 1.5, 3.0, 7.0]]),
    np.array([[0.0, 65535.0, 65536.0]]),
    np.array([[0.25, 0.75, 0.5]]),
    np.array([[0.0, 1.0, np.inf]]),
], ids=["negative-integers", "one-fraction", "above-16-bit", "all-fractions", "infinite"])
def test_otsu_other_bands_histogram_every_pixel(histogram_calls, band):
    if np.isfinite(band).all():
        expected = _whole_band_threshold(band)
        histogram_calls.clear()
        assert otsu_threshold(band) == expected
        assert histogram_calls == [(False, band.size)]
    else:  # refused from the band's own min and max, before any histogram
        with pytest.raises(ValueError, match=r"^band is not finite: .* \[0\.0, inf\]$"):
            otsu_threshold(band)
        assert histogram_calls == []


@pytest.mark.parametrize("level", [0.0, 7.0, 65535.0])
def test_otsu_constant_integer_band_degenerate(level):
    with pytest.raises(DegenerateBandError, match="degenerate"):
        otsu_threshold(np.full((8, 8), level))
    # a dead channel in a stack read from 16-bit PGMs fails the segmentation,
    # which names the band
    rng = np.random.default_rng(int(level))
    bands = (rng.integers(0, 4000, size=(16, 16)).astype(np.float64), np.full((16, 16), level))
    with pytest.raises(DegenerateBandError, match=f"^band 1: degenerate: .* constant at {level}\\)$"):
        segment(ImageStack(bands=bands, wavelengths_nm=(470.0, 530.0), role_tag="corrected"))


@pytest.mark.parametrize("level,dtype", [(0, np.uint16), (7, np.uint16), (65535, np.uint16),
                                         (0, np.uint8), (255, np.uint8)])
def test_otsu_constant_raster_band_degenerate(level, dtype):
    # the message is the one a float64 band of the same level gets
    message = f"degenerate: no separable foreground (band is constant at {float(level)})"
    for band in (np.full((8, 8), level, dtype=dtype), np.full((8, 8), float(level))):
        with pytest.raises(DegenerateBandError) as err:
            otsu_threshold(band)
        assert str(err.value) == message


def _bincount_threshold(band, num_bins=256):
    """The threshold from a `np.bincount` tally of an integer band: each
    present value binned once, weighted by its count."""
    tally = np.bincount(band.ravel())
    present = np.flatnonzero(tally)
    lo, hi = float(present[0]), float(present[-1])
    counts, _ = np.histogram(present.astype(np.float64), bins=num_bins, range=(lo, hi),
                             weights=tally[present])
    return lo + (otsu_index(counts) + 0.5) * (hi - lo) / num_bins


@pytest.mark.parametrize("num_bins", [256, 7, 2])
def test_otsu_sort_tally_matches_bincount_tally(num_bins):
    rng = np.random.default_rng(200 + num_bins)
    bands = [values.astype(np.uint16) for values in _integer_bands(rng)]
    eight_bit = rng.integers(0, 256, size=(41, 29))
    eight_bit[0, 0], eight_bit[-1, -1] = 0, 255
    bands += [eight_bit.astype(np.uint8), rng.integers(3, 9, size=(9, 5)).astype(np.uint8),
              np.where(rng.random((12, 12)) < 0.5, 0, 255).astype(np.uint8),
              np.array([[0, 65535]], dtype=np.uint16), np.array([[9, 9, 8]], dtype=np.uint8)]
    checked = 0
    for band in bands:
        if band.min() == band.max():
            continue
        assert otsu_threshold(band, num_bins=num_bins) == _bincount_threshold(band, num_bins)
        checked += 1
    assert checked >= 12


def test_segment_names_the_first_degenerate_raster_band():
    rng = np.random.default_rng(27)
    bands = [rng.integers(0, 4000, size=(16, 16)).astype(np.uint16) for _ in range(5)]
    bands[2] = np.full((16, 16), 9, dtype=np.uint16)
    bands[4] = np.zeros((16, 16), dtype=np.uint16)
    stack = ImageStack(bands=bands, wavelengths_nm=(405.0, 420.0, 450.0, 470.0, 500.0),
                       role_tag="corrected")
    with pytest.raises(DegenerateBandError) as err:
        segment(stack)
    assert str(err.value) == "band 2: degenerate: no separable foreground (band is constant at 9.0)"


def test_otsu_tally_does_not_widen_a_16_bit_band():
    # a bincount tally copies the band as int64 first: 8 MiB for 1024x1024
    band = np.random.default_rng(28).integers(0, 4000, size=(1024, 1024)).astype(np.uint16)
    threshold = otsu_threshold(band)
    assert traced_peak(otsu_threshold, band) < band.size * 8
    assert threshold == _bincount_threshold(band)


def test_otsu_validates_bins():
    with pytest.raises(ValueError):
        otsu_threshold(np.array([[0.0, 1.0]]), num_bins=1)


def test_binarize_raster_band_compares_as_float64():
    values = np.arange(65536).reshape(256, 256)
    thresholds = [k + d for k in (0, 1, 255, 256, 4095, 65534) for d in (-0.5, 0.5)]
    # below 0, at and above each dtype's maximum, and the non-finite ones,
    # which are compared as they are
    edges = [-1.0, -0.5, -1e-300, -3e9, -1e300, 254.5, 255.0, 255.5, 256.0, 65534.5,
             65535.0, 65535.5, 65536.0, 3e9, 1e300, np.float64(7.5), 12,
             math.nan, math.inf, -math.inf]
    for t in thresholds + edges:
        expected = binarize(values.astype(np.float64), t)
        assert np.array_equal(binarize(values.astype(np.uint16), t), expected), t
        assert expected.sum() == np.sum(values > t)
        small = values[:1]
        assert np.array_equal(binarize((small % 256).astype(np.uint8), t),
                              binarize((small % 256).astype(np.float64), t)), t


def test_binarize_strict_inequality():
    band = np.array([[50.0, 51.0]])
    mask = binarize(band, 50.0)
    assert not mask[0, 0]  # equal to threshold stays background
    assert mask[0, 1]


def test_binarize_all_zero():
    mask = binarize(np.zeros((4, 4)), 0.0)
    assert not mask.any()


def test_fuse_identity_and_union():
    rng = np.random.default_rng(14)
    a = rng.random((8, 8)) < 0.4
    assert np.array_equal(fuse_masks([a, a]), a)

    m1 = np.zeros((4, 4), dtype=bool)
    m2 = np.zeros((4, 4), dtype=bool)
    m1[1, 1] = True
    m2[2, 3] = True
    fused = fuse_masks([m1, m2])
    assert fused.dtype == bool
    assert fused[1, 1] and fused[2, 3]
    assert fused.sum() == 2
    assert not m1[2, 3]  # the inputs are left as they were

    empty = np.zeros((8, 8), dtype=bool)
    assert np.array_equal(fuse_masks([a, empty]), a)


def test_fuse_validates():
    with pytest.raises(ValueError):
        fuse_masks([])
    with pytest.raises(ValueError):
        fuse_masks([np.zeros((2, 2), dtype=bool), np.zeros((3, 3), dtype=bool)])


def test_components_single_square():
    mask = np.zeros((7, 7), dtype=bool)
    mask[2:5, 2:5] = True
    lab = connected_components(mask)
    assert lab.count == 1
    assert (lab.labels == 1).sum() == 9


def test_components_diagonal_is_connected():
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 1] = True
    mask[2, 2] = True
    assert connected_components(mask).count == 1


def _comb(height, teeth):
    # one-pixel teeth, one column apart, that meet only in the bottom row
    mask = np.zeros((height, 2 * teeth - 1), dtype=bool)
    mask[:, ::2] = mask[-1] = True
    return mask


def _serpentine(height, width):
    # rows two apart, joined at the right and the left end in turn
    mask = np.zeros((height, width), dtype=bool)
    mask[::2] = True
    for i, y in enumerate(range(1, height, 2)):
        mask[y, -1 if i % 2 == 0 else 0] = True
    return mask


def _diagonals(height, width, step):
    # lines of pixels that touch only at their corners, `step` columns apart
    y, x = np.mgrid[:height, :width]
    return (x - y) % step == 0


def test_components_match_flood_fill_oracle():
    rng = np.random.default_rng(15)
    masks = [rng.random((64, 64)) < rng.uniform(0.2, 0.7) for _ in range(50)]
    masks += [np.zeros((9, 7), dtype=bool), np.ones((9, 7), dtype=bool),
              np.ones((1, 1), dtype=bool), np.zeros((1, 1), dtype=bool),
              rng.random((1, 40)) < 0.5, rng.random((40, 1)) < 0.5]
    # U shape: the two arms are separate runs for several rows, and only
    # the bottom run joins them, after each arm has taken its own root
    u = np.zeros((8, 9), dtype=bool)
    u[1:7, 1:3] = u[1:7, 6:8] = u[6, 1:8] = True
    # comb whose right arms start before its left ones: the joining run
    # meets roots that are not in left-to-right order
    comb = np.zeros((9, 9), dtype=bool)
    comb[4:8, 0] = comb[0:8, 4] = comb[2:8, 8] = comb[7] = True
    # diagonal staircases: each run touches the run above only at a corner
    stair = np.zeros((10, 20), dtype=bool)
    for y in range(10):
        stair[y, 2 * y:2 * y + 2] = True
    masks += [u, u[::-1], comb, stair, stair[:, ::-1]]
    masks += [_comb(48, 48), _comb(48, 48)[::-1],
              _serpentine(63, 64), _serpentine(63, 64).T,
              rng.random((128, 128)) < 0.45,
              _diagonals(40, 50, 3), _diagonals(40, 50, 3)[:, ::-1], _diagonals(40, 50, 2),
              np.zeros((30, 40), dtype=bool), np.ones((30, 40), dtype=bool),
              rng.random((1, 300)) < 0.45, rng.random((300, 1)) < 0.45,
              np.ones((1, 300), dtype=bool), np.ones((300, 1), dtype=bool)]
    for mask in masks:
        lab = connected_components(mask)
        oracle_labels, oracle_count = flood_fill_components(mask)
        assert lab.count == oracle_count
        # both number components in raster order of first pixel, so the
        # label maps agree exactly, not just up to renaming
        assert np.array_equal(lab.labels, oracle_labels)
        assert (lab.labels > 0).sum() == mask.sum()


def test_components_deterministic():
    rng = np.random.default_rng(16)
    mask = rng.random((32, 32)) < 0.5
    a = connected_components(mask)
    b = connected_components(mask)
    assert a.count == b.count
    assert np.array_equal(a.labels, b.labels)


def test_component_ids_contiguous_and_sizes_sum():
    rng = np.random.default_rng(17)
    mask = rng.random((48, 48)) < 0.45
    lab = connected_components(mask)
    ids = np.unique(lab.labels)
    assert ids[0] == 0 or lab.count == len(ids)
    assert set(ids) - {0} == set(range(1, lab.count + 1))
    assert sum((lab.labels == i).sum() for i in range(1, lab.count + 1)) == mask.sum()


def _stack_like(labels_shape, m=2, fill=5.0):
    bands = tuple(np.full(labels_shape, fill + i) for i in range(m))
    wl = tuple(405.0 + 25 * i for i in range(m))
    base = ImageStack(bands=bands, wavelengths_nm=wl, role_tag="raw")
    return base.with_bands(bands, role_tag="corrected")


def test_extract_basic_and_filter():
    lab = np.zeros((10, 10), dtype=np.int32)
    lab[1:6, 1:6] = 1  # 25 px
    stack = _stack_like((10, 10))
    orgs = extract_organisms(LabelMap(lab), stack, min_area_px=10)
    assert len(orgs) == 1
    assert orgs[0].area == 25
    assert bboxes(*pixel_table(orgs)).tolist() == [[1, 1, 5, 5]]
    assert not orgs[0].touches_border

    small = np.zeros((10, 10), dtype=np.int32)
    small[0, 0:4] = 1  # 4 px
    assert extract_organisms(LabelMap(small), stack, min_area_px=10) == []


def test_extract_ordering_and_border_flag():
    lab = np.zeros((12, 12), dtype=np.int32)
    lab[0:5, 0:6] = 1   # 30 px, touches border
    lab[7:10, 7:11] = 2  # 12 px
    stack = _stack_like((12, 12))
    orgs = extract_organisms(LabelMap(lab), stack, min_area_px=10)
    assert [o.id for o in orgs] == [1, 2]
    assert [o.area for o in orgs] == [30, 12]
    assert orgs[0].touches_border and not orgs[1].touches_border


def test_extract_dimension_mismatch():
    lab = LabelMap(np.zeros((4, 4), dtype=np.int32))
    with pytest.raises(ValueError):
        extract_organisms(lab, _stack_like((5, 5)), min_area_px=1)


def test_extract_bbox_tight_and_pixel_ids():
    rng = np.random.default_rng(18)
    mask = rng.random((20, 20)) < 0.4
    lab = connected_components(mask)
    stack = _stack_like((20, 20))
    orgs = extract_organisms(lab, stack, min_area_px=1)
    for org, box in zip(orgs, bboxes(*pixel_table(orgs)).tolist()):
        ys, xs = org.pixels[:, 0], org.pixels[:, 1]
        assert box == [xs.min(), ys.min(), xs.max(), ys.max()]
        assert np.all(lab.labels[ys, xs] == org.id)


def test_touches_border_is_bbox_rule():
    # flagged iff the bounding box reaches the first or last row or column,
    # on maps down to one pixel thin in either direction
    rng = np.random.default_rng(22)
    shapes = [tuple(rng.integers(2, 30, size=2).tolist()) for _ in range(40)]
    shapes += [(1, 17), (17, 1), (1, 1), (1, 2), (2, 1)]
    seen = set()
    for h, w in shapes:
        lab = np.zeros((h, w), dtype=np.int32)
        for comp_id in range(1, 9):
            y, x = rng.integers(0, h), rng.integers(0, w)
            lab[y:y + rng.integers(1, 6), x:x + rng.integers(1, 6)] = comp_id
        orgs = extract_organisms(LabelMap(lab), _stack_like((h, w)), min_area_px=1)
        assert [o.id for o in orgs] == sorted(set(np.unique(lab).tolist()) - {0})
        boxes = bboxes(*pixel_table(orgs)).tolist()
        for org, (x_min, y_min, x_max, y_max) in zip(orgs, boxes):
            rule = y_min == 0 or x_min == 0 or y_max == h - 1 or x_max == w - 1
            assert org.touches_border is rule
            seen.add(rule)
    assert seen == {True, False}


def test_labelmap_count_is_largest_id():
    rng = np.random.default_rng(23)
    for _ in range(20):
        lab = rng.integers(0, 50, size=(9, 11)) * (rng.random((9, 11)) < 0.3)
        assert LabelMap(lab).count == lab.max()
    gaps = np.zeros((5, 5), dtype=np.int32)
    gaps[0, 0] = 2
    gaps[3, 3] = 7
    lab = LabelMap(gaps)
    assert lab.count == 7 and type(lab.count) is int
    assert LabelMap(np.zeros((3, 3))).count == 0
    # every id up to the largest is extracted: none is dropped by a short count
    orgs = extract_organisms(lab, _stack_like((5, 5)), min_area_px=1)
    assert [o.id for o in orgs] == [2, 7]


def test_extract_pixels_match_argwhere():
    # random ids include components below min_area_px, components touching
    # the border, ids with no pixels and ones scattered in many pieces
    rng = np.random.default_rng(19)
    lab = np.zeros((37, 53), dtype=np.int32)
    for comp_id in range(1, 41):
        y, x = rng.integers(0, 37), rng.integers(0, 53)
        lab[y:y + rng.integers(1, 9), x:x + rng.integers(1, 9)] = comp_id
    lab[rng.random(lab.shape) < 0.05] = 41
    lab[0, :3] = 42
    stack = _stack_like(lab.shape)
    orgs = extract_organisms(LabelMap(lab), stack, min_area_px=8)
    expected = [i for i in range(1, 44) if (lab == i).sum() >= 8]
    assert [o.id for o in orgs] == expected
    assert len(expected) < 43 and any(o.touches_border for o in orgs)
    for org in orgs:
        assert np.array_equal(org.pixels, np.argwhere(lab == org.id))
    # an all-background map, a map with no background pixel and a sparse map
    # whose foreground is under 5% of the pixels
    sparse = np.zeros((60, 70), dtype=np.int32)
    for comp_id in range(1, 13):
        y, x = rng.integers(0, 58), rng.integers(0, 67)
        sparse[y:y + 2, x:x + rng.integers(1, 4)] = comp_id
    assert 0 < np.count_nonzero(sparse) < 0.05 * sparse.size
    full = rng.integers(1, 7, size=(23, 31)).astype(np.int32)
    for lab in (np.zeros((9, 11), dtype=np.int32), full, sparse):
        orgs = extract_organisms(LabelMap(lab), _stack_like(lab.shape), min_area_px=1)
        assert [o.id for o in orgs] == [i for i in range(1, lab.max() + 1)
                                        if np.any(lab == i)]
        for org in orgs:
            assert np.array_equal(org.pixels, np.argwhere(lab == org.id))


def test_extract_groups_more_than_65535_components_as_an_int32_sort_does():
    # ids past 16 bits are grouped with uint32 keys; pixels of one id lie in
    # two places, so the stable order within a component shows
    lab = np.zeros((520, 520), dtype=np.int32)
    lab[::2, ::2] = np.arange(1, 260 * 260 + 1).reshape(260, 260)
    lab[1::2, 1::2] = lab[::2, ::2][::-1, ::-1]
    count = int(lab.max())
    assert count > 65535 and np.min_scalar_type(count) == np.uint32
    flat = lab.ravel()
    fg = np.flatnonzero(flat)
    ids = flat[fg]
    table = np.stack(np.divmod(fg[np.argsort(ids, kind="stable")], lab.shape[1]), axis=1)
    orgs = extract_organisms(LabelMap(lab), _stack_like(lab.shape, m=1), min_area_px=1)
    assert [org.id for org in orgs] == list(range(1, count + 1))
    assert np.array_equal(np.concatenate([org.pixels for org in orgs]), table)
    assert [len(org.pixels) for org in orgs] == np.bincount(ids)[1:].tolist()
    assert orgs[0].pixels.tolist() == [[0, 0], [519, 519]]


def test_segment_equals_explicit_chain():
    # one blob per band, so the union is needed, plus a 3-px speck that
    # MIN_AREA_PX drops
    rng = np.random.default_rng(21)
    bands = [rng.normal(10.0, 1.0, size=(40, 48)).clip(0) for _ in range(2)]
    bands[0][4:12, 5:14] += 90.0
    bands[1][20:30, 25:31] += 70.0
    bands[1][35, 3:6] += 80.0
    corrected = _stack_like((40, 48)).with_bands(bands, role_tag="corrected")

    seg = segment(corrected)
    labels, orgs = seg.labels, seg.organisms

    want_thresholds = tuple(otsu_threshold(b) for b in corrected.bands)
    want_labels = connected_components(fuse_masks(
        [binarize(b, t) for b, t in zip(corrected.bands, want_thresholds)]))
    want_orgs = extract_organisms(want_labels, corrected, min_area_px=8)
    assert seg.thresholds == want_thresholds
    assert labels.count == want_labels.count
    assert np.array_equal(labels.labels, want_labels.labels)
    assert [o.id for o in orgs] == [o.id for o in want_orgs]
    for got, want in zip(orgs, want_orgs):
        assert np.array_equal(got.pixels, want.pixels)
    assert len(orgs) == 2 and labels.count > len(orgs)


@pytest.mark.parametrize("value,span", [
    (math.nan, "[nan, nan]"), (math.inf, "[0.0, inf]"), (-math.inf, "[-inf, 9.0]"),
], ids=["nan", "inf", "minus-inf"])
def test_segment_names_a_non_finite_band(value, span):
    bands = [np.arange(400.0).reshape(20, 20) % 10 for _ in range(3)]
    bands[2][7, 11] = value
    corrected = _stack_like((20, 20), m=3).with_bands(bands, role_tag="corrected")
    with pytest.raises(ValueError) as err:
        segment(corrected)
    assert type(err.value) is ValueError
    assert str(err.value) == f"band 2: band is not finite: its values span {span}"


def test_organism_invariants():
    with pytest.raises(ValueError):
        Organism(id=1, pixels=np.zeros((0, 2)))


def test_bboxes_match_each_organism_bbox():
    rng = np.random.default_rng(26)
    lab = connected_components(rng.random((40, 50)) < 0.4)
    orgs = extract_organisms(lab, _stack_like((40, 50)), min_area_px=1)
    shuffled = [dataclasses.replace(org, pixels=rng.permutation(org.pixels)) for org in orgs]
    small = [Organism(id=1, pixels=[(3, 4)]),
             Organism(id=2, pixels=[(5, x) for x in range(9, 2, -1)]),
             Organism(id=3, pixels=[(y, 0) for y in range(6)]),
             Organism(id=4, pixels=[(0, 0)])]
    assert len(orgs) > 20
    for batch in (orgs, shuffled, small, small[::-1], small[:1]):
        boxes = bboxes(*pixel_table(batch))
        assert boxes.dtype == np.int64
        assert list(map(tuple, boxes.tolist())) == [pixel_bbox(org) for org in batch]
    assert bboxes(*pixel_table(small)).tolist() == [
        [4, 3, 4, 3], [3, 5, 9, 5], [0, 0, 0, 5], [0, 0, 0, 0]]


def test_organisms_json_of_no_organisms():
    lab = LabelMap(np.zeros((3, 3), dtype=np.int32))
    assert segmentation_json(Segmentation((1.5,), lab, ())) == {
        "component_count": 0, "thresholds": [1.5], "organisms": []}


def test_organisms_json_bbox_is_python_ints():
    rng = np.random.default_rng(24)
    lab = connected_components(rng.random((30, 30)) < 0.4)
    orgs = extract_organisms(lab, _stack_like((30, 30)), min_area_px=1)
    doc = segmentation_json(Segmentation((), lab, tuple(orgs)))["organisms"]
    assert doc and all(type(v) is int for rec in doc for v in rec["bbox"])
    json.dumps(doc)  # numpy integers would not serialize


def test_labelmap_pgm_export(tmp_path):
    lab = np.zeros((6, 6), dtype=np.int32)
    lab[2:4, 2:4] = 1
    lab[5, 5] = 2
    labelmap_to_pgm(LabelMap(lab), tmp_path / "labels.pgm")
    back = read_pgm(tmp_path / "labels.pgm")
    assert np.array_equal(back.astype(np.int32), lab)


def test_labelmap_pgm_rejects_ids_beyond_16_bits(tmp_path):
    lab = np.arange(1, 65537, dtype=np.int32).reshape(1, 65536)
    path = tmp_path / "labels.pgm"
    with pytest.raises(ValueError, match="65536 components"):
        labelmap_to_pgm(LabelMap(lab), path)
    assert not path.exists()


def test_extract_pixels_are_read_only_rows_of_one_table():
    rng = np.random.default_rng(25)
    lab = connected_components(rng.random((40, 40)) < 0.4)
    orgs = extract_organisms(lab, _stack_like((40, 40)), min_area_px=1)
    assert len(orgs) > 1
    table = orgs[0].pixels.base
    assert table is not None and table.shape == (np.count_nonzero(lab.labels), 2)
    for org in orgs:
        assert org.pixels.base is table and org.pixels.dtype == np.int64
        assert not org.pixels.flags.writeable
        with pytest.raises(ValueError):
            org.pixels[0, 0] = 0


def test_organisms_json_round_trip():
    lab = np.zeros((8, 8), dtype=np.int32)
    lab[0:3, 0:3] = 1
    stack = _stack_like((8, 8))
    orgs = extract_organisms(LabelMap(lab), stack, min_area_px=1)
    doc = segmentation_json(Segmentation((12.5,), LabelMap(lab), tuple(orgs)))
    assert json.loads(json.dumps(doc)) == {
        "component_count": 1,
        "thresholds": [12.5],
        "organisms": [{"id": 1, "area": 9, "bbox": [0, 0, 2, 2], "touches_border": True}],
    }


def _json_bytes(seg):
    doc = segmentation_json(seg)
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def test_organisms_json_writer_is_json_dumps_layout(tmp_path):
    path = tmp_path / "organisms.json"
    lab = np.zeros((9, 9), dtype=np.int32)
    lab[0:3, 0:3] = 1  # touches the border
    lab[4:7, 4:7] = 2
    orgs = tuple(extract_organisms(LabelMap(lab), _stack_like(lab.shape), min_area_px=1))
    assert [org.touches_border for org in orgs] == [True, False]
    empty = LabelMap(np.zeros((3, 3), dtype=np.int32))
    for seg in (Segmentation((1.5,), empty, ()),
                Segmentation((), empty, ()),
                Segmentation((1e-05, 1e+16, 2.5, 0.1 + 0.2, 123456789.0), LabelMap(lab), orgs),
                Segmentation((3.0,), LabelMap(lab), orgs[1:])):
        write_organisms_json(path, seg)
        assert path.read_bytes() == _json_bytes(seg)
    assert b"1e-05" in _json_bytes(Segmentation((1e-05, 1e+16), empty, ()))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="is not a JSON number"):
            write_organisms_json(tmp_path / "bad.json", Segmentation((bad,), empty, ()))
        assert not (tmp_path / "bad.json").exists()


def test_organisms_json_writer_on_a_crowded_field(tmp_path):
    field = generate_scene(SceneSpec(width=1024, height=1024, n_organisms=600,
                                     background_level=0.0, vignette_strength=0.0,
                                     seed=29), default_catalog())
    seg = segment(field.stack.with_bands(field.stack.bands, role_tag="corrected"))
    assert len(seg.organisms) > 400
    path = tmp_path / "organisms.json"
    write_organisms_json(path, seg)
    assert path.read_bytes() == _json_bytes(seg)
