"""Metamorphic tests: the method is symmetric under flips and rotations of
the image, while several parts are implemented along one axis only (the
horizontal runs of the labelling, the row extremes of the convex area, the
border flag, the horizontal chords of the disk morphology). Flipping or
transposing a raw stack must therefore move its background estimate with
it, and a corrected stack must segment into the same organisms, moved by
the transform, with the same integer features; the float results may
differ only by summation order.
"""

import numpy as np
import pytest

from algaeid import synthgen
from algaeid.features import feature_vectors
from algaeid.illumination import estimate_background, subtract_background
from algaeid.segmentation import segment

TRANSFORMS = {
    "fliplr": np.fliplr,
    "flipud": np.flipud,
    "transpose": np.transpose,
    "rot90": np.rot90,
}

EPS = np.finfo(np.float64).eps
# eccentricity, an absolute bound: the second moments are summed in another
# pixel order (at most 3.6 eps seen on these scenes)
ECCENTRICITY_ATOL = 8 * EPS
# spectral means, a relative bound: each band's pixels are summed in
# another order (at most 3.3 eps seen)
SPECTRAL_RTOL = 8 * EPS
# background, a relative bound per pixel: the Gaussian low-pass adds its
# taps in another order (at most 4.2 eps, about 1.1e-13 absolute, seen);
# the openings only compare, so a disk that is not symmetric breaks it
BACKGROUND_RTOL = 16 * EPS


# The generator keeps organisms off the edge, so a 164x155 window of each
# scene adds cut organisms that touch the border (19 in the four windows,
# 10 of them on a left or right edge only) and a non-square shape
WINDOWS = {
    "whole": (slice(None), slice(None)),
    "window": (slice(13, 177), slice(5, 160)),
}


@pytest.fixture(scope="module")
def raw_scenes():
    catalog = synthgen.default_catalog()
    return [synthgen.generate_scene(synthgen.SceneSpec(seed=seed), catalog).stack
            for seed in range(4)]


@pytest.fixture(scope="module")
def backgrounds(raw_scenes):
    return [estimate_background(raw) for raw in raw_scenes]


@pytest.fixture(scope="module")
def corrected_scenes(raw_scenes, backgrounds):
    return [subtract_background(raw, bg) for raw, bg in zip(raw_scenes, backgrounds)]


@pytest.mark.parametrize("name", TRANSFORMS)
@pytest.mark.parametrize("scene", range(4))
def test_background_commutes_with_flips(raw_scenes, backgrounds, scene, name):
    transform = TRANSFORMS[name]
    raw = raw_scenes[scene]
    moved = estimate_background(raw.with_bands([transform(b) for b in raw.bands],
                                               role_tag="raw"))
    for got, bg in zip(moved.bands, backgrounds[scene].bands):
        np.testing.assert_allclose(got, transform(bg), rtol=BACKGROUND_RTOL, atol=0)


def _integer_features(fv, org):
    return (fv.area, fv.convex_area, fv.extent, org.touches_border)


@pytest.mark.parametrize("name", TRANSFORMS)
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("scene", range(4))
def test_segmentation_commutes_with_flips(corrected_scenes, scene, window, name):
    transform = TRANSFORMS[name]
    whole = corrected_scenes[scene]
    stack = whole.with_bands([b[WINDOWS[window]] for b in whole.bands], role_tag="corrected")
    moved = stack.with_bands([transform(b) for b in stack.bands], role_tag="corrected")
    seg, seg_t = segment(stack), segment(moved)

    assert seg_t.thresholds == seg.thresholds

    # the same partition of the same foreground, with ids renumbered
    a, b = transform(seg.labels.labels), seg_t.labels.labels
    assert np.array_equal(a > 0, b > 0)
    fg = a > 0
    pairs = np.unique(np.stack([a[fg], b[fg]], axis=1), axis=0)
    assert len(pairs) == len(np.unique(pairs[:, 0])) == len(np.unique(pairs[:, 1]))
    id_t = dict(pairs.tolist())

    fvs, fvs_t = ({o.id: (fv, o) for fv, o in zip(feature_vectors(s.organisms, st), s.organisms)}
                  for s, st in ((seg, stack), (seg_t, moved)))
    assert sorted(id_t[i] for i in fvs) == sorted(fvs_t)
    for i, (fv, org) in fvs.items():
        fv_t, org_t = fvs_t[id_t[i]]
        assert _integer_features(fv_t, org_t) == _integer_features(fv, org)
        assert abs(fv_t.eccentricity - fv.eccentricity) <= ECCENTRICITY_ATOL
        np.testing.assert_allclose(fv_t.spectral, fv.spectral, rtol=SPECTRAL_RTOL, atol=0)
