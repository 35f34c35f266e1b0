import concurrent.futures
import multiprocessing
import threading

import numpy as np
import pytest

from algaeid import illumination, stack_io
from algaeid.classifier import TrainConfig, train_runs
from algaeid.illumination import (CorrectionConfig, dilate_disk, disk_is_open,
                                  erode_disk, estimate_background, gaussian_kernel,
                                  gaussian_lowpass, morphological_opening,
                                  subtract_background)
from algaeid.stack_io import ImageStack

from helpers import (naive_dilate, naive_erode, naive_gaussian, naive_opening,
                     oracle_disk_is_open, reference_train)


def test_config_validation():
    with pytest.raises(ValueError):
        CorrectionConfig(gaussian_sigma_px=0.0)
    with pytest.raises(ValueError):
        CorrectionConfig(opening_radii_px=())
    with pytest.raises(ValueError):
        CorrectionConfig(opening_radii_px=(4, 4))
    with pytest.raises(ValueError):
        CorrectionConfig(opening_radii_px=(0, 2))
    with pytest.raises(ValueError, match="gaussian_sigma_px must be finite, got inf"):
        CorrectionConfig(gaussian_sigma_px=float("inf"))
    with pytest.raises(ValueError, match="gaussian_sigma_px must be finite, got nan"):
        CorrectionConfig(gaussian_sigma_px=float("nan"))
    for kwargs, message in [
        ({"opening_radii_px": "48"}, "opening_radii_px must be a list of integers, got '48'"),
        ({"opening_radii_px": 8}, "opening_radii_px must be a list of integers, got 8"),
        ({"opening_radii_px": [4.5, 8]}, "opening_radii_px[0] must be an integer, got 4.5"),
        ({"gaussian_sigma_px": True}, "gaussian_sigma_px must be a number, got True"),
        ({"gaussian_sigma_px": 10 ** 400}, "gaussian_sigma_px is too large for a float"),
    ]:
        with pytest.raises(ValueError) as err:
            CorrectionConfig(**kwargs)
        assert str(err.value) == message
    assert CorrectionConfig(opening_radii_px=[2, 4]).opening_radii_px == (2, 4)
    CorrectionConfig()  # defaults valid


def test_kernel_normalized():
    for sigma in (0.3, 1.0, 2.5, 5.0, 11.0):
        k = gaussian_kernel(sigma)
        assert len(k) == 2 * int(np.ceil(3 * sigma)) + 1
        assert abs(k.sum() - 1.0) < 1e-12


def test_gaussian_constant_fixed_point():
    img = np.full((12, 17), 7.0)
    for sigma in (0.5, 1.0, 5.0):
        out = gaussian_lowpass(img, sigma)
        assert np.allclose(out, 7.0, atol=1e-12)


def test_gaussian_impulse():
    img = np.zeros((21, 21))
    img[10, 10] = 1.0
    out = gaussian_lowpass(img, 1.0)
    k = gaussian_kernel(1.0)
    assert abs(out[10, 10] - k.max() ** 2) < 1e-12
    assert abs(out.sum() - 1.0) < 1e-9


def test_gaussian_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for sigma in (0.8, 1.7, 3.0):
        img = rng.random((23, 31)) * 100
        expected = naive_gaussian(img, sigma)
        got = gaussian_lowpass(img, sigma)
        assert np.max(np.abs(got - expected)) < 1e-9


def test_gaussian_kernel_larger_than_image():
    rng = np.random.default_rng(4)
    img = rng.random((5, 6)) * 10
    sigma = 3.0  # radius 9 exceeds both dimensions
    assert np.max(np.abs(gaussian_lowpass(img, sigma) - naive_gaussian(img, sigma))) < 1e-9


def test_opening_constant_unchanged():
    img = np.full((9, 9), 4.5)
    assert np.array_equal(morphological_opening(img, 3), img)


def test_opening_removes_small_spike():
    img = np.full((11, 11), 2.0)
    img[5, 5] = 50.0
    out = morphological_opening(img, 2)
    assert np.array_equal(out, np.full((11, 11), 2.0))


def test_opening_matches_naive_oracle():
    rng = np.random.default_rng(5)
    for radius in (1, 2, 3, 5, 8):
        img = rng.random((32, 32)) * 1000
        expected = naive_opening(img, radius)
        got = morphological_opening(img, radius)
        assert np.array_equal(got, expected)
        assert np.all(got <= img)  # anti-extensive


def test_erode_dilate_match_naive():
    rng = np.random.default_rng(6)
    img = rng.random((20, 27)) * 50
    for radius in (1, 4, 7):
        assert np.array_equal(erode_disk(img, radius), naive_erode(img, radius))
        assert np.array_equal(dilate_disk(img, radius), naive_dilate(img, radius))


@pytest.mark.parametrize("shape", [(1, 80), (80, 1), (5, 3), (70, 81)],
                         ids=["1x80", "80x1", "5x3", "70x81"])
@pytest.mark.parametrize("radius", [16, 32])
def test_erode_dilate_match_naive_large_radii(shape, radius):
    # radii 16 and 32 read chords from table spans 32 and 64, on bands
    # narrower than the disk in one or both axes and on one wider than it
    img = np.random.default_rng(radius).random(shape) * 50
    assert np.array_equal(erode_disk(img, radius), naive_erode(img, radius))
    assert np.array_equal(dilate_disk(img, radius), naive_dilate(img, radius))


def test_opening_radius_larger_than_image():
    rng = np.random.default_rng(7)
    img = rng.random((6, 9)) * 10
    assert np.array_equal(morphological_opening(img, 12), naive_opening(img, 12))


def test_opening_idempotent_exactly():
    rng = np.random.default_rng(8)
    for _ in range(20):
        img = rng.random((15, 15)) * 100
        radius = int(rng.integers(1, 5))
        once = morphological_opening(img, radius)
        twice = morphological_opening(once, radius)
        assert np.array_equal(once, twice)


def test_opening_rejects_zero_radius():
    with pytest.raises(ValueError):
        morphological_opening(np.zeros((3, 3)), 0)


def _raw_stack(bands):
    wl = tuple(405.0 + 25 * i for i in range(len(bands)))
    return ImageStack(bands=tuple(bands), wavelengths_nm=wl, role_tag="raw")


def test_disk_openness_matches_union_of_translates():
    pairs = [(big, r) for big in range(2, 33) for r in range(1, big)]
    table = {(big, r): disk_is_open(big, r) for big, r in pairs}
    assert table == {(big, r): oracle_disk_is_open(big, r) for big, r in pairs}
    assert len(pairs) == 496 and sum(table.values()) == 141
    # of the default radii 4, 8, 16 and 32 only the r=4 opening is absorbed
    assert [disk_is_open(8, 4), disk_is_open(16, 8), disk_is_open(32, 16)] == [True, False, False]


OPEN_PAIRS = [(big, r) for big in range(2, 17) for r in range(1, big)
              if oracle_disk_is_open(big, r)] + [(32, 4)]


@pytest.mark.parametrize("big,r", OPEN_PAIRS, ids=[f"{r}-in-{big}" for big, r in OPEN_PAIRS])
def test_absorbed_opening_changes_no_bit(big, r):
    # the opening by D_big of the opening by D_r is the opening by D_big,
    # bit for bit, with edge replication, also on fields smaller than D_big
    rng = np.random.default_rng(big * 100 + r)
    for _ in range(4):
        shape = tuple(int(n) for n in rng.integers(1, 2 * big + 8, size=2))
        img = rng.random(shape) * 1000
        if rng.random() < 0.5:  # few levels, so openings tie
            img = np.floor(img / 400)
        assert np.array_equal(morphological_opening(morphological_opening(img, r), big),
                              morphological_opening(img, big))


def _serial_background(stack, cfg):
    # every configured opening, absorbed or not, band after band
    out = []
    for band in stack.bands:
        b = gaussian_lowpass(band, cfg.gaussian_sigma_px)
        for radius in cfg.opening_radii_px:
            b = morphological_opening(b, radius)
        out.append(b)
    return out


@pytest.fixture
def thread_pools(monkeypatch):
    """The worker count of every thread pool `estimate_background` builds."""
    sizes = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    return sizes


@pytest.fixture
def openings(monkeypatch):
    """(rank stack shape, dtype, radius) of every opening that
    `estimate_background` runs, in no particular order."""
    calls, opening = [], illumination.morphological_opening

    def recording(band, radius):
        calls.append((band.shape, band.dtype, radius))
        return opening(band, radius)

    monkeypatch.setattr(illumination, "morphological_opening", recording)
    return calls


# (bands, CPUs): the band count of each thread's chunk
CHUNKS = {(6, 1): [6], (6, 2): [3, 3], (6, 3): [2, 2, 2], (2, 3): [1, 1],
          (5, 2): [2, 3], (5, 3): [1, 2, 2]}


@pytest.mark.parametrize("bands,cpus", list(CHUNKS))
def test_background_independent_of_worker_count(monkeypatch, thread_pools, openings,
                                                bands, cpus):
    # min(bands, CPUs) threads, joined before the call returns, each opening
    # one contiguous chunk of bands as a uint16 rank stack
    rng = np.random.default_rng(10 * bands + cpus)
    ramp = np.linspace(60.0, 140.0, 71)
    stack = _raw_stack([ramp + rng.random((53, 71)) * 400 * (rng.random((53, 71)) < 0.1)
                        for _ in range(bands)])
    cfg = CorrectionConfig()
    monkeypatch.setattr(stack_io, "usable_cpus", lambda: cpus)
    threads = threading.active_count()
    bg = estimate_background(stack, cfg)
    assert threading.active_count() == threads
    workers = min(bands, cpus)
    assert thread_pools == ([] if workers == 1 else [workers])
    assert sorted(openings) == sorted(((n, 53, 71), np.uint16, r)
                                      for n in CHUNKS[bands, cpus] for r in (8, 16, 32))
    assert bg.role_tag == "background" and bg.num_bands == bands
    for got, want in zip(bg.bands, _serial_background(stack, cfg)):
        assert got.dtype == np.float64 and np.array_equal(got, want)


def _blocks(rng, shape, levels, block):
    """A band of `block`-sided flat squares at a few levels."""
    coarse = rng.integers(0, levels, size=(-(-shape[0] // block), -(-shape[1] // block)))
    return np.kron(coarse * 50.0 + 20.0, np.ones((block, block)))[:shape[0], :shape[1]]


@pytest.mark.parametrize("shape,rank_dtype", [((60, 50), np.uint16), ((300, 260), np.uint32)])
def test_background_ranks_tie_and_widen_bit_identical(openings, shape, rank_dtype):
    # a few flat levels give a low-pass with many equal values, whose ranks
    # tie; above 2^16 pixels the ranks are uint32
    rng = np.random.default_rng(shape[0])
    stack = _raw_stack([_blocks(rng, shape, 3, 20), rng.random(shape) * 100])
    cfg = CorrectionConfig(gaussian_sigma_px=2.0)
    lowpass = gaussian_lowpass(stack.bands[0], cfg.gaussian_sigma_px)
    assert len(np.unique(lowpass)) < lowpass.size // 4
    bg = estimate_background(stack, cfg)
    assert {dtype for _, dtype, _ in openings} == {np.dtype(rank_dtype)}
    for got, want in zip(bg.bands, _serial_background(stack, cfg)):
        assert np.array_equal(got, want)


def test_background_of_uint16_raster_stack_bit_identical():
    rng = np.random.default_rng(17)
    stack = _raw_stack([rng.integers(0, 65536, size=(45, 38), dtype=np.uint16),
                        (_blocks(rng, (45, 38), 4, 9) * 100).astype(np.uint16)])
    cfg = CorrectionConfig(opening_radii_px=(2, 4, 6))
    for got, want in zip(estimate_background(stack, cfg).bands, _serial_background(stack, cfg)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.uint16, np.uint32])
def test_erode_dilate_of_ranks_map_back_to_float(dtype):
    rng = np.random.default_rng(19)
    img = np.floor(rng.random((23, 31)) * 12) * 0.75  # few levels, so ranks tie
    levels, inverse = np.unique(img, return_inverse=True)
    ranks = inverse.reshape(img.shape).astype(dtype)
    for radius in (1, 3, 7):
        for fn in (erode_disk, dilate_disk):
            out = fn(ranks, radius)
            assert out.dtype == dtype
            assert np.array_equal(levels[out], fn(img, radius))
        # the leading axis stacks bands
        stacked = erode_disk(np.stack([ranks, ranks[::-1]]), radius)
        assert np.array_equal(stacked, [erode_disk(ranks, radius),
                                        erode_disk(ranks[::-1], radius)])
    # the fill is op's identity: the dtype's extremes pass unchanged
    for value in (0, np.iinfo(dtype).max):
        flat = np.full((4, 6), value, dtype=dtype)
        assert np.array_equal(erode_disk(flat, 2), flat)
        assert np.array_equal(dilate_disk(flat, 2), flat)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("cpus", [1, 2])
def test_background_rejects_non_finite_band(monkeypatch, bad, cpus):
    # NaN or inf would spread through the openings; the band is named
    rng = np.random.default_rng(23)
    bands = [rng.random((20, 24)) * 100 for _ in range(5)]
    bands[3][7, 9] = bad
    monkeypatch.setattr(stack_io, "usable_cpus", lambda: cpus)
    with pytest.raises(ValueError, match="^band 3: low-pass background is not finite$"):
        estimate_background(_raw_stack(bands), CorrectionConfig())


def test_background_raises_first_failing_band(monkeypatch):
    # bands 2 and 4 fail, band 4 first in time; band 2's error is raised
    lowpass, failed = illumination.gaussian_lowpass, threading.Event()

    def failing(band, sigma):
        index = int(band[0, 0])
        if index == 2:
            failed.wait(timeout=30)
        if index in (2, 4):
            failed.set()
            raise ValueError(f"band {index} failed")
        return lowpass(band, sigma)

    monkeypatch.setattr(illumination, "gaussian_lowpass", failing)
    monkeypatch.setattr(stack_io, "usable_cpus", lambda: 3)
    stack = _raw_stack([np.full((20, 24), float(i)) for i in range(6)])
    threads = threading.active_count()
    with pytest.raises(ValueError, match="^band 2 failed$"):
        estimate_background(stack, CorrectionConfig())
    assert threading.active_count() == threads


def test_training_forks_after_band_threads(monkeypatch, pools):
    # the band threads are gone before training forks its workers
    monkeypatch.setattr(stack_io, "usable_cpus", lambda: 2)
    rng = np.random.default_rng(13)
    estimate_background(_raw_stack([rng.random((40, 40)) * 100 for _ in range(6)]))
    x = rng.normal(size=(3, 30, 4))
    y = rng.integers(0, 3, size=(3, 30))
    y[:, :2] = [0, 1]
    seeds = [int(s) for s in rng.integers(0, 2 ** 32, size=3)]
    cfg = TrainConfig(epochs=6, batch_size=8)
    trained = train_runs(x, y, seeds, cfg=cfg, num_classes=3)
    assert pools == [2]
    assert multiprocessing.active_children() == []
    for r, (net, final_loss) in enumerate(trained):
        ref_net, ref_loss = reference_train(
            x[r], y[r], cfg=TrainConfig(epochs=6, batch_size=8, seed=seeds[r]),
            num_classes=3)
        assert final_loss == ref_loss
        for a, b in zip(net.weights + net.biases, ref_net.weights + ref_net.biases):
            assert np.array_equal(a, b)


def test_background_constant_stack():
    stack = _raw_stack([np.full((24, 24), 60.0)])
    bg = estimate_background(stack, CorrectionConfig(gaussian_sigma_px=2.0,
                                                     opening_radii_px=(2, 4)))
    assert bg.role_tag == "background"
    assert np.allclose(bg.bands[0], 60.0, atol=1e-9)


def test_background_flat_field_with_blob():
    # 3x3 blob of 1000 on a flat field of 100; sigma kept small so the
    # smeared blob still fits inside the radius-4 disk
    img = np.full((64, 64), 100.0)
    img[30:33, 30:33] = 1000.0
    cfg = CorrectionConfig(gaussian_sigma_px=2.0, opening_radii_px=(4, 8))
    bg = estimate_background(_raw_stack([img]), cfg)

    oracle = naive_gaussian(img, 2.0)
    for r in (4, 8):
        oracle = naive_opening(oracle, r)
    assert np.max(np.abs(bg.bands[0] - oracle)) < 1e-9
    assert np.max(np.abs(bg.bands[0] - 100.0)) <= 1.0


def test_background_below_smoothed_input():
    rng = np.random.default_rng(9)
    img = rng.random((30, 30)) * 200
    cfg = CorrectionConfig(gaussian_sigma_px=1.5, opening_radii_px=(2, 3))
    bg = estimate_background(_raw_stack([img]), cfg)
    smoothed = gaussian_lowpass(img, 1.5)
    assert np.all(bg.bands[0] <= smoothed + 1e-12)


def test_background_monotone():
    rng = np.random.default_rng(10)
    cfg = CorrectionConfig(gaussian_sigma_px=1.0, opening_radii_px=(2,))
    for _ in range(10):
        f = rng.random((16, 16)) * 50
        g = f + rng.random((16, 16)) * 20  # g >= f pixelwise
        bf = estimate_background(_raw_stack([f]), cfg).bands[0]
        bgg = estimate_background(_raw_stack([g]), cfg).bands[0]
        assert np.all(bgg >= bf - 1e-12)


def test_background_requires_raw():
    stack = _raw_stack([np.zeros((8, 8))])
    corrected = stack.with_bands(stack.bands, role_tag="corrected")
    with pytest.raises(ValueError):
        estimate_background(corrected, CorrectionConfig())


def test_subtract_identity_gives_zero():
    rng = np.random.default_rng(11)
    band = rng.random((10, 10)) * 100
    raw = _raw_stack([band])
    bg = raw.with_bands([band.copy()], role_tag="background")
    out = subtract_background(raw, bg, clamp=True)
    assert out.role_tag == "corrected"
    assert np.array_equal(out.bands[0], np.zeros((10, 10)))


def test_subtract_arithmetic_and_clamp():
    raw = _raw_stack([np.array([[150.0, 80.0]])])
    bg = raw.with_bands([np.array([[100.0, 100.0]])], role_tag="background")
    clamped = subtract_background(raw, bg, clamp=True)
    assert clamped.bands[0][0, 0] == 50.0
    assert clamped.bands[0][0, 1] == 0.0
    unclamped = subtract_background(raw, bg, clamp=False)
    assert unclamped.bands[0][0, 1] == -20.0


def test_subtract_raster_stacks_does_not_wrap():
    # two uint16 stacks, as loaded from PGMs, subtract in float64: 3 - 5 is
    # -2, which the clamp makes 0, never the 65534 of a uint16 difference
    raw = _raw_stack([np.array([[3, 5, 65535]], dtype=np.uint16)])
    bg = raw.with_bands([np.array([[5, 3, 0]], dtype=np.uint16)], role_tag="background")
    clamped = subtract_background(raw, bg, clamp=True).bands[0]
    unclamped = subtract_background(raw, bg, clamp=False).bands[0]
    assert clamped.dtype == unclamped.dtype == np.float64
    assert clamped.tolist() == [[0.0, 2.0, 65535.0]]
    assert unclamped.tolist() == [[-2.0, 2.0, 65535.0]]


def test_background_of_raster_stack_is_that_of_its_float64_copy():
    rng = np.random.default_rng(13)
    band = rng.integers(0, 65536, size=(40, 30), dtype=np.uint16)
    raw = _raw_stack([band])
    again = _raw_stack([band.astype(np.float64)])
    cfg = CorrectionConfig(opening_radii_px=(2, 5))
    backgrounds = [estimate_background(stack, cfg) for stack in (raw, again)]
    assert np.array_equal(backgrounds[0].bands[0], backgrounds[1].bands[0])
    corrected = [subtract_background(stack, background).bands[0]
                 for stack, background in zip((raw, again), backgrounds)]
    assert np.array_equal(*corrected)


def test_subtract_clamped_non_negative():
    rng = np.random.default_rng(12)
    raw = _raw_stack([rng.random((9, 9)) * 10])
    bg = raw.with_bands([rng.random((9, 9)) * 10], role_tag="background")
    assert np.all(subtract_background(raw, bg, clamp=True).bands[0] >= 0)


def test_subtract_mismatch_errors():
    raw = _raw_stack([np.zeros((4, 4))])
    bg2 = ImageStack(bands=(np.zeros((4, 4)), np.zeros((4, 4))),
                     wavelengths_nm=(405.0, 450.0), role_tag="background")
    with pytest.raises(ValueError):
        subtract_background(raw, bg2, clamp=True)
    bg_small = ImageStack(bands=(np.zeros((3, 3)),), wavelengths_nm=(405.0,),
                          role_tag="background")
    with pytest.raises(ValueError):
        subtract_background(raw, bg_small, clamp=True)
    with pytest.raises(ValueError):
        subtract_background(raw, raw, clamp=True)  # wrong role tag
