"""Illumination correction: estimate the smooth background per band and
subtract it, so intensities become comparable across the field of view.

The background model is a Gaussian low-pass followed by grayscale openings
with disks of growing radius, OPENING_RADII_PX: the paper's 4, 8, 16 and
32 px without r=4, which the opening by 8 absorbs. Each opening suppresses
image structure up to its disk size while leaving the slowly varying
illumination pattern intact. The low-pass runs as BLAS products of small
tiles with a banded kernel matrix (see `gaussian_lowpass`). The openings
run on each low-pass's integer ranks, a chunk of bands at a time, and map
back to the same float64 bits (see `estimate_background`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fields, stack_io


@dataclass(frozen=True)
class CorrectionConfig:
    """The low-pass scale of `estimate_background`; the CLI uses the default."""
    gaussian_sigma_px: float = 5.0

    def __post_init__(self):
        fields.coerce(self)
        if self.gaussian_sigma_px <= 0:
            raise ValueError("gaussian_sigma_px must be positive")


# The paper opens by disks of radius 4, 8, 16 and 32 px. D_8 is open with
# respect to D_4 (Matheron 1975), so the opening by 8 absorbs the one by 4
# bit for bit and that one is not run; tests/test_illumination.py proves it.
OPENING_RADII_PX = (8, 16, 32)


def gaussian_kernel(sigma):
    """1-D Gaussian kernel truncated at +/- ceil(3*sigma), normalized to sum 1."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    r = math.ceil(3.0 * sigma)
    x = np.arange(-r, r + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


# The low-pass runs in tiles of TILE_ROWS x TILE_COLS output pixels, each
# one small matrix product that BLAS keeps on one thread: products over
# whole columns start BLAS threads, which oversubscribe the band threads.
TILE_ROWS, TILE_COLS = 32, 64


@functools.lru_cache(maxsize=16)
def _band_block(sigma):
    """The (TILE_COLS + 2r) x TILE_COLS matrix whose column j holds the
    Gaussian kernel in rows j .. j + 2r, so that TILE_COLS + 2r padded
    pixels times it are the kernel's TILE_COLS outputs. Read-only, as the
    cache hands it to every caller."""
    k = gaussian_kernel(sigma)
    block = np.zeros((TILE_COLS + len(k) - 1, TILE_COLS))
    for j in range(TILE_COLS):
        block[j:j + len(k), j] = k
    block.flags.writeable = False
    return block


def _tiles(a, rows, cols, row_step, col_step):
    """The rows x cols windows of 2-D `a` that start every `row_step` rows
    and `col_step` columns, as a writable (row starts, column starts, rows,
    cols) view; a window that would run past `a`'s edge is left out."""
    windows = np.lib.stride_tricks.sliding_window_view(a, (rows, cols), writeable=True)
    return windows[::row_step, ::col_step]


def gaussian_lowpass(band, sigma):
    """Separable Gaussian convolution with edge-replicated borders.

    Each pass is one stacked matrix product with `_band_block(sigma)`: a
    TILE_ROWS x TILE_COLS tile of the row pass is a TILE_ROWS x
    (TILE_COLS + 2r) window of the edge-padded band times the block, and a
    TILE_COLS x TILE_ROWS tile of the column pass is the block's transpose
    times a (TILE_COLS + 2r) x TILE_ROWS window of the row pass's output,
    edge-padded above and below. The tiles cover the band rounded up to
    whole tiles; what lies beyond it is computed and dropped.

    BLAS sums each pixel's taps, so the bits depend on numpy's BLAS, not on
    its thread count: a tile is too small for BLAS to split. A sum starts
    from +0.0 and the block's zeros add +0.0 or -0.0, which leave it as it
    is, so a low-pass never holds -0.0. An infinite pixel times a zero of
    the block is NaN, so a band with NaN or inf has a low-pass that is not
    finite; no warning is raised for it.
    """
    band = np.asarray(band, dtype=np.float64)
    block = _band_block(sigma)
    r = (block.shape[0] - TILE_COLS) // 2
    h, w = band.shape
    rows = -(-h // TILE_ROWS) * TILE_ROWS  # of the row pass
    cols = -(-w // TILE_COLS) * TILE_COLS  # of both passes
    height = -(-h // TILE_COLS) * TILE_COLS  # of the column pass
    padded = np.pad(band, ((0, rows - h), (r, cols - w + r)), mode="edge")
    smoothed = np.empty((height + 2 * r, cols))
    out = np.empty((height, cols))
    with np.errstate(invalid="ignore"):
        np.matmul(_tiles(padded, TILE_ROWS, TILE_COLS + 2 * r, TILE_ROWS, TILE_COLS), block,
                  out=_tiles(smoothed[r:r + rows], TILE_ROWS, TILE_COLS, TILE_ROWS, TILE_COLS))
        smoothed[:r] = smoothed[r]
        smoothed[r + h:] = smoothed[r + h - 1]
        np.matmul(block.T, _tiles(smoothed, TILE_COLS + 2 * r, TILE_ROWS, TILE_COLS, TILE_ROWS),
                  out=_tiles(out, TILE_COLS, TILE_ROWS, TILE_COLS, TILE_ROWS))
    return np.ascontiguousarray(out[:h, :w])


def _disk_extreme(band, radius, op):
    """Erosion (op=np.minimum) or dilation (op=np.maximum) by a discrete
    disk over the last two axes (a leading axis stacks bands), border
    handled by edge replication.

    The disk is a union of horizontal chords, one per row offset. All work
    runs on three flat buffers made once per call, laid out rows outermost:
    the stack is edge-padded to (h + 2r, bands, w + 2r), so padded row y of
    every band is the `row` values from y * row on, and a horizontal window
    is a run of consecutive values. A running sparse table holds the
    extreme of every run of `span` values, so a chord of span to
    2*span - 1 pixels is op of two overlapping table entries. Chord widths
    are visited in increasing order: the table only ever doubles, as
    op(t[:-span], t[span:]) written into the other of two buffers, and
    each chord, written into the spare one, is folded into the output at
    every row offset i with its half-width as one call on chord[i * row:];
    offset 0 comes first and is folded with itself, a copy. Runs that cross
    a row's end give values only at padded columns, which are never read.
    The result is a (bands, h, w) view of the rows-outermost output.
    uint16 and uint32 (rank) input keeps its dtype, any other becomes
    float64.
    """
    if np.asarray(band).dtype not in (np.uint16, np.uint32):
        band = np.asarray(band, dtype=np.float64)
    r = int(radius)
    h, w = band.shape[-2:]
    rows = band.reshape(-1, h, w).transpose(1, 0, 2)
    table = np.pad(rows, ((r, r), (0, 0), (r, r)), mode="edge").reshape(-1)
    spare, row = np.empty_like(table), table.size // (h + 2 * r)
    out = np.empty(h * row, dtype=table.dtype)
    head = out[:out.size - 2 * r]  # the rest lies past the last column
    # half-width of the disk {dx^2 + dy^2 <= r^2} at row offset dy = i - r
    halves = np.array([math.isqrt(r * r - dy * dy) for dy in range(-r, r + 1)])
    span, valid, reach = 1, table.size, table.size - 2 * r  # runs in table[:valid] are whole
    for half in np.unique(halves).tolist():
        while 2 * span <= 2 * half + 1:
            op(table[:valid - span], table[span:valid], out=spare[:valid - span])
            table, spare, span, valid = spare, table, 2 * span, valid - span
        # output column x takes padded columns r + x - half .. r + x + half
        lo, hi = r - half, r + half - span + 1
        chord = op(table[lo:lo + reach], table[hi:hi + reach], out=spare[:reach])
        for i in np.flatnonzero(halves == half).tolist():
            op(head if i else chord[:head.size], chord[i * row:i * row + head.size], out=head)
    return out.reshape(h, -1, w + 2 * r)[:, :, :w].transpose(1, 0, 2).reshape(band.shape)


def erode_disk(band, radius):
    return _disk_extreme(band, radius, np.minimum)


def dilate_disk(band, radius):
    return _disk_extreme(band, radius, np.maximum)


def morphological_opening(band, radius):
    """Grayscale opening (erosion then dilation) with a disk structuring
    element {(dx,dy): dx^2+dy^2 <= r^2}; border by edge replication.

    Anti-extensive (output <= input) and idempotent.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    return dilate_disk(erode_disk(band, radius), radius)


def _dense_ranks(lowpass, dtype):
    """The distinct values of `lowpass` in increasing order and its dense
    ranks as `dtype`, so that values[ranks] is `lowpass`: one argsort, a
    mask of where the sorted values step up, and its running count. NaNs
    sort last, each its own value."""
    flat = lowpass.reshape(-1)
    order = np.argsort(flat)
    flat = flat[order]
    steps = flat[1:] != flat[:-1]
    ranks = np.zeros(flat.size, dtype=dtype)
    ranks[order[1:]] = np.cumsum(steps, dtype=dtype)
    return np.concatenate((flat[:1], flat[1:][steps])), ranks.reshape(lowpass.shape)


def _chunk_background(bands, first, sigma):
    """The backgrounds of consecutive bands, the first of index `first`:
    the dense rank images of their low-passes are kept rows outermost, as
    (h, bands, w), and opened as one (bands, h, w) view of it, and each
    band maps its opened ranks back to its own values."""
    h, w = bands[0].shape
    ranks = np.empty((h, len(bands), w), dtype=np.uint16 if h * w <= 2 ** 16 else np.uint32)
    ranks = ranks.transpose(1, 0, 2)
    values = []
    for i, band in enumerate(bands):
        levels, ranks[i] = _dense_ranks(gaussian_lowpass(band, sigma), ranks.dtype)
        # sorted with NaNs last, so every value is finite if both ends are
        if not np.isfinite(levels[[0, -1]]).all():
            raise ValueError(f"band {first + i}: low-pass background is not finite")
        values.append(levels)
    for radius in OPENING_RADII_PX:
        ranks = morphological_opening(ranks, radius)
    return [levels[r] for levels, r in zip(values, ranks)]


def estimate_background(stack, cfg=None):
    """Per-band background estimate: Gaussian low-pass, then the openings
    by OPENING_RADII_PX, the paper's radii 4, 8, 16 and 32 without the
    absorbed r=4, each feeding the next.

    The openings run on ranks: flat erosion and dilation commute with any
    order-preserving map of the grey levels (Serra 1982), so opening a
    low-pass's dense rank image (uint16 up to 2^16 pixels, else uint32;
    `_dense_ranks`) and mapping it back gives the float64 opening bit for
    bit. Min and max are exact, and equal values are equal bits: a BLAS sum
    of the low-pass never gives -0.0 (`gaussian_lowpass`), and a band whose
    low-pass is not finite raises ValueError naming its index.

    The bands are split into min(bands, usable CPUs) contiguous chunks, one
    per thread. A chunk's ranks are kept rows outermost, as (h, bands, w),
    and opened as one (bands, h, w) view of them, so each step of an
    erosion or dilation is one call on contiguous memory (`_disk_extreme`).
    The threads are joined before this returns (one worker runs in this
    thread and starts none). numpy's loops release the interpreter lock,
    so the chunks overlap. The results join in band order, and no output
    depends on the worker count. Of several failing bands, the first in
    band order raises.
    """
    cfg = cfg or CorrectionConfig()
    if stack.role_tag != "raw":
        raise ValueError(f"background is estimated from a raw stack, got {stack.role_tag!r}")
    background = functools.partial(_chunk_background, sigma=cfg.gaussian_sigma_px)
    n = stack.num_bands
    workers = min(n, stack_io.usable_cpus())
    firsts = [n * i // workers for i in range(workers)]
    chunks = [stack.bands[a:b] for a, b in zip(firsts, firsts[1:] + [n])]
    if workers == 1:
        parts = map(background, chunks, firsts)
    else:
        # imported here: processes that never correct a stack do not pay for it
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(background, chunks, firsts))
    return stack.with_bands([band for part in parts for band in part], role_tag="background")


def subtract_background(raw, background, clamp=True):
    """Corrected stack = raw - background, per pixel per band.

    With clamp=True negative differences are set to 0; thresholding treats
    intensities as physical, so negatives are meaningless downstream.
    """
    if raw.role_tag != "raw":
        raise ValueError(f"expected a raw stack, got {raw.role_tag!r}")
    if background.role_tag != "background":
        raise ValueError(f"expected a background stack, got {background.role_tag!r}")
    if raw.num_bands != background.num_bands:
        raise ValueError(
            f"band count mismatch: {raw.num_bands} vs {background.num_bands}"
        )
    if (raw.height, raw.width) != (background.height, background.width):
        raise ValueError(
            f"dimension mismatch: {raw.height}x{raw.width} vs "
            f"{background.height}x{background.width}"
        )
    bands = []
    for rb, bb in zip(raw.bands, background.bands):
        diff = np.subtract(rb, bb, dtype=np.float64)  # uint16 bands would wrap
        if clamp:
            diff = np.maximum(diff, 0.0)
        bands.append(diff)
    return raw.with_bands(bands, role_tag="corrected")
