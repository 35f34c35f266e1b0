"""Illumination correction: estimate the smooth background per band and
subtract it, so intensities become comparable across the field of view.

The background model is a Gaussian low-pass followed by a sequence of
grayscale openings with disk structuring elements of growing radius; each
opening suppresses image structure up to its disk size while leaving the
slowly varying illumination pattern intact. The openings run on each
low-pass's integer ranks, a chunk of bands at a time, and map back to the
same float64 bits (see `estimate_background`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fields, stack_io


@dataclass(frozen=True)
class CorrectionConfig:
    """The pixel scales of `estimate_background`; the CLI uses the defaults."""
    gaussian_sigma_px: float = 5.0
    opening_radii_px: tuple = (4, 8, 16, 32)

    def __post_init__(self):
        fields.coerce(self)
        if self.gaussian_sigma_px <= 0:
            raise ValueError("gaussian_sigma_px must be positive")
        radii = self.opening_radii_px
        if not isinstance(radii, (list, tuple)):
            raise ValueError(f"opening_radii_px must be a list of integers, got {radii!r}")
        radii = tuple(fields.as_number(f"opening_radii_px[{i}]", r, int)
                      for i, r in enumerate(radii))
        if not radii:
            raise ValueError("opening_radii_px must be non-empty")
        if any(r < 1 for r in radii):
            raise ValueError("opening radii must be >= 1")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("opening radii must be strictly increasing")
        object.__setattr__(self, "opening_radii_px", radii)


def gaussian_kernel(sigma):
    """1-D Gaussian kernel truncated at +/- ceil(3*sigma), normalized to sum 1."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    r = math.ceil(3.0 * sigma)
    x = np.arange(-r, r + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def gaussian_lowpass(band, sigma):
    """Separable Gaussian convolution with edge-replicated borders."""
    band = np.asarray(band, dtype=np.float64)
    k = gaussian_kernel(sigma)
    r = (len(k) - 1) // 2
    out = np.zeros_like(band)
    padded = np.pad(band, ((0, 0), (r, r)), mode="edge")
    for i, weight in enumerate(k):
        out += weight * padded[:, i:i + band.shape[1]]
    result = np.zeros_like(band)
    padded = np.pad(out, ((r, r), (0, 0)), mode="edge")
    for i, weight in enumerate(k):
        result += weight * padded[i:i + band.shape[0], :]
    return result


def _disk_extreme(band, radius, op):
    """Erosion (op=np.minimum) or dilation (op=np.maximum) by a discrete
    disk over the last two axes (a leading axis stacks bands), border
    handled by edge replication.

    The disk is a union of horizontal chords, one per row offset. A running
    sparse table holds the extreme of every horizontal window of `span`
    pixels, so a chord of span to 2*span - 1 pixels is op of two overlapping
    table columns. Chord widths are visited in increasing order: the table
    only ever doubles, only its current level is kept, and each chord is
    folded into the output at every row offset with its half-width.
    uint16 and uint32 (rank) input keeps its dtype, any other becomes
    float64; the output starts from op's identity in that dtype.
    """
    if np.asarray(band).dtype not in (np.uint16, np.uint32):
        band = np.asarray(band, dtype=np.float64)
    r = int(radius)
    h, w = band.shape[-2:]
    # half-width of the disk {dx^2 + dy^2 <= r^2} at row offset dy = i - r
    halves = np.array([math.isqrt(r * r - dy * dy) for dy in range(-r, r + 1)])
    table = np.pad(band, [(0, 0)] * (band.ndim - 2) + [(r, r), (r, r)], mode="edge")
    span = 1
    if band.dtype.kind == "f":
        fill = np.inf if op is np.minimum else -np.inf
    else:
        fill = np.iinfo(band.dtype).max if op is np.minimum else np.iinfo(band.dtype).min
    out = np.full(band.shape, fill, dtype=band.dtype)
    for half in np.unique(halves).tolist():
        while 2 * span <= 2 * half + 1:
            table = op(table[..., :-span], table[..., span:])
            span *= 2
        # output column x takes padded columns r + x - half .. r + x + half
        lo, hi = r - half, r + half - span + 1
        chord = op(table[..., lo:lo + w], table[..., hi:hi + w])
        for i in np.flatnonzero(halves == half).tolist():
            op(out, chord[..., i:i + h, :], out=out)
    return out


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


@functools.lru_cache(maxsize=256)
def disk_is_open(big, r):
    """True when the disk of radius `big` is open with respect to the disk
    of radius `r`: it is the union of the translates of D_r that fit in
    it, so the opening by D_big of the opening by D_r is the opening by
    D_big alone (Matheron 1975), and the opening by D_r can be skipped.

    Decided by opening the indicator of D_big, on a zero border wide
    enough for D_r, with this module's own erosion and dilation.
    """
    side = np.arange(-big - r, big + r + 1) ** 2
    disk = (side[:, None] + side[None, :] <= big * big).astype(np.float64)
    return bool(np.array_equal(dilate_disk(erode_disk(disk, r), r), disk))


def _chunk_background(bands, first, sigma, radii):
    """The backgrounds of consecutive bands, the first of index `first`:
    the dense rank images of their low-passes are opened as one stack, and
    each band maps its opened ranks back to its own values."""
    h, w = bands[0].shape
    ranks = np.empty((len(bands), h, w), dtype=np.uint16 if h * w <= 2 ** 16 else np.uint32)
    values = []
    for i, band in enumerate(bands):
        b = gaussian_lowpass(band, sigma)
        if not np.isfinite(b).all():
            raise ValueError(f"band {first + i}: low-pass background is not finite")
        levels, inverse = np.unique(b, return_inverse=True)
        values.append(levels)
        ranks[i] = inverse.reshape(h, w)
    for radius in radii:
        ranks = morphological_opening(ranks, radius)
    return [levels[r] for levels, r in zip(values, ranks)]


def estimate_background(stack, cfg=None):
    """Per-band background estimate: Gaussian low-pass, then openings with
    cfg.opening_radii_px applied in increasing order, each feeding the next.

    An opening that the next one absorbs (`disk_is_open`) is skipped, which
    changes no bit; with the default radii that is the one at r=4.

    The openings run on ranks: flat erosion and dilation commute with any
    order-preserving map of the grey levels (Serra 1982), so opening a
    low-pass's dense rank image (uint16 up to 2^16 pixels, else uint32) and
    mapping it back gives the float64 opening bit for bit. Min and max are
    exact, and equal values are equal bits: a low-pass sum starts from
    +0.0, so it never holds -0.0, and a band whose low-pass is not finite
    raises ValueError naming its index.

    The bands are split into min(bands, usable CPUs) contiguous chunks, one
    per thread, each opened as one (bands, h, w) rank stack; the threads
    are joined before this returns (one worker runs in this thread and
    starts none). numpy's loops release the interpreter lock, so the
    chunks overlap. The results join in band order, and no output depends
    on the worker count. Of several failing bands, the first in band order
    raises.
    """
    cfg = cfg or CorrectionConfig()
    if stack.role_tag != "raw":
        raise ValueError(f"background is estimated from a raw stack, got {stack.role_tag!r}")
    radii = cfg.opening_radii_px
    radii = [r for r, big in zip(radii, radii[1:]) if not disk_is_open(big, r)] + [radii[-1]]
    background = functools.partial(_chunk_background, sigma=cfg.gaussian_sigma_px, radii=radii)
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
