"""Illumination correction: estimate the smooth background per band and
subtract it, so intensities become comparable across the field of view.

The background model is a Gaussian low-pass followed by a sequence of
grayscale openings with disk structuring elements of growing radius; each
opening suppresses image structure up to its disk size while leaving the
slowly varying illumination pattern intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fields


@dataclass(frozen=True)
class CorrectionConfig:
    gaussian_sigma_px: float = 5.0
    opening_radii_px: tuple = (4, 8, 16, 32)

    def __post_init__(self):
        sigma = fields.as_number("gaussian_sigma_px", self.gaussian_sigma_px)
        object.__setattr__(self, "gaussian_sigma_px", sigma)
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


def _sliding_extreme(a, width, op):
    """op-reduction (np.minimum or np.maximum) over every contiguous
    length-`width` window along the last axis of `a`.

    van Herk/Gil-Werman: split into blocks of `width`, take running
    extremes forward and backward within blocks, then combine the suffix of
    one block with the prefix of the next. O(1) per output element.
    Returns an array whose last axis has length a.shape[-1] - width + 1.
    """
    n = a.shape[-1]
    if width == 1:
        return a.copy()
    fill = np.inf if op is np.minimum else -np.inf
    pad = (-n) % width
    if pad:
        a = np.concatenate([a, np.full(a.shape[:-1] + (pad,), fill)], axis=-1)
    blocks = a.reshape(a.shape[:-1] + (-1, width))
    prefix = op.accumulate(blocks, axis=-1).reshape(a.shape)
    suffix = op.accumulate(blocks[..., ::-1], axis=-1)[..., ::-1].reshape(a.shape)
    return op(suffix[..., :n - width + 1], prefix[..., width - 1:n])


def _disk_row_halfwidths(radius):
    """Half-width of the disk {dx^2+dy^2 <= r^2} at each row offset -r..r."""
    r = int(radius)
    return [math.isqrt(r * r - dy * dy) for dy in range(-r, r + 1)]


def _disk_extreme(band, radius, op):
    """Erosion (op=np.minimum) or dilation (op=np.maximum) by a discrete
    disk, border handled by edge replication.

    The disk is a union of horizontal segments, one per row offset, so the
    2-D extreme decomposes into per-row sliding extremes followed by a
    reduction across row offsets.
    """
    r = int(radius)
    h, w = band.shape
    padded = np.pad(band, r, mode="edge")
    out = np.full((h, w), np.inf if op is np.minimum else -np.inf)
    for dy, half in zip(range(-r, r + 1), _disk_row_halfwidths(r)):
        slab = padded[r + dy:r + dy + h, :]
        windows = _sliding_extreme(slab, 2 * half + 1, op)
        # output column x corresponds to the window starting at r + x - half
        out = op(out, windows[:, r - half:r - half + w])
    return out


def erode_disk(band, radius):
    return _disk_extreme(np.asarray(band, dtype=np.float64), radius, np.minimum)


def dilate_disk(band, radius):
    return _disk_extreme(np.asarray(band, dtype=np.float64), radius, np.maximum)


def morphological_opening(band, radius):
    """Grayscale opening (erosion then dilation) with a disk structuring
    element {(dx,dy): dx^2+dy^2 <= r^2}; border by edge replication.

    Anti-extensive (output <= input) and idempotent.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    return dilate_disk(erode_disk(band, radius), radius)


def estimate_background(stack, cfg=None):
    """Per-band background estimate: Gaussian low-pass, then openings with
    cfg.opening_radii_px applied in increasing order, each feeding the next.
    """
    cfg = cfg or CorrectionConfig()
    if stack.role_tag != "raw":
        raise ValueError(f"background is estimated from a raw stack, got {stack.role_tag!r}")
    bands = []
    for band in stack.bands:
        b = gaussian_lowpass(band, cfg.gaussian_sigma_px)
        for radius in cfg.opening_radii_px:
            b = morphological_opening(b, radius)
        bands.append(b)
    return stack.with_bands(bands, role_tag="background")


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
        diff = rb - bb
        if clamp:
            diff = np.maximum(diff, 0.0)
        bands.append(diff)
    return raw.with_bands(bands, role_tag="corrected")
