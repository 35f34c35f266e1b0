"""Foreground/background segmentation and organism isolation.

Each band is thresholded by minimizing within-class intensity variance
over its histogram; per-band masks are fused by union so an organism dark
in some bands is not split; fused foreground pixels are grouped into
8-connected components, one isolated micro-organism each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stack_io import PGM_MAXVAL, write_pgm16


class DegenerateBandError(ValueError):
    """Raised for a constant band: no separable foreground exists."""


@dataclass(frozen=True)
class BinaryMask:
    """Per-pixel foreground/background labels for one band (or fused).

    `threshold_used` is the Otsu threshold of the source band; fused masks
    carry None.
    """

    foreground: np.ndarray
    threshold_used: float | None = None

    def __post_init__(self):
        fg = np.asarray(self.foreground, dtype=bool)
        fg.flags.writeable = False
        object.__setattr__(self, "foreground", fg)


@dataclass(frozen=True)
class LabelMap:
    """Component ids per pixel: 0 is background, 1..count are components."""

    labels: np.ndarray
    count: int

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int32)
        lab.flags.writeable = False
        object.__setattr__(self, "labels", lab)

    @property
    def height(self):
        return self.labels.shape[0]

    @property
    def width(self):
        return self.labels.shape[1]


@dataclass(frozen=True)
class Organism:
    """One isolated micro-organism: its pixels and bounding box.

    `pixels` is an (N, 2) array of (row, col) coordinates.
    """

    id: int
    pixels: np.ndarray
    x_min: int
    y_min: int
    x_max: int
    y_max: int
    touches_border: bool = False

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.int64)
        if px.ndim != 2 or px.shape[1] != 2 or px.shape[0] == 0:
            raise ValueError("pixel set must be a non-empty (N, 2) array")
        ys, xs = px[:, 0], px[:, 1]
        if ys.min() < self.y_min or ys.max() > self.y_max \
                or xs.min() < self.x_min or xs.max() > self.x_max:
            raise ValueError("pixels fall outside the bounding box")
        if px.shape[0] > self.bbox_area:
            raise ValueError("pixel count exceeds bounding-box area")
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @property
    def area(self):
        return int(self.pixels.shape[0])

    @property
    def bbox_width(self):
        return self.x_max - self.x_min + 1

    @property
    def bbox_height(self):
        return self.y_max - self.y_min + 1

    @property
    def bbox_area(self):
        return self.bbox_width * self.bbox_height


def otsu_index(counts):
    """Split index k minimizing within-class variance of a histogram:
    bins 0..k are background, bins k+1.. are foreground. Candidate splits
    are 0..len(counts)-2; ties resolve to the smallest index.
    """
    c = np.asarray(counts, dtype=np.float64)
    if c.ndim != 1 or len(c) < 2:
        raise ValueError("histogram must be 1-D with at least 2 bins")
    idx = np.arange(len(c), dtype=np.float64)
    w0 = np.cumsum(c)
    m0 = np.cumsum(c * idx)
    s0 = np.cumsum(c * idx * idx)
    total_w, total_m, total_s = w0[-1], m0[-1], s0[-1]
    if total_w <= 0:
        raise ValueError("histogram is empty")
    w1 = total_w - w0
    m1 = total_m - m0
    s1 = total_s - s0
    with np.errstate(divide="ignore", invalid="ignore"):
        within0 = np.where(w0 > 0, s0 - m0 * m0 / w0, 0.0)
        within1 = np.where(w1 > 0, s1 - m1 * m1 / w1, 0.0)
    objective = (within0 + within1)[:-1]
    return int(np.argmin(objective))


def otsu_threshold(band, num_bins=256):
    """Threshold minimizing within-class variance over a `num_bins`-bin
    histogram spanning the band's own [min, max]; returns the center of the
    last background bin. A constant band has no separable foreground and
    raises DegenerateBandError.
    """
    band = np.asarray(band, dtype=np.float64)
    if num_bins < 2:
        raise ValueError("num_bins must be >= 2")
    lo = float(band.min())
    hi = float(band.max())
    if lo == hi:
        raise DegenerateBandError(
            f"degenerate: no separable foreground (band is constant at {lo})"
        )
    counts, _ = np.histogram(band, bins=num_bins, range=(lo, hi))
    k = otsu_index(counts)
    return lo + (k + 0.5) * (hi - lo) / num_bins


def binarize(band, threshold):
    """Foreground iff intensity strictly exceeds the threshold."""
    band = np.asarray(band, dtype=np.float64)
    return BinaryMask(foreground=band > threshold, threshold_used=float(threshold))


def fuse_masks(masks):
    """Union of masks: a pixel is foreground if foreground in any input mask."""
    if not masks:
        raise ValueError("mask list must be non-empty")
    shape = masks[0].foreground.shape
    for i, m in enumerate(masks):
        if m.foreground.shape != shape:
            raise ValueError(
                f"mask {i} has shape {m.foreground.shape}, expected {shape}"
            )
    fused = np.zeros(shape, dtype=bool)
    for m in masks:
        fused |= m.foreground
    return BinaryMask(foreground=fused, threshold_used=None)


def connected_components(mask):
    """8-connectivity component labeling of a binary mask.

    Two-pass union-find; final ids are contiguous 1..n assigned in
    raster-scan order of each component's first-encountered pixel.
    """
    fg = mask.foreground
    h, w = fg.shape
    flat = fg.ravel().tolist()
    labels = [0] * (h * w)
    parent = [0]  # parent[i] for provisional label i; index 0 unused

    def find(i):
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    next_label = 1
    for y in range(h):
        base = y * w
        up = base - w
        for x in range(w):
            if not flat[base + x]:
                continue
            best = 0
            others = None
            if x > 0:
                best = labels[base + x - 1]
            if y > 0:
                for pos in (up + x - 1 if x > 0 else -1,
                            up + x,
                            up + x + 1 if x + 1 < w else -1):
                    if pos < 0:
                        continue
                    lab = labels[pos]
                    if lab and lab != best:
                        if best:
                            if others is None:
                                others = [lab]
                            else:
                                others.append(lab)
                        else:
                            best = lab
            if best == 0:
                labels[base + x] = next_label
                parent.append(next_label)
                next_label += 1
            else:
                labels[base + x] = best
                if others:
                    for other in others:
                        ra, rb = find(best), find(other)
                        if ra != rb:
                            if ra < rb:
                                parent[rb] = ra
                            else:
                                parent[ra] = rb

    # second pass: resolve equivalences, then renumber components in
    # raster-scan order of first occurrence
    remap = {}
    count = 0
    for i, p in enumerate(labels):
        if p == 0:
            continue
        root = find(p)
        new = remap.get(root)
        if new is None:
            count += 1
            new = count
            remap[root] = new
        labels[i] = new
    out = np.array(labels, dtype=np.int32).reshape(h, w)
    return LabelMap(labels=out, count=count)


def extract_organisms(labels, corrected, min_area_px=8):
    """One Organism per component with at least `min_area_px` pixels,
    ordered by component id. Components touching the image border are kept
    and flagged.
    """
    lab = labels.labels
    if (labels.height, labels.width) != (corrected.height, corrected.width):
        raise ValueError(
            f"label map {labels.height}x{labels.width} does not match stack "
            f"{corrected.height}x{corrected.width}"
        )
    h, w = lab.shape
    # group pixel indices by id in one pass: a stable sort keeps each
    # component's pixels in row-major order, as np.argwhere(lab == id) would
    flat = lab.ravel()
    order = np.argsort(flat, kind="stable")
    ends = np.cumsum(np.bincount(flat, minlength=labels.count + 1))
    organisms = []
    for comp_id in range(1, labels.count + 1):
        start, stop = ends[comp_id - 1], ends[comp_id]
        if stop - start < min_area_px:
            continue
        pixels = np.stack(np.divmod(order[start:stop], w), axis=1)
        y_min, x_min = pixels.min(axis=0)
        y_max, x_max = pixels.max(axis=0)
        organisms.append(Organism(
            id=comp_id,
            pixels=pixels,
            x_min=int(x_min), y_min=int(y_min),
            x_max=int(x_max), y_max=int(y_max),
            touches_border=bool(
                y_min == 0 or x_min == 0 or y_max == h - 1 or x_max == w - 1
            ),
        ))
    return organisms


def segment(corrected, num_bins=256, min_area_px=8):
    """The whole segmentation of a corrected stack: an Otsu threshold per
    band, the union of the band masks, 8-connected labelling, and the
    organisms of at least `min_area_px` pixels.

    Returns (labels, organisms, thresholds), thresholds in band order.
    """
    thresholds = [otsu_threshold(band, num_bins=num_bins) for band in corrected.bands]
    masks = [binarize(band, t) for band, t in zip(corrected.bands, thresholds)]
    labels = connected_components(fuse_masks(masks))
    organisms = extract_organisms(labels, corrected, min_area_px=min_area_px)
    return labels, organisms, thresholds


def labelmap_to_pgm(labels, path):
    """Export component ids as a 16-bit PGM for visual debugging.

    Ids above 65535 do not fit the format, and clipping them would merge
    components, so a map with more components raises ValueError.
    """
    if labels.count > PGM_MAXVAL:
        raise ValueError(
            f"{path}: {labels.count} components exceed the 16-bit PGM "
            f"id limit of {PGM_MAXVAL}"
        )
    write_pgm16(path, labels.labels.astype(np.float64))


def organisms_to_json(organisms):
    """JSON-ready summary per organism: id, bbox, area, border flag."""
    return [
        {
            "id": org.id,
            "bbox": [org.x_min, org.y_min, org.x_max, org.y_max],
            "area": org.area,
            "touches_border": org.touches_border,
        }
        for org in organisms
    ]
