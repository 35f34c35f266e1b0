"""Foreground/background segmentation and organism isolation.

Each band is thresholded by minimizing within-class intensity variance
over its histogram; per-band masks are fused by union so an organism dark
in some bands is not split; fused foreground pixels are grouped into
8-connected components, one isolated micro-organism each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .stack_io import PGM_MAXVAL, RASTER_DTYPES, atomic_write_bytes, write_pgm16


class DegenerateBandError(ValueError):
    """Raised for a constant band: no separable foreground exists."""


@dataclass(frozen=True)
class LabelMap:
    """Component ids per pixel: 0 is background, 1..count are components.
    `count` is the largest id in `labels` (0 for an empty map)."""

    labels: np.ndarray
    count: int = field(init=False)

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int32)
        lab.flags.writeable = False
        object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "count", int(lab.max(initial=0)))


@dataclass(frozen=True)
class Organism:
    """One isolated micro-organism.

    `pixels` is an (N, 2) array of (row, col) coordinates; `bboxes` takes
    the boxes of a batch of organisms at once.
    """

    id: int
    pixels: np.ndarray
    touches_border: bool = False

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.int64)
        if px.ndim != 2 or px.shape[1] != 2 or px.shape[0] == 0:
            raise ValueError("pixel set must be a non-empty (N, 2) array")
        if px.flags.writeable:  # reading the flag is cheaper than setting it
            px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @property
    def area(self):
        return int(self.pixels.shape[0])


def pixel_table(organisms):
    """The (row, col) pixels of a non-empty list of organisms concatenated
    in their given order, and each one's pixel count as an int64 array:
    the batch that `bboxes` and the feature and truth steps read."""
    return (np.concatenate([org.pixels for org in organisms]),
            np.array([len(org.pixels) for org in organisms], dtype=np.int64))


def bboxes(pixels, sizes):
    """The bounding box of each organism of a batch, given its
    `pixel_table`, as the inclusive rows (x_min, y_min, x_max, y_max) of an
    (n, 4) int64 array, from one segmented minimum and maximum."""
    starts = sizes.cumsum() - sizes
    # (row, col) minima and maxima, each turned to (x, y)
    return np.concatenate((np.minimum.reduceat(pixels, starts)[:, ::-1],
                           np.maximum.reduceat(pixels, starts)[:, ::-1]), axis=1)


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


# histogram bins of the Otsu threshold that `segment` takes per band
NUM_BINS = 256
# smallest component, in pixels, that `segment` keeps as an organism
MIN_AREA_PX = 8


def otsu_threshold(band, num_bins=NUM_BINS):
    """Threshold minimizing within-class variance over a `num_bins`-bin
    histogram spanning the band's own [min, max]; returns the center of the
    last background bin. A constant band has no separable foreground and
    raises DegenerateBandError; a band holding NaN or an infinity raises
    ValueError.

    A uint8 or uint16 band, as every band read from a PGM is, is
    histogrammed by value: a sorted copy of the band in its own dtype gives
    each distinct value, at the first place it differs from its left
    neighbour, and how often it occurs, the distance to the next such
    place. Each distinct value is binned once, weighted by that count,
    which gives the same counts as binning every pixel, and no pixel is
    widened (a `np.bincount` tally would copy the band as int64 first).
    A band of any other dtype is binned pixel by pixel as float64.
    """
    band = np.asarray(band)
    if num_bins < 2:
        raise ValueError("num_bins must be >= 2")
    if band.dtype in RASTER_DTYPES:
        ordered = np.sort(band, axis=None)
        head = np.empty(ordered.size, dtype=bool)
        head[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        values = ordered[starts].astype(np.float64)
        weights = np.diff(starts, append=ordered.size)
    else:
        values, weights = band.astype(np.float64, copy=False), None
    lo, hi = float(values.min()), float(values.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):  # a NaN makes both NaN
        raise ValueError(f"band is not finite: its values span [{lo}, {hi}]")
    if lo == hi:
        raise DegenerateBandError(
            f"degenerate: no separable foreground (band is constant at {lo})"
        )
    counts, _ = np.histogram(values, bins=num_bins, range=(lo, hi), weights=weights)
    k = otsu_index(counts)
    return lo + (k + 0.5) * (hi - lo) / num_bins


def binarize(band, threshold):
    """Bool foreground mask: intensity strictly exceeds the threshold.

    A uint8 or uint16 band is compared in integers against a finite
    threshold's floor, which an integer exceeds exactly when it exceeds the
    threshold, clamped to [-1, the dtype's maximum], where every pixel keeps
    its answer; no pixel is converted to float64.
    """
    band = np.asarray(band)
    if band.dtype in RASTER_DTYPES and math.isfinite(threshold):
        threshold = min(max(math.floor(threshold), -1), np.iinfo(band.dtype).max)
    return band > threshold


def fuse_masks(masks):
    """Union of bool masks: a pixel is foreground if foreground in any of them."""
    if not masks:
        raise ValueError("mask list must be non-empty")
    shape = masks[0].shape
    for i, m in enumerate(masks):
        if m.shape != shape:
            raise ValueError(f"mask {i} has shape {m.shape}, expected {shape}")
    fused = np.zeros(shape, dtype=bool)
    for m in masks:
        fused |= m
    return fused


def connected_components(mask):
    """8-connectivity component labeling of a bool mask by horizontal runs.

    Each row, zero-padded at both ends, splits into runs of foreground
    pixels. A run is keyed by row * (w + 2) + col, in padded columns, of its
    first pixel and of the pixel just past its end, so the keys of all runs
    ascend in raster order. A run touches the runs of the row above whose
    end key is at least its start key less one padded row and whose start
    key is at most its end key less one padded row; two searchsorted calls
    give that range, and each touching pair is one link.

    The links are resolved by hook-and-compress over whole arrays
    (Shiloach & Vishkin 1982): every link whose two runs still have
    different roots hooks the larger root to the smallest root linked to
    it, then pointer jumping points every run straight at its root, until
    no link joins two roots. Parents never exceed their index, so each
    component's root is its first run. Ids are the ranks of the roots:
    contiguous 1..n in raster-scan order of each component's first pixel.
    """
    fg = np.asarray(mask, dtype=bool)
    h, w = fg.shape
    row = w + 2
    padded = np.zeros((h, row), dtype=bool)
    padded[:, 1:-1] = fg
    flat = padded.ravel()
    # a bool array: numpy finds its nonzero entries fastest
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    first = np.searchsorted(ends, starts - row)
    touching = np.searchsorted(starts, ends - row, side="right") - first
    # run i is linked to the touching runs first[i] .. first[i] + touching[i] - 1
    below = np.repeat(np.arange(len(starts)), touching)
    above = np.arange(len(below)) + np.repeat(first - np.cumsum(touching) + touching, touching)
    parent = np.arange(len(starts))
    while True:
        root_above, root_below = parent[above], parent[below]
        apart = root_above != root_below
        if not apart.any():
            break
        above, below = above[apart], below[apart]
        root_above, root_below = root_above[apart], root_below[apart]
        np.minimum.at(parent, np.maximum(root_above, root_below),
                      np.minimum(root_above, root_below))
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            parent = jumped
    ids = np.cumsum(parent == np.arange(len(parent)), dtype=np.int32)[parent]
    out = np.zeros((h, w), dtype=np.int32)
    out[fg] = np.repeat(ids, ends - starts)
    return LabelMap(out)


def extract_organisms(labels, corrected, min_area_px=MIN_AREA_PX):
    """One Organism per component with at least `min_area_px` pixels,
    ordered by component id. Components with a pixel in the first or last
    row or column of the map are kept and flagged as touching the border.

    Every organism's `pixels` is a read-only row slice of one (N, 2) table
    of all foreground pixels, grouped by id.
    """
    lab = labels.labels
    h, w = lab.shape
    if (h, w) != (corrected.height, corrected.width):
        raise ValueError(
            f"label map {h}x{w} does not match stack "
            f"{corrected.height}x{corrected.width}"
        )
    border = set(np.r_[lab[0], lab[-1], lab[:, 0], lab[:, -1]].tolist())
    # group the foreground pixel indices by id in one pass: a stable sort
    # keeps each component's pixels in row-major order, as
    # np.argwhere(lab == id) would. It sorts the ids in the narrowest
    # unsigned type that holds them, uint16 for every map a PGM holds,
    # which numpy radix-sorts; the permutation is the same.
    flat = lab.ravel()
    fg = np.flatnonzero(flat != 0)  # a bool mask: numpy's fastest nonzero
    ids = flat[fg]
    keys = ids.astype(np.min_scalar_type(labels.count))
    table = np.stack(np.divmod(fg[np.argsort(keys, kind="stable")], w), axis=1)
    table.flags.writeable = False
    sizes = np.bincount(ids, minlength=labels.count + 1)
    ends = np.cumsum(sizes).tolist()
    return [Organism(id=comp_id, pixels=table[ends[comp_id - 1]:ends[comp_id]],
                     touches_border=comp_id in border)
            for comp_id in (np.flatnonzero(sizes[1:] >= min_area_px) + 1).tolist()]


@dataclass(frozen=True)
class Segmentation:
    """The segmentation of one stack: the Otsu threshold per band, in band
    order, the label map, and the organisms kept, in id order."""

    thresholds: tuple
    labels: LabelMap
    organisms: tuple


def segment(corrected):
    """The whole Segmentation of a corrected stack: an Otsu threshold per
    band, the union of the band masks, 8-connected labelling, and the
    organisms of at least MIN_AREA_PX pixels. A band Otsu cannot threshold
    raises its error, of the same class, naming the band's index.
    """
    thresholds = []
    for i, band in enumerate(corrected.bands):
        try:
            thresholds.append(otsu_threshold(band))
        except ValueError as e:  # DegenerateBandError stays one
            raise type(e)(f"band {i}: {e}") from None
    masks = [binarize(band, t) for band, t in zip(corrected.bands, thresholds)]
    labels = connected_components(fuse_masks(masks))
    organisms = extract_organisms(labels, corrected)
    return Segmentation(tuple(thresholds), labels, tuple(organisms))


def labelmap_to_pgm(labels, path):
    """Write component ids as a 16-bit PGM: the labels.pgm that `segment`
    hands to `features`, which reads it back, or the stored truth.pgm.

    Ids above 65535 do not fit the format, and clipping them would merge
    components, so a map with more components raises ValueError.
    """
    if labels.count > PGM_MAXVAL:
        raise ValueError(
            f"{path}: {labels.count} components exceed the 16-bit PGM "
            f"id limit of {PGM_MAXVAL}"
        )
    write_pgm16(path, labels.labels)


def segmentation_json(seg):
    """JSON-ready organisms.json document of a Segmentation: the component
    count, the thresholds, and per organism its id, bbox, area and border
    flag."""
    organisms = seg.organisms
    boxes = bboxes(*pixel_table(organisms)).tolist() if organisms else []
    return {
        "component_count": seg.labels.count,
        "thresholds": list(seg.thresholds),
        "organisms": [{"id": org.id, "bbox": box, "area": org.area,
                       "touches_border": org.touches_border}
                      for org, box in zip(organisms, boxes)],
    }


# one organism record of organisms.json, as json.dumps(indent=2,
# sort_keys=True) lays it out inside the "organisms" array
_ORGANISM_JSON = """\
    {
      "area": %d,
      "bbox": [
        %d,
        %d,
        %d,
        %d
      ],
      "id": %d,
      "touches_border": %s
    }"""


def _json_array(items):
    """A top-level key's JSON array of already indented items."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def write_organisms_json(path, seg):
    """Write the `segmentation_json` document of `seg` to `path`, atomically,
    as the bytes `json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)`
    and a newline would give, from a fixed layout instead of json's
    pure-Python indenting encoder: one %-format per organism, and each
    threshold by `float.__repr__`, as json renders a float. A threshold
    that is NaN or infinite raises ValueError, as json does."""
    doc = segmentation_json(seg)
    thresholds = doc["thresholds"]
    for t in thresholds:
        if not math.isfinite(t):
            raise ValueError(f"{path}: threshold {t!r} is not a JSON number")
    organisms = [_ORGANISM_JSON % (rec["area"], *rec["bbox"], rec["id"],
                                   "true" if rec["touches_border"] else "false")
                 for rec in doc["organisms"]]
    text = '{\n  "component_count": %d,\n  "organisms": %s,\n  "thresholds": %s\n}\n' % (
        doc["component_count"], _json_array(organisms),
        _json_array(["    " + float.__repr__(t) for t in thresholds]))
    atomic_write_bytes(path, text.encode("ascii"))
