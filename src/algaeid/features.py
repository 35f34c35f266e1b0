"""Per-organism feature extraction and model input assembly.

Five shape descriptors (area, convex area, eccentricity, equivalent
diameter, extent) plus one mean fluorescence intensity per excitation
band. Three classifier variants select which columns of that row feed
the network.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fields, segmentation
from .stack_io import atomic_write_csv

MORPHOLOGICAL_FEATURE_NAMES = (
    "area", "convex_area", "eccentricity", "equivalent_diameter", "extent",
)


class ModelVariant(Enum):
    """Input selection for the classifier: shape features only, spectral
    means only, or both concatenated."""

    MORPHOLOGICAL = "morph"
    SPECTRAL = "spectral"
    SPECTRAL_MORPHOLOGICAL = "both11"

    @property
    def columns(self):
        """Columns of the full row (shape values, then one mean per band)."""
        shape = len(MORPHOLOGICAL_FEATURE_NAMES)
        return {"morph": slice(0, shape), "spectral": slice(shape, None),
                "both11": slice(None)}[self.value]


@dataclass(frozen=True)
class FeatureVector:
    organism_id: object
    label: int | None
    area: int
    convex_area: int
    eccentricity: float
    equivalent_diameter: float
    extent: float
    spectral: tuple

    def __post_init__(self):
        # messages start with the field name, which read_features_csv reports
        if self.area < 1:
            raise ValueError("area must be >= 1")
        if self.convex_area < self.area:
            raise ValueError("convex_area must be >= area")
        if not 0.0 <= self.eccentricity <= 1.0:
            raise ValueError("eccentricity must lie in [0, 1]")
        if not 0.0 < self.extent <= 1.0:
            raise ValueError("extent must lie in (0, 1]")
        object.__setattr__(self, "spectral", tuple(map(float, self.spectral)))


def pixel_batch(organisms, height, width, raster):
    """The `segmentation.pixel_table` of a non-empty list of organisms and
    its `segmentation.bboxes`. A pixel outside a `height` x `width` raster
    raises ValueError naming the first organism that has one, the pixel and
    the `raster`."""
    pixels, sizes = segmentation.pixel_table(organisms)
    boxes = segmentation.bboxes(pixels, sizes)
    x_max, y_max = boxes[:, 2:].max(axis=0).tolist()
    if boxes.min() < 0 or x_max >= width or y_max >= height:
        i = int(np.argmax(((pixels < 0) | (pixels >= (height, width))).any(axis=1)))
        org = organisms[int(np.searchsorted(np.cumsum(sizes), i, side="right"))]
        raise ValueError(f"organism {org.id}: pixel {tuple(pixels[i].tolist())} lies "
                         f"outside the {height}x{width} {raster}")
    return pixels, sizes, boxes


def _padded_runs(pixels, sizes):
    """The pixels of a batch as (rows, cols), with a spare column (a copy of
    a neighbouring pixel) in front of each organism's run, and the indices
    of the spare columns, where `_segment_means` puts its leading 0s."""
    padded = sizes + 1
    heads = padded.cumsum() - padded
    source = np.arange(len(pixels) + len(sizes)) - np.repeat(np.arange(1, len(sizes) + 1), padded)
    return pixels.T[:, source], heads


def _segment_means(padded, heads, sizes):
    """Mean of each run of `sizes` columns, per row of `padded`, whose run i
    follows its spare column heads[i]: shape (rows, len(sizes)). Bit for bit
    the `.mean()` of each run: numpy's reduce sums a run pairwise from the
    identity 0, while reduceat starts from the run's first value, so the
    spare columns are set to 0 first."""
    padded[:, heads] = 0.0
    return np.add.reduceat(padded, heads, axis=1) / sizes


def _pixel_means(runs, heads, sizes, bands):
    """Per organism of a batch: its mean row, its mean column and its mean
    intensity in each of `bands`, as rows of a (2 + bands, n) array, from
    its pixels laid out by `_padded_runs`, which must lie inside the bands.
    Band values are cast to float64 before they are summed."""
    values = np.empty((2 + len(bands), runs.shape[1]))
    values[:2] = runs
    flat = runs[0] * bands[0].shape[1] + runs[1]
    for row, band in zip(values[2:], bands):
        row[:] = band.take(flat)
    return _segment_means(values, heads, sizes)


# the extent below which a hull on coordinates relative to its organism's
# top-left corner keeps every product and sum of `_convex_areas` in int64
_HULL_EXTENT_LIMIT = 2 ** 30


def _convex_areas(pixels, sizes, boxes):
    """Convex area of each organism of a batch, given its pixels, each one's
    pixel count and its `segmentation.bboxes`: the number of pixel centers
    inside or on the convex hull of its pixel centers.

    Only the first and last pixel of each row can be hull vertices. A
    stable sort by (organism, row), skipped when the pixels already come
    row by row, as `segmentation.extract_organisms` hands them over, and a
    segmented minimum and maximum give them for every organism. The hull's
    left side runs down the rows' first pixels, its right side down their
    last ones, mirrored (x -> -x) so that both sides bulge the same way.
    Every interior point of a side that does not make a strict left turn
    is deleted, on all sides at once, until none is left: a vertex of that
    side of the hull always turns strictly left, and the side's end points
    are hull vertices, so each side becomes its monotone chain (Andrew,
    IPL 9(5), 1979). A side that lost no point in a pass is that chain
    already and sits out the passes left, so each side's own cascade, not
    the longest in the batch, bounds the passes over it. Pick's theorem
    gives the count as (2A + B)/2 + 1, with 2A twice the hull's area, the
    trapezoid sum down both sides, and B the lattice points on its
    boundary: gcd(|dx|, |dy|) per side edge plus the widths of the top and
    bottom rows.

    Coordinates are taken relative to each organism's top-left corner, so
    below 2**30 every product and sum fits int64. An organism whose row or
    column extent reaches 2**30 raises ValueError naming its place in the
    batch.
    """
    n = len(sizes)
    # a span past the int64 range wraps negative, which is huge as uint64
    span = (boxes[:, 2:] - boxes[:, :2]).view(np.uint64)
    if span.max() >= _HULL_EXTENT_LIMIT:
        k = int(np.argmax(span.max(axis=1) >= _HULL_EXTENT_LIMIT))
        raise ValueError(f"organism {k} of the batch: bounding box {boxes[k].tolist()} "
                         f"reaches the convex-area extent limit of 2**30 pixels")
    # organism k's row y becomes the line k * 2**31 + y - y_min
    offsets = np.arange(0, (n + 1) << 31, 1 << 31)
    line = (offsets[:-1] - boxes[:, 1]).repeat(sizes) + pixels[:, 0]
    cols = pixels[:, 1]
    if (line[1:] < line[:-1]).any():  # not row-major, as extracted organisms are
        order = line.argsort(kind="stable")
        line, cols = line[order], cols[order]
    head = np.empty(len(line), dtype=bool)
    head[0] = True
    np.not_equal(line[1:], line[:-1], out=head[1:])
    heads = head.nonzero()[0]
    key = line[heads]
    bounds = key.searchsorted(offsets)
    first, last = bounds[:-1], bounds[1:] - 1  # each organism's top and bottom line
    owner = key >> 31
    x_min = boxes[:, 0][owner]
    # rows (y, x, fixed, side): the left sides, then the mirrored right
    # sides, whose end points are fixed; organism k's sides are k and n + k
    m = len(heads)
    sides = np.zeros((4, 2 * m), dtype=np.int64)
    y, x, fixed, side = sides
    np.bitwise_and(key, 2 ** 31 - 1, out=y[:m])
    y[m:] = y[:m]
    np.subtract(np.minimum.reduceat(cols, heads), x_min, out=x[:m])
    np.subtract(x_min, np.maximum.reduceat(cols, heads), out=x[m:])
    fixed[first] = 1
    fixed[last] = 1
    fixed[m:] = fixed[:m]
    side[:m] = owner
    np.add(owner, n, out=side[m:])
    minus_width = x[:m] + x[m:]
    rims = -(minus_width[first] + minus_width[last])  # top and bottom row widths
    # a pass runs over the points (`live`, by index) of the sides that lost
    # a point in the last one
    alive = np.ones(2 * m, dtype=bool)
    live = np.arange(2 * m)
    keep = np.empty(2 * m, dtype=bool)
    points = sides
    while True:
        step = points[:2, 1:] - points[:2, :-1]  # (dy, dx) to the next point
        turn = step[:, :-1] * step[::-1, 1:]  # dy0 * dx1 and dx0 * dy1
        kept = keep[:points.shape[1]]
        np.greater(turn[0], turn[1], out=kept[1:-1])
        np.logical_or(kept, points[2], out=kept)  # end points stay
        if kept.all():
            break
        alive[live] = kept
        thinned = np.zeros(2 * n, dtype=bool)
        thinned[points[3].compress(~kept)] = True
        live = live.compress(kept & thinned.take(points[3]))
        points = sides.take(live, axis=1)
    # every side again, in order; per edge, gcd(|dx|, |dy|) less its
    # trapezoid term (x0 + x1) * dy, which sums to -2A; no edge joins one
    # side to the next
    y, x = sides[:2].compress(alive, axis=1)
    dy, dx = y[1:] - y[:-1], x[1:] - x[:-1]
    terms = np.zeros(len(y), dtype=np.int64)
    np.multiply(x[:-1] + x[1:], dy, out=terms[:-1])
    np.subtract(np.gcd(dx, dy), terms[:-1], out=terms[:-1])
    side_starts = (y == 0).nonzero()[0]  # each side starts on its organism's top row
    terms[side_starts[1:] - 1] = 0
    sums = np.add.reduceat(terms, side_starts)
    return ((sums[:n] + sums[n:] + rims) // 2 + 1).tolist()


def _eccentricities(runs, heads, sizes, coordinate_means):
    """Elongation in [0, 1] of each organism of a batch from its moment
    ellipse: sqrt(1 - b^2/a^2) with a >= b the semi-axes (eigenvalues of
    the coordinate covariance). A single pixel yields 0.

    The second central moments carry a +1/12 per-pixel variance term,
    which accounts for each pixel covering a unit square rather than a
    point (keeps thin shapes well-conditioned)."""
    products = np.empty((3, runs.shape[1]))  # rows dy * dy, dx * dx, dy * dx
    d = np.subtract(runs, np.repeat(coordinate_means, sizes + 1, axis=1), out=products[:2])
    np.multiply(d[0], d[1], out=products[2])
    d *= d
    moments = _segment_means(products, heads, sizes)
    moments[:2] += 1.0 / 12.0
    out = []
    for mu_yy, mu_xx, mu_xy in moments.T.tolist():
        half_trace = (mu_xx + mu_yy) / 2.0
        spread = math.hypot((mu_xx - mu_yy) / 2.0, mu_xy)
        l1 = half_trace + spread
        l2 = half_trace - spread
        out.append(0.0 if l1 <= 0 else math.sqrt(max(0.0, 1.0 - l2 / l1)))
    return out


def feature_vectors(organisms, corrected, labels=None):
    """The FeatureVector of each organism, in order, with the matching
    entry of `labels` (None for all without it). Equivalent diameter is
    that of the circle whose area is the pixel count; extent is the pixel
    count over the bounding-box area (box inclusive).

    The organisms are featurized as one batch over their `pixel_batch`:
    every pixel count, bounding box, mean and second moment comes from one
    segmented reduction over it, and every hull from one `_convex_areas`
    call. Each value is bit for bit what the organism gets on its own. A
    pixel outside the stack raises ValueError naming its organism.
    """
    organisms = list(organisms)
    labels = [None] * len(organisms) if labels is None else list(labels)
    if len(labels) != len(organisms):
        raise ValueError(f"{len(labels)} labels for {len(organisms)} organisms")
    if not organisms:
        return []
    pixels, sizes, boxes = pixel_batch(organisms, corrected.height, corrected.width, "stack")
    runs, heads = _padded_runs(pixels, sizes)
    means = _pixel_means(runs, heads, sizes, corrected.bands)
    return [FeatureVector(
        organism_id=org.id,
        label=label,
        area=area,
        convex_area=hull,
        eccentricity=ecc,
        equivalent_diameter=math.sqrt(4.0 * area / math.pi),
        extent=area / ((x_max - x_min + 1) * (y_max - y_min + 1)),
        spectral=spectral,
    ) for org, label, area, hull, ecc, spectral, (x_min, y_min, x_max, y_max) in zip(
        organisms, labels, sizes.tolist(), _convex_areas(pixels, sizes, boxes),
        _eccentricities(runs, heads, sizes, means[:2]), means[2:].T.tolist(), boxes.tolist())]


def compute_features(org, corrected, label=None):
    """The FeatureVector of one organism (`feature_vectors` of it alone)."""
    return feature_vectors([org], corrected, [label])[0]


def assemble(fvs, variant):
    """Network input matrix (n, d) of a variant for n feature vectors.

    The full row is [area, convex_area, eccentricity, equivalent_diameter,
    extent] followed by the band means in ascending wavelength order; the
    variant selects its columns of it.
    """
    rows = [(fv.area, fv.convex_area, fv.eccentricity, fv.equivalent_diameter,
             fv.extent, *fv.spectral) for fv in fvs]
    x = np.array(rows, dtype=np.float64)[:, variant.columns]
    if x.shape[1] == 0:
        raise ValueError(f"{variant.value} variant selects no feature columns")
    return x


def feature_names(variant, wavelengths_nm):
    """Column names of `assemble(fvs, variant)` for the given bands, whose
    wavelengths must be whole numbers of nm: a column names its band by one."""
    for w in wavelengths_nm:
        if not float(w).is_integer():
            raise ValueError(f"wavelength {w} nm is not a whole number of nm, "
                             "so no feature column can name it")
    names = list(MORPHOLOGICAL_FEATURE_NAMES) + [f"em{int(w)}" for w in wavelengths_nm]
    return names[variant.columns]


@dataclass(frozen=True)
class Normalizer:
    """Per-feature z-score statistics learned from a training split.

    Zero-variance features keep std 1 so they pass through unchanged;
    `constant` flags them.
    """

    mean: np.ndarray
    std: np.ndarray
    constant: np.ndarray

    def __post_init__(self):
        for name, kind in (("mean", float), ("std", float), ("constant", bool)):
            object.__setattr__(self, name, fields.as_array(f"normalizer {name}",
                                                           getattr(self, name), kind))


def fit_normalizer(train):
    """Population mean/std per dimension from training vectors only."""
    x = np.asarray(train, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("training set must be a non-empty 2-D array")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    constant = std == 0.0
    std = np.where(constant, 1.0, std)
    return Normalizer(mean=mean, std=std, constant=constant)


def apply_normalizer(nrm, x):
    """(x - mean) / std per dimension; accepts one vector or a matrix."""
    return (np.asarray(x, dtype=np.float64) - nrm.mean) / nrm.std


def write_features_csv(path, fvs, wavelengths_nm):
    """One row per organism; UTF-8, LF line endings, fixed header order, a
    field quoted only where it needs it. The csv writer writes None as ""
    and floats with `repr`, so they round-trip exactly."""
    rows = [["organism_id", "label"] + feature_names(
        ModelVariant.SPECTRAL_MORPHOLOGICAL, wavelengths_nm)]
    for fv in fvs:
        if len(fv.spectral) != len(wavelengths_nm):
            raise ValueError(f"organism {fv.organism_id}: {len(fv.spectral)} spectral "
                             f"values for {len(wavelengths_nm)} wavelengths")
        rows.append([fv.organism_id, fv.label, fv.area, fv.convex_area, fv.eccentricity,
                     fv.equivalent_diameter, fv.extent, *fv.spectral])
    atomic_write_csv(path, rows)


def read_features_csv(path):
    """Returns (feature vectors, wavelengths_nm parsed from the header)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: empty feature file")
    header = rows[0]
    fixed = ["organism_id", "label"] + list(MORPHOLOGICAL_FEATURE_NAMES)
    if header[:len(fixed)] != fixed:
        raise ValueError(f"{path}: unexpected feature CSV header {header[:len(fixed)]}")
    spectral_cols = header[len(fixed):]
    wavelengths = []
    for name in spectral_cols:
        if not name.startswith("em"):
            raise ValueError(f"{path}: unexpected spectral column {name!r}")
        try:
            wavelength = float(name[2:])
        except ValueError as e:
            raise ValueError(f"{path}: header column {name!r}: {e}") from None
        if not math.isfinite(wavelength):
            raise ValueError(f"{path}: header column {name!r}: non-finite wavelength")
        # feature_names truncates to whole nm, so compare as it names them
        if int(wavelength) in map(int, wavelengths):
            raise ValueError(
                f"{path}: header column {name!r}: wavelength {int(wavelength)} nm repeated")
        if not wavelength.is_integer():
            raise ValueError(f"{path}: header column {name!r}: non-integer wavelength")
        wavelengths.append(wavelength)

    def bad(row_no, column, problem):
        return ValueError(
            f"{path}: row {row_no} (line {row_no + 1}), column {column}: {problem}")

    fvs = []
    label_max = np.iinfo(np.int64).max
    for row_no, row in enumerate(rows[1:], start=1):
        if not row:
            continue
        if len(row) < len(header):
            raise bad(row_no, header[len(row)], "missing value")
        if len(row) > len(header):
            raise bad(row_no, len(header) + 1, f"value {row[len(header)]!r} beyond "
                      f"the {len(header)} header columns")
        organism_id, label_s = row[0], row[1]
        try:
            label = None if label_s == "" else int(label_s)
        except ValueError:
            raise bad(row_no, "label", f"non-integer label {label_s!r}") from None
        if label is not None and label < 0:
            raise bad(row_no, "label", f"negative label {label_s!r}")
        if label is not None and label > label_max:
            raise bad(row_no, "label", f"label {label_s!r} too large for int64")
        try:
            vals = list(map(float, row[2:]))
        except ValueError:
            vals = None
        if vals is None or not all(map(math.isfinite, vals)):
            for name, text in zip(header[2:], row[2:]):  # name the first bad column
                try:
                    v = float(text)
                except ValueError:
                    raise bad(row_no, name, f"non-numeric value {text!r}") from None
                if not math.isfinite(v):
                    raise bad(row_no, name, f"non-finite value {text!r}")
        for name, v, text in zip(("area", "convex_area"), vals, row[2:]):
            if not v.is_integer():
                raise bad(row_no, name, f"non-integer pixel count {text!r}")
        try:
            fvs.append(FeatureVector(
                organism_id=organism_id,
                label=label,
                area=int(vals[0]),
                convex_area=int(vals[1]),
                eccentricity=vals[2],
                equivalent_diameter=vals[3],
                extent=vals[4],
                spectral=tuple(vals[5:]),
            ))
        except ValueError as e:
            raise bad(row_no, str(e).split()[0], str(e)) from None
    return fvs, wavelengths
