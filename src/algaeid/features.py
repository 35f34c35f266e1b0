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
        object.__setattr__(self, "spectral", tuple(float(s) for s in self.spectral))


def pixel_batch(organisms, height, width, raster):
    """The (row, col) pixels of a non-empty list of organisms concatenated
    in their given order, and each one's pixel count. A pixel outside a
    `height` x `width` raster raises ValueError naming the first organism
    that has one, the pixel and the `raster`."""
    sizes = np.array([org.area for org in organisms], dtype=np.int64)
    pixels = np.concatenate([org.pixels for org in organisms])
    ys, xs = pixels.T  # per column: numpy reduces an (N, 2) array over axis 0 slowly
    if pixels.min() < 0 or ys.max() >= height or xs.max() >= width:
        i = int(np.argmax(((pixels < 0) | (pixels >= (height, width))).any(axis=1)))
        org = organisms[int(np.searchsorted(np.cumsum(sizes), i, side="right"))]
        raise ValueError(f"organism {org.id}: pixel {tuple(pixels[i].tolist())} lies "
                         f"outside the {height}x{width} {raster}")
    return pixels, sizes


def _padded_runs(pixels, sizes):
    """The pixels of a batch as (rows, cols), with a spare column (a copy of
    a neighbouring pixel) in front of each organism's run, and the indices
    of the spare columns, where `_segment_means` puts its leading 0s."""
    heads = np.cumsum(sizes + 1) - (sizes + 1)
    source = np.arange(len(pixels) + len(sizes)) - np.repeat(np.arange(1, len(sizes) + 1),
                                                              sizes + 1)
    return pixels[source].T, heads


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
        row[:] = band.ravel()[flat]
    return _segment_means(values, heads, sizes)


def _convex_areas(pixels, sizes):
    """Convex area of each organism of a batch: the number of pixel centers
    inside or on the convex hull of its pixel centers.

    Only the first and last pixel of each row can be hull vertices: every
    other pixel lies between them. One stable sort by (organism, row, col)
    finds those pixels of every organism.
    """
    y0, y1 = pixels[:, 0].min(), pixels[:, 0].max()
    height = y1 - y0 + 1
    # organism k's rows are lines k * height .. (k + 1) * height - 1
    line = np.repeat(np.arange(len(sizes)) * height - y0, sizes) + pixels[:, 0]
    order = np.lexsort((pixels[:, 1], line))
    line = line[order]
    new_line = line[1:] != line[:-1]
    first = np.concatenate(([True], new_line))
    # (row, col) as Python ints, by organism and then row
    lefts = pixels[order[first]].tolist()
    rights = pixels[order[np.concatenate((new_line, [True]))]].tolist()
    stops = np.searchsorted(line[first], np.arange(1, len(sizes) + 1) * height).tolist()
    return [_lattice_hull_count(lefts[start:stop], rights[start:stop])
            for start, stop in zip([0] + stops, stops)]


def _lattice_hull_count(lefts, rights):
    """Lattice points inside or on the convex hull of a pixel set, given the
    first (`lefts`) and last (`rights`) pixel of each of its rows, (row, col)
    pairs in ascending row order.

    Two monotone chains build the hull: the left one over the rows' first
    pixels and then the last row's last pixel, the right one back over the
    rows' last pixels and then the first row's first pixel. A pixel that is
    both first and last of its row is listed in both; a chain drops the
    repeat as a turn of zero. The hull's vertices are lattice points, so
    with 2A the absolute shoelace sum and B the sum of gcd(|dx|, |dy|) over
    its edges, A = I + B/2 - 1 gives the count I + B = (2A - B)/2 + 1 + B.
    A one-point hull (no area, no boundary steps) gives 1 and a segment of
    g steps g + 1.
    """
    hull = []
    for sweep in (lefts + rights[-1:], rights[::-1] + lefts[:1]):
        chain = []
        for y, x in sweep:
            while len(chain) >= 2:
                (y0, x0), (y1, x1) = chain[-2], chain[-1]
                if (y1 - y0) * (x - x0) - (x1 - x0) * (y - y0) > 0:
                    break
                chain.pop()
            chain.append((y, x))
        hull += chain[:-1]
    twice_area = boundary = 0
    for (y0, x0), (y1, x1) in zip(hull, hull[1:] + hull[:1]):
        twice_area += x0 * y1 - x1 * y0
        boundary += math.gcd(abs(x1 - x0), abs(y1 - y0))
    return (abs(twice_area) - boundary) // 2 + 1 + boundary


def _eccentricities(runs, heads, sizes, coordinate_means):
    """Elongation in [0, 1] of each organism of a batch from its moment
    ellipse: sqrt(1 - b^2/a^2) with a >= b the semi-axes (eigenvalues of
    the coordinate covariance). A single pixel yields 0.

    The second central moments carry a +1/12 per-pixel variance term,
    which accounts for each pixel covering a unit square rather than a
    point (keeps thin shapes well-conditioned)."""
    d = runs - np.repeat(coordinate_means, sizes + 1, axis=1)  # rows dy, dx
    moments = _segment_means(np.concatenate((d * d, d[:1] * d[1:])), heads, sizes)
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

    The organisms are featurized as one batch: their pixels are
    concatenated, every mean and second moment comes from one segmented
    sum, and one sort finds every organism's row extremes for its hull.
    Each value is bit for bit what the organism gets on its own. A pixel
    outside the stack raises ValueError naming its organism.
    """
    organisms = list(organisms)
    labels = [None] * len(organisms) if labels is None else list(labels)
    if len(labels) != len(organisms):
        raise ValueError(f"{len(labels)} labels for {len(organisms)} organisms")
    if not organisms:
        return []
    pixels, sizes = pixel_batch(organisms, corrected.height, corrected.width, "stack")
    runs, heads = _padded_runs(pixels, sizes)
    means = _pixel_means(runs, heads, sizes, corrected.bands)
    return [FeatureVector(
        organism_id=org.id,
        label=label,
        area=org.area,
        convex_area=hull,
        eccentricity=ecc,
        equivalent_diameter=math.sqrt(4.0 * org.area / math.pi),
        extent=org.area / ((x_max - x_min + 1) * (y_max - y_min + 1)),
        spectral=spectral,
    ) for org, label, hull, ecc, spectral, (x_min, y_min, x_max, y_max) in zip(
        organisms, labels, _convex_areas(pixels, sizes),
        _eccentricities(runs, heads, sizes, means[:2]), means[2:].T.tolist(),
        segmentation.bboxes(organisms))]


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
        if label is not None and label > np.iinfo(np.int64).max:
            raise bad(row_no, "label", f"label {label_s!r} too large for int64")
        vals = []
        for name, text in zip(header[2:], row[2:]):
            try:
                v = float(text)
            except ValueError:
                raise bad(row_no, name, f"non-numeric value {text!r}") from None
            if not math.isfinite(v):
                raise bad(row_no, name, f"non-finite value {text!r}")
            vals.append(v)
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
