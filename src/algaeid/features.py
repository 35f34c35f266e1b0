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

from . import fields
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


def area(org):
    """Total number of pixels in the organism."""
    return org.area


def convex_area(org):
    """Number of pixel centers inside or on the convex hull of the
    organism's pixel centers, counted exactly by Pick's theorem.

    Only the first and last pixel of each row are hulled: every other pixel
    lies between them, so the hull is the same. Sorted by row, those points
    feed two monotone chains. The hull's vertices are lattice points, so
    with 2A the absolute shoelace sum and B the sum of gcd(|dx|, |dy|) over
    its edges, A = I + B/2 - 1 gives the count I + B = (2A - B)/2 + 1 + B.
    A one-point hull (no edges) gives 1 and a segment of g steps g + 1.
    """
    px = org.pixels[np.lexsort((org.pixels[:, 1], org.pixels[:, 0]))]
    new_row = np.diff(px[:, 0]) != 0
    ends = np.concatenate(([True], new_row)) | np.concatenate((new_row, [True]))
    points = px[ends].tolist()  # (row, col) as Python ints, sorted
    hull = []
    for sweep in (points, points[::-1]):
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


def _central_second_moments(org):
    """Second central moments of the pixel coordinates with the +1/12
    per-pixel variance term, which accounts for each pixel covering a unit
    square rather than a point (keeps thin shapes well-conditioned)."""
    ys = org.pixels[:, 0].astype(np.float64)
    xs = org.pixels[:, 1].astype(np.float64)
    mu_xx = xs.var() + 1.0 / 12.0
    mu_yy = ys.var() + 1.0 / 12.0
    mu_xy = float(((xs - xs.mean()) * (ys - ys.mean())).mean())
    return mu_xx, mu_yy, mu_xy


def eccentricity(org):
    """Elongation in [0, 1] from the moment ellipse: sqrt(1 - b^2/a^2) with
    a >= b the semi-axes (eigenvalues of the coordinate covariance).
    A single pixel yields 0."""
    mu_xx, mu_yy, mu_xy = _central_second_moments(org)
    half_trace = (mu_xx + mu_yy) / 2.0
    spread = math.hypot((mu_xx - mu_yy) / 2.0, mu_xy)
    l1 = half_trace + spread
    l2 = half_trace - spread
    if l1 <= 0:
        return 0.0
    return math.sqrt(max(0.0, 1.0 - l2 / l1))


def equivalent_diameter(org):
    """Diameter of the circle whose area equals the pixel count."""
    return math.sqrt(4.0 * org.area / math.pi)


def extent(org):
    """Pixel count divided by bounding-box area (box inclusive)."""
    return org.area / org.bbox_area


def spectral_means(org, corrected):
    """Mean intensity over exactly the organism's pixel set, one value per
    band in ascending wavelength order."""
    ys = org.pixels[:, 0]
    xs = org.pixels[:, 1]
    return tuple(float(band[ys, xs].mean()) for band in corrected.bands)


def compute_features(org, corrected, label=None):
    return FeatureVector(
        organism_id=org.id,
        label=label,
        area=area(org),
        convex_area=convex_area(org),
        eccentricity=eccentricity(org),
        equivalent_diameter=equivalent_diameter(org),
        extent=extent(org),
        spectral=spectral_means(org, corrected),
    )


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
