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

from .stack_io import atomic_write_bytes

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


def _convex_hull(points):
    """Monotone-chain convex hull of integer (x, y) points, counterclockwise
    with collinear vertices dropped. Returns fewer than 3 vertices for
    degenerate (single-point or collinear) inputs."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all points collinear
        return [pts[0], pts[-1]]
    return hull


def _count_collinear(p, q):
    """Lattice points on the closed segment p..q."""
    return math.gcd(abs(q[0] - p[0]), abs(q[1] - p[1])) + 1


def convex_area(org):
    """Number of pixel centers inside or on the convex hull of the
    organism's pixel centers (boundary inclusive, exact integer tests).
    Only the first and last pixel of each row, in sorted order, are hulled:
    every other pixel lies between them, so the hull is the same."""
    px = org.pixels[np.lexsort((org.pixels[:, 1], org.pixels[:, 0]))]
    new_row = np.diff(px[:, 0]) != 0
    ends = np.r_[True, new_row] | np.r_[new_row, True]
    hull = _convex_hull(px[ends][:, ::-1].tolist())  # (x, y) as Python ints
    if len(hull) == 1:
        return 1
    if len(hull) == 2:
        return _count_collinear(hull[0], hull[1])
    x_min, y_min, x_max, y_max = org.bbox
    gx, gy = np.meshgrid(np.arange(x_min, x_max + 1, dtype=np.int64),
                         np.arange(y_min, y_max + 1, dtype=np.int64))
    inside = np.ones(gx.shape, dtype=bool)
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        # counterclockwise hull: interior points satisfy cross >= 0
        inside &= (x1 - x0) * (gy - y0) - (y1 - y0) * (gx - x0) >= 0
    return int(inside.sum())


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
    """Column names of `assemble(fvs, variant)` for the given bands."""
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
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        object.__setattr__(self, "constant", np.asarray(self.constant, dtype=bool))


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
    """One row per organism; UTF-8, LF line endings, fixed header order."""
    header = ["organism_id", "label"] + feature_names(
        ModelVariant.SPECTRAL_MORPHOLOGICAL, wavelengths_nm)
    lines = [",".join(header)]
    for fv in fvs:
        if len(fv.spectral) != len(wavelengths_nm):
            raise ValueError(
                f"organism {fv.organism_id}: {len(fv.spectral)} spectral values "
                f"for {len(wavelengths_nm)} wavelengths"
            )
        row = [str(fv.organism_id),
               "" if fv.label is None else str(fv.label),
               str(fv.area), str(fv.convex_area),
               repr(fv.eccentricity), repr(fv.equivalent_diameter),
               repr(fv.extent)] + [repr(s) for s in fv.spectral]
        lines.append(",".join(row))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


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
            wavelengths.append(float(name[2:]))
        except ValueError as e:
            raise ValueError(f"{path}: header column {name!r}: {e}") from None

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
