"""Multi-band fluorescence image stacks and their on-disk representation.

A stack is an ordered list of co-registered 2-D intensity rasters, one per
excitation wavelength. On disk a stack is a JSON manifest plus one binary
16-bit big-endian PGM (P5, maxval 65535) per band. A band read from a PGM
stays the uint8 or uint16 raster it was stored as; every other band, and
every band a processing step computes, is a float64 array, so processing
never quantizes.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import tempfile
from dataclasses import dataclass

import numpy as np

from . import fields

ROLE_TAGS = ("raw", "background", "corrected")

MANIFEST_NAME = "stack.json"

PGM_MAXVAL = 65535

# the dtypes of a PGM raster, which a stack keeps as they are
RASTER_DTYPES = (np.dtype(np.uint8), np.dtype(np.uint16))


class StackIOError(ValueError):
    """A stack validation or codec failure."""


@dataclass(frozen=True)
class ImageStack:
    """An m-band fluorescence cube with per-band excitation wavelengths.

    A uint8 or uint16 band, as read from a PGM, is kept as it is, and any
    other band is converted to float64. Arithmetic on a band converts it
    to float64 first, since unsigned differences wrap.

    Immutable after construction: band arrays are flagged read-only, so a
    stack can be shared across threads. Every processing step returns a new
    stack instead of mutating.
    """

    bands: tuple
    wavelengths_nm: tuple
    pixel_pitch_um: float = 1.2
    role_tag: str = "raw"

    def __post_init__(self):
        bands = tuple(b if b.dtype in RASTER_DTYPES else b.astype(np.float64, copy=False)
                      for b in map(np.asarray, self.bands))
        if len(bands) < 1:
            raise StackIOError("stack must contain at least one band (m >= 1)")
        for b in bands:
            if b.ndim != 2:
                raise StackIOError(f"band must be 2-D, got shape {b.shape}")
        shape = bands[0].shape
        if shape[0] < 1 or shape[1] < 1:
            raise StackIOError(f"band dimensions must be >= 1, got {shape}")
        for i, b in enumerate(bands):
            if b.shape != shape:
                raise StackIOError(f"band {i} has shape {b.shape}, expected {shape}")
        wl = tuple(float(w) for w in self.wavelengths_nm)
        if len(wl) != len(bands):
            raise StackIOError(f"{len(wl)} wavelengths for {len(bands)} bands")
        if any(w2 <= w1 for w1, w2 in zip(wl, wl[1:])):
            raise StackIOError(f"wavelengths_nm must be strictly increasing, got {wl}")
        if self.role_tag not in ROLE_TAGS:
            raise StackIOError(
                f"role_tag must be one of {ROLE_TAGS}, got {self.role_tag!r}"
            )
        if self.pixel_pitch_um <= 0:
            raise StackIOError("pixel_pitch_um must be positive")
        if self.role_tag == "raw":
            for i, b in enumerate(bands):
                if np.fmin.reduce(b, axis=None) < 0:  # no mask; skips NaN, as b < 0 does
                    raise StackIOError(f"raw stack band {i} has negative intensities")
        for b in bands:
            b.flags.writeable = False
        object.__setattr__(self, "bands", bands)
        object.__setattr__(self, "wavelengths_nm", wl)

    @property
    def num_bands(self):
        return len(self.bands)

    @property
    def height(self):
        return self.bands[0].shape[0]

    @property
    def width(self):
        return self.bands[0].shape[1]

    def with_bands(self, bands, role_tag):
        """New stack with the same metadata but different pixel data."""
        return ImageStack(
            bands=tuple(bands),
            wavelengths_nm=self.wavelengths_nm,
            pixel_pitch_um=self.pixel_pitch_um,
            role_tag=role_tag,
        )


def usable_cpus():
    """The number of CPUs this process may run on. Every worker pool of the
    package (the training processes, the band threads) is sized from it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def atomic_write_bytes(path, data):
    """Write bytes via a temp file in the same directory plus rename."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path, obj):
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_csv(path, rows):
    """Write rows of fields as UTF-8 CSV with LF line endings, quoting only
    the fields that hold a comma, a quote or a newline. A carriage return,
    which the writer leaves unquoted and a reader ends a row at, is rejected."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    data = text.getvalue()
    if "\r" in data:
        bad = next(f for row in rows for f in row if "\r" in str(f))
        raise ValueError(f"{path}: CSV field {bad!r} holds a carriage return")
    atomic_write_bytes(path, data.encode("utf-8"))


def _reject_constant(name):
    raise ValueError(f"{name} is not a number")


def read_json_object(path, what):
    """The JSON object in the file at `path`; errors call the file `what`.
    NaN and Infinity, which JSON does not allow, are rejected."""
    if not os.path.exists(path):
        raise ValueError(f"{what} file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_constant)
        except ValueError as e:  # JSONDecodeError is a ValueError
            raise ValueError(f"{path}: invalid {what} JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {what} must be a JSON object")
    return doc


def string_list(value, name):
    """`value`, which must be a list (or tuple) of strings; an error names it
    `name`."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{name} must be a list of strings, got {value!r}")
    return value


def write_pgm16(path, array):
    """Write a 2-D array as binary PGM, 16-bit big-endian, maxval 65535.

    Real-valued input is clamped to [0, 65535] and rounded to nearest
    (ties to even). Files are the only quantized representation of a stack.
    An integer raster already within [0, 65535] is written as it is.
    """
    a = np.asarray(array)
    if a.ndim != 2:
        raise StackIOError(f"PGM raster must be 2-D, got shape {a.shape}")
    h, w = a.shape
    header = f"P5\n{w} {h}\n{PGM_MAXVAL}\n".encode("ascii")
    # the whole file in one buffer: the header, then the raster encoded
    # straight into it
    data = np.empty(len(header) + 2 * a.size, dtype=np.uint8)
    data[:len(header)] = np.frombuffer(header, dtype=np.uint8)
    raster = data[len(header):].view(">u2").reshape(h, w)
    if a.dtype.kind in "iu" and a.size and a.min() >= 0 and a.max() <= PGM_MAXVAL:
        raster[...] = a
    else:  # clipped into one float64 buffer, then rounded into the raster
        np.rint(np.clip(a, 0, PGM_MAXVAL, dtype=np.float64), out=raster, casting="unsafe")
    atomic_write_bytes(path, data)


# "P5", then width, height and maxval, then exactly one whitespace byte
# before the raster. A separator is a whitespace byte or a '#' comment with
# the newline that ends it; the width may follow "P5" directly.
_PGM_SEP = rb"(?:\s|#[^\n]*\n)"
_PGM_HEADER = re.compile(rb"P5%s*([^\s#]+)%s+([^\s#]+)%s+([^\s#]+)\s" % ((_PGM_SEP,) * 3))


def read_pgm(path):
    """Read a binary PGM (P5). Returns an integer array (uint8 or uint16)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise StackIOError(f"{path}: not a binary PGM (P5) file")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise StackIOError(f"{path}: truncated or malformed PGM header")
    offset = header.end()
    try:
        width, height, maxval = (int(t) for t in header.groups())
    except ValueError:
        raise StackIOError(f"{path}: non-numeric PGM header") from None
    if width < 1 or height < 1:
        raise StackIOError(f"{path}: invalid PGM dimensions {width}x{height}")
    if maxval < 1 or maxval > 65535:
        raise StackIOError(f"{path}: maxval {maxval} unsupported (must be 1..65535)")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    if len(data) - offset < width * height * dtype.itemsize:
        raise StackIOError(f"{path}: PGM raster truncated")
    a = np.frombuffer(data, dtype, count=width * height, offset=offset).reshape(height, width)
    return a.astype(np.uint16) if maxval > 255 else a.astype(np.uint8)


def save_stack(stack, directory, extra_fields=None):
    """Write manifest plus one PGM per band; returns the manifest path.

    For integer-valued stacks load_stack(save_stack(s)) reproduces s
    bit-exactly; real-valued data is clamped/rounded by the PGM codec.
    `extra_fields` lets callers embed provenance (ignored on load).
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    filenames = []
    for i, band in enumerate(stack.bands):
        name = f"band_{i:02d}.pgm"
        write_pgm16(os.path.join(directory, name), band)
        filenames.append(name)
    manifest = {
        "wavelengths_nm": list(stack.wavelengths_nm),
        "pixel_pitch_um": stack.pixel_pitch_um,
        "band_filenames": filenames,
        "role_tag": stack.role_tag,
    }
    if extra_fields:
        manifest.update(extra_fields)
    path = os.path.join(directory, MANIFEST_NAME)
    atomic_write_json(path, manifest)
    return path


def load_stack(manifest_path):
    """Load a stack from its manifest (or from a directory containing one).

    Bands come back in manifest order, as the uint8 or uint16 rasters of
    their PGMs, with wavelengths taken from the manifest. Raises a
    StackIOError, whose message says which, for a missing manifest or band
    file, a dimension mismatch between bands, non-increasing wavelengths or
    an unsupported bit depth. A manifest whose wavelengths or pixel pitch
    are not finite numbers, or whose band_filenames are not a list of
    strings, raises a StackIOError naming it.
    """
    manifest_path = os.fspath(manifest_path)
    if os.path.isdir(manifest_path):
        manifest_path = os.path.join(manifest_path, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise StackIOError(f"manifest not found: {manifest_path}")
    manifest = read_json_object(manifest_path, "manifest")
    for key in ("wavelengths_nm", "band_filenames", "role_tag"):
        if key not in manifest:
            raise StackIOError(f"{manifest_path}: manifest missing field {key!r}")
    try:  # every error names the manifest
        filenames = string_list(manifest["band_filenames"], "band_filenames")
        wavelengths = fields.as_numbers("wavelengths_nm", manifest["wavelengths_nm"])
        pitch = fields.as_number("pixel_pitch_um", manifest.get(
            "pixel_pitch_um", ImageStack.pixel_pitch_um))
    except ValueError as e:
        raise StackIOError(f"{manifest_path}: {e}") from None
    base = os.path.dirname(manifest_path)
    bands = []
    for name in filenames:
        band_path = os.path.join(base, name)
        if not os.path.exists(band_path):
            raise StackIOError(f"band file not found: {band_path}")
        bands.append(read_pgm(band_path))
    try:
        return ImageStack(
            bands=tuple(bands),
            wavelengths_nm=wavelengths,
            pixel_pitch_um=pitch,
            role_tag=str(manifest["role_tag"]),
        )
    except StackIOError as e:
        raise StackIOError(f"{manifest_path}: {e}") from None
