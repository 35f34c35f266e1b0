import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import algaeid

from algaeid.segmentation import LabelMap, labelmap_to_pgm
from algaeid.stack_io import (ImageStack, StackIOError, load_stack, read_pgm, save_stack,
                              write_pgm16)

from helpers import traced_peak


def random_stack(rng, m=6, size=64):
    bands = tuple(
        rng.integers(0, 65536, size=(size, size)).astype(np.float64)
        for _ in range(m)
    )
    wl = tuple(405.0 + 25.0 * i for i in range(m))
    return ImageStack(bands=bands, wavelengths_nm=wl, pixel_pitch_um=1.2,
                      role_tag="raw")


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    stack = random_stack(rng)
    save_stack(stack, tmp_path / "s")
    again = load_stack(tmp_path / "s")
    assert again.num_bands == stack.num_bands
    assert again.wavelengths_nm == stack.wavelengths_nm
    assert again.pixel_pitch_um == stack.pixel_pitch_um
    assert again.role_tag == stack.role_tag
    for a, b in zip(again.bands, stack.bands):
        assert np.array_equal(a, b)


def test_save_quantizes_real_values(tmp_path):
    band = np.array([[-5.0, 0.4, 70000.7], [1.5, 2.5, 12.0]])
    bg = ImageStack(bands=(np.zeros((2, 3)),), wavelengths_nm=(405.0,),
                    role_tag="background")
    corrected = bg.with_bands((band,), role_tag="corrected")
    save_stack(corrected, tmp_path / "c")
    out = load_stack(tmp_path / "c").bands[0]
    # clamp to [0, 65535], round half to even
    assert np.array_equal(out, [[0.0, 0.0, 65535.0], [2.0, 2.0, 12.0]])


def test_manifest_order_defines_band_order(tmp_path):
    stack = ImageStack(
        bands=(np.full((2, 2), 10.0), np.full((2, 2), 20.0)),
        wavelengths_nm=(405.0, 450.0),
    )
    save_stack(stack, tmp_path / "s")
    again = load_stack(tmp_path / "s")
    assert again.bands[0][0, 0] == 10.0
    assert again.bands[1][0, 0] == 20.0


def test_empty_band_list_rejected():
    with pytest.raises(StackIOError):
        ImageStack(bands=(), wavelengths_nm=())


def test_dimension_mismatch_rejected():
    with pytest.raises(StackIOError, match=r"band 1 has shape \(32, 32\), expected \(64, 64\)"):
        ImageStack(
            bands=(np.zeros((64, 64)), np.zeros((32, 32))),
            wavelengths_nm=(405.0, 450.0),
        )


def test_non_increasing_wavelengths_rejected():
    with pytest.raises(StackIOError, match="wavelengths_nm must be strictly increasing"):
        ImageStack(
            bands=(np.zeros((4, 4)), np.zeros((4, 4))),
            wavelengths_nm=(405.0, 405.0),
        )
    with pytest.raises(StackIOError, match="^2 wavelengths for 1 bands$"):
        ImageStack(bands=(np.zeros((4, 4)),), wavelengths_nm=(405.0, 420.0))


def test_raw_stack_must_be_non_negative():
    with pytest.raises(StackIOError):
        ImageStack(bands=(np.array([[-1.0]]),), wavelengths_nm=(405.0,))
    # -inf is negative; NaN compares false and passes this check
    with pytest.raises(StackIOError, match="band 1 has negative intensities"):
        ImageStack(bands=(np.ones((2, 2)), np.array([[1.0, -np.inf], [np.nan, 2.0]])),
                   wavelengths_nm=(405.0, 420.0))
    ImageStack(bands=(np.array([[1.0, np.nan]]),), wavelengths_nm=(405.0,))
    # corrected stacks may carry negatives (unclamped subtraction)
    bg = ImageStack(bands=(np.zeros((1, 1)),), wavelengths_nm=(405.0,),
                    role_tag="background")
    bg.with_bands((np.array([[-1.0]]),), role_tag="corrected")


def test_missing_band_file(tmp_path):
    stack = ImageStack(bands=(np.zeros((2, 2)),), wavelengths_nm=(405.0,))
    save_stack(stack, tmp_path / "s")
    (tmp_path / "s" / "band_00.pgm").unlink()
    with pytest.raises(StackIOError, match="^band file not found: .*band_00.pgm$"):
        load_stack(tmp_path / "s")


def test_missing_manifest(tmp_path):
    with pytest.raises(StackIOError, match="^manifest not found: .*nope"):
        load_stack(tmp_path / "nope")


def test_load_detects_band_shape_mismatch(tmp_path):
    import json
    d = tmp_path / "s"
    d.mkdir()
    write_pgm16(d / "a.pgm", np.zeros((64, 64)))
    write_pgm16(d / "b.pgm", np.zeros((32, 32)))
    (d / "stack.json").write_text(json.dumps({
        "wavelengths_nm": [405.0, 450.0],
        "pixel_pitch_um": 1.2,
        "band_filenames": ["a.pgm", "b.pgm"],
        "role_tag": "raw",
    }), encoding="utf-8")
    with pytest.raises(StackIOError, match=r"stack.json: band 1 has shape \(32, 32\), expected"):
        load_stack(d)


def test_load_detects_wavelength_order(tmp_path):
    import json
    d = tmp_path / "s"
    d.mkdir()
    write_pgm16(d / "a.pgm", np.zeros((8, 8)))
    write_pgm16(d / "b.pgm", np.zeros((8, 8)))
    (d / "stack.json").write_text(json.dumps({
        "wavelengths_nm": [405.0, 405.0],
        "pixel_pitch_um": 1.2,
        "band_filenames": ["a.pgm", "b.pgm"],
        "role_tag": "raw",
    }), encoding="utf-8")
    with pytest.raises(StackIOError,
                       match="stack.json: wavelengths_nm must be strictly increasing"):
        load_stack(d)


def test_unsupported_bit_depth(tmp_path):
    p = tmp_path / "deep.pgm"
    p.write_bytes(b"P5\n2 2\n70000\n" + bytes(8))
    with pytest.raises(StackIOError, match=r"maxval 70000 unsupported \(must be 1..65535\)"):
        read_pgm(p)


def test_eight_bit_pgm_loads(tmp_path):
    p = tmp_path / "small.pgm"
    p.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 10, 200, 255]))
    a = read_pgm(p)
    assert a.dtype == np.uint8
    assert np.array_equal(a, np.array([[0, 10], [200, 255]]))


@pytest.mark.parametrize("header", [
    b"P52 1 255\n",
    b"P5 2 # width, then height\n1\n255\n",
    b"P5\t2\r1\t255\r",
], ids=["token-glued-to-magic", "comment-between-tokens", "tab-and-cr"])
def test_pgm_header_accepted(tmp_path, header):
    p = tmp_path / "h.pgm"
    p.write_bytes(header + bytes([7, 9]))
    assert np.array_equal(read_pgm(p), [[7, 9]])


@pytest.mark.parametrize("data", [
    b"P5 2 1 # comment runs to the end of the file",
    b"P5 2 1 255#\n" + bytes([7, 9]),
], ids=["comment-without-newline", "comment-after-maxval"])
def test_pgm_header_rejected(tmp_path, data):
    p = tmp_path / "h.pgm"
    p.write_bytes(data)
    with pytest.raises(StackIOError, match="PGM header"):
        read_pgm(p)


def test_non_pgm_rejected(tmp_path):
    p = tmp_path / "x.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(StackIOError):
        read_pgm(p)


def test_truncated_raster_rejected(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 4\n65535\n" + bytes(10))
    with pytest.raises(StackIOError):
        read_pgm(p)


def test_pgm16_round_trip_values(tmp_path):
    rng = np.random.default_rng(2)
    a = rng.integers(0, 65536, size=(17, 9)).astype(np.float64)
    for raster in (a, np.array([[65535.0]]), np.array([[0.0]])):
        write_pgm16(tmp_path / "a.pgm", raster)
        assert np.array_equal(read_pgm(tmp_path / "a.pgm").astype(np.float64), raster)
    # a 1x1 raster is its header and one big-endian sample
    assert (tmp_path / "a.pgm").read_bytes() == b"P5\n1 1\n65535\n\x00\x00"
    # a label map of 65535 components, the most a 16-bit PGM can hold
    labels = LabelMap(np.arange(1, 65536, dtype=np.int32)[None, :])
    labelmap_to_pgm(labels, tmp_path / "labels.pgm")
    back = LabelMap(read_pgm(tmp_path / "labels.pgm"))
    assert back.count == 65535 and np.array_equal(back.labels, labels.labels)


def test_pgm16_writers_hold_no_raster_copies(tmp_path):
    # a float band is clipped into one float64 buffer and rounded straight
    # into the file's buffer behind its header: the band's bytes plus its
    # 2-byte raster, 1.25 times the band
    band = np.random.default_rng(4).uniform(-10.0, 70000.0, size=(256, 256))
    assert traced_peak(write_pgm16, tmp_path / "band.pgm", band) <= 1.5 * band.nbytes
    # an id map is written from the file's buffer alone: a quarter of the
    # map's float64 bytes
    labels = LabelMap(np.arange(256 * 256, dtype=np.int32).reshape(256, 256) % 65536)
    peak = traced_peak(labelmap_to_pgm, labels, tmp_path / "labels.pgm")
    assert peak <= 0.5 * labels.labels.size * 8
    assert np.array_equal(read_pgm(tmp_path / "labels.pgm"), labels.labels)


@pytest.mark.parametrize("dtype", [np.int32, np.uint16])
def test_pgm16_integer_raster_written_as_float_path(tmp_path, dtype):
    values = np.array([[0, 1, 65535], [65535, 1, 0]])
    write_pgm16(tmp_path / "int.pgm", values.astype(dtype))
    write_pgm16(tmp_path / "float.pgm", values.astype(np.float64))
    assert (tmp_path / "int.pgm").read_bytes() == (tmp_path / "float.pgm").read_bytes()


@pytest.mark.parametrize("values, clamped", [
    ([[-70000, -1, 0, 7]], [[0, 0, 0, 7]]),
    ([[7, 65535, 65536, 2 ** 31 - 1]], [[7, 65535, 65535, 65535]]),
], ids=["negative", "above-16-bit"])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_pgm16_integers_out_of_range_clamp(tmp_path, values, clamped, dtype):
    write_pgm16(tmp_path / "int.pgm", np.array(values, dtype=dtype))
    write_pgm16(tmp_path / "float.pgm", np.array(values, dtype=np.float64))
    assert (tmp_path / "int.pgm").read_bytes() == (tmp_path / "float.pgm").read_bytes()
    assert read_pgm(tmp_path / "int.pgm").tolist() == clamped


@pytest.mark.parametrize("bands", [
    pytest.param([[[0.0]], [[65535.0]]], id="1x1-0-65535"),
    pytest.param([[[65535.0]], [[0.0]]], id="1x1-65535-0"),
    pytest.param([np.arange(1, 65536.0)[None, :], np.arange(65535.0, 0, -1)[None, :]],
                 id="65535-labels-row"),
    pytest.param([np.arange(1, 65536.0)[:, None]], id="65535-labels-column"),
])
@pytest.mark.parametrize("role_tag", ["raw", "corrected"])
def test_stack_round_trip_edge_values(tmp_path, bands, role_tag):
    # integer values in [0, 65535] survive the PGM codec bit for bit
    stack = ImageStack(bands=tuple(np.array(b, dtype=np.float64) for b in bands),
                       wavelengths_nm=tuple(405.0 + 25.0 * i for i in range(len(bands))),
                       pixel_pitch_um=0.65, role_tag=role_tag)
    manifest = save_stack(stack, tmp_path / "s")
    again = load_stack(manifest)
    assert (again.wavelengths_nm, again.pixel_pitch_um, again.role_tag) == \
        (stack.wavelengths_nm, stack.pixel_pitch_um, stack.role_tag)
    assert len(again.bands) == len(stack.bands)
    for a, b in zip(again.bands, stack.bands):
        assert a.dtype == np.uint16 and np.array_equal(a, b)


def test_load_stack_keeps_pgm_rasters(tmp_path):
    # a band comes back as the raster its PGM holds: uint16 for a 16-bit
    # file, uint8 for an 8-bit one
    rng = np.random.default_rng(3)
    stack = random_stack(rng, m=2, size=5)
    save_stack(stack, tmp_path / "s")
    (tmp_path / "s" / "band_01.pgm").write_bytes(b"P5\n5 5\n255\n" + bytes(range(25)))
    again = load_stack(tmp_path / "s")
    assert [b.dtype for b in again.bands] == [np.uint16, np.uint8]
    assert np.array_equal(again.bands[0], stack.bands[0])
    assert again.bands[1].tolist() == np.arange(25).reshape(5, 5).tolist()
    assert not any(b.flags.writeable for b in again.bands)


@pytest.mark.parametrize("dtype,kept", [
    (np.uint8, True), (np.uint16, True), (">u2", False), (np.uint32, False),
    (np.int16, False), (np.float32, False), (np.float64, True),
])
def test_stack_keeps_only_raster_and_float64_bands(dtype, kept):
    band = np.arange(6).reshape(2, 3).astype(dtype)
    stored = ImageStack(bands=(band,), wavelengths_nm=(405.0,)).bands[0]
    assert stored.dtype == (band.dtype if kept else np.float64)
    assert (stored is band) == kept and stored.tolist() == band.tolist()


def test_import_loads_no_pool_machinery():
    # the worker pools import their modules when they run, so a process that
    # imports every module but neither trains several runs nor corrects a
    # stack does not load them
    package = pathlib.Path(algaeid.__file__).parent
    modules = ", ".join(p.stem for p in sorted(package.glob("*.py")) if p.name != "__init__.py")
    path = os.pathsep.join(p for p in (str(package.parent), os.environ.get("PYTHONPATH")) if p)
    code = (f"import sys; from algaeid import {modules}; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"


def test_stack_is_immutable():
    stack = ImageStack(bands=(np.ones((3, 3)),), wavelengths_nm=(405.0,))
    with pytest.raises(ValueError):
        stack.bands[0][0, 0] = 5.0


def test_manifest_extra_fields_ignored(tmp_path):
    stack = ImageStack(bands=(np.zeros((2, 2)),), wavelengths_nm=(405.0,))
    save_stack(stack, tmp_path / "s", extra_fields={"config_sha256": "abc"})
    again = load_stack(tmp_path / "s")
    assert again.num_bands == 1


@pytest.mark.parametrize("field,value", [
    ("band_filenames", "band_00.pgm"), ("wavelengths_nm", [True]),
])
def test_manifest_field_error_is_stack_error(tmp_path, field, value):
    path = save_stack(ImageStack(bands=(np.zeros((2, 2)),), wavelengths_nm=(405.0,)),
                      tmp_path / "s")
    doc = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    doc[field] = value
    pathlib.Path(path).write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(StackIOError) as err:
        load_stack(tmp_path / "s")
    assert str(err.value).startswith(f"{path}: {field} must be")


def test_only_stack_io_parses_json():
    # every JSON input goes through stack_io.read_json_object
    callers = []
    for source in sorted(pathlib.Path(algaeid.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                callers.append(f"{source.name}:{node.lineno}")
    assert [c for c in callers if not c.startswith("stack_io.py:")] == []


def test_every_public_name_has_a_reader():
    # a public top-level def or class must be read by the program: by
    # `module.name` or `from ...module import name` in another module of
    # the package or in bench/, or by its bare name inside its own module.
    # A public method, property or dataclass field of a package class must
    # be read as `<anything>.member`; the object is not resolved, so any
    # attribute read of that name counts. (An enum's members are read by
    # value, so class-level assignments are not checked.)
    # The tests are no reader, nor is __init__.py, which imports nothing:
    # a re-export there would make every name look read.
    # classifier.backward is kept for the gradient-check oracle.
    package = pathlib.Path(algaeid.__file__).parent
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    bench = sorted((package.parents[1] / "bench").glob("*.py"))
    assert sources and bench
    reads, attributes, public, members = {"classifier.backward"}, set(), [], []
    for source in sources + bench:
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                reads.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module:
                reads.update(f"{node.module.rsplit('.', 1)[-1]}.{alias.name}"
                             for alias in node.names)
            elif isinstance(node, ast.Name) and source.parent == package:
                reads.add(f"{source.stem}.{node.id}")
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
        if source.parent == package:
            public += [f"{source.stem}.{node.name}" for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not node.name.startswith("_")]
            for cls in tree.body:
                if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                    continue
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        members.append((f"{source.stem}.{cls.name}", node.name))
                    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                        members.append((f"{source.stem}.{cls.name}", node.target.id))
    assert [name for name in public if name not in reads] == []
    assert len(members) > 90  # the scan sees the classes' members
    assert [f"{cls}.{name}" for cls, name in members
            if not name.startswith("_") and name not in attributes] == []
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in init.body
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []
