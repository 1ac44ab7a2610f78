import ast
import errno
import itertools
import operator
import os
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from posefuse import io_formats
from posefuse.io_formats import (FormatError, load_posenet_weights,
                                 mmtl_decode_at, mmtl_encode,
                                 posenet_weights_bytes,
                                 posenet_weights_from_bytes,
                                 save_posenet_weights, write_file, write_ppm)
from posefuse.posenet import LAYER_SPECS, init_posenet_weights

from conftest import read_mmtl


# ---- MMTL --------------------------------------------------------------

MMTL_HEADER_4D = b"MMTL" + bytes([1, 1, 4])
MMTL_HEADER_3D = b"MMTL" + bytes([1, 1, 3])


def test_mmtl_known_bytes():
    arr = np.array([1.0, 2.0], dtype=np.float32)
    blob = mmtl_encode(arr)
    expect = (b"MMTL" + bytes([1, 1, 1]) + struct.pack("<I", 2)
              + struct.pack("<2f", 1.0, 2.0))
    assert blob == expect


def test_mmtl_roundtrip_various_ranks():
    rng = np.random.default_rng(0)
    for shape in ((5,), (3, 4), (2, 3, 4), (2, 1, 3, 2)):
        arr = rng.normal(size=shape).astype(np.float32)
        out = read_mmtl(mmtl_encode(arr))
        assert out.shape == arr.shape
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, arr)


def test_mmtl_canonical_rewrite():
    arr = np.random.default_rng(1).normal(size=(4, 5)).astype(np.float32)
    blob = mmtl_encode(arr)
    assert mmtl_encode(read_mmtl(blob)) == blob


def test_mmtl_casts_float64_to_f32():
    arr = np.array([1.0 / 3.0], dtype=np.float64)
    out = read_mmtl(mmtl_encode(arr))
    assert out.dtype == np.float32
    assert out[0] == np.float32(1.0 / 3.0)


def test_mmtl_rejects_values_past_float32():
    for value in (1e308, -1e39):
        with pytest.raises(FormatError, match="overflow float32"):
            mmtl_encode(np.array([value]))
    assert read_mmtl(mmtl_encode(np.array([3.4e38])))[0] == np.float32(3.4e38)
    # inf and NaN are values of float32 already, not overflows
    out = read_mmtl(mmtl_encode(np.array([np.inf, -np.inf, np.nan])))
    assert np.isposinf(out[0]) and np.isneginf(out[1]) and np.isnan(out[2])


def test_mmtl_fortran_order_written_row_major():
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    assert mmtl_encode(np.asfortranarray(arr)) == mmtl_encode(arr)


def test_mmtl_concatenated_stream():
    a = np.float32([[1, 2], [3, 4]])
    b = np.float32([7, 8, 9])
    data = mmtl_encode(a) + mmtl_encode(b)
    first, off = mmtl_decode_at(data, 0)
    second, end = mmtl_decode_at(data, off)
    np.testing.assert_array_equal(first, a)
    np.testing.assert_array_equal(second, b)
    assert end == len(data)


def test_mmtl_file_roundtrip(tmp_path):
    arr = np.random.default_rng(2).normal(size=(1024, 1024)).astype(np.float32)
    path = tmp_path / "t.mmtl"
    path.write_bytes(mmtl_encode(arr))
    blob = path.read_bytes()
    tracemalloc.start()
    try:
        out = read_mmtl(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(out, arr)
    # one copy of the payload, which the result owns and may write to
    assert peak <= 1.1 * arr.nbytes
    assert out.flags.owndata and out.flags.writeable


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float32,
                  hnp.array_shapes(min_dims=1, max_dims=4, max_side=6),
                  elements=st.floats(-1e6, 1e6, width=32)))
def test_mmtl_roundtrip_property(arr):
    np.testing.assert_array_equal(read_mmtl(mmtl_encode(arr)), arr)


def test_mmtl_rejects_bad_magic():
    blob = bytearray(mmtl_encode(np.float32([1.0])))
    blob[:4] = b"XXXX"
    with pytest.raises(FormatError, match="magic"):
        mmtl_decode_at(bytes(blob))


def test_mmtl_rejects_bad_version_and_dtype():
    blob = bytearray(mmtl_encode(np.float32([1.0])))
    v = blob.copy()
    v[4] = 2
    with pytest.raises(FormatError, match="version"):
        mmtl_decode_at(bytes(v))
    d = blob.copy()
    d[5] = 7
    with pytest.raises(FormatError, match="dtype"):
        mmtl_decode_at(bytes(d))


def test_mmtl_rejects_zero_ndim_and_zero_dim():
    blob = bytearray(mmtl_encode(np.float32([1.0])))
    blob[6] = 0
    with pytest.raises(FormatError, match="ndim"):
        mmtl_decode_at(bytes(blob))
    crafted = b"MMTL" + bytes([1, 1, 1]) + struct.pack("<I", 0)
    with pytest.raises(FormatError, match="dims"):
        mmtl_decode_at(crafted)


def test_mmtl_rejects_truncation():
    blob = mmtl_encode(np.float32([1.0, 2.0, 3.0]))
    with pytest.raises(FormatError):
        mmtl_decode_at(blob[:5])       # header cut short
    with pytest.raises(FormatError):
        mmtl_decode_at(blob[:9])       # dims cut short
    with pytest.raises(FormatError, match="truncated"):
        mmtl_decode_at(blob[:-4])      # payload cut short


@pytest.mark.parametrize("dim", [65536, 2 ** 32 - 1])
def test_mmtl_rejects_dims_whose_product_wraps_int64(dim):
    # (65536,)*4 is 2**64 elements: an int64 product wraps to 0
    blob = MMTL_HEADER_4D + struct.pack("<4I", *(dim,) * 4) + b"\0" * 16
    with pytest.raises(FormatError, match="truncated"):
        mmtl_decode_at(blob)


def test_mmtl_encode_rejects_empty_dim():
    with pytest.raises(FormatError):
        mmtl_encode(np.zeros((0, 3), dtype=np.float32))


# ---- rasters -----------------------------------------------------------

def ppm_bytes(tmp_path, rgb_u8):
    path = tmp_path / "image.ppm"
    write_ppm(path, rgb_u8)
    return path.read_bytes()


def test_ppm_header_bytes(tmp_path):
    img = np.zeros((2, 3, 3), dtype=np.uint8)
    blob = ppm_bytes(tmp_path, img)
    assert blob.startswith(b"P6\n3 2\n255\n")
    assert len(blob) == 11 + 18


def test_raster_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    rgb = rng.integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
    assert ppm_bytes(tmp_path, rgb) == b"P6\n5 4\n255\n" + rgb.tobytes()


def test_encoder_validation(tmp_path):
    path = tmp_path / "bad.ppm"
    with pytest.raises(FormatError):
        write_ppm(path, np.zeros((2, 3, 3), dtype=np.float64))
    with pytest.raises(FormatError):
        write_ppm(path, np.zeros((2, 3, 4), dtype=np.uint8))
    assert not path.exists()  # rejected before the file is opened


def test_encoders_match_tobytes_on_non_contiguous_input(tmp_path):
    # the encoders write the array's C-order bytes, as a.tobytes() does
    rng = np.random.default_rng(5)
    rgb = rng.integers(0, 256, size=(7, 5, 3), dtype=np.uint8)
    for a in (rgb.transpose(1, 0, 2), rgb[::2, ::-1]):
        assert not a.flags.c_contiguous
        h, w = a.shape[:2]
        assert (ppm_bytes(tmp_path, a)
                == f"P6\n{w} {h}\n255\n".encode() + a.tobytes())
    latent = rng.standard_normal((3, 4, 6))
    for a in (latent.transpose(2, 0, 1), latent[:, ::-1, ::2]):
        assert not a.flags.c_contiguous
        f32 = a.astype("<f4")
        expect = (MMTL_HEADER_3D + struct.pack("<3I", *a.shape)
                  + f32.tobytes())
        assert mmtl_encode(a) == expect


# ---- the writer ---------------------------------------------------------

def test_write_file_overwrites_in_place_and_cuts_to_length(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"\xa5" * 100)
    path.chmod(0o640)
    inode = path.stat().st_ino
    write_file(path, (b"head", memoryview(b"tail"), b""))
    assert path.read_bytes() == b"headtail"
    write_file(path, (b"longer than before",))
    assert path.read_bytes() == b"longer than before"
    assert path.stat().st_ino == inode
    assert path.stat().st_mode & 0o777 == 0o640
    write_file(tmp_path / "new.bin", (np.arange(3, dtype="<f4").data,))
    assert (tmp_path / "new.bin").read_bytes() == np.arange(
        3, dtype="<f4").tobytes()


def test_write_file_writes_through_a_symlink(tmp_path):
    target = tmp_path / "target.bin"
    target.write_bytes(b"old contents")
    link = tmp_path / "link.bin"
    link.symlink_to(target)
    write_file(link, (b"new",))
    assert link.is_symlink() and target.read_bytes() == b"new"


def test_writers_never_open_with_o_trunc(tmp_path, monkeypatch):
    flags = []
    real_open = os.open

    def spy(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    for _ in range(2):  # a fresh path, then an existing one
        write_file(tmp_path / "a.bin", (b"x",))
        write_ppm(tmp_path / "a.ppm", np.zeros((2, 3, 3), np.uint8))
        save_posenet_weights(tmp_path / "a.weights", _WEIGHTS)
    assert len(flags) == 6
    assert all(f & os.O_WRONLY and not f & os.O_TRUNC for f in flags)


def test_write_file_keeps_only_the_bytes_written_before_a_failure(
        tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    path.write_bytes(b"\xa5" * 100)
    with pytest.raises(TypeError):  # the second part is not bytes-like
        write_file(path, (b"head", object(), b"tail"))
    assert path.read_bytes() == b"head"

    # writes of at most 3 bytes, until 6 or more are on disk: abc, d, efg
    real_write = os.write

    def short_then_full(fd, data):
        if os.lseek(fd, 0, os.SEEK_CUR) >= 6:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write(fd, data[:3])

    path.write_bytes(b"\xa5" * 100)
    monkeypatch.setattr(os, "write", short_then_full)
    with pytest.raises(OSError, match="No space"):
        write_file(path, (b"abcd", b"efghij"))
    monkeypatch.undo()
    assert path.read_bytes() == b"abcdefg"


def test_write_file_to_dev_null():
    # /dev/null cannot be truncated; it is never longer than what was written
    write_file(os.devnull, (b"x" * 10, b"y"))


def test_write_file_writes_each_state_of_a_refilled_buffer(tmp_path):
    # each part is written before the next is asked for, so a generator
    # may hand out one buffer again and again
    buf = np.empty(4, np.uint8)

    def parts():
        for k in range(3):
            buf.fill(k)
            yield buf

    path = tmp_path / "out.bin"
    write_file(path, parts())
    assert path.read_bytes() == bytes([0] * 4 + [1] * 4 + [2] * 4)


@pytest.mark.parametrize("old", [b"", b"\xa5" * 3, b"\xa5" * 100])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_write_file_keeps_the_parts_yielded_before_the_iterable_raises(
        tmp_path, old, k):
    def parts():
        for i in range(k):
            yield bytes([65 + i]) * (i + 1)
        raise RuntimeError("no more parts")

    path = tmp_path / "out.bin"
    path.write_bytes(old)
    with pytest.raises(RuntimeError, match="no more parts"):
        write_file(path, parts())
    assert path.read_bytes() == b"ABBCCC"[:k * (k + 1) // 2]


def file_writes(node, scope=()):
    """The definitions, as dotted names, holding each call under node
    that writes a file: write_bytes, write_text, tofile, os.open, or an
    open whose mode is not a constant free of w, a, x and +."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            found += file_writes(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Call) and writes_a_file(child):
            found.append(".".join(scope))
        found += file_writes(child, scope)
    return found


def writes_a_file(call):
    func = call.func
    name = getattr(func, "attr", None) or getattr(func, "id", None)
    if name in ("write_bytes", "write_text", "tofile"):
        return True
    if name != "open":
        return False
    owner = getattr(getattr(func, "value", None), "id", None)
    if owner == "os":
        return True
    # open(path, mode) and io.open(path, mode) take the path first,
    # Path.open(mode) does not
    args = call.args[1:] if owner in (None, "io") else call.args
    modes = args + [k.value for k in call.keywords]
    return not all(isinstance(m, ast.Constant) and isinstance(m.value, str)
                   and not set(m.value) & set("wax+") for m in modes)


def test_file_writes_finds_every_kind_of_write():
    src = """
def reads(p):
    open(p); open(p, "rb"); p.open(); Path(p).read_bytes(); io.open(p, "r")
def writes(p, mode):
    open(p, "wb"); open(p, mode); p.open("a"); open(p, mode="r+")
    p.write_bytes(b""); p.write_text(""); os.open(p, 1); a.tofile(p)
    io.open(p, "x")
"""
    assert file_writes(ast.parse(src)) == ["writes"] * 9


def test_the_package_writes_files_only_in_write_file():
    # a second writer could bring back truncate-then-rewrite
    found = []
    for path in sorted(Path(io_formats.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.stem}.{name}" for name in file_writes(tree)]
    assert found == ["io_formats.write_file"]


# ---- model weight files --------------------------------------------------

_WEIGHTS = init_posenet_weights(seed=0)
# each layer's kernel then its bias, in LAYER_SPECS order
_TENSORS = [mmtl_encode(t) for pair in zip(_WEIGHTS.kernels, _WEIGHTS.biases)
            for t in pair]
VALID_WEIGHTS = b"".join(_TENSORS)
_HEADERS = list(itertools.accumulate(map(len, _TENSORS[:-1]), initial=0))


def test_posenet_weights_roundtrip(tmp_path):
    path = tmp_path / "w.pnw"
    save_posenet_weights(path, _WEIGHTS)
    loaded = load_posenet_weights(path)
    for orig, back in zip(_WEIGHTS.kernels, loaded.kernels):
        np.testing.assert_array_equal(back, orig.astype(np.float32))
    for orig, back in zip(_WEIGHTS.biases, loaded.biases):
        np.testing.assert_array_equal(back, orig.astype(np.float32))
    # round trip through the loaded copy is canonical
    assert posenet_weights_bytes(loaded) == path.read_bytes()


def test_posenet_weights_file_layout():
    weights = init_posenet_weights(seed=1)
    blob = posenet_weights_bytes(weights)
    assert blob == b"".join(mmtl_encode(k) + mmtl_encode(b)
                            for k, b in zip(weights.kernels, weights.biases))
    shapes, offset = [], 0
    while offset < len(blob):
        arr, offset = mmtl_decode_at(blob, offset)
        shapes.append(arr.shape)
    assert shapes == [shape for _n, cin, cout, k, _s, _p in LAYER_SPECS
                      for shape in ((cout, cin, k, k), (cout,))]


def test_posenet_weights_errors():
    with pytest.raises(FormatError, match="trailing"):
        posenet_weights_from_bytes(VALID_WEIGHTS + b"\x00")
    with pytest.raises(FormatError, match="conv_out bias: bad magic"):
        posenet_weights_from_bytes(b"".join(_TENSORS[:17]))
    swapped = [_TENSORS[1], _TENSORS[0]] + _TENSORS[2:]
    with pytest.raises(FormatError, match="conv_in: kernel shape"):
        posenet_weights_from_bytes(b"".join(swapped))
    wrong_bias = _TENSORS[:17] + [mmtl_encode(np.zeros(321))]
    with pytest.raises(FormatError, match="conv_out: bias shape"):
        posenet_weights_from_bytes(b"".join(wrong_bias))


@pytest.mark.parametrize("bits", [0x7FC00000, 0x7F800001, 0x7F800000,
                                  0xFF800000],
                         ids=["nan", "signalling-nan", "inf", "-inf"])
@pytest.mark.parametrize("part", ["kernel", "bias"])
def test_posenet_weights_non_finite_value_is_format_error(part, bits):
    # raw float32 bits for value 7 of mid2's kernel or bias: mmtl_encode
    # of a float64 value cannot give a signalling NaN
    source = (_WEIGHTS.kernels if part == "kernel" else _WEIGHTS.biases)[4]
    i = 2 * 4 + (part == "bias")
    tensor = bytearray(_TENSORS[i])
    at = len(tensor) - 4 * source.size + 4 * 7  # the payload ends the tensor
    tensor[at:at + 4] = struct.pack("<I", bits)
    blob = b"".join(_TENSORS[:i] + [bytes(tensor)] + _TENSORS[i + 1:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="mid2"):
            posenet_weights_from_bytes(blob)


@pytest.mark.parametrize("prefix", [
    b"[1]",
    b'{"layers": ["mid1"]}',
    b'{"layers": [{"name": "mid2", "bias": [32]}]}',
    b"[" * 100_000 + b"]" * 100_000,
    b'{"format": "\xff\xfe"}',
    b'{"layers": ' + b"1" * 5000 + b"}",
], ids=["list-manifest", "string-layer-entry", "missing-kernel-key",
        "deep-nesting", "non-utf8", "5000-digit-int"])
def test_posenet_weights_hostile_manifest_is_format_error(prefix):
    # a weight file has no manifest line: one before the tensors, as the
    # earlier format wrote, is refused at the first tensor's magic
    with pytest.raises(FormatError, match="conv_in kernel: bad magic"):
        posenet_weights_from_bytes(prefix + b"\n" + VALID_WEIGHTS)


@st.composite
def corrupted_weight_files(draw):
    blob = bytearray(VALID_WEIGHTS)
    how = draw(st.sampled_from(["flip", "truncate", "insert", "prefix"]))
    if how == "flip":
        # bias the positions toward the MMTL headers (at most 23 bytes)
        at_header = st.builds(operator.add, st.sampled_from(_HEADERS),
                              st.integers(0, 22))
        for _ in range(draw(st.integers(1, 8))):
            i = draw(st.integers(0, len(blob) - 1) | at_header)
            blob[i] = draw(st.integers(0, 255))
        return bytes(blob)
    if how == "truncate":
        return bytes(blob[:draw(st.integers(0, len(blob) - 1))])
    if how == "insert":
        i = draw(st.integers(0, len(blob)) | st.sampled_from(_HEADERS))
        return bytes(blob[:i] + draw(st.binary(min_size=1, max_size=16))
                     + blob[i:])
    return draw(st.binary(min_size=1, max_size=64)) + VALID_WEIGHTS


@settings(max_examples=100, deadline=None)
@given(corrupted_weight_files())
def test_posenet_weights_corruption_raises_only_format_error(blob):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            weights = posenet_weights_from_bytes(blob)
        except FormatError:
            return
    # a corruption that decodes must still give a well-formed weight set
    assert len(weights.kernels) == 9
    assert all(np.isfinite(t).all() for t in weights.kernels + weights.biases)
