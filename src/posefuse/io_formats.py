"""Bit-exact file formats: MMTL tensors, PPM rasters, weight files.

MMTL is a minimal little-endian tensor container:

    magic "MMTL" | version byte (1) | dtype byte (1 = float32) |
    ndim byte | ndim x uint32 dims (LE) | row-major float32 payload

A PoseNet weight file is the MMTL stream of each layer's kernel and then
its bias, in LAYER_SPECS order, with nothing before, between or after.

Writers always produce canonical bytes, so write -> read -> write is
byte-identical, which the deterministic CLI outputs rely on. Every file
the package writes goes through ``write_file``. It takes the parts of a
file as one iterable and writes each before it asks for the next, so a
caller can stream a file from one reused buffer; it overwrites in place
and cuts the file to length. ``_mmtl_parts`` gives it a tensor's header
and the float32 payload's own buffer, so no joined copy is made.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .posenet import LAYER_SPECS, PoseNetWeights

MMTL_MAGIC = b"MMTL"
MMTL_VERSION = 1
MMTL_DTYPE_F32 = 1


class FormatError(ValueError):
    pass


def _mmtl_header(shape: tuple[int, ...]) -> bytes:
    if len(shape) < 1 or len(shape) > 255:
        raise FormatError(f"unsupported ndim {len(shape)}")
    if any(d < 1 or d > 0xFFFFFFFF for d in shape):
        raise FormatError(f"dims out of range: {shape}")
    return (MMTL_MAGIC + bytes([MMTL_VERSION, MMTL_DTYPE_F32, len(shape)])
            + struct.pack(f"<{len(shape)}I", *shape))


def _mmtl_parts(arr: np.ndarray) -> tuple[bytes, memoryview]:
    """The MMTL header and the float32 payload's own buffer, for
    ``write_file`` to write without joining them."""
    try:
        with np.errstate(over="raise"):
            a = np.ascontiguousarray(arr, dtype="<f4")
    except FloatingPointError:
        raise FormatError("values overflow float32") from None
    return _mmtl_header(a.shape), a.data


def mmtl_encode(arr: np.ndarray) -> bytes:
    return b"".join(_mmtl_parts(arr))


def mmtl_decode_at(data: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one tensor starting at offset; returns (array, next offset)."""
    if data[offset:offset + 4] != MMTL_MAGIC:
        raise FormatError("bad magic, not an MMTL tensor")
    if len(data) < offset + 7:
        raise FormatError("truncated MMTL header")
    version, dtype, ndim = data[offset + 4:offset + 7]
    if version != MMTL_VERSION:
        raise FormatError(f"unsupported MMTL version {version}")
    if dtype != MMTL_DTYPE_F32:
        raise FormatError(f"unsupported MMTL dtype code {dtype}")
    if ndim < 1:
        raise FormatError("MMTL ndim must be >= 1")
    dims_end = offset + 7 + 4 * ndim
    if len(data) < dims_end:
        raise FormatError("truncated MMTL dims")
    dims = struct.unpack(f"<{ndim}I", data[offset + 7:dims_end])
    if any(d < 1 for d in dims):
        raise FormatError(f"MMTL dims must be >= 1, got {dims}")
    count = math.prod(dims)  # exact: an int64 product can wrap
    end = dims_end + 4 * count
    if len(data) < end:
        raise FormatError(f"MMTL payload truncated: need {4 * count} bytes")
    arr = np.frombuffer(data, "<f4", count, dims_end).reshape(dims)
    return arr.copy(), end


def write_file(path: str | Path, parts: Iterable) -> None:
    """Write each bytes-like part of the iterable to path in turn,
    overwriting in place.

    Each part is written in full before the next is asked for, so a
    generator may refill one buffer and yield it again. The path is
    opened without O_TRUNC and the file is cut at the end of what was
    written only afterwards, so an existing file keeps its inode and
    mode and a symlink is written through. ext4 (with its default
    auto_da_alloc, and XFS alike) starts writeback at close of a file
    that was truncated to zero and rewritten; this writer never does
    that. If a part fails to write, or the iterable raises, the file is
    still cut at the bytes written before the failure, so no tail of the
    old file is left. Only a file longer than what was written is cut,
    so a path such as /dev/null, which cannot be truncated, works too.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    end = 0
    try:
        for part in parts:
            view = memoryview(part).cast("B")
            while view:  # os.write may write less than it is given
                n = os.write(fd, view)
                end += n
                view = view[n:]
    finally:
        try:
            if os.fstat(fd).st_size > end:
                os.ftruncate(fd, end)
        finally:
            os.close(fd)


def write_ppm(path: str | Path, rgb_u8: np.ndarray) -> None:
    """Write a binary PPM: the header, then the image's own C-order buffer
    (copied only when the image is not C-contiguous)."""
    a = np.asarray(rgb_u8)
    if a.ndim != 3 or a.shape[2] != 3 or a.dtype != np.uint8:
        raise FormatError(f"PPM wants uint8 (H, W, 3), got {a.dtype} {a.shape}")
    h, w = a.shape[:2]
    write_file(path, (f"P6\n{w} {h}\n255\n".encode("ascii"),
                      np.ascontiguousarray(a).data))


def posenet_weights_bytes(weights: PoseNetWeights) -> bytes:
    """Each layer's kernel, then its bias, as MMTL in LAYER_SPECS order."""
    pairs = zip(weights.kernels, weights.biases)
    return b"".join(mmtl_encode(t) for pair in pairs for t in pair)


def posenet_weights_from_bytes(data: bytes) -> PoseNetWeights:
    tensors = []
    offset = 0
    for name, *_ in LAYER_SPECS:
        for part in ("kernel", "bias"):
            try:
                arr, offset = mmtl_decode_at(data, offset)
            except FormatError as exc:
                raise FormatError(f"{name} {part}: {exc}") from None
            # a signalling NaN warns in the cast; PoseNetWeights rejects it
            with np.errstate(invalid="ignore"):
                tensors.append(arr.astype(np.float64))
    if offset != len(data):
        raise FormatError("trailing bytes after weight tensors")
    try:  # shapes that disagree with LAYER_SPECS, or NaN and inf values
        return PoseNetWeights(tuple(tensors[0::2]), tuple(tensors[1::2]))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def save_posenet_weights(path: str | Path, weights: PoseNetWeights) -> None:
    write_file(path, (posenet_weights_bytes(weights),))


def load_posenet_weights(path: str | Path) -> PoseNetWeights:
    return posenet_weights_from_bytes(Path(path).read_bytes())
