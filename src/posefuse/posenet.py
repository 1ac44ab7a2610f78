"""A small convolutional encoder that turns rendered guidance frames
into latent-resolution feature maps.

Nine conv layers take an RGB guidance image down by a factor of 8
spatially and up to 320 channels, with SiLU activations between layers
(none after the last). The forward pass is plain float64 numpy and
keeps activations channels-last, (N, H, W, C), each in the
zero-bordered buffer that the next layer reads.

Guidance is thin strokes on a black canvas, so a layer computes only
the windows that touch a drawn stroke. An input site is active when
any channel is not +0.0, tested on the bits, so -0.0, NaN and inf
count. An output site is active when its window covers an active
site; every other site holds the layer's background, silu(W.bg + b)
of the previous background (0 for the input). The +0.0 border counts
as background only while the background is +0.0. A layer gathers
im2col rows, in (kh, kw, C) order, from one strided window view by
fancy index, in blocks of a row count fixed per layer (about
_BLOCK_BYTES of rows): the active windows first, then inactive ones,
which hold nothing but background, to fill the last block. So the
background comes out of the same GEMM, and the arrays a sparse layer
allocates have sizes that do not depend on the input, only their
number does: the allocator's heap, and with it the process's peak
memory, does not change with where the strokes are. (Arrays sized to
the active count left the heap fragmented by a different amount for
each input.) When the blocks would hold as many rows as the layer has
windows, it takes the dense strided reshape copy instead. Bias and
SiLU are applied in place and the rows are scattered into the next
buffer, filled with the background beforehand. Only the final output
is transposed back to (N, C, H, W).

On OpenBLAS the bits of a GEMM row depend on the size of the call:
rows of a product with fewer than about 1200 output values differ in
the last bits from the same rows in a large call, and a one-row
product goes through gemv. A block therefore has at least
_MIN_GEMM_VALUES outputs, background rows included. Tests hold the
result bit-identical to a dense forward on rendered guidance at
128x192 and on small blob canvases, and within rtol 1e-10 / atol 1e-12
elsewhere: a dense forward on a tiny input makes small calls itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import stream_rng

# (name, in_ch, out_ch, kernel, stride, padding)
LAYER_SPECS: tuple[tuple[str, int, int, int, int, int], ...] = (
    ("conv_in", 3, 3, 3, 1, 1),
    ("down1", 3, 16, 4, 2, 1),
    ("mid1", 16, 16, 3, 1, 1),
    ("down2", 16, 32, 4, 2, 1),
    ("mid2", 32, 32, 3, 1, 1),
    ("down3", 32, 64, 4, 2, 1),
    ("mid3", 64, 64, 3, 1, 1),
    ("expand", 64, 128, 3, 1, 1),
    ("conv_out", 128, 320, 1, 1, 0),
)

# Fewest output values in a sparse layer's GEMM (see the module docstring)
_MIN_GEMM_VALUES = 2048
# Bytes of im2col rows in one GEMM of a sparse layer
_BLOCK_BYTES = 1 << 20


def silu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x * sigmoid(x), computed as x / (1 + exp(-x)) in one temporary.

    exp(-x) overflows to inf for x below about -709, which gives -0.0;
    ``out`` may be ``x`` itself.
    """
    t = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(t, out=t)
    t += 1.0
    return np.divide(x, t, out=t if out is None else out)


@dataclass(frozen=True)
class PoseNetWeights:
    """kernels[i] has shape (out, in, k, k); biases[i] has shape (out,)."""

    kernels: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.kernels) != len(LAYER_SPECS) or len(self.biases) != len(LAYER_SPECS):
            raise ValueError(f"expected {len(LAYER_SPECS)} layers")
        for (name, cin, cout, k, _s, _p), kern, bias in zip(
                LAYER_SPECS, self.kernels, self.biases):
            if kern.shape != (cout, cin, k, k):
                raise ValueError(f"{name}: kernel shape {kern.shape} != "
                                 f"{(cout, cin, k, k)}")
            if bias.shape != (cout,):
                raise ValueError(f"{name}: bias shape {bias.shape} != {(cout,)}")
            if not (np.isfinite(kern).all() and np.isfinite(bias).all()):
                raise ValueError(f"{name}: weights hold NaN or inf")


def posenet_param_count() -> int:
    return sum(cout * cin * k * k + cout for _n, cin, cout, k, _s, _p in LAYER_SPECS)


def init_posenet_weights(seed: int) -> PoseNetWeights:
    """He fan-in normal kernels, zero biases, from a dedicated seed stream."""
    rng = stream_rng(seed, 7)
    kernels = []
    biases = []
    for _name, cin, cout, k, _s, _p in LAYER_SPECS:
        fan_in = cin * k * k
        std = np.sqrt(2.0 / fan_in)
        kernels.append(rng.standard_normal((cout, cin, k, k)) * std)
        biases.append(np.zeros(cout))
    return PoseNetWeights(tuple(kernels), tuple(biases))


def posenet_output_shape(height: int, width: int) -> tuple[int, int, int]:
    """(channels, out_h, out_w) for an input of the given pixel size."""
    h, w = height, width
    for _name, _cin, cout, k, s, p in LAYER_SPECS:
        h = (h + 2 * p - k) // s + 1
        w = (w + 2 * p - k) // s + 1
        if h < 1 or w < 1:
            raise ValueError(f"input {height}x{width} collapses below 1x1")
        channels = cout
    return channels, h, w


def _covering_windows(mask: np.ndarray, k: int, s: int, oh: int,
                      ow: int) -> np.ndarray:
    """(N, OH, OW): whether each k x k, stride-s window of a (N, H, W)
    mask covers a True site, from k column-shifted ORs and k row-shifted
    ones."""
    span_h, span_w = s * (oh - 1) + 1, s * (ow - 1) + 1
    rows = mask[:, :, :span_w:s].copy()
    for dx in range(1, k):
        rows |= mask[:, :, dx:dx + span_w:s]
    out = rows[:, :span_h:s].copy()
    for dy in range(1, k):
        out |= rows[:, dy:dy + span_h:s]
    return out


def _conv_rows(cols: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
               act: bool) -> np.ndarray:
    """cols @ kernel + bias, then SiLU in place when act."""
    y = cols @ kernel
    y += bias
    if act:
        silu(y, out=y)
    return y


def posenet_forward(x: np.ndarray, weights: PoseNetWeights) -> np.ndarray:
    """(N, 3, H, W) guidance images -> (N, 320, H/8, W/8) features."""
    if x.ndim != 4 or x.shape[1] != 3:
        raise ValueError(f"expected (N, 3, H, W), got {x.shape}")
    if x.shape[2] % 8 or x.shape[3] % 8:
        raise ValueError(f"spatial dims must be divisible by 8, got "
                         f"{x.shape[2]}x{x.shape[3]}")
    x = np.asarray(x, dtype=np.float64)
    n, _c, h, w = x.shape
    bits = x.view(np.uint64)
    active = (bits[:, 0] | bits[:, 1] | bits[:, 2]) != 0
    p = LAYER_SPECS[0][5]
    buf = np.zeros((n, h + 2 * p, w + 2 * p, 3))
    buf[:, p:p + h, p:p + w] = x.transpose(0, 2, 3, 1)
    zero_background = True
    last = len(LAYER_SPECS) - 1
    for i, (_name, cin, cout, k, s, p) in enumerate(LAYER_SPECS):
        oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        # windows on the +0.0 border are active once the background is not
        mask = np.full(buf.shape[:3], not zero_background)
        mask[:, p:p + h, p:p + w] = active
        active = _covering_windows(mask, k, s, oh, ow)
        windows = np.lib.stride_tricks.sliding_window_view(
            buf, (k, k), axis=(1, 2))[:, ::s, ::s].transpose(0, 1, 2, 4, 5, 3)
        kernel = weights.kernels[i].transpose(0, 2, 3, 1).reshape(cout, -1).T
        bias, act = weights.biases[i], i != last
        q = LAYER_SPECS[i + 1][5] if act else 0
        rows = max(-(-_MIN_GEMM_VALUES // cout),
                   _BLOCK_BYTES // (8 * kernel.shape[0]))
        count = np.count_nonzero(active)
        blocks = count // rows + 1  # the last block ends on background
        if blocks * rows >= active.size:
            y = _conv_rows(windows.reshape(-1, kernel.shape[0]), kernel, bias,
                           act)
            if count < active.size:
                zero_background = not y[np.argmin(active)].view(np.uint64).any()
            # zeroed right before the copy, not before the GEMM: about
            # 0.3 ms less per layer on a dense 4-frame chunk
            buf = np.zeros((n, oh + 2 * q, ow + 2 * q, cout))
            buf[:, q:q + oh, q:q + ow] = y.reshape(n, oh, ow, cout)
            del y
        else:
            buf = np.zeros((n, oh + 2 * q, ow + 2 * q, cout))
            inner = buf[:, q:q + oh, q:q + ow]
            # active sites first, then inactive ones, whose windows hold
            # nothing but background; the last block goes first, so the
            # background is filled in before any active row is scattered.
            # argsort, not flatnonzero: an index array sized to the active
            # count shifted every later allocation and, for some inputs,
            # the heap's peak
            order = np.argsort(~active, axis=None, kind="stable")
            for b in reversed(range(blocks)):
                picked = np.unravel_index(order[b * rows:(b + 1) * rows],
                                          active.shape)
                y = _conv_rows(windows[picked].reshape(rows, -1), kernel,
                               bias, act)
                if b == blocks - 1:
                    zero_background = not y[-1].view(np.uint64).any()
                    if not zero_background:
                        inner[...] = y[-1]
                m = min(rows, count - b * rows)
                inner[tuple(a[:m] for a in picked)] = y[:m]
                # the next block reuses this one's memory
                del picked, y
            del order
        # free this layer's input and temporaries before the next layer
        # allocates its own, so the allocator can reuse their memory
        del windows
        h, w = oh, ow
    return buf.transpose(0, 3, 1, 2)
