"""A small convolutional encoder that turns rendered guidance frames
into latent-resolution feature maps.

Nine conv layers take an RGB guidance image down by a factor of 8
spatially and up to 320 channels, with SiLU activations between layers
(none after the last). The forward pass is plain float64 numpy and
keeps activations channels-last, (N, H, W, C), from the first layer to
the last. Each layer pads into a fresh zero-border buffer, gathers its
im2col matrix from one strided window view in (kh, kw, C) order, so
every copy moves contiguous channel runs, and runs one matmul whose
output is already the next layer's layout; bias and SiLU are applied
in place. Only the final output is transposed back to (N, C, H, W).
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


def conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
           stride: int, padding: int) -> np.ndarray:
    """2-D cross-correlation, channels last.

    x: (N, H, W, C), kernel: (O, C, k, k), bias: (O,) -> (N, OH, OW, O).
    """
    n, h, w, c = x.shape
    o, ck, kh, kw = kernel.shape
    if ck != c:
        raise ValueError(f"kernel expects {ck} input channels, got {c}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"input {h}x{w} too small for kernel {kh} stride {stride}")
    if padding:
        xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), x.dtype)
        xp[:, padding:padding + h, padding:padding + w] = x
        x = xp
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]  # (N, OH, OW, C, kh, kw)
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(n * oh * ow, kh * kw * c)
    out = cols @ kernel.transpose(0, 2, 3, 1).reshape(o, kh * kw * c).T
    out += bias
    return out.reshape(n, oh, ow, o)


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


def posenet_forward(x: np.ndarray, weights: PoseNetWeights) -> np.ndarray:
    """(N, 3, H, W) guidance images -> (N, 320, H/8, W/8) features."""
    if x.ndim != 4 or x.shape[1] != 3:
        raise ValueError(f"expected (N, 3, H, W), got {x.shape}")
    if x.shape[2] % 8 or x.shape[3] % 8:
        raise ValueError(f"spatial dims must be divisible by 8, got "
                         f"{x.shape[2]}x{x.shape[3]}")
    last = len(LAYER_SPECS) - 1
    x = x.transpose(0, 2, 3, 1)
    for i, (_name, _cin, _cout, _k, s, p) in enumerate(LAYER_SPECS):
        x = conv2d(x, weights.kernels[i], weights.biases[i], s, p)
        if i != last:
            silu(x, out=x)
    return x.transpose(0, 3, 1, 2)
