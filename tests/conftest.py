"""Shared test fixtures: a synthetic person pose and numeric oracles.

The person builder places all 133 keypoints of the whole-body layout in
plausible normalized positions (upright figure, hands below the wrists,
face landmarks on a circle) so rendering, hand boxes, and retargeting
tests work on realistic geometry instead of random scatter.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from posefuse.diffusion import AffineParams, affine_batch_loss
from posefuse.io_formats import mmtl_decode_at
from posefuse.pose import PoseFrame, PoseSequence, parse_pose_sequence
from posefuse.skeleton import WHOLEBODY_133


def person_keypoints(conf: float = 0.9) -> np.ndarray:
    """(133, 3) array of normalized (x, y, conf) for an upright figure."""
    kp = np.zeros((133, 3))
    body = {
        0: (0.500, 0.180), 1: (0.520, 0.165), 2: (0.480, 0.165),
        3: (0.545, 0.175), 4: (0.455, 0.175),
        5: (0.585, 0.300), 6: (0.415, 0.300),
        7: (0.620, 0.420), 8: (0.380, 0.420),
        9: (0.640, 0.520), 10: (0.360, 0.520),
        11: (0.555, 0.550), 12: (0.445, 0.550),
        13: (0.560, 0.720), 14: (0.440, 0.720),
        15: (0.555, 0.880), 16: (0.445, 0.880),
    }
    for i, (x, y) in body.items():
        kp[i, :2] = (x, y)
    feet = {
        17: (0.570, 0.920), 18: (0.545, 0.925), 19: (0.575, 0.910),
        20: (0.430, 0.920), 21: (0.455, 0.925), 22: (0.425, 0.910),
    }
    for i, (x, y) in feet.items():
        kp[i, :2] = (x, y)
    for j in range(68):
        ang = 2.0 * math.pi * j / 68
        kp[23 + j, 0] = 0.500 + 0.035 * math.cos(ang)
        kp[23 + j, 1] = 0.170 + 0.030 * math.sin(ang)
    for root, (wx, wy), direction in ((91, body[9], 1.0), (112, body[10], -1.0)):
        kp[root, :2] = (wx + direction * 0.005, wy + 0.015)
        for finger in range(5):
            ang = math.pi / 2 + direction * (finger - 2) * 0.35
            for joint in range(4):
                r = 0.010 * (joint + 1)
                idx = root + 1 + 4 * finger + joint
                kp[idx, 0] = kp[root, 0] + r * math.cos(ang) * direction * 0.6
                kp[idx, 1] = kp[root, 1] + r * math.sin(ang)
    kp[:, 2] = conf
    return kp


def norm_frame(kp: np.ndarray) -> PoseFrame:
    return PoseFrame(np.asarray(kp, dtype=np.float64).copy(), WHOLEBODY_133)


def pose_doc(frames_norm: list[np.ndarray], width: int = 576,
             height: int = 1024, fps: float | None = None) -> bytes:
    """Interchange document bytes from normalized keypoint arrays."""
    frames = []
    for kp in frames_norm:
        px = np.asarray(kp, dtype=np.float64).copy()
        px[:, 0] *= width
        px[:, 1] *= height
        frames.append({"keypoints": px.tolist()})
    doc = {"layout": "coco_wholebody_133", "width": width, "height": height,
           "frames": frames}
    if fps is not None:
        doc["fps"] = fps
    return json.dumps(doc).encode()


def person_sequence(n_frames: int = 3, width: int = 576,
                    height: int = 1024) -> PoseSequence:
    frames = []
    for f in range(n_frames):
        kp = person_keypoints()
        kp[:, 0] += 0.01 * f  # slight drift so frames differ
        frames.append(kp)
    return parse_pose_sequence(pose_doc(frames, width, height))


@pytest.fixture
def person_frame() -> PoseFrame:
    return norm_frame(person_keypoints())


@pytest.fixture
def person_seq() -> PoseSequence:
    return person_sequence()


def read_raster(data: bytes, height: int, width: int,
                channels: int = 3) -> np.ndarray:
    """Pixels of a canonical binary PPM (3 channels) or PGM (1) raster."""
    header = f"P{6 if channels == 3 else 5}\n{width} {height}\n255\n".encode()
    assert data[:len(header)] == header
    assert len(data) == len(header) + height * width * channels
    shape = (height, width, channels) if channels == 3 else (height, width)
    return np.frombuffer(data, np.uint8, offset=len(header)).reshape(shape)


def read_mmtl(blob: bytes) -> np.ndarray:
    """The one MMTL tensor that makes up the whole of blob."""
    arr, end = mmtl_decode_at(blob)
    assert end == len(blob)
    return arr


# ---- numeric oracles -------------------------------------------------

def affine_wls_optimum(samples, w: np.ndarray) -> AffineParams:
    """Exact minimizer of the batch weighted eps-loss, by normal equations.

    Independent of the library's gradient code: pools the 2x2 system
    sum(w x^2) a + sum(w x) b = sum(w x e), sum(w x) a + sum(w) b =
    sum(w e) per channel over all samples and pixels.
    """
    channels = samples[0][0].shape[1]
    a = np.zeros(channels)
    b = np.zeros(channels)
    for c in range(channels):
        sxx = sx = sw = sxe = se = 0.0
        for x_t, eps, _t in samples:
            xc, ec = x_t[:, c], eps[:, c]
            wb = np.broadcast_to(w, xc.shape)
            sxx += float((wb * xc * xc).sum())
            sx += float((wb * xc).sum())
            sw += float(wb.sum())
            sxe += float((wb * xc * ec).sum())
            se += float((wb * ec).sum())
        a[c], b[c] = np.linalg.solve(np.array([[sxx, sx], [sx, sw]]),
                                     np.array([sxe, se]))
    return AffineParams(a, b)


def finite_difference_grad(params: AffineParams, samples, w,
                           h: float = 1e-5) -> tuple[np.ndarray, np.ndarray]:
    """Central finite differences of the batch loss wrt (a, b)."""
    ga = np.zeros_like(params.a)
    gb = np.zeros_like(params.b)
    for c in range(len(params.a)):
        for vec, out in ((params.a, ga), (params.b, gb)):
            up, dn = vec.copy(), vec.copy()
            up[c] += h
            dn[c] -= h
            if vec is params.a:
                lp = affine_batch_loss(AffineParams(up, params.b), samples, w)
                lm = affine_batch_loss(AffineParams(dn, params.b), samples, w)
            else:
                lp = affine_batch_loss(AffineParams(params.a, up), samples, w)
                lm = affine_batch_loss(AffineParams(params.a, dn), samples, w)
            out[c] = (lp - lm) / (2.0 * h)
    return ga, gb


def naive_conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                 stride: int, padding: int) -> np.ndarray:
    """Quadruple-loop cross-correlation, the slow reference."""
    n, c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, o, oh, ow))
    for ni in range(n):
        for oi in range(o):
            for yi in range(oh):
                for xi in range(ow):
                    patch = xp[ni, :, yi * stride:yi * stride + kh,
                               xi * stride:xi * stride + kw]
                    out[ni, oi, yi, xi] = (patch * kernel[oi]).sum() + bias[oi]
    return out
