"""Rasterize pose frames into guidance maps.

Two confidence modes: ``scaled`` multiplies every keypoint disc and limb
stroke by its confidence (limbs take the lower endpoint confidence), so
uncertain detections appear dimmer; ``threshold`` is the prior-practice
baseline that omits anything below a fixed cutoff and draws survivors at
full palette color. Overlapping strokes composite by per-channel max,
which is order-independent and keeps values in [0, 1]. No anti-aliasing:
a pixel is covered iff its center lies within the stroke.

Each frame is drawn in vectorised passes over batches of strokes: every
stroke's clipped bounding box is flattened into pixel lists, the disc or
capsule coverage test runs elementwise over all of them, and covered
pixels composite into the canvas with one ``np.maximum.at`` per batch.
The test is the same float expression a per-stroke loop evaluates, and
max is exact and order-free, so batching does not change a single
output bit. ``render_frame_u8`` draws the same strokes in quantized colors
straight into the uint8 image that ``render-pose`` writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pose import PoseFrame

REFERENCE_HEIGHT = 768  # style radii are given in pixels at this canvas height
CONFIDENCE_MODES = ("scaled", "threshold")
# The most elements posefuse allocates for one canvas (H * W * 3 for a
# guidance frame, H * W for a weight map) or one stack of segment
# latents (segments * frames * C * H * W): 2**26 float64 values, 512 MiB.
# Sizes are checked against it before anything is allocated, so an
# oversized request fails with ValueError instead of MemoryError.
MAX_ELEMENTS = 1 << 26


@dataclass(frozen=True)
class RenderStyle:
    keypoint_radius: float = 4.0
    limb_thickness: float = 4.0
    confidence_mode: str = "scaled"
    threshold: float = 0.3

    def __post_init__(self):
        if not all(1 <= v < np.inf  # NaN fails too
                   for v in (self.keypoint_radius, self.limb_thickness)):
            raise ValueError("keypoint_radius and limb_thickness must be "
                             "finite and >= 1 px")
        if self.confidence_mode not in CONFIDENCE_MODES:
            raise ValueError(f"unknown confidence_mode {self.confidence_mode!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")


@dataclass(frozen=True)
class GuidanceMap:
    width: int
    height: int
    data: np.ndarray = field(repr=False)  # (H, W, 3) floats in [0, 1]

    def __post_init__(self):
        if self.data.shape != (self.height, self.width, 3):
            raise ValueError("guidance data must be (H, W, 3)")
        if self.data.min() < 0.0 or self.data.max() > 1.0:
            raise ValueError("guidance values must lie in [0, 1]")
        self.data.setflags(write=False)


# Strokes rasterized per vectorised pass. Small batches keep the flat
# pixel lists (a few arrays over every pixel of every box in the batch)
# to a few megabytes at 576x1024.
_STROKE_BATCH = 32


def _box_bounds(lo: np.ndarray, hi: np.ndarray, size: int):
    """Integer [start, stop) pixel ranges covering [lo, hi], one pixel of
    margin on each side, clipped to [0, size].

    The float bounds are clipped before the int64 cast, so far-off-canvas
    and even infinite coordinates give empty ranges instead of overflow.
    """
    start = np.clip(np.floor(lo) - 1, 0, size).astype(np.int64)
    stop = np.clip(np.ceil(hi) + 1, 0, size).astype(np.int64)
    return start, stop


def _box_pixels(x0, x1, y0, y1):
    """Every pixel of every stroke's box, stroke by stroke, row by row.

    Returns the per-stroke pixel counts (``np.repeat`` by them spreads a
    per-stroke value over its pixels) and the flat x and y lists.
    """
    nx = np.maximum(x1 - x0, 0)
    ny = np.where(nx > 0, np.maximum(y1 - y0, 0), 0)
    rows = np.arange(ny.sum()) + np.repeat(y0 - (np.cumsum(ny) - ny), ny)
    row_nx = np.repeat(nx, ny)
    row_x0 = np.repeat(x0, ny) - (np.cumsum(row_nx) - row_nx)
    xs = np.arange(row_nx.sum()) + np.repeat(row_x0, row_nx)
    return nx * ny, xs, np.repeat(rows, row_nx)


def _composite(canvas: np.ndarray, width: int, count, xs, ys, mask,
               values: np.ndarray) -> None:
    """canvas[y, x, :] = max(canvas[y, x, :], value) over masked pixels,
    with ``canvas`` the flat (H*W*3) image; ``np.maximum.at`` is
    unbuffered, so pixels covered by several strokes keep the largest."""
    flat = (ys[mask] * width + xs[mask]) * 3
    idx = (flat[:, None] + np.arange(3)).ravel()
    stroke = np.repeat(np.arange(len(count)), count)[mask]
    np.maximum.at(canvas, idx, values[stroke].ravel())


def _paint_discs(canvas, width, height, cx, cy, r, values) -> None:
    for s in range(0, len(cx), _STROKE_BATCH):
        b = slice(s, s + _STROKE_BATCH)
        x0, x1 = _box_bounds(cx[b] - r[b], cx[b] + r[b], width)
        y0, y1 = _box_bounds(cy[b] - r[b], cy[b] + r[b], height)
        count, xs, ys = _box_pixels(x0, x1, y0, y1)
        rr = np.repeat(r[b] * r[b], count)
        mask = ((xs + 0.5 - np.repeat(cx[b], count)) ** 2
                + (ys + 0.5 - np.repeat(cy[b], count)) ** 2 <= rr)
        _composite(canvas, width, count, xs, ys, mask, values[b])


def _paint_capsules(canvas, width, height, ax, ay, bx, by, half,
                    values) -> None:
    for s in range(0, len(ax), _STROKE_BATCH):
        b = slice(s, s + _STROKE_BATCH)
        x0, x1 = _box_bounds(np.minimum(ax[b], bx[b]) - half,
                             np.maximum(ax[b], bx[b]) + half, width)
        y0, y1 = _box_bounds(np.minimum(ay[b], by[b]) - half,
                             np.maximum(ay[b], by[b]) + half, height)
        count, xs, ys = _box_pixels(x0, x1, y0, y1)
        sdx, sdy = bx[b] - ax[b], by[b] - ay[b]
        seg2 = np.repeat(sdx * sdx + sdy * sdy, count)
        dx, dy = np.repeat(sdx, count), np.repeat(sdy, count)
        px = xs + 0.5 - np.repeat(ax[b], count)
        py = ys + 0.5 - np.repeat(ay[b], count)
        t = np.clip((px * dx + py * dy) / seg2, 0.0, 1.0)
        d2 = (px - t * dx) ** 2 + (py - t * dy) ** 2
        _composite(canvas, width, count, xs, ys, d2 <= half * half,
                   values[b])


def _drawn(conf: np.ndarray, colors: np.ndarray, style: RenderStyle):
    """Which strokes are drawn, and the colors they are drawn in."""
    if style.confidence_mode == "threshold":
        keep = conf >= style.threshold
        return keep, colors[keep]
    keep = conf != 0.0
    return keep, colors[keep] * conf[keep, None]


def _rasterize(frame: PoseFrame, style: RenderStyle, width: int, height: int,
               color=lambda values: values) -> np.ndarray:
    """Draw one frame on a black canvas of the dtype ``color`` maps to."""
    if width < 8 or height < 8:
        raise ValueError("canvas must be at least 8x8 pixels")
    if height * width * 3 > MAX_ELEMENTS:
        raise ValueError(f"canvas {width}x{height} exceeds {MAX_ELEMENTS} "
                         f"elements")
    scale = height / REFERENCE_HEIGHT
    radius = max(1.0, style.keypoint_radius * scale)
    half = max(1.0, style.limb_thickness * scale) / 2.0

    layout = frame.layout
    conf = frame.conf
    a, b = np.array([(i, j) for i, j, _group in layout.edges],
                    dtype=np.intp).reshape(-1, 2).T
    # a limb takes the lower endpoint confidence
    limb_keep, limb_values = _drawn(np.minimum(conf[a], conf[b]),
                                    layout.edge_colors, style)
    kp_keep, kp_values = _drawn(conf, layout.keypoint_colors, style)
    limb_values, kp_values = color(limb_values), color(kp_values)
    a, b = a[limb_keep], b[limb_keep]

    canvas = np.zeros(height * width * 3, dtype=kp_values.dtype)
    # Far-off-canvas keypoints are valid input. Their squared lengths
    # may overflow to inf (and a test to NaN, which covers nothing)
    # exactly as in a per-stroke loop; the warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        px = frame.x * width
        py = frame.y * height
        dx, dy = px[b] - px[a], py[b] - py[a]
        # a limb of zero length is a disc of radius ``half`` at its start
        dot = dx * dx + dy * dy == 0.0
        line = ~dot
        _paint_capsules(canvas, width, height, px[a[line]], py[a[line]],
                        px[b[line]], py[b[line]], half, limb_values[line])
        _paint_discs(canvas, width, height,
                     np.concatenate([px[a[dot]], px[kp_keep]]),
                     np.concatenate([py[a[dot]], py[kp_keep]]),
                     np.concatenate([np.full(dot.sum(), half),
                                     np.full(kp_keep.sum(), radius)]),
                     np.concatenate([limb_values[dot], kp_values]))
    return canvas.reshape(height, width, 3)


def render_frame(frame: PoseFrame, style: RenderStyle, width: int,
                 height: int) -> GuidanceMap:
    """Draw one pose frame onto a black canvas of the given size."""
    return GuidanceMap(width, height, _rasterize(frame, style, width, height))


def render_frame_u8(frame: PoseFrame, style: RenderStyle, width: int,
                    height: int) -> np.ndarray:
    """``render_frame``'s values quantized as q(v) = clip(rint(255 v), 0,
    255), in a read-only (H, W, 3) uint8 image drawn without a float canvas.

    Only the stroke colors are quantized. As q never decreases as v grows
    and q(0) = 0, a pixel's q(max(0, v_1, ..., v_n)) over the finite
    stroke values covering it is max(0, q(v_1), ..., q(v_n)).
    """
    image = _rasterize(frame, style, width, height, lambda v: np.clip(
        np.rint(v * 255.0), 0, 255).astype(np.uint8))
    image.setflags(write=False)
    return image
