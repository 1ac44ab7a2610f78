"""Rasterize pose frames into guidance maps.

Two confidence modes: ``scaled`` multiplies every keypoint disc and limb
stroke by its confidence (limbs take the lower endpoint confidence), so
uncertain detections appear dimmer; ``threshold`` is the prior-practice
baseline that omits anything below a fixed cutoff and draws survivors at
full palette color. Overlapping strokes composite by per-channel max,
which is order-independent and keeps values in [0, 1]. No anti-aliasing:
a pixel is covered iff its center lies within the stroke.

Each frame is drawn in vectorised passes over row spans, discs and
capsules apart. Every row of a stroke's clipped bounding box gets the
x-interval its pixel centres can be covered in: the chord of a disc, or
the row's cut through the strip of width 2 * half around a limb's line,
widened by a small margin. A row keeps its whole box width where that
bound cannot be trusted (a horizontal limb, a strip as wide as the box,
or coordinates far from the canvas). The coverage test then runs only
on the span pixels, in passes cut by a fixed budget of candidate pixels
rather than by stroke count, so temporaries stay small whatever the
radius, and covered pixels composite into the canvas with
``np.maximum.at``. The test is the same float expression a per-stroke
loop evaluates over the whole box, and max is exact and order-free, so
neither trimming nor passes change a single output bit.
``render_frame_u8`` draws the same strokes in quantized colors straight
into the uint8 image that ``render-pose`` writes.
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


# Candidate pixels tested per pass. A pass holds about a dozen arrays of
# this length (under 2 MB in all), whatever the stroke sizes. Larger
# passes were slower at 576x1024 under glibc's default malloc settings:
# from 2**15 on, freeing a pass's temporaries handed their pages back to
# the kernel, and each frame faulted about 1300 of them in again.
_PASS_PIXELS = 1 << 14

# A row span is trimmed only where the stroke's coordinates and radius
# all lie within _TRIM_LIMIT px of the origin. There the float rounding
# of a span bound stays a few hundredths of a pixel, inside the
# _SPAN_MARGIN the span is widened by, so every pixel centre the
# coverage test accepts is still a candidate. Elsewhere a row falls back
# to its whole box row.
_TRIM_LIMIT = 2.0 ** 20
_SPAN_MARGIN = 0.25


def _box_bounds(lo: np.ndarray, hi: np.ndarray, size: int):
    """Integer [start, stop) pixel ranges covering [lo, hi], one pixel of
    margin on each side, clipped to [0, size].

    The float bounds are clipped before the int64 cast, so far-off-canvas
    and even infinite coordinates give empty ranges instead of overflow.
    """
    start = np.clip(np.floor(lo) - 1, 0, size).astype(np.int64)
    stop = np.clip(np.ceil(hi) + 1, 0, size).astype(np.int64)
    return start, stop


def _box_rows(x0, x1, y0, y1):
    """The stroke index and y of every row of every stroke's box."""
    ny = np.where(x1 > x0, np.maximum(y1 - y0, 0), 0)
    stroke = np.repeat(np.arange(len(ny)), ny)
    ys = np.arange(len(stroke)) + np.repeat(y0 - (np.cumsum(ny) - ny), ny)
    return stroke, ys


def _span(lo, hi, x0, x1):
    """[start, stop) of the box-row pixels [x0, x1) whose centres lie in
    [lo - _SPAN_MARGIN, hi + _SPAN_MARGIN]. Bounds -inf and inf give the
    whole box row, inf and -inf an empty one."""
    start = np.clip(np.ceil(lo - (0.5 + _SPAN_MARGIN)), x0, x1)
    stop = np.clip(np.floor(hi - (0.5 - _SPAN_MARGIN)) + 1, x0, x1)
    return start.astype(np.int64), stop.astype(np.int64)


def _trusted(*coords) -> np.ndarray:
    """Strokes whose every coordinate lies within _TRIM_LIMIT px (NaN and
    infinity fail)."""
    return np.logical_and.reduce(np.abs(np.broadcast_arrays(*coords))
                                 <= _TRIM_LIMIT)


def _composite(canvas: np.ndarray, width: int, xs, ys, stroke, mask,
               values: np.ndarray) -> None:
    """canvas[y, x, :] = max(canvas[y, x, :], values[stroke]) over the
    candidate pixels ``mask`` keeps, with ``canvas`` the flat (H*W*3)
    image; ``np.maximum.at`` is unbuffered, so pixels covered by several
    strokes keep the largest."""
    pixel = (ys * width + xs)[mask]
    stroke = stroke[mask]
    for c in range(3):
        np.maximum.at(canvas[c::3], pixel, values[stroke, c])


def _paint_spans(canvas, width, ys, x0, x1, stroke, values, covers) -> None:
    """Composite the pixels of row spans that ``covers`` accepts.

    Row k spans pixels [x0[k], x1[k]) of row ``ys[k]`` and belongs to
    stroke ``stroke[k]``. The rows are cut into passes of about
    _PASS_PIXELS candidates; ``covers(rows, xs)`` gets a pass's candidate
    x and ``rows``, which spreads a per-row array over its candidates.
    A pass holds at least one row, so a row longer than the budget is
    a pass of its own.
    """
    count = np.maximum(x1 - x0, 0)
    ends = np.cumsum(count)
    first = ends - count  # each row's first candidate in the whole list
    shift = x0 - first
    total = ends[-1] if len(ends) else 0
    cuts = np.searchsorted(ends, np.arange(0, total, _PASS_PIXELS),
                           side="right")
    # a row longer than the budget holds several cut points; drop the
    # repeats, which would give passes of no rows (np.unique would do,
    # but its first call costs 1.6 MB of resident memory)
    cuts = cuts[np.diff(cuts, prepend=-1) > 0]
    for r0, r1 in zip(cuts, np.append(cuts[1:], len(count))):
        def rows(per_row):
            return np.repeat(per_row[r0:r1], count[r0:r1])

        xs = np.arange(first[r0], ends[r1 - 1]) + rows(shift)
        _composite(canvas, width, xs, rows(ys), rows(stroke),
                   covers(rows, xs), values)


def _paint_discs(canvas, width, height, cx, cy, r, values) -> None:
    x0, x1 = _box_bounds(cx - r, cx + r, width)
    y0, y1 = _box_bounds(cy - r, cy + r, height)
    s, ys = _box_rows(x0, x1, y0, y1)
    trim = _trusted(cx, cy, r)[s]
    cx, rr = cx[s], (r * r)[s]
    dy2 = (ys + 0.5 - cy[s]) ** 2
    chord = np.where(trim, np.sqrt(np.maximum(rr - dy2, 0.0)), np.inf)
    # A row whose dy2 alone exceeds rr covers nothing (the test adds a
    # square to it, and rounding never takes a float sum below an
    # addend); a chord of -inf gives it an empty span.
    chord[dy2 > rr] = -np.inf
    sx0, sx1 = _span(cx - chord, cx + chord, x0[s], x1[s])
    _paint_spans(canvas, width, ys, sx0, sx1, s, values, lambda rows, xs: (
        (xs + 0.5 - rows(cx)) ** 2 + rows(dy2) <= rows(rr)))


def _paint_capsules(canvas, width, height, ax, ay, bx, by, half,
                    values) -> None:
    x0, x1 = _box_bounds(np.minimum(ax, bx) - half, np.maximum(ax, bx) + half,
                         width)
    y0, y1 = _box_bounds(np.minimum(ay, by) - half, np.maximum(ay, by) + half,
                         height)
    s, ys = _box_rows(x0, x1, y0, y1)
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    # Covered pixel centres lie in the strip |px dy - py dx| <= half L
    # around the limb's line: in row y, x within w = half L / |dy| of
    # ax + py dx / dy. A horizontal limb, or one whose strip is at least
    # as wide as its box, takes whole box rows.
    slanted = dy != 0.0
    slope = np.divide(dx, dy, out=np.zeros_like(dx), where=slanted)
    w = np.divide(half * np.sqrt(seg2), np.abs(dy),
                  out=np.full_like(dx, np.inf), where=slanted)
    trim = (_trusted(ax, ay, bx, by, half) & (w < x1 - x0))[s]
    ax, dx, dy, seg2, w = ax[s], dx[s], dy[s], seg2[s], w[s]
    py = ys + 0.5 - ay[s]
    pydy = py * dy
    mid = ax + py * slope[s]
    sx0, sx1 = _span(np.where(trim, mid - w, -np.inf),
                     np.where(trim, mid + w, np.inf), x0[s], x1[s])

    def covers(rows, xs):
        px = xs + 0.5 - rows(ax)
        pdx, pdy, ppy = rows(dx), rows(dy), rows(py)
        t = np.clip((px * pdx + rows(pydy)) / rows(seg2), 0.0, 1.0)
        d2 = (px - t * pdx) ** 2 + (ppy - t * pdy) ** 2
        return d2 <= half * half

    _paint_spans(canvas, width, ys, sx0, sx1, s, values, covers)


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
    a, b = np.array(layout.edges, dtype=np.intp).reshape(-1, 2).T
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
