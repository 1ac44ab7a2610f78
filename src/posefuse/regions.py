"""Confidence-gated hand regions and per-pixel loss weight maps.

A hand counts as reliable only when every one of its 21 keypoints has
confidence strictly above the threshold. Reliable hands get a padded
bounding box whose pixels carry an amplified loss weight; everything
else stays at weight 1. Overlapping hand boxes form a union, never a
product. ``hand_boxes`` applies this rule and returns the boxes, which
``build_weight_map`` paints into a float64 map and ``weight-map`` paints
straight into its float32 export and uint8 preview.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pose import PoseFrame
from .render import MAX_ELEMENTS

MIN_PAD_PX = 4
DEGENERATE_BOX_PX = 8
LATENT_DOWNSAMPLE = 8


@dataclass(frozen=True)
class LossWeightMap:
    width: int
    height: int
    data: np.ndarray = field(repr=False)  # (H, W) floats

    def __post_init__(self):
        if self.data.shape != (self.height, self.width):
            raise ValueError("weight data must be (H, W)")
        if not self.data.min() >= 1.0:  # NaN fails this test too
            raise ValueError("loss weights must be >= 1")
        self.data.setflags(write=False)


def hand_reliability(frame: PoseFrame, side: str, tau_hand: float) -> bool:
    """True iff every keypoint of the given hand has confidence > tau_hand."""
    idxs = frame.layout.hand_indices(side)
    return bool(np.all(frame.conf[list(idxs)] > tau_hand))


def hand_bbox(frame: PoseFrame, side: str, pad_frac: float, width: int,
              height: int) -> tuple[int, int, int, int]:
    """Padded integer pixel bbox of the hand keypoints, clipped to canvas.

    Padding on every edge is max(4 px, pad_frac * larger bbox side). If
    all keypoints coincide, an 8x8 box centered on the point is used.
    """
    idxs = list(frame.layout.hand_indices(side))
    with np.errstate(over="ignore"):  # a far keypoint scales to inf
        xs = frame.x[idxs] * width
        ys = frame.y[idxs] * height
    min_x, max_x = float(xs.min()), float(xs.max())
    min_y, max_y = float(ys.min()), float(ys.max())
    degenerate = min_x == max_x and min_y == max_y
    pad = 0.0 if degenerate else max(
        float(MIN_PAD_PX), pad_frac * max(max_x - min_x, max_y - min_y))
    box = (min_x - pad, min_y - pad, max_x + pad, max_y + pad)
    if not all(map(math.isfinite, box)):
        raise ValueError(f"hand box {box} is not finite")

    if degenerate:
        half = DEGENERATE_BOX_PX // 2
        x0 = int(round(min_x)) - half
        y0 = int(round(min_y)) - half
        x1, y1 = x0 + DEGENERATE_BOX_PX, y0 + DEGENERATE_BOX_PX
    else:
        x0, y0 = math.floor(box[0]), math.floor(box[1])
        x1, y1 = math.ceil(box[2]), math.ceil(box[3])

    x0, y0 = max(0, x0), max(0, y0)
    x1, y1 = min(width, x1), min(height, y1)
    return (x0, y0, max(x0, x1), max(y0, y1))


def hand_boxes(frame: PoseFrame, tau_hand: float, pad_frac: float,
               w_hand: float, width: int, height: int
               ) -> tuple[tuple[int, int, int, int], ...]:
    """The reliable hands' clipped boxes, left before right.

    Validates the weight-map settings first, so every weight map built
    from these boxes refuses the same inputs with the same messages.
    Each box is half-open with x1 >= x0 and y1 >= y0, and may be empty.
    """
    if not 1.0 <= w_hand < math.inf:
        raise ValueError(f"w_hand must be a finite number >= 1, got {w_hand}")
    if not 0.0 <= tau_hand <= 1.0:
        raise ValueError(f"tau_hand must lie in [0, 1], got {tau_hand}")
    if not 0.0 <= pad_frac < math.inf:
        raise ValueError(f"pad_frac must be a finite number >= 0, got "
                         f"{pad_frac}")
    if height * width > MAX_ELEMENTS:
        raise ValueError(f"weight map {width}x{height} exceeds {MAX_ELEMENTS} "
                         f"elements")
    return tuple(hand_bbox(frame, side, pad_frac, width, height)
                 for side in ("left", "right")
                 if hand_reliability(frame, side, tau_hand))


def build_weight_map(frame: PoseFrame, tau_hand: float, pad_frac: float,
                     w_hand: float, width: int, height: int) -> LossWeightMap:
    """Per-pixel loss weights: w_hand inside reliable hand boxes, 1 elsewhere."""
    boxes = hand_boxes(frame, tau_hand, pad_frac, w_hand, width, height)
    data = np.ones((height, width))
    for x0, y0, x1, y1 in boxes:  # an empty box is a no-op
        data[y0:y1, x0:x1] = w_hand
    return LossWeightMap(width, height, data)


def downsample_weight_map(wm: LossWeightMap,
                          factor: int = LATENT_DOWNSAMPLE) -> LossWeightMap:
    """Reduce to latent resolution by max over factor x factor pixel blocks.

    Partial edge blocks take the max of the pixels they hold, which is
    what padding them with weight 1 would give, since every weight is
    >= 1; nothing larger than the map is allocated, whatever the factor.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    h, w = wm.data.shape
    data = np.maximum.reduceat(np.asarray(wm.data, dtype=np.float64),
                               np.arange(0, h, factor), axis=0)
    data = np.maximum.reduceat(data, np.arange(0, w, factor), axis=1)
    return LossWeightMap(data.shape[1], data.shape[0], data)
