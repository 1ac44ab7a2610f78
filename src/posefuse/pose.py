"""Keypoint pose sequences: data model, parsing, retargeting.

The interchange file is a UTF-8 JSON document::

    {"layout": "coco_wholebody_133", "width": 576, "height": 1024,
     "fps": 24.0,
     "frames": [{"keypoints": [[x, y, conf], ...]}, ...]}

Keypoint coordinates in the file are source-pixel values; in memory they
are stored normalized by the declared width/height. Confidences are
clamped to [0, 1] on load (clamps are counted); coordinates are kept
as-is so off-canvas keypoints survive and render partially.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .skeleton import SkeletonLayout, get_layout

log = logging.getLogger(__name__)


class PoseParseError(ValueError):
    """The pose interchange document is malformed or inconsistent."""


@dataclass(frozen=True)
class PoseFrame:
    """One frame of keypoints in a fixed layout.

    ``data`` is a read-only (K, 3) float64 array with columns
    (x, y, conf); x and y are normalized by the source canvas.
    """

    data: np.ndarray
    layout: SkeletonLayout

    def __post_init__(self):
        if self.data.shape != (self.layout.keypoint_count, 3):
            raise PoseParseError(
                f"keypoint count mismatch: layout {self.layout.name!r} expects "
                f"{self.layout.keypoint_count}, frame has {self.data.shape[0]}")
        self.data.setflags(write=False)

    @property
    def x(self) -> np.ndarray:
        return self.data[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.data[:, 1]

    @property
    def conf(self) -> np.ndarray:
        return self.data[:, 2]

    def off_canvas_mask(self) -> np.ndarray:
        """True where a keypoint lies outside the unit canvas."""
        return (self.x < 0) | (self.x > 1) | (self.y < 0) | (self.y > 1)


@dataclass(frozen=True)
class PoseSequence:
    frames: tuple[PoseFrame, ...]
    source_width: int
    source_height: int
    fps: float | None = None
    conf_clamp_count: int = 0

    def __post_init__(self):
        if not self.frames:
            raise PoseParseError("pose sequence must contain at least one frame")

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def layout(self) -> SkeletonLayout:
        return self.frames[0].layout

    def off_canvas_count(self) -> int:
        return int(sum(f.off_canvas_mask().sum() for f in self.frames))


def _finite_number(value, integer: bool) -> float | None:
    """A JSON number's finite float value, or None for anything else.

    Booleans and strings are not numbers here, and neither is an integer
    too large for a float.
    """
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def parse_pose_sequence(data: bytes | str) -> PoseSequence:
    """Parse the keypoint interchange document into a PoseSequence."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        doc = json.loads(data)
    except (ValueError, RecursionError) as e:
        raise PoseParseError(f"malformed pose document: {e}") from None
    if not isinstance(doc, dict):
        raise PoseParseError("malformed pose document: top level must be an object")
    for key in ("layout", "width", "height", "frames"):
        if key not in doc:
            raise PoseParseError(f"malformed pose document: missing field {key!r}")
    if not isinstance(doc["layout"], str):
        raise PoseParseError("layout must be a string")
    layout = get_layout(doc["layout"])
    width, height = doc["width"], doc["height"]
    if (_finite_number(width, integer=True) is None
            or _finite_number(height, integer=True) is None):
        raise PoseParseError("width and height must be integers")
    if width <= 0 or height <= 0:
        raise PoseParseError(f"negative or zero dimensions: {width}x{height}")
    raw_frames = doc["frames"]
    if not isinstance(raw_frames, list) or not raw_frames:
        raise PoseParseError("frames must be a nonempty array")

    clamps = 0
    frames = []
    for fi, rf in enumerate(raw_frames):
        try:
            rows = rf["keypoints"]
            # numpy would cast "1" and true to 1.0; type(True) is not int
            numbers = set(map(type, chain.from_iterable(rows))) <= {int, float}
            kps = np.array(rows, dtype=np.float64) if numbers else None
        except (TypeError, KeyError, ValueError):
            raise PoseParseError(f"frame {fi}: keypoints must be [x, y, conf] triples") from None
        except OverflowError:  # an integer beyond float range
            kps = None
        if kps is None:
            raise PoseParseError(f"frame {fi}: keypoints must be numbers")
        if kps.ndim != 2 or kps.shape[1] != 3:
            raise PoseParseError(f"frame {fi}: keypoints must be [x, y, conf] triples")
        if kps.shape[0] != layout.keypoint_count:
            raise PoseParseError(
                f"keypoint count mismatch: layout {layout.name!r} expects "
                f"{layout.keypoint_count}, frame {fi} has {kps.shape[0]}")
        if not np.all(np.isfinite(kps)):
            raise PoseParseError(f"frame {fi}: non-finite keypoint values")
        kps[:, 0] /= width
        kps[:, 1] /= height
        conf = kps[:, 2]
        out_of_range = (conf < 0) | (conf > 1)
        clamps += int(out_of_range.sum())
        np.clip(conf, 0.0, 1.0, out=conf)
        frames.append(PoseFrame(kps, layout))

    fps = doc.get("fps")
    if fps is not None:
        value = _finite_number(fps, integer=False)
        if value is None or value <= 0:
            raise PoseParseError(f"fps must be a finite positive number, "
                                 f"got {fps!r}")
        fps = value
    return PoseSequence(tuple(frames), width, height, fps, clamps)


def retarget_limb_lengths(template: PoseSequence, reference: PoseFrame,
                          conf_floor: float = 0.3) -> PoseSequence:
    """Rescale every bone of the template to the reference's limb lengths.

    Bone ratios are measured between the reference frame and the
    template's first frame, then applied to every frame by walking the
    layout's bone tree from the root: each bone keeps its per-frame
    direction, its length is multiplied by the fixed ratio, and the root
    keypoint stays put. Reference bones with any endpoint confidence
    below ``conf_floor`` keep the template length, as do bones that are
    degenerate (zero length) in the template's first frame.
    """
    layout = template.layout
    if reference.layout.name != layout.name:
        raise PoseParseError("template and reference must share a skeleton layout")

    base = template.frames[0]
    parents = layout.bone_tree
    k = layout.keypoint_count
    ratios = np.ones(k)
    for child in range(k):
        p = parents[child]
        if p < 0:
            continue
        if reference.conf[child] < conf_floor or reference.conf[p] < conf_floor:
            continue
        ref_len = math.hypot(reference.x[child] - reference.x[p],
                             reference.y[child] - reference.y[p])
        tmpl_len = math.hypot(base.x[child] - base.x[p],
                              base.y[child] - base.y[p])
        if tmpl_len == 0.0:
            if ref_len > 0.0:
                log.warning("retarget: template bone %d->%d has zero length but "
                            "reference length %.6g; leaving bone unscaled",
                            p, child, ref_len)
            continue
        ratios[child] = ref_len / tmpl_len

    # every parent index is below its child's (see SkeletonLayout), so one
    # pass in index order moves all frames at once
    old = np.stack([frame.data for frame in template.frames])
    new = old.copy()
    for child, p in enumerate(parents):
        if p >= 0:
            bone = old[:, child, :2] - old[:, p, :2]
            new[:, child, :2] = new[:, p, :2] + bone * ratios[child]
    return replace(template, frames=tuple(PoseFrame(d, layout) for d in new))
