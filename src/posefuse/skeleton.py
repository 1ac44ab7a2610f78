"""Skeleton layout data: keypoint groups, limb edges, bone tree, colors.

The default layout is the 133-keypoint whole-body convention used by
common whole-body pose estimators: 17 body joints, 6 foot points,
68 face landmarks, and 21 points per hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BODY = "body"
FEET = "feet"
FACE = "face"
LEFT_HAND = "left_hand"
RIGHT_HAND = "right_hand"

# Classic 18-color wheel used by OpenPose-style renderers, RGB 0-255.
_BODY_WHEEL = [
    (255, 0, 0), (255, 85, 0), (255, 170, 0), (255, 255, 0), (170, 255, 0),
    (85, 255, 0), (0, 255, 0), (0, 255, 85), (0, 255, 170), (0, 255, 255),
    (0, 170, 255), (0, 85, 255), (0, 0, 255), (85, 0, 255), (170, 0, 255),
    (255, 0, 255), (255, 0, 170), (255, 0, 85),
]

# One color per finger: thumb, index, middle, ring, pinky.
_FINGER_COLORS = [
    (255, 0, 0), (255, 255, 0), (0, 255, 0), (0, 100, 255), (255, 0, 255),
]

_HAND_ROOT_COLOR = (128, 128, 128)
_FACE_COLOR = (204, 204, 204)


class LayoutError(ValueError):
    """A skeleton layout or hand side is unknown."""


@dataclass(frozen=True)
class SkeletonLayout:
    """Fixed keypoint convention: indices, limb edges, colors, bone tree.

    ``edges`` are (a, b, group) keypoint index pairs drawn as limbs.
    ``bone_tree`` gives the parent index of each keypoint: -1 at the
    root, index 0, and otherwise an index smaller than the child's, so
    walking keypoints in index order visits every parent before its
    children. Construction checks none of this: the only layout is the
    fixed ``WHOLEBODY_133``.
    """

    name: str
    keypoint_count: int
    edges: tuple[tuple[int, int, str], ...]
    groups: dict[str, tuple[int, ...]] = field(repr=False)
    keypoint_colors: np.ndarray = field(repr=False)  # (K, 3) floats in [0, 1]
    edge_colors: np.ndarray = field(repr=False)      # (E, 3) floats in [0, 1]
    bone_tree: tuple[int, ...] = ()

    def hand_indices(self, side: str) -> tuple[int, ...]:
        group = {"left": LEFT_HAND, "right": RIGHT_HAND}.get(side)
        if group is None:
            raise LayoutError(f"unknown hand side {side!r}")
        return self.groups[group]


def _build_wholebody_133() -> SkeletonLayout:
    k = 133
    body = tuple(range(0, 17))
    feet = tuple(range(17, 23))
    face = tuple(range(23, 91))
    left_hand = tuple(range(91, 112))
    right_hand = tuple(range(112, 133))

    body_edges = [
        (15, 13), (13, 11), (16, 14), (14, 12), (11, 12), (5, 11), (6, 12),
        (5, 6), (5, 7), (6, 8), (7, 9), (8, 10), (1, 2), (0, 1), (0, 2),
        (1, 3), (2, 4), (3, 5), (4, 6),
    ]
    feet_edges = [(15, 17), (15, 18), (15, 19), (16, 20), (16, 21), (16, 22)]

    def hand_edges(root: int) -> list[tuple[int, int]]:
        out = []
        for finger in range(5):
            base = root + 1 + 4 * finger
            out.append((root, base))
            for j in range(3):
                out.append((base + j, base + j + 1))
        return out

    edges: list[tuple[int, int, str]] = []
    edge_colors: list[tuple[int, int, int]] = []
    for i, (a, b) in enumerate(body_edges):
        edges.append((a, b, BODY))
        edge_colors.append(_BODY_WHEEL[i % 18])
    for i, (a, b) in enumerate(feet_edges):
        edges.append((a, b, FEET))
        edge_colors.append(_BODY_WHEEL[(12 + i) % 18])
    for root, group in ((91, LEFT_HAND), (112, RIGHT_HAND)):
        for i, (a, b) in enumerate(hand_edges(root)):
            edges.append((a, b, group))
            edge_colors.append(_FINGER_COLORS[i // 4])

    kp_colors = [(0, 0, 0)] * k
    for i in body:
        kp_colors[i] = _BODY_WHEEL[i % 18]
    for i in feet:
        kp_colors[i] = _BODY_WHEEL[(12 + i - 17) % 18]
    for i in face:
        kp_colors[i] = _FACE_COLOR
    for root in (91, 112):
        kp_colors[root] = _HAND_ROOT_COLOR
        for finger in range(5):
            for j in range(4):
                kp_colors[root + 1 + 4 * finger + j] = _FINGER_COLORS[finger]

    parent = [-1] * k
    for child, p in ((1, 0), (2, 0), (3, 1), (4, 2), (5, 0), (6, 0), (7, 5),
                     (9, 7), (8, 6), (10, 8), (11, 5), (12, 6), (13, 11),
                     (15, 13), (14, 12), (16, 14),
                     (17, 15), (18, 15), (19, 15), (20, 16), (21, 16), (22, 16)):
        parent[child] = p
    for i in face:
        parent[i] = 0
    for root, wrist in ((91, 9), (112, 10)):
        parent[root] = wrist
        for finger in range(5):
            base = root + 1 + 4 * finger
            parent[base] = root
            for j in range(1, 4):
                parent[base + j] = base + j - 1

    return SkeletonLayout(
        name="coco_wholebody_133",
        keypoint_count=k,
        edges=tuple(edges),
        groups={BODY: body, FEET: feet, FACE: face,
                LEFT_HAND: left_hand, RIGHT_HAND: right_hand},
        keypoint_colors=np.array(kp_colors, dtype=np.float64) / 255.0,
        edge_colors=np.array(edge_colors, dtype=np.float64) / 255.0,
        bone_tree=tuple(parent),
    )


WHOLEBODY_133 = _build_wholebody_133()

_REGISTRY: dict[str, SkeletonLayout] = {WHOLEBODY_133.name: WHOLEBODY_133}


def get_layout(name: str) -> SkeletonLayout:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise LayoutError(f"unknown skeleton layout {name!r}") from None
