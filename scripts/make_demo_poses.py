#!/usr/bin/env python3
"""Generate a synthetic walking-figure pose file for demos and smoke runs.

The figure swings its arms and legs sinusoidally and drifts sideways, so
rendered guidance frames visibly animate. One hand's confidence dips in
the middle of the clip, which makes the frame-by-frame weight maps show
the reliability gate kicking in. The output document is the same JSON
interchange format the CLI consumes:

    python3 scripts/make_demo_poses.py --frames 24 --out demo_poses.json
    python3 -m posefuse.cli render-pose --poses demo_poses.json \
        --out demo_frames --width 384 --height 512
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from posefuse.skeleton import WHOLEBODY_133


def figure_frame(phase: float, drift: float, right_hand_conf: float) -> np.ndarray:
    """(133, 3) normalized keypoints for one instant of the walk cycle."""
    kp = np.zeros((133, 3))
    kp[:, 2] = 0.95

    swing = 0.045 * math.sin(phase)          # arm/leg swing amplitude
    bob = 0.008 * math.cos(2.0 * phase)      # vertical bounce, twice per cycle
    cx = 0.5 + drift

    head_y = 0.16 + bob
    kp[0, :2] = (cx, head_y)                          # nose
    kp[1, :2] = (cx + 0.015, head_y - 0.012)          # eyes
    kp[2, :2] = (cx - 0.015, head_y - 0.012)
    kp[3, :2] = (cx + 0.035, head_y - 0.005)          # ears
    kp[4, :2] = (cx - 0.035, head_y - 0.005)

    sh_y = 0.30 + bob
    kp[5, :2] = (cx + 0.085, sh_y)                    # shoulders
    kp[6, :2] = (cx - 0.085, sh_y)
    kp[7, :2] = (cx + 0.105 + swing, 0.42 + bob)      # elbows, counter-swing
    kp[8, :2] = (cx - 0.105 - swing, 0.42 + bob)
    kp[9, :2] = (cx + 0.115 + 2.0 * swing, 0.52 + bob)  # wrists
    kp[10, :2] = (cx - 0.115 - 2.0 * swing, 0.52 + bob)

    hip_y = 0.55 + bob
    kp[11, :2] = (cx + 0.055, hip_y)
    kp[12, :2] = (cx - 0.055, hip_y)
    kp[13, :2] = (cx + 0.06 - swing, 0.72)            # knees, opposite the arms
    kp[14, :2] = (cx - 0.06 + swing, 0.72)
    kp[15, :2] = (cx + 0.055 - 2.0 * swing, 0.88)     # ankles
    kp[16, :2] = (cx - 0.055 + 2.0 * swing, 0.88)

    for i, ankle, direction in ((17, 15, 1.0), (20, 16, -1.0)):
        ax, ay = kp[ankle, :2]
        kp[i, :2] = (ax + 0.02 * direction, ay + 0.04)    # big toe
        kp[i + 1, :2] = (ax - 0.005 * direction, ay + 0.042)  # small toe
        kp[i + 2, :2] = (ax - 0.01 * direction, ay + 0.01)    # heel

    for j in range(68):  # face oval
        ang = 2.0 * math.pi * j / 68
        kp[23 + j, 0] = cx + 0.032 * math.cos(ang)
        kp[23 + j, 1] = head_y + 0.028 * math.sin(ang)

    for root, wrist, direction, conf in ((91, 9, 1.0, 0.95),
                                         (112, 10, -1.0, right_hand_conf)):
        wx, wy = kp[wrist, :2]
        kp[root, :2] = (wx + 0.004 * direction, wy + 0.014)
        kp[root:root + 21, 2] = conf
        for finger in range(5):
            ang = math.pi / 2 + direction * (finger - 2) * 0.32
            for joint in range(4):
                r = 0.009 * (joint + 1)
                idx = root + 1 + 4 * finger + joint
                kp[idx, 0] = kp[root, 0] + 0.6 * r * math.cos(ang) * direction
                kp[idx, 1] = kp[root, 1] + r * math.sin(ang)
    return kp


def build_document(frames: int, width: int, height: int, fps: float) -> dict:
    layout = WHOLEBODY_133
    out = []
    for f in range(frames):
        phase = 2.0 * math.pi * f / max(frames - 1, 1)
        drift = 0.15 * (f / max(frames - 1, 1) - 0.5)
        # dip the right hand's confidence through the middle third
        mid = abs(f - (frames - 1) / 2.0) / max(frames / 6.0, 1.0)
        hand_conf = 0.95 if mid > 1.0 else 0.3
        kp = figure_frame(phase, drift, hand_conf)
        px = kp.copy()
        px[:, 0] *= width
        px[:, 1] *= height
        out.append({"keypoints": [[float(x), float(y), float(c)]
                                  for x, y, c in px]})
    return {"layout": layout.name, "width": width, "height": height,
            "fps": fps, "frames": out}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=24)
    parser.add_argument("--width", type=int, default=576)
    parser.add_argument("--height", type=int, default=1024)
    parser.add_argument("--fps", type=float, default=12.0)
    parser.add_argument("--out", required=True, help="output JSON path")
    args = parser.parse_args(argv)
    for name in ("frames", "width", "height"):
        if getattr(args, name) < 1:
            parser.error(f"--{name} must be >= 1")
    if not 0.0 < args.fps < math.inf:
        parser.error("--fps must be finite and > 0")

    try:  # a size past float range fails the scaling or the dump
        text = json.dumps(build_document(args.frames, args.width, args.height,
                                         args.fps), allow_nan=False)
    except (OverflowError, ValueError):
        parser.error("--width and --height must scale every keypoint to a "
                     "finite float")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"wrote {args.frames} frames ({args.width}x{args.height}) to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
