"""Workload definitions: seeded inputs and the operations of one round.

Every workload makes its inputs from the seed before any timing starts,
then runs whole rounds of the same operations. A round is what a user
would run once: the CLI commands for the three command workloads, or
the library path from pose document to PoseNet features for
``pose-features``. Each operation returns True when it succeeded.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks

# Source canvas of the pose documents: the paper's 576x1024 portrait.
SOURCE_W, SOURCE_H = 576, 1024

# Hand-region settings passed to every weight-map command (the CLI defaults).
TAU_HAND, PAD_FRAC, W_HAND = 0.6, 0.25, 10.0


# ---------------------------------------------------------------- pose inputs

def _figure(shape: dict, phase: float, drift: float) -> np.ndarray:
    """(133, 2) normalized keypoints of a walking figure at one instant."""
    kp = np.zeros((133, 2))
    s = shape["scale"]
    swing = shape["swing"] * math.sin(phase)
    bob = 0.008 * math.cos(2.0 * phase)
    cx = shape["cx"] + drift
    top = shape["top"]

    head_y = top + bob
    kp[0] = (cx, head_y)
    kp[1] = (cx + 0.015 * s, head_y - 0.012 * s)
    kp[2] = (cx - 0.015 * s, head_y - 0.012 * s)
    kp[3] = (cx + 0.035 * s, head_y - 0.005 * s)
    kp[4] = (cx - 0.035 * s, head_y - 0.005 * s)
    sh_y = head_y + 0.14 * s
    arm = shape["arm"] * s
    kp[5] = (cx + 0.085 * s, sh_y)
    kp[6] = (cx - 0.085 * s, sh_y)
    kp[7] = (cx + 0.105 * s + swing, sh_y + arm)
    kp[8] = (cx - 0.105 * s - swing, sh_y + arm)
    kp[9] = (cx + 0.115 * s + 2.0 * swing, sh_y + 1.9 * arm)
    kp[10] = (cx - 0.115 * s - 2.0 * swing, sh_y + 1.9 * arm)
    hip_y = sh_y + 0.25 * s
    leg = shape["leg"] * s
    kp[11] = (cx + 0.055 * s, hip_y)
    kp[12] = (cx - 0.055 * s, hip_y)
    kp[13] = (cx + 0.06 * s - swing, hip_y + leg)
    kp[14] = (cx - 0.06 * s + swing, hip_y + leg)
    kp[15] = (cx + 0.055 * s - 2.0 * swing, hip_y + 1.95 * leg)
    kp[16] = (cx - 0.055 * s + 2.0 * swing, hip_y + 1.95 * leg)
    for i, ankle, direction in ((17, 15, 1.0), (20, 16, -1.0)):
        ax, ay = kp[ankle]
        kp[i] = (ax + 0.02 * direction * s, ay + 0.04 * s)
        kp[i + 1] = (ax - 0.005 * direction * s, ay + 0.042 * s)
        kp[i + 2] = (ax - 0.01 * direction * s, ay + 0.01 * s)
    for j in range(68):
        ang = 2.0 * math.pi * j / 68
        kp[23 + j] = (cx + 0.032 * s * math.cos(ang),
                      head_y + 0.028 * s * math.sin(ang))
    hand = shape["hand"] * s
    for root, wrist, direction in ((91, 9, 1.0), (112, 10, -1.0)):
        wx, wy = kp[wrist]
        kp[root] = (wx + 0.004 * direction, wy + 0.014 * s)
        for finger in range(5):
            ang = math.pi / 2 + direction * (finger - 2) * 0.32
            for joint in range(4):
                r = hand * (joint + 1)
                kp[root + 1 + 4 * finger + joint] = (
                    kp[root, 0] + 0.6 * r * math.cos(ang) * direction,
                    kp[root, 1] + r * math.sin(ang))
    return kp


def _figure_shape(rng: np.random.Generator) -> dict:
    return {"scale": rng.uniform(0.9, 1.1), "cx": rng.uniform(0.42, 0.58),
            "top": rng.uniform(0.1, 0.14), "swing": rng.uniform(0.03, 0.055),
            "arm": rng.uniform(0.1, 0.13), "leg": rng.uniform(0.15, 0.18),
            "hand": rng.uniform(0.008, 0.011)}


def dip_frames(frames: int) -> range:
    """Frames whose right hand is unreliable: the middle third of the clip."""
    return range(frames // 3, 2 * frames // 3)


def pose_document(seed: int, frames: int) -> dict:
    """A seeded walking figure in the pose interchange format.

    Body, feet and face confidences are drawn per keypoint and frame
    from [0.35, 1), with two face points per frame at zero (skipped by
    the renderer). The left hand stays above TAU_HAND throughout; the
    right hand drops to [0.1, 0.55) inside dip_frames, so weight maps
    carry one hand box there and two elsewhere.
    """
    rng = np.random.default_rng([seed, 1])
    shape = _figure_shape(rng)
    dip = dip_frames(frames)
    out = []
    for f in range(frames):
        # one walk cycle over the clip, started at a phase set by the
        # seeded position
        phase = 2.0 * math.pi * f / max(frames - 1, 1) + shape["cx"] * 7.0
        drift = 0.08 * (f / max(frames - 1, 1) - 0.5)
        xy = _figure(shape, phase, drift)
        conf = rng.uniform(0.35, 1.0, size=133)
        conf[23 + rng.choice(68, size=2, replace=False)] = 0.0
        conf[91:112] = rng.uniform(0.65, 1.0, size=21)
        conf[112:133] = (rng.uniform(0.1, 0.55, size=21) if f in dip
                         else rng.uniform(0.65, 1.0, size=21))
        out.append({"keypoints": [[float(x * SOURCE_W), float(y * SOURCE_H),
                                   float(c)] for (x, y), c in zip(xy, conf)]})
    return {"layout": "coco_wholebody_133", "width": SOURCE_W,
            "height": SOURCE_H, "fps": 24.0, "frames": out}


def reference_frame(seed: int) -> np.ndarray:
    """(133, 3) normalized keypoints of another seeded figure to retarget to.

    A few face points fall below the retarget confidence floor, so some
    bones keep the template length.
    """
    rng = np.random.default_rng([seed, 2])
    xy = _figure(_figure_shape(rng), 0.0, 0.0)
    conf = rng.uniform(0.5, 1.0, size=133)
    conf[23 + rng.choice(68, size=6, replace=False)] = 0.1
    return np.column_stack([xy, conf])


# ---------------------------------------------------------------- workloads

def make_api() -> SimpleNamespace:
    """The posefuse entry points the workloads call.

    The CLI workloads go through posefuse.cli.main, the library workload
    through this namespace; the tracer wraps functions on both, never
    inside the package.
    """
    import posefuse.cli
    from posefuse import io_formats, pose, posenet, render, skeleton

    return SimpleNamespace(
        cli=posefuse.cli,
        parse_pose_sequence=pose.parse_pose_sequence,
        retarget_limb_lengths=pose.retarget_limb_lengths,
        PoseFrame=pose.PoseFrame, get_layout=skeleton.get_layout,
        RenderStyle=render.RenderStyle, render_frame=render.render_frame,
        posenet_forward=posenet.posenet_forward,
        init_posenet_weights=posenet.init_posenet_weights,
        mmtl_encode=io_formats.mmtl_encode,
        save_posenet_weights=io_formats.save_posenet_weights,
        load_posenet_weights=io_formats.load_posenet_weights,
    )


class Workload:
    """One benchmark workload. Subclasses fill in the four hooks."""

    name = ""
    ops_per_round = 0

    def prepare(self, work: Path, seed: int, api: SimpleNamespace) -> None:
        """Write the seeded inputs under work; not timed."""
        raise NotImplementedError

    def run_round(self) -> list[bool]:
        """Run one round; one success flag per operation."""
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        """Every artefact a round writes, in a fixed order."""
        return sorted(p for p in self.out.rglob("*") if p.is_file())

    def check(self) -> list[str]:
        """Problems found in the last round's outputs; empty when correct."""
        raise NotImplementedError

    def setup_code(self) -> str:
        """Python run in a fresh interpreter to time the program's set-up."""
        raise NotImplementedError


class LongVideo(Workload):
    def __init__(self, name: str, config: dict, modes: tuple[str, ...]):
        self.name = name
        self.base_config = config
        self.modes = modes
        self.ops_per_round = len(modes)

    def prepare(self, work, seed, api):
        self.api = api
        self.out = work / "out"
        self.config = dict(self.base_config, seed=seed, out_dir=str(self.out))
        self.config_path = work / "run.json"
        self.config_path.write_text(json.dumps(self.config), encoding="ascii")

    def run_round(self):
        return [self.api.cli.main(["longvideo", "--config",
                                   str(self.config_path), "--mode", m]) == 0
                for m in self.modes]

    def check(self):
        return checks.check_longvideo(self.out, self.config, self.modes)

    def setup_code(self):
        return ("from posefuse.cli import main\n"
                "from posefuse.config import load_run_config\n"
                f"load_run_config({str(self.config_path)!r})\n")


class GuidanceExport(Workload):
    name = "guidance-export"

    def __init__(self, frames: int = 24):
        self.frames = frames
        dip = dip_frames(frames)
        # two frames on each side of both dip edges
        self.wm_frames = (dip.start - 2, dip.start - 1, dip.start,
                          dip.stop - 1, dip.stop, dip.stop + 1)
        self.ops_per_round = 1 + len(self.wm_frames)

    def prepare(self, work, seed, api):
        self.api = api
        self.out = work / "out"
        self.poses = work / "poses.json"
        self.poses.write_text(json.dumps(pose_document(seed, self.frames)),
                              encoding="ascii")

    def run_round(self):
        main = self.api.cli.main
        ok = [main(["render-pose", "--poses", str(self.poses), "--out",
                    str(self.out / "frames"), "--width", str(SOURCE_W),
                    "--height", str(SOURCE_H)]) == 0]
        for f in self.wm_frames:
            ok.append(main(["weight-map", "--poses", str(self.poses),
                            "--frame", str(f), "--tau-hand", str(TAU_HAND),
                            "--pad-frac", str(PAD_FRAC), "--w-hand",
                            str(W_HAND), "--out",
                            str(self.out / f"wm_{f:05d}.mmtl")]) == 0)
        return ok

    def check(self):
        return checks.check_guidance(self.out, self.poses, self.wm_frames,
                                     dip_frames(self.frames),
                                     (SOURCE_W, SOURCE_H),
                                     (TAU_HAND, PAD_FRAC, W_HAND))

    def setup_code(self):
        return "from posefuse.cli import main\n"


class PoseFeatures(Workload):
    """Library path: parse, retarget, render small, PoseNet in chunks."""

    name = "pose-features"

    def __init__(self, frames: int = 16, width: int = 128, height: int = 192,
                 chunk: int = 4):
        # a portrait canvas divisible by 8; whole chunks only
        self.frames, self.width, self.height, self.chunk = frames, width, height, chunk
        self.ops_per_round = 3 + frames // chunk

    def prepare(self, work, seed, api):
        self.api = api
        self.out = work / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.poses = work / "poses.json"
        self.poses.write_text(json.dumps(pose_document(seed, self.frames)),
                              encoding="ascii")
        self.reference = api.PoseFrame(reference_frame(seed),
                                       api.get_layout("coco_wholebody_133"))
        self.weights_path = work / "posenet.weights"
        api.save_posenet_weights(self.weights_path,
                                 api.init_posenet_weights(seed))
        self.weights = api.load_posenet_weights(self.weights_path)
        self.style = api.RenderStyle()

    def run_round(self):
        api = self.api
        seq = api.parse_pose_sequence(self.poses.read_bytes())
        self.retargeted = api.retarget_limb_lengths(seq, self.reference)
        ok = [True]
        images = np.stack([
            api.render_frame(f, self.style, self.width, self.height).data
            for f in self.retargeted.frames]).transpose(0, 3, 1, 2)
        ok.append(True)
        chunks = []
        for s in range(0, self.frames, self.chunk):
            chunks.append(api.posenet_forward(images[s:s + self.chunk],
                                              self.weights))
            ok.append(True)
        self.images = images
        self.features = np.concatenate(chunks)
        (self.out / "features.mmtl").write_bytes(
            api.mmtl_encode(self.features))
        ok.append(True)
        return ok

    def check(self):
        return checks.check_pose_features(
            self.out / "features.mmtl", self.features, self.images,
            self.weights, self.api.posenet_forward, self.chunk,
            self.poses, self.reference.data, self.retargeted)

    def setup_code(self):
        return ("import posefuse\n"
                "from posefuse.io_formats import load_posenet_weights\n"
                f"load_posenet_weights({str(self.weights_path)!r})\n")


LONGVIDEO_BASE = {"segment_length": 16, "context_overlap": 6, "steps": 25,
                  "denoiser": "phase_smoother", "latent_channels": 4}

WORKLOADS = {
    w.name: w for w in (
        LongVideo("longvideo-large-latent",
                  dict(LONGVIDEO_BASE, total_frames=72, latent_height=64,
                       latent_width=64), ("progressive",)),
        LongVideo("longvideo-many-segments",
                  dict(LONGVIDEO_BASE, total_frames=1200, latent_height=8,
                       latent_width=8), ("progressive", "uniform", "none")),
        GuidanceExport(),
        PoseFeatures(),
    )
}
