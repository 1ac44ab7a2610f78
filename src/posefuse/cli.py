"""Command-line entry points.

Three subcommands cover the runnable experiments: ``render-pose`` draws
a pose file straight into per-frame uint8 PPM guidance images
(``render_frame_u8``), ``weight-map`` exports one frame's hand-region
loss weights (MMTL plus a PGM preview), and ``longvideo`` runs the
segmented denoise-and-fuse loop on a synthetic workload and reports
seam metrics. All outputs are byte-deterministic for a given command
line and seed.

``render-pose`` is a two-stage pipeline with one frame in flight: while
the main thread draws frame i + 1, a writer thread streams frame i to
disk with ``write_ppm``, straight from the image's buffer. The writer
is joined before the next frame is handed over and before the command
returns, so a failed write is raised in frame order and no later frame
is written. The writer calls nothing but ``write_ppm``.

``longvideo`` splits the loop's stages across two cores through
``diffusion._halves``: its helper thread starts on first use, lives for
the rest of the process and holds no array between calls.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_run_config
from .diffusion import (linear_beta_schedule, make_phase_instance,
                        make_toy_denoiser)
from .fusion import (FUSION_MODES, boundary_jump_metric, format_plan,
                     frame_difference_profile, plan_segments,
                     run_long_denoise)
from .io_formats import (FormatError, mmtl_encode, pgm_encode,
                         weight_map_preview, write_ppm)
from .pose import PoseParseError, parse_pose_sequence
from .regions import build_weight_map
from .render import CONFIDENCE_MODES, RenderStyle, render_frame_u8
from .skeleton import LayoutError


def _read_poses(path: str):
    return parse_pose_sequence(Path(path).read_bytes())


class _FrameWriter:
    """Writes one PPM at a time on a thread of its own.

    ``put`` waits for the previous write before starting the next, and
    ``wait`` raises a failed write's error in the calling thread.
    """

    def __init__(self):
        self._thread: threading.Thread | None = None
        self._error: Exception | None = None

    def _write(self, path: Path, image: np.ndarray) -> None:
        try:
            write_ppm(path, image)
        except Exception as exc:  # raised again by wait()
            self._error = exc

    def wait(self) -> None:
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def put(self, path: Path, image: np.ndarray) -> None:
        self.wait()
        self._thread = threading.Thread(target=self._write, args=(path, image))
        self._thread.start()


def _cmd_render_pose(args: argparse.Namespace) -> int:
    seq = _read_poses(args.poses)
    style = RenderStyle(confidence_mode=args.mode, threshold=args.tau)
    out = Path(args.out)
    writer = _FrameWriter()
    try:
        for i, frame in enumerate(seq.frames):
            image = render_frame_u8(frame, style, args.width, args.height)
            if i == 0:  # a canvas render_frame_u8 rejects leaves no directory
                out.mkdir(parents=True, exist_ok=True)
            writer.put(out / f"frame_{i:05d}.ppm", image)
    finally:
        # a failed write of frame i outranks an error drawing frame i + 1
        writer.wait()
    return 0


def _cmd_weight_map(args: argparse.Namespace) -> int:
    out = Path(args.out)
    preview = out.with_suffix(".pgm")
    if preview == out:
        raise ValueError(f"--out {out} would be overwritten by its .pgm "
                         f"preview; use another suffix such as .mmtl")
    seq = _read_poses(args.poses)
    if not 0 <= args.frame < len(seq):
        raise ValueError(f"frame index {args.frame} out of range "
                         f"[0, {len(seq)})")
    wm = build_weight_map(seq.frames[args.frame], args.tau_hand, args.pad_frac,
                          args.w_hand, seq.source_width, seq.source_height)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(mmtl_encode(wm.data))
    preview.write_bytes(pgm_encode(weight_map_preview(wm.data)))
    return 0


def _build_denoiser(cfg: RunConfig, plan, latent_shape):
    if cfg.denoiser == "phase_smoother":
        return make_phase_instance(plan, latent_shape, cfg.seed, eta=cfg.eta,
                                   phase_jitter=cfg.phase_jitter,
                                   period_range=(cfg.period_min, cfg.period_max))
    sched = linear_beta_schedule(cfg.steps)
    return make_toy_denoiser("analytic_gaussian", mu=cfg.mu, sigma0=cfg.sigma0,
                             sched=sched)


def _cmd_longvideo(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    plan = plan_segments(cfg.total_frames, cfg.segment_length,
                         cfg.context_overlap)
    latent_shape = (cfg.latent_channels, cfg.latent_height, cfg.latent_width)
    # the denoiser and its whole-plan target are freed once the loop ends;
    # floating-point faults surface as non-finite latents, checked below
    # (the helper thread's halves run under this errstate too)
    with np.errstate(all="ignore"):
        video = run_long_denoise(_build_denoiser(cfg, plan, latent_shape),
                                 None, plan, cfg.steps, args.mode, cfg.seed,
                                 latent_shape=latent_shape)
        profile = frame_difference_profile(video)
    # any non-finite latent makes a difference next to it non-finite
    if not np.isfinite(profile).all():
        raise ValueError("the denoised latents are not finite")
    jump = boundary_jump_metric(profile, plan)

    latents = mmtl_encode(video)  # latents past float32 leave no directory
    out = Path(cfg.out_dir) / args.mode
    out.mkdir(parents=True, exist_ok=True)
    (out / "latents.mmtl").write_bytes(latents)
    (out / "plan.txt").write_text(format_plan(plan) + "\n", encoding="ascii")
    (out / "profile.txt").write_text(
        "".join(f"{repr(float(d))}\n" for d in profile), encoding="ascii")
    (out / "metrics.txt").write_text(
        f"boundary_jump {repr(jump)}\n"
        f"mean_d {repr(float(np.mean(profile)))}\n", encoding="ascii")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posefuse",
        description="Pose-guided video diffusion mechanisms at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("render-pose",
                       help="rasterize a pose file into per-frame PPM images")
    p.add_argument("--poses", required=True, help="pose JSON document")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--mode", choices=CONFIDENCE_MODES,
                   default=RenderStyle.confidence_mode)
    p.add_argument("--tau", type=float, default=RenderStyle.threshold,
                   help="confidence cutoff for threshold mode")
    p.set_defaults(func=_cmd_render_pose)

    p = sub.add_parser("weight-map",
                       help="export hand-region loss weights for one frame")
    p.add_argument("--poses", required=True)
    p.add_argument("--frame", type=int, required=True)
    p.add_argument("--tau-hand", type=float, default=0.6)
    p.add_argument("--pad-frac", type=float, default=0.25)
    p.add_argument("--w-hand", type=float, default=10.0)
    p.add_argument("--out", required=True, help="output MMTL path")
    p.set_defaults(func=_cmd_weight_map)

    p = sub.add_parser("longvideo",
                       help="segmented denoising with latent fusion")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--mode", choices=FUSION_MODES, default="progressive")
    p.set_defaults(func=_cmd_longvideo)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PoseParseError, ConfigError, FormatError, LayoutError,
            ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
