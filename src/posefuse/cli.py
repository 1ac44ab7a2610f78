"""Command-line entry points.

Three subcommands cover the runnable experiments: ``render-pose`` draws
a pose file straight into per-frame uint8 PPM guidance images
(``render_frame_u8``), ``weight-map`` exports one frame's hand-region
loss weights (MMTL plus a PGM preview) by painting the boxes of
``hand_boxes`` into one row band of the float32 payload or the uint8
preview at a time and writing each band before the next is painted, and
``longvideo`` runs the segmented denoise-and-fuse loop on a synthetic
workload and reports seam metrics. All outputs are byte-deterministic
for a given command line and seed.

``render-pose`` writes frame i - 1 on the helper thread of
``diffusion._both`` while the main thread draws frame i, and
``longvideo`` splits its loop's stages over the same thread.

Every output goes through ``io_formats.write_file``, so a re-run
overwrites each artefact in place and cuts it to length instead of
truncating it to zero first, which on ext4 (``auto_da_alloc``) and XFS
starts writeback of the file at close. A failed write leaves the file
cut at the bytes written before the failure. ``weight-map`` and
``longvideo`` hand the writer a header and then their payload's own
buffers, so no joined copy of a file is made.
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_run_config
from .diffusion import (_both, gaussian_denoiser, linear_beta_schedule,
                        make_phase_instance)
from .fusion import (FUSION_MODES, boundary_jump_metric, format_plan,
                     frame_difference_profile, plan_segments,
                     run_long_denoise)
from .io_formats import (FormatError, _mmtl_header, _mmtl_parts, write_file,
                         write_ppm)
from .pose import PoseParseError, parse_pose_sequence
from .regions import hand_boxes
from .render import CONFIDENCE_MODES, RenderStyle, render_frame_u8
from .skeleton import LayoutError

# pixels in one row band of a weight-map export: 113 rows, about 260 KB
# of float32, at width 576, where the whole canvas takes 2.36 MB
_BAND_PX = 2 ** 16


def _read_poses(path: str):
    return parse_pose_sequence(Path(path).read_bytes())


def _cmd_render_pose(args: argparse.Namespace) -> int:
    seq = _read_poses(args.poses)
    style = RenderStyle(confidence_mode=args.mode, threshold=args.tau)
    out = Path(args.out)
    drawn = [render_frame_u8(seq.frames[0], style, args.width, args.height)]
    # a canvas render_frame_u8 rejects leaves no directory
    out.mkdir(parents=True, exist_ok=True)
    for i in range(1, len(seq) + 1):
        image = drawn.pop()

        def draw() -> None:
            if i < len(seq):
                drawn.append(render_frame_u8(seq.frames[i], style,
                                             args.width, args.height))

        # a failed write of frame i - 1 outranks an error drawing frame i
        _both(lambda: write_ppm(out / f"frame_{i - 1:05d}.ppm", image), draw)
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
    w, h = seq.source_width, seq.source_height
    boxes = hand_boxes(seq.frames[args.frame], args.tau_hand, args.pad_frac,
                       args.w_hand, w, h)
    # build_weight_map's float64 map as its float32 cast and its preview,
    # 255 where that map is > 1 and 25 elsewhere, each painted band by band
    if args.w_hand > 1.0 and any(x0 < x1 and y0 < y1
                                 for x0, y0, x1, y1 in boxes):
        try:  # a weight past float32 leaves no directory
            with np.errstate(over="raise"):
                weight = np.float32(args.w_hand)
        except FloatingPointError:
            raise FormatError("values overflow float32") from None
    else:  # nothing to paint
        boxes, weight = (), 1.0
    header = _mmtl_header((h, w))
    out.parent.mkdir(parents=True, exist_ok=True)
    write_file(out, chain((header,), _box_bands("<f4", 1.0, weight, boxes,
                                                w, h)))
    write_file(preview, chain((f"P5\n{w} {h}\n255\n".encode("ascii"),),
                              _box_bands(np.uint8, 25, 255, boxes, w, h)))
    return 0


def _box_bands(dtype, fill, value, boxes, width: int, height: int):
    """The (height, width) map of fill with value in every box, yielded
    top to bottom as row bands of one reused buffer."""
    rows = max(1, _BAND_PX // width)
    band = np.empty((min(rows, height), width), dtype)
    for top in range(0, height, rows):
        part = band[:min(rows, height - top)]
        part.fill(fill)
        for x0, y0, x1, y1 in boxes:  # an empty box is a no-op
            lo, hi = max(y0, top), min(y1, top + len(part))
            if lo < hi:
                part[lo - top:hi - top, x0:x1] = value
        yield part


def _build_denoiser(cfg: RunConfig, plan, latent_shape):
    if cfg.denoiser == "phase_smoother":
        return make_phase_instance(plan, latent_shape, cfg.seed, eta=cfg.eta,
                                   phase_jitter=cfg.phase_jitter,
                                   period_range=(cfg.period_min, cfg.period_max))
    return gaussian_denoiser(linear_beta_schedule(cfg.steps), cfg.mu,
                             cfg.sigma0)


def _cmd_longvideo(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    plan = plan_segments(cfg.total_frames, cfg.segment_length,
                         cfg.context_overlap)
    latent_shape = (cfg.latent_channels, cfg.latent_height, cfg.latent_width)
    # run_long_denoise frees the denoiser and its whole-plan target before
    # it assembles the video, as this frame keeps no reference to them;
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

    latents = _mmtl_parts(video)  # latents past float32 leave no directory
    out = Path(cfg.out_dir) / args.mode
    out.mkdir(parents=True, exist_ok=True)
    write_file(out / "latents.mmtl", latents)
    write_file(out / "plan.txt", (f"{format_plan(plan)}\n".encode("ascii"),))
    write_file(out / "profile.txt", ("".join(
        f"{repr(float(d))}\n" for d in profile).encode("ascii"),))
    write_file(out / "metrics.txt",
               (f"boundary_jump {repr(jump)}\n"
                f"mean_d {repr(float(np.mean(profile)))}\n".encode("ascii"),))
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
