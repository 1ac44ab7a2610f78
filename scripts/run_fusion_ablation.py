#!/usr/bin/env python3
"""Compare fusion modes on the synthetic phase-mismatch workload.

For each seed, denoises the same long clip three times (progressive,
uniform, none) and reports the boundary-jump metric, i.e. how much the
worst segment-seam transition sticks out above the typical frame-to-frame
change. Lower is smoother. Typical output:

    seed  progressive     uniform        none
       0     0.026556    0.100143    0.183245
       ...
    progressive < none on 10/10 seeds; progressive <= uniform on 10/10
"""

from __future__ import annotations

import argparse
import sys
import time

from posefuse.diffusion import make_phase_instance
from posefuse.fusion import (FUSION_MODES, _check_stack_size,
                             boundary_jump_metric, frame_difference_profile,
                             plan_segments, run_long_denoise)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--total-frames", type=int, default=36)
    parser.add_argument("--segment-length", type=int, default=16)
    parser.add_argument("--context-overlap", type=int, default=6)
    parser.add_argument("--steps", type=int, default=25)
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of seeds, starting at 0")
    parser.add_argument("--phase-jitter", type=float, default=0.3,
                        help="per-segment phase perturbation in radians")
    parser.add_argument("--channels", type=int, default=4)
    parser.add_argument("--size", type=int, default=8,
                        help="latent height and width")
    args = parser.parse_args(argv)
    # the seam metrics need a frame-to-frame difference
    for name, least in (("total_frames", 2), ("steps", 1), ("seeds", 1),
                        ("channels", 1), ("size", 1)):
        if getattr(args, name) < least:
            parser.error(f"--{name.replace('_', '-')} must be >= {least}")
    shape = (args.channels, args.size, args.size)
    try:
        # the overlap and the stack size, in closed form, before a plan of
        # one start per segment is built
        _check_stack_size(args.total_frames, args.segment_length,
                          args.context_overlap, shape)
        plan = plan_segments(args.total_frames, args.segment_length,
                             args.context_overlap)
        # seed 0's instance, built before anything prints
        denoiser = make_phase_instance(plan, shape, 0,
                                       phase_jitter=args.phase_jitter)
    except ValueError as err:
        parser.error(str(err))
    print(f"plan: {len(plan)} segments of {plan.frames_per_segment} frames, "
          f"starts {list(plan.starts)}")

    header = "seed " + "".join(f"{m:>12}" for m in FUSION_MODES)
    print(header)
    wins_none = 0
    wins_uniform = 0
    t0 = time.perf_counter()
    for seed in range(args.seeds):
        if seed:
            denoiser = make_phase_instance(plan, shape, seed,
                                           phase_jitter=args.phase_jitter)
        jumps = {}
        for mode in FUSION_MODES:
            video = run_long_denoise(denoiser, None, plan, args.steps, mode,
                                     seed, latent_shape=shape)
            profile = frame_difference_profile(video)
            jumps[mode] = boundary_jump_metric(profile, plan)
        print(f"{seed:4d} " + "".join(f"{jumps[m]:12.6f}" for m in FUSION_MODES))
        wins_none += jumps["progressive"] < jumps["none"]
        wins_uniform += jumps["progressive"] <= jumps["uniform"]

    n = args.seeds
    print(f"progressive < none on {wins_none}/{n} seeds; "
          f"progressive <= uniform on {wins_uniform}/{n}")
    print(f"({3 * n} runs in {time.perf_counter() - t0:.2f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
