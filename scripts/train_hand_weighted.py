#!/usr/bin/env python3
"""Show what hand-region loss weighting buys on a capacity-limited model.

Builds a noise-prediction problem where the target slope differs inside
a small "hand" box (2.0) from everywhere else (0.5). A per-channel
affine predictor cannot satisfy both, so training has to trade regions
off against each other; amplifying the box's loss weight moves the
compromise toward the hand at a small cost elsewhere. Prints, for each
weighting, the final MSE inside and outside the box, the training loss
and the fitted affine parameters, then how much the hand-region MSE fell.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from posefuse.diffusion import (TrainingDiverged, train_toy_denoiser,
                                weighted_eps_loss)


def region_mse(params, samples, mask: np.ndarray) -> tuple[float, float]:
    inside = []
    outside = []
    for x_t, eps, _t in samples:
        d2 = (params.predict(x_t) - eps) ** 2
        inside.append(d2[:, :, mask])
        outside.append(d2[:, :, ~mask])
    return float(np.mean(inside)), float(np.mean(outside))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--w-hand", type=float, default=10.0)
    parser.add_argument("--steps", type=int, default=4000)
    parser.add_argument("--lr", type=float, default=0.05)
    parser.add_argument("--samples", type=int, default=3)
    parser.add_argument("--seed", type=int, default=88)
    args = parser.parse_args(argv)
    for name in ("steps", "samples"):
        if getattr(args, name) < 1:
            parser.error(f"--{name} must be >= 1")
    # a hand weight below 1 would damp the hand, which the package refuses
    if not 1.0 <= args.w_hand < math.inf:
        parser.error("--w-hand must be finite and >= 1")
    if not 0.0 < args.lr < math.inf:
        parser.error("--lr must be finite and > 0")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    rng = np.random.default_rng(args.seed)
    mask = np.zeros((8, 8), dtype=bool)
    mask[2:6, 3:7] = True
    samples = []
    for t in range(1, args.samples + 1):
        x_t = rng.normal(size=(2, 1, 8, 8))
        eps = np.where(mask, 2.0 * x_t, 0.5 * x_t)
        samples.append((x_t, eps, t))

    weightings = {
        "uniform": np.ones((8, 8)),
        f"hand x{args.w_hand:g}": np.where(mask, args.w_hand, 1.0),
    }
    try:  # train both before printing, so a diverged run prints nothing
        trained = {name: train_toy_denoiser(samples, w, args.steps, args.lr)[0]
                   for name, w in weightings.items()}
    except TrainingDiverged as err:
        parser.error(f"{err}; try a lower --lr")
    print(f"{'weighting':>12} {'hand MSE':>10} {'elsewhere':>10} "
          f"{'train loss':>11} {'a':>8} {'b':>8}")
    results = {}
    for name, w in weightings.items():
        params = trained[name]
        hand, rest = region_mse(params, samples, mask)
        loss = np.mean([weighted_eps_loss(params.predict(x), e, w)
                        for x, e, _ in samples])
        print(f"{name:>12} {hand:10.5f} {rest:10.5f} {loss:11.6f} "
              f"{params.a[0]:8.4f} {params.b[0]:8.4f}")
        results[name] = hand

    names = list(weightings)
    gain = results[names[0]] - results[names[1]]
    print(f"hand-region MSE improvement from weighting: {gain:.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
