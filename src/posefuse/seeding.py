"""Deterministic per-purpose random streams.

Every stochastic site derives its generator from a base seed plus a
small integer key path, so runs reproduce bit-for-bit regardless of
the order in which the streams are drawn. numpy's SeedSequence does the
mixing; the key path is simply spawned into it.
"""

from __future__ import annotations

import numpy as np


def stream_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *key)."""
    if seed < 0 or any(k < 0 for k in key):
        raise ValueError("seed and key parts must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))
