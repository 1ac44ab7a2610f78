"""Run configuration: a flat JSON document whose keys mirror RunConfig
field names exactly. Loading re-validates every constraint owned by the
modules the fields feed (segment planner, latent stack, denoisers), so a
bad config fails at load time rather than mid-run.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .fusion import _check_stack_size
from .pose import _finite_number

DENOISER_KINDS = ("phase_smoother", "analytic_gaussian")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    # long-video segmentation and denoising
    total_frames: int = 36
    segment_length: int = 16
    context_overlap: int = 6
    steps: int = 25
    seed: int = 0
    # per-frame latent dims
    latent_channels: int = 4
    latent_height: int = 8
    latent_width: int = 8
    # toy denoiser kind and parameters
    denoiser: str = "phase_smoother"
    eta: float = 0.35
    phase_jitter: float = 0.3
    period_min: float = 24.0
    period_max: float = 48.0
    mu: float = 0.0
    sigma0: float = 1.0
    # artifact output
    out_dir: str = "out"


_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = sorted(set(doc) - _FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    defaults = RunConfig()
    clean = {}
    for key, value in doc.items():
        have = getattr(defaults, key)
        if isinstance(have, int):
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif isinstance(have, float):
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            if ok:
                value = _finite_number(value, integer=False)
                if value is None:
                    raise ConfigError(f"{key} must be a finite float, got "
                                      f"{doc[key]!r:.40}")
        else:
            ok = isinstance(value, str)
        if not ok:
            raise ConfigError(f"{key}: expected {type(have).__name__}, "
                              f"got {type(value).__name__}")
        clean[key] = value
    cfg = RunConfig(**clean)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    def need(ok: bool, msg: str):
        if not ok:
            raise ConfigError(msg)

    # the seam metrics need a frame-to-frame difference
    need(cfg.total_frames >= 2, "total_frames must be >= 2")
    need(cfg.steps >= 1, "steps must be >= 1")
    need(0 <= cfg.seed < 2 ** 64, "seed must fit in 64 bits")
    need(cfg.latent_channels >= 1 and cfg.latent_height >= 1
         and cfg.latent_width >= 1, "latent dims must be >= 1")
    shape = (cfg.latent_channels, cfg.latent_height, cfg.latent_width)
    try:  # the overlap, then the segment stack run_long_denoise allocates
        _check_stack_size(cfg.total_frames, cfg.segment_length,
                          cfg.context_overlap, shape)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    need(cfg.denoiser in DENOISER_KINDS,
         f"denoiser must be one of {DENOISER_KINDS}")
    need(0 < cfg.eta <= 1, "eta must lie in (0, 1]")
    # the phase stand-in draws offsets from a range 2 * phase_jitter wide
    need(0 <= cfg.phase_jitter and math.isfinite(2 * cfg.phase_jitter),
         "phase_jitter must be >= 0 with 2 * phase_jitter finite")
    need(0 < cfg.period_min < cfg.period_max,
         "need 0 < period_min < period_max")
    need(cfg.sigma0 > 0, "sigma0 must be > 0")


def load_run_config(path: str | Path) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors, as is an
        # integer over the interpreter's digit limit; deep nesting recurses
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return config_from_dict(doc)
