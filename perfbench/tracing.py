"""Per-layer tracing from outside the package.

The tracer replaces the posefuse functions that a workload reaches
through ``posefuse.cli``'s module attributes and the benchmark's own
library namespace with timing wrappers, and puts the originals back
when removed. Nothing inside the package changes. Spans (name, start,
end, parent) are kept in memory for the report; each round's
per-layer times and counts are summed at the same calls.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np
from posefuse.posenet import LAYER_SPECS

clock = time.perf_counter

# Which timed layer each wrapped function belongs to. Nothing listed here
# calls another listed function, so their times never overlap.
LAYER_OF = {
    "run_long_denoise": "fusion.total",
    "frame_difference_profile": "fusion.seam_metrics_s",
    "boundary_jump_metric": "fusion.seam_metrics_s",
    "parse_pose_sequence": "pose.parse_s",
    "retarget_limb_lengths": "pose.retarget_s",
    "render_frame": "render.render_s",
    "build_weight_map": "regions.weight_map_s",
    "downsample_weight_map": "regions.weight_map_s",
    "mmtl_encode": "io_formats.encode_s",
    "ppm_encode": "io_formats.encode_s",
    "pgm_encode": "io_formats.encode_s",
    "image_to_u8": "io_formats.encode_s",
    "posenet_forward": "posenet.forward_s",
    "load_posenet_weights": "posenet.load_s",
}

# Every per-layer figure and its unit, in report order.
PER_LAYER = {
    "fusion.denoise_s": "s", "fusion.denoise_calls": "count",
    "fusion.fuse_s": "s", "fusion.init_s": "s", "fusion.assemble_s": "s",
    "fusion.segments": "count", "fusion.shared_frames": "count",
    "fusion.latent_mb": "MB", "fusion.seam_metrics_s": "s",
    "pose.parse_s": "s", "pose.retarget_s": "s", "pose.frames": "count",
    "render.render_s": "s", "render.frames": "count",
    "render.strokes": "count", "render.mpixels": "count",
    "regions.weight_map_s": "s", "regions.reliable_hands": "count",
    "io_formats.encode_s": "s", "io_formats.mb_out": "MB",
    "posenet.forward_s": "s", "posenet.frames": "count",
    "posenet.gflop": "GFLOP", "posenet.gflop_per_s": "GFLOP/s",
    "posenet.im2col_mb": "MB", "posenet.load_s": "s",
    "cli.other_s": "s", "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.values: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, *targets) -> None:
        """Wrap every function of LAYER_OF found on the given objects."""
        for target in targets:
            for name in LAYER_OF:
                fn = getattr(target, name, None)
                if fn is not None:
                    self._patched.append((target, name, fn))
                    setattr(target, name, self._wrap(name, fn))

    def remove(self) -> None:
        for target, name, fn in reversed(self._patched):
            setattr(target, name, fn)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.values = defaultdict(float)

    def _span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; returns (result, seconds)."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        start = clock()
        self.spans.append((name, start, start, parent))
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            end = clock()
            self.spans[index] = (name, start, end, parent)
        return result, end - start

    def _wrap(self, name: str, fn):
        layer = LAYER_OF[name]
        count = getattr(self, "_count_" + name, None)
        inner = self._fusion(fn) if name == "run_long_denoise" else fn

        def traced(*args, **kwargs):
            result, seconds = self._span(name, inner, *args, **kwargs)
            self.values[layer] += seconds
            if count is not None:
                count(args, result)
            return result

        return traced

    # ---- fusion: denoise calls, per-step fuse time, init and assemble

    def _fusion(self, run_long_denoise):
        def fused(denoiser, cond, plan, steps, *args, on_step=None, **kwargs):
            marks = {"first": None, "last": None, "step_denoise": 0.0}
            v = self.values
            t_call = clock()

            def denoise(z, c, t):
                if marks["first"] is None:
                    marks["first"] = clock()
                out, dt = self._span("denoise", denoiser, z, c, t)
                marks["step_denoise"] += dt
                v["fusion.denoise_s"] += dt
                v["fusion.denoise_calls"] += 1
                return out

            def step(t, latents):
                now = clock()
                begin = marks["last"] if marks["last"] is not None else marks["first"]
                v["fusion.fuse_s"] += now - begin - marks["step_denoise"]
                marks["step_denoise"] = 0.0
                if on_step is not None:
                    on_step(t, latents)
                marks["last"] = clock()

            video = run_long_denoise(denoise, cond, plan, steps, *args,
                                     on_step=step, **kwargs)
            v["fusion.init_s"] += marks["first"] - t_call
            v["fusion.assemble_s"] += clock() - marks["last"]
            held = np.zeros(plan.total_frames, dtype=int)
            for s, e in plan.segments:
                held[s:e] += 1
            per_frame = np.prod(video.shape[1:]) * 8 / 1e6
            # these describe the workload: the largest call, not a sum
            for key, value in (("fusion.segments", len(plan)),
                               ("fusion.shared_frames", int((held > 1).sum())),
                               ("fusion.latent_mb",
                                len(plan) * plan.frames_per_segment * per_frame)):
                v[key] = max(v[key], value)
            return video

        return fused

    # ---- counts taken at the same calls

    def _count_parse_pose_sequence(self, args, seq):
        self.values["pose.frames"] += len(seq)

    def _count_render_frame(self, args, gm):
        frame, style = args[0], args[1]
        conf = frame.conf
        a, b = np.array([(e[0], e[1]) for e in frame.layout.edges]).T
        edge_conf = np.minimum(conf[a], conf[b])
        if style.confidence_mode == "threshold":
            drawn = (edge_conf >= style.threshold).sum() + (conf >= style.threshold).sum()
        else:
            drawn = (edge_conf > 0).sum() + (conf > 0).sum()
        self.values["render.frames"] += 1
        self.values["render.strokes"] += int(drawn)
        self.values["render.mpixels"] += gm.width * gm.height / 1e6

    def _count_build_weight_map(self, args, wm):
        frame, tau = args[0], args[1]
        for side in ("left", "right"):
            idxs = list(frame.layout.hand_indices(side))
            self.values["regions.reliable_hands"] += int(np.all(frame.conf[idxs] > tau))

    def _count_encoded(self, args, blob):
        self.values["io_formats.mb_out"] += len(blob) / 1e6

    _count_mmtl_encode = _count_ppm_encode = _count_pgm_encode = _count_encoded

    def _count_posenet_forward(self, args, out):
        n, _c, h, w = args[0].shape
        flop = 0.0
        largest = 0.0
        for _name, cin, cout, k, s, p in LAYER_SPECS:
            h = (h + 2 * p - k) // s + 1
            w = (w + 2 * p - k) // s + 1
            flop += 2.0 * n * h * w * cout * cin * k * k
            largest = max(largest, n * h * w * cin * k * k * 8 / 1e6)
        v = self.values
        v["posenet.frames"] += n
        v["posenet.gflop"] += flop / 1e9
        v["posenet.im2col_mb"] = max(v["posenet.im2col_mb"], largest)

    # ---- one round's figures

    def round_metrics(self, round_s: float) -> dict[str, float]:
        v = dict(self.values)
        in_round = set(LAYER_OF.values()) - {"posenet.load_s"}
        v["cli.other_s"] = round_s - sum(v.get(key, 0.0) for key in in_round)
        forward = v.get("posenet.forward_s", 0.0)
        v["posenet.gflop_per_s"] = v.get("posenet.gflop", 0.0) / forward if forward else 0.0
        return v


def layer_table(rounds: list[dict[str, float]], load_s: float,
                overhead_s: float) -> dict[str, float]:
    """Median of each per-layer figure over the traced rounds."""
    out = {key: float(np.median([r.get(key, 0.0) for r in rounds]))
           for key in PER_LAYER}
    out.update({"posenet.load_s": load_s, "trace.overhead_s": overhead_s})
    return out


def span_dump(spans) -> list[dict]:
    t0 = spans[0][1] if spans else 0.0
    return [{"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p}
            for n, s, e, p in spans]

