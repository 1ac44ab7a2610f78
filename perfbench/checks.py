"""Output checks, each computed apart from the program.

The file decoders, the segment planner, the denoise-and-fuse reference,
the rasterizer reference, the hand-box rule and the direct convolution
below are written from the documented method, not from posefuse's
code. Only layout data (edges, colours, hand indices, bone tree) and
the PoseNet layer table are taken from the package. Every check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np
from posefuse.posenet import LAYER_SPECS
from posefuse.skeleton import WHOLEBODY_133 as LAYOUT

# Radii are given in pixels at this canvas height (documented in render).
RENDER_REFERENCE_HEIGHT = 768
KEYPOINT_RADIUS = LIMB_THICKNESS = 4.0
RETARGET_CONF_FLOOR = 0.3
MIN_PAD_PX = 4
LATENT_PIXELS_SAMPLED = 24
RASTER_FRAMES_SAMPLED = 4
RASTER_RANDOM_PIXELS = 256


# ------------------------------------------------------------ file decoders

def decode_mmtl(data: bytes) -> np.ndarray:
    if data[:4] != b"MMTL" or data[4] != 1 or data[5] != 1:
        raise ValueError("not a version-1 float32 MMTL tensor")
    ndim = data[6]
    dims = struct.unpack(f"<{ndim}I", data[7:7 + 4 * ndim])
    payload = data[7 + 4 * ndim:]
    if len(payload) != 4 * math.prod(dims):
        raise ValueError("MMTL payload size does not match its dims")
    return np.frombuffer(payload, dtype="<f4").reshape(dims)


def decode_pnm(data: bytes, magic: bytes, channels: int) -> np.ndarray:
    head = data.split(b"\n", 3)
    if len(head) != 4 or head[0] != magic or head[2] != b"255":
        raise ValueError(f"not a canonical {magic.decode()} raster")
    w, h = (int(v) for v in head[1].split())
    body = head[3]
    if len(body) != w * h * channels:
        raise ValueError("raster payload size does not match its header")
    shape = (h, w, channels) if channels > 1 else (h, w)
    return np.frombuffer(body, dtype=np.uint8).reshape(shape)


# ------------------------------------------------------------ long video

def plan_starts(total: int, n: int, c: int) -> list[int]:
    """Starts advance by n - c; the last segment is pinned to end at total."""
    starts = [0]
    while starts[-1] + n < total:
        starts.append(min(starts[-1] + n - c, total - n))
    return starts


def reference_latents(cfg: dict, mode: str, pixels: np.ndarray) -> np.ndarray:
    """(L, P) latent values at flat pixel indices, simulated per pixel.

    Segment i starts from SeedSequence([seed, i, 0]) noise; every step
    pulls each copy a fraction eta toward its segment's sinusoid, then
    fuses shared frames from the pre-fusion values.
    """
    total, n, c = cfg["total_frames"], cfg["segment_length"], cfg["context_overlap"]
    seed, eta = cfg["seed"], cfg.get("eta", 0.35)
    jitter = cfg.get("phase_jitter", 0.3)
    lo, hi = cfg.get("period_min", 24.0), cfg.get("period_max", 48.0)
    shape = (cfg["latent_channels"], cfg["latent_height"], cfg["latent_width"])
    starts = plan_starts(total, n, c)

    def rng(*key):
        return np.random.default_rng(np.random.SeedSequence([seed, *key]))

    period = rng(100).uniform(lo, hi, size=shape).reshape(-1)[pixels]
    pixel_phase = rng(101).uniform(0.0, 2.0 * math.pi, size=shape).reshape(-1)[pixels]
    seg_phase = rng(102).uniform(-jitter, jitter, size=len(starts))
    z = np.stack([rng(i, 0).standard_normal((n,) + shape).reshape(n, -1)[:, pixels]
                  for i in range(len(starts))])
    frames = np.array(starts)[:, None] + np.arange(n)[None, :]
    target = np.sin(2.0 * math.pi * frames[:, :, None] / period
                    + pixel_phase + seg_phase[:, None, None])

    holders = [[i for i, s in enumerate(starts) if s <= f < s + n]
               for f in range(total)]
    for _step in range(cfg["steps"]):
        z = z + eta * (target - z)
        if mode == "none":
            continue
        before = z.copy()
        for f, hold in enumerate(holders):
            if len(hold) < 2:
                continue
            if mode == "uniform":
                value = sum(before[i, f - starts[i]] for i in hold) / len(hold)
            else:  # progressive: the later adjacent pair decides
                prev, nxt = hold[-2], hold[-1]
                m = f - starts[nxt]
                w = (m + 1) / (c + 1) if m < c else 1.0
                value = (w * before[nxt, f - starts[nxt]]
                         + (1.0 - w) * before[prev, f - starts[prev]])
            for i in hold:
                z[i, f - starts[i]] = value
    video = np.empty((total, len(pixels)))
    for i, s in enumerate(starts):
        cut = starts[i + 1] if i + 1 < len(starts) else total
        video[s:cut] = z[i, :cut - s]
    return video


def seam_jump(profile: np.ndarray, starts: list[int], n: int) -> float:
    """Worst seam transition minus the median interior transition."""
    last = len(profile) - 1
    marks = sorted({min(max(f, 0), last)
                    for i in range(len(starts) - 1)
                    for f in (starts[i + 1] - 1, starts[i] + n - 1)})
    interior = np.delete(profile, marks)
    return float(profile[marks].max() - np.median(interior))


def sampled_pixels(cfg: dict) -> np.ndarray:
    size = cfg["latent_channels"] * cfg["latent_height"] * cfg["latent_width"]
    rng = np.random.default_rng([cfg["seed"], 3])
    return np.sort(rng.choice(size, size=min(size, LATENT_PIXELS_SAMPLED),
                              replace=False))


def check_longvideo(out: Path, cfg: dict, modes) -> list[str]:
    problems = []
    total, n, c = cfg["total_frames"], cfg["segment_length"], cfg["context_overlap"]
    shape = (total, cfg["latent_channels"], cfg["latent_height"], cfg["latent_width"])
    starts = plan_starts(total, n, c)
    pixels = sampled_pixels(cfg)
    jumps = {}
    for mode in modes:
        d = out / mode
        try:
            video = decode_mmtl((d / "latents.mmtl").read_bytes())
            plan = (d / "plan.txt").read_text(encoding="ascii")
            profile_txt = np.array([float(v) for v in
                                    (d / "profile.txt").read_text().split()])
            metrics = dict(line.split() for line in
                           (d / "metrics.txt").read_text().splitlines())
            jump, mean_d = float(metrics["boundary_jump"]), float(metrics["mean_d"])
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{mode}: unreadable output: {exc}")
            continue
        if video.shape != shape:
            problems.append(f"{mode}: latents shape {video.shape} != {shape}")
            continue
        want_plan = f"{total} {n} {c}: {','.join(map(str, starts))}\n"
        if plan != want_plan:
            problems.append(f"{mode}: plan.txt {plan!r} != {want_plan!r}")
        ref = reference_latents(cfg, mode, pixels)
        got = video.reshape(total, -1)[:, pixels].astype(np.float64)
        ulp = np.spacing(np.abs(ref).astype(np.float32)).astype(np.float64)
        bad = np.abs(got - ref) > ulp
        if bad.any():
            f, p = np.argwhere(bad)[0]
            problems.append(f"{mode}: latent frame {f} pixel {pixels[p]} is "
                            f"{got[f, p]!r}, reference {ref[f, p]!r}")
        flat = video.reshape(total, -1).astype(np.float64)
        profile = np.abs(np.diff(flat, axis=0)).mean(axis=1)
        if (profile_txt.shape != profile.shape
                or not np.allclose(profile_txt, profile, rtol=1e-5, atol=1e-6)):
            problems.append(f"{mode}: profile.txt disagrees with the latents")
            continue
        if not math.isclose(jump, seam_jump(profile_txt, starts, n),
                            rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"{mode}: boundary_jump {jump!r} disagrees with "
                            f"the profile")
        if not math.isclose(mean_d, float(profile_txt.mean()),
                            rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"{mode}: mean_d {mean_d!r} disagrees with the profile")
        jumps[mode] = jump
    if set(jumps) == {"progressive", "uniform", "none"}:
        problems += check_seam_order(jumps)
    return problems


def check_seam_order(jumps: dict[str, float]) -> list[str]:
    """The paper's claim: progressive fusion leaves the smallest seams."""
    if jumps["progressive"] < jumps["uniform"] < jumps["none"]:
        return []
    return [f"seam jumps not ordered progressive < uniform < none: {jumps}"]


# ------------------------------------------------------------ guidance export

def read_pose_document(path: Path) -> tuple[np.ndarray, int, int]:
    """(F, K, 3) keypoints normalized by the source canvas, conf clamped."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    kps = np.array([f["keypoints"] for f in doc["frames"]], dtype=np.float64)
    kps[:, :, 0] /= doc["width"]
    kps[:, :, 1] /= doc["height"]
    kps[:, :, 2] = np.clip(kps[:, :, 2], 0.0, 1.0)
    return kps, doc["width"], doc["height"]


def reference_pixels(kps: np.ndarray, width: int, height: int,
                     ys: np.ndarray, xs: np.ndarray):
    """round(255 * max(colour * conf)) over the strokes covering each pixel.

    Coverage tests the pixel centre against every keypoint disc and
    every limb capsule (distance to the bone segment). Returns the
    expected (P, 3) bytes and a mask of pixels lying so close to a
    stroke edge that floating-point rounding could decide them.
    """
    scale = height / RENDER_REFERENCE_HEIGHT
    radius = max(1.0, KEYPOINT_RADIUS * scale)
    half = max(1.0, LIMB_THICKNESS * scale) / 2.0
    x, y, conf = kps[:, 0] * width, kps[:, 1] * height, kps[:, 2]
    cx, cy = xs[:, None] + 0.5, ys[:, None] + 0.5

    a, b = np.array([(e[0], e[1]) for e in LAYOUT.edges]).T
    ax, ay, bx, by = x[a], y[a], x[b], y[b]
    length = np.hypot(bx - ax, by - ay)
    ux = np.divide(bx - ax, length, out=np.zeros_like(length), where=length > 0)
    uy = np.divide(by - ay, length, out=np.zeros_like(length), where=length > 0)
    along = (cx - ax) * ux + (cy - ay) * uy
    perp = np.abs((cx - ax) * uy - (cy - ay) * ux)
    dist = np.where(along <= 0, np.hypot(cx - ax, cy - ay),
                    np.where(along > length, np.hypot(cx - bx, cy - by), perp))
    edge_conf = np.minimum(conf[a], conf[b])
    disc_dist = np.hypot(cx - x, cy - y)

    value = np.zeros((len(xs), 3))
    for d, r, colours, c in ((dist, half, LAYOUT.edge_colors, edge_conf),
                             (disc_dist, radius, LAYOUT.keypoint_colors, conf)):
        covered = (d <= r) & (c > 0)
        contrib = np.where(covered[:, :, None], colours * c[:, None], 0.0)
        value = np.maximum(value, contrib.max(axis=1))
    ambiguous = ((np.abs(dist - half) < 1e-6).any(axis=1)
                 | (np.abs(disc_dist - radius) < 1e-6).any(axis=1))
    return np.rint(value * 255.0), ambiguous


def stroke_pixels(kps: np.ndarray, width: int, height: int):
    """Pixels under every keypoint and every bone midpoint (ys, xs)."""
    x, y = kps[:, 0] * width, kps[:, 1] * height
    a, b = np.array([(e[0], e[1]) for e in LAYOUT.edges]).T
    px = np.concatenate([x, (x[a] + x[b]) / 2])
    py = np.concatenate([y, (y[a] + y[b]) / 2])
    inside = (px >= 0) & (px < width) & (py >= 0) & (py < height)
    return py[inside].astype(int), px[inside].astype(int)


def hand_box(kps: np.ndarray, idxs, pad_frac: float, width: int, height: int):
    xs, ys = kps[idxs, 0] * width, kps[idxs, 1] * height
    pad = max(MIN_PAD_PX, pad_frac * max(xs.max() - xs.min(), ys.max() - ys.min()))
    x0, y0 = max(0, math.floor(xs.min() - pad)), max(0, math.floor(ys.min() - pad))
    x1 = min(width, math.ceil(xs.max() + pad))
    y1 = min(height, math.ceil(ys.max() + pad))
    return x0, y0, x1, y1


def check_guidance(out: Path, poses: Path, wm_frames, dip: range, size,
                   hand) -> list[str]:
    problems = []
    width, height = size
    tau, pad_frac, w_hand = hand
    kps, src_w, src_h = read_pose_document(poses)
    frames = len(kps)
    ppms = sorted((out / "frames").glob("*.ppm"))
    if [p.name for p in ppms] != [f"frame_{i:05d}.ppm" for i in range(frames)]:
        return [f"expected {frames} PPM frames, found {len(ppms)}"]
    rng = np.random.default_rng(frames)
    for f in sorted(rng.choice(frames, RASTER_FRAMES_SAMPLED, replace=False)):
        try:
            img = decode_pnm(ppms[f].read_bytes(), b"P6", 3)
        except ValueError as exc:
            problems.append(f"frame {f}: {exc}")
            continue
        if img.shape != (height, width, 3):
            problems.append(f"frame {f}: shape {img.shape}")
            continue
        sy, sx = stroke_pixels(kps[f], width, height)
        ys = np.concatenate([sy, rng.integers(0, height, RASTER_RANDOM_PIXELS)])
        xs = np.concatenate([sx, rng.integers(0, width, RASTER_RANDOM_PIXELS)])
        want, ambiguous = reference_pixels(kps[f], width, height, ys, xs)
        got = img[ys, xs].astype(np.float64)
        bad = np.flatnonzero((got != want).any(axis=1) & ~ambiguous)
        if bad.size:
            i = bad[0]
            problems.append(f"frame {f}: pixel ({xs[i]}, {ys[i]}) is "
                            f"{got[i].tolist()}, reference {want[i].tolist()}")

    hands = [LAYOUT.hand_indices(side) for side in ("left", "right")]
    for f in wm_frames:
        path = out / f"wm_{f:05d}.mmtl"
        try:
            wm = decode_mmtl(path.read_bytes())
            preview = decode_pnm(path.with_suffix(".pgm").read_bytes(), b"P5", 1)
        except (OSError, ValueError) as exc:
            problems.append(f"weight map {f}: {exc}")
            continue
        want = np.zeros((src_h, src_w), dtype=bool)
        boxes = 0
        for idxs in hands:
            if np.all(kps[f][list(idxs), 2] > tau):
                x0, y0, x1, y1 = hand_box(kps[f], list(idxs), pad_frac, src_w, src_h)
                want[y0:y1, x0:x1] = True
                boxes += 1
        if wm.shape != want.shape:
            problems.append(f"weight map {f}: shape {wm.shape}")
            continue
        if not (np.array_equal(wm == w_hand, want) and np.all(wm[~want] == 1.0)):
            problems.append(f"weight map {f}: amplified pixels are not the "
                            f"reliable hands' padded boxes")
        if not np.array_equal(preview, np.where(want, 255, 25)):
            problems.append(f"weight map {f}: preview disagrees with the boxes")
        if boxes != (1 if f in dip else 2):
            problems.append(f"weight map {f}: {boxes} reliable hands")
    return problems


# ------------------------------------------------------------ pose features

def direct_posenet(image: np.ndarray, weights) -> np.ndarray:
    """One (3, H, W) frame through the layer table by shift-and-add conv."""
    x = image
    last = len(LAYER_SPECS) - 1
    for i, (_name, _cin, cout, k, s, p) in enumerate(LAYER_SPECS):
        kern, bias = weights.kernels[i], weights.biases[i]
        xp = np.pad(x, ((0, 0), (p, p), (p, p)))
        oh = (xp.shape[1] - k) // s + 1
        ow = (xp.shape[2] - k) // s + 1
        y = np.zeros((cout, oh, ow)) + bias[:, None, None]
        for ky in range(k):
            for kx in range(k):
                patch = xp[:, ky:ky + s * (oh - 1) + 1:s, kx:kx + s * (ow - 1) + 1:s]
                y += np.einsum("oc,chw->ohw", kern[:, :, ky, kx], patch)
        if i != last:
            with np.errstate(over="ignore"):
                y = y / (1.0 + np.exp(-y))
        x = y
    return x


def check_pose_features(path: Path, features, images, weights, forward,
                        chunk: int, poses: Path, reference: np.ndarray,
                        retargeted) -> list[str]:
    problems = []
    n, _c, h, w = images.shape
    want_shape = (n, 320, h // 8, w // 8)
    try:
        stored = decode_mmtl(path.read_bytes())
    except (OSError, ValueError) as exc:
        return [f"features: {exc}"]
    if stored.shape != want_shape or features.shape != want_shape:
        return [f"features shape {stored.shape} != {want_shape}"]
    if not np.array_equal(stored, features.astype(np.float32)):
        problems.append("features.mmtl is not the float32 of the features")
    k = n // 2 + 1
    if not np.allclose(features[k], direct_posenet(images[k], weights),
                       rtol=1e-10, atol=1e-12):
        problems.append(f"frame {k} differs from the direct convolution")
    if not np.allclose(forward(images[k:k + 1], weights)[0], features[k],
                       rtol=1e-10, atol=1e-12):
        problems.append(f"frame {k} alone differs from its row in chunk "
                        f"{k // chunk}")

    tmpl, _w, _h = read_pose_document(poses)
    parents = retargeted.layout.bone_tree
    ratio = np.ones(len(parents))
    for child, p in enumerate(parents):
        if p < 0 or min(reference[child, 2], reference[p, 2]) < RETARGET_CONF_FLOOR:
            continue
        t_len = math.dist(tmpl[0, child, :2], tmpl[0, p, :2])
        if t_len > 0:
            ratio[child] = math.dist(reference[child, :2], reference[p, :2]) / t_len
    bones = [(child, p) for child, p in enumerate(parents) if p >= 0]
    ci, pi = np.array(bones).T
    for f, frame in enumerate(retargeted.frames):
        new, old = frame.data, tmpl[f]
        want = (old[ci, :2] - old[pi, :2]) * ratio[ci][:, None]
        if not (np.allclose(new[ci, :2] - new[pi, :2], want, rtol=1e-9, atol=1e-12)
                and np.array_equal(new[0], old[0])
                and np.array_equal(new[:, 2], old[:, 2])):
            problems.append(f"retargeted frame {f}: bones not scaled by the "
                            f"reference-to-template ratio")
            break
    return problems
