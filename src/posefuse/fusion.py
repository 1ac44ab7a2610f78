"""Segment planning and progressive latent fusion for long videos.

A long clip of L frames is denoised as overlapping segments of N frames
(consecutive segments share at least C frames). The segments holding a
frame form one contiguous run, and every overlap index is computed from
these holder ranges in closed form. Every segment sits at the same noise
level, so one denoiser call per step updates the whole segment stack.
After every step each shared frame becomes one weighted average of its
copies, given to all of them, which keeps segments consistent going
into the next step. Progressive fusion ramps: at overlap position k
(1-based) the incoming segment gets weight k/(C+1) and the outgoing
segment the remainder, so each transition inside the overlap moves by
at most 1/(C+1) of the disagreement. Uniform fusion (plain averaging of
all copies) and no fusion are kept alongside as ablation baselines.

The initial noise draws (split over segments) and the fusion walk
(split over shared frames) each run in two halves on two cores through
``diffusion._halves`` (see ``diffusion._both``), while the denoiser is
still called once per step from the caller's thread. No frame belongs
to both halves, so the bits are those of a single-threaded run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .diffusion import Condition, Denoiser, _halves
from .render import MAX_ELEMENTS
from .seeding import stream_rng

FUSION_MODES = ("progressive", "uniform", "none")


@dataclass(frozen=True)
class SegmentPlan:
    """Half-open frame ranges [start, start + n) covering [0, L).

    Every segment holds n = min(L, N) frames, so a clip shorter than one
    segment degrades to the single segment [0, L).
    """

    total_frames: int
    segment_length: int
    context_overlap: int
    starts: tuple[int, ...]

    @property
    def frames_per_segment(self) -> int:
        return min(self.total_frames, self.segment_length)

    @property
    def segments(self) -> tuple[tuple[int, int], ...]:
        n = self.frames_per_segment
        return tuple((s, s + n) for s in self.starts)

    @property
    def frame_index(self) -> np.ndarray:
        """(S, N) int array: the clip frame held at segment i, slot k."""
        return np.add.outer(self.starts, np.arange(self.frames_per_segment))

    def __len__(self) -> int:
        return len(self.starts)


def _segment_count(L: int, N: int, C: int) -> int:
    """Segments of a plan: 1, plus ceil((L - N) / (N - C)) when L > N."""
    return 1 + max(0, -(-(L - N) // (N - C)))


def _check_overlap(N: int, C: int) -> None:
    if not 0 < C < N:
        raise ValueError(f"overlap must be smaller than segment length "
                         f"(got C={C}, N={N})")


def _check_stack_size(L: int, N: int, C: int, latent_shape: tuple) -> None:
    """Reject an overlap outside (0, N), then a plan whose segment stack
    would exceed ``MAX_ELEMENTS``, both before any plan is built."""
    _check_overlap(N, C)
    if _segment_count(L, N, C) * min(L, N) * math.prod(latent_shape) \
            > MAX_ELEMENTS:
        raise ValueError(f"segment latents exceed {MAX_ELEMENTS} elements")


def plan_segments(total_frames: int, segment_length: int,
                  context_overlap: int) -> SegmentPlan:
    """Choose segment starts covering [0, total_frames).

    Starts advance by segment_length - context_overlap, and the last
    segment is pinned to end exactly at total_frames, which can only
    enlarge its overlap with the previous segment. A clip shorter than
    one segment yields the single segment [0, total_frames).
    """
    L, N, C = total_frames, segment_length, context_overlap
    _check_overlap(N, C)
    if L < 1:
        raise ValueError("total_frames must be >= 1")
    stride, last = N - C, _segment_count(L, N, C) - 1
    return SegmentPlan(L, N, C, tuple(range(0, last * stride, stride))
                       + (max(L - N, 0),))


def format_plan(plan: SegmentPlan) -> str:
    starts = ",".join(str(s) for s in plan.starts)
    return (f"{plan.total_frames} {plan.segment_length} "
            f"{plan.context_overlap}: {starts}")


def overlap_weights(context_overlap: int, overlap_size: int) -> np.ndarray:
    """Incoming-segment weight at each position of an actual overlap.

    Position m (0-based) gets (m + 1) / (C + 1); when the overlap
    exceeds C (a pinned tail segment), positions past the ramp belong
    to the incoming segment outright.
    """
    if overlap_size < 1:
        raise ValueError("overlap_size must be >= 1")
    return np.minimum(np.arange(1, overlap_size + 1) / (context_overlap + 1),
                      1.0)


def _holders(plan: SegmentPlan) -> tuple[np.ndarray, np.ndarray]:
    """First and last segment holding each clip frame, as (L,) arrays.

    Segment i holds f when f - n < start_i <= f; starts increase, so the
    holders of f are the contiguous run first[f]..last[f].
    """
    frames = np.arange(plan.total_frames)
    first = np.searchsorted(plan.starts, frames - plan.frames_per_segment,
                            side="right")
    last = np.searchsorted(plan.starts, frames, side="right") - 1
    return first, last


# elements per block of shared frames, so that a block and its scratch
# stay cache-sized on each of the two halves; a private constant, not an
# option
_BLOCK_ELEMENTS = 1 << 15

_Block = tuple[int, np.ndarray, np.ndarray | None, np.ndarray | None]


def _fusion_blocks(plan: SegmentPlan, mode: str,
                   row: int) -> tuple[_Block, ...]:
    """Each mode's fusion rule, as weights of a shared frame's holders.

    ``progressive`` gives the later adjacent pair (last - 1, last) the
    ramp of ``overlap_weights`` at the frame's place in last's overlap,
    1 - w and w, and any earlier holder 0, over a divisor of 1.
    ``uniform`` weighs every holder 1 over their count. ``none`` shares
    no frame. Entry j is the j-th shared frame in a stable sort by
    holder count. Blocks of at most ``_BLOCK_ELEMENTS // row`` entries
    (at least one) are cut from entry 0, from entry F // 2, so none
    straddles the two halves ``_halves`` splits the F entries into, and
    at each change of holder count. The m frames of block (j0, rows,
    weights, divisor) from entry j0 on have the same K holders: rows is
    (K, m), their rows of the (S*N, ...) stack in segment order; weights
    is (K, m, 1) and divisor (m, 1), each None where all are 1. Built
    once per fused stack shape, so a step's walk runs no search.
    """
    if mode not in FUSION_MODES:
        raise ValueError(f"unknown fusion mode {mode!r}, expected one of "
                         f"{FUSION_MODES}")
    n, starts = plan.frames_per_segment, np.asarray(plan.starts)
    first, last = _holders(plan)
    held = last - first + 1
    frames = np.flatnonzero((held > 1) & (mode != "none"))
    frames = frames[np.argsort(held[frames], kind="stable")]
    first, last, held = first[frames], last[frames], held[frames]
    pos = frames - starts[last]
    ramp = overlap_weights(plan.context_overlap, pos.max(initial=0) + 1)[pos]
    block = max(1, _BLOCK_ELEMENTS // row)
    cuts = sorted({0, len(frames) // 2, len(frames),
                   *(np.flatnonzero(np.diff(held)) + 1).tolist()})
    blocks = []
    for a, b in zip(cuts, cuts[1:]):
        for j0 in range(a, b, block):
            j = slice(j0, min(j0 + block, b))
            holder = first[j] + np.arange(held[j0]).reshape(-1, 1)
            weights = divisor = None
            if mode == "progressive":
                # choice 0: last, 1: last - 1, 2: earlier
                weights = np.choose(np.minimum(last[j] - holder, 2),
                                    (ramp[j], 1.0 - ramp[j], 0.0))[..., None]
            else:
                divisor = held[j].astype(np.float64).reshape(-1, 1)
            blocks.append((j0, holder * n + frames[j] - starts[holder],
                           weights, divisor))
    return tuple(blocks)


def _fuse_stack(stack: np.ndarray, blocks: tuple[_Block, ...]) -> None:
    """Fuse a C-contiguous (S, N, ...) float64 stack of segments in place.

    A shared frame becomes the sum of weight * copy over its holders in
    segment order, over its divisor. The first holder starts the sum;
    multiplies by 1 and divides by 1 are skipped, which is exact.
    ``_halves`` splits the shared frames in two, and each half walks its
    own ``blocks`` (from ``_fusion_blocks`` for this row size) through
    its own (2, block, row) scratch buffer. A block's fused values are
    computed from the pre-fusion rows before any of its rows is written,
    and no frame is in two blocks, so every copy of a frame receives the
    same value and the halves touch disjoint rows.
    """
    rows = stack.reshape(-1, math.prod(stack.shape[2:]))
    largest = max((r.shape[1] for _, r, _, _ in blocks), default=0)
    scratch = np.empty((2, 2, largest, rows.shape[1]))

    def walk(lo: int, hi: int) -> None:
        own = scratch[min(lo, 1)]  # the helper's half starts at entry 0
        for j0, copy_rows, weights, divisor in blocks:
            if not lo <= j0 < hi:
                continue
            value, term = own[:, :copy_rows.shape[1]]
            for k, holder_rows in enumerate(copy_rows):
                out = term if k else value
                # the indices are in range by construction; "clip" writes
                # straight into out, where the default "raise" buffers it
                np.take(rows, holder_rows, axis=0, out=out, mode="clip")
                if weights is not None:
                    out *= weights[k]
                if k:
                    value += term
            if divisor is not None:
                value /= divisor
            rows[copy_rows] = value

    _halves(walk, sum(r.shape[1] for _, r, _, _ in blocks))


def fuse_segments(latents: Sequence[np.ndarray], plan: SegmentPlan,
                  mode: str) -> list[np.ndarray]:
    """Fuse per-segment arrays per mode; returns new float64 arrays.

    Each shared frame becomes the weighted average of its copies that
    ``_fusion_blocks`` sets out: ``progressive`` ramps across the later
    adjacent pair of holders by ``overlap_weights``, ``uniform`` is the
    mean of all copies and ``none`` returns plain copies. Fused values
    come from the pre-fusion arrays, and every copy of a frame receives
    the same one.
    """
    stack = np.array(latents, dtype=np.float64)
    want = (len(plan), plan.frames_per_segment)
    if stack.ndim != 5 or stack.shape[:2] != want:
        raise ValueError(f"segment latents must stack to {want} + (C, H, W), "
                         f"got {stack.shape}")
    _fuse_stack(stack, _fusion_blocks(plan, mode, math.prod(stack.shape[2:])))
    return list(stack)


def run_long_denoise(denoiser: Denoiser, cond: Condition | None,
                     plan: SegmentPlan, steps: int,
                     mode: str = "progressive", seed: int = 0, *,
                     latent_shape: tuple[int, int, int],
                     on_step: Callable[[int, np.ndarray], None] | None = None,
                     ) -> np.ndarray:
    """Denoise-then-fuse over all segments; returns the (L, C, H, W) video.

    Segment i starts from Gaussian noise drawn on its own seed stream,
    each half of the segments on one side of ``_halves``. All segments
    live in one (S, N, C, H, W) stack of per-frame ``latent_shape``, and
    every segment sits at the same noise level, so each step makes one
    denoiser call on the whole stack, which the denoiser updates in place
    (it must return None), and then fuses overlaps per mode in place
    through the blocks of ``_fusion_blocks``, built once per call.
    ``cond.pose_features``, when given, must hold ``plan.total_frames``
    frames; they are gathered once into the same (S, N, ...) layout by
    ``plan.frame_index``.
    ``on_step(t, stack)`` gets the stack after fusion; later steps
    overwrite it, so a callback copies whatever it keeps. Steps count
    down from `steps` to 1.
    Each video frame comes from the last segment holding it: segment i
    gives frames [start_i, start_{i+1}), the final segment its whole
    range. After fusion all copies agree, so the choice would not matter
    on overlaps; without fusion this rule is the hard-concat baseline.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if len(latent_shape) != 3 or min(latent_shape) < 1:
        raise ValueError(f"latent_shape must be three sizes >= 1, got "
                         f"{tuple(latent_shape)}")
    _check_stack_size(plan.total_frames, plan.segment_length,
                      plan.context_overlap, latent_shape)
    blocks = _fusion_blocks(plan, mode, math.prod(latent_shape))
    pose = cond.pose_features if cond is not None else None
    if pose is not None and len(pose) != plan.total_frames:
        raise ValueError(f"pose_features hold {len(pose)} frames, expected "
                         f"total_frames={plan.total_frames}")
    cond = Condition(None if pose is None else pose[plan.frame_index])
    shape = (plan.frames_per_segment,) + tuple(latent_shape)

    stack = np.empty((len(plan),) + shape)

    def draw(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            stream_rng(seed, i, 0).standard_normal(shape, out=stack[i])

    _halves(draw, len(plan))

    for t in range(steps, 0, -1):
        if denoiser(stack, cond, t) is not None:
            raise ValueError("a denoiser must update its latents in "
                             "place and return None")
        _fuse_stack(stack, blocks)
        if on_step is not None:
            on_step(t, stack)
    # the denoiser (a phase instance holds a whole-plan target) and the
    # gathered condition are freed before the video is allocated
    del denoiser, cond
    _, last = _holders(plan)
    return stack[last, np.arange(plan.total_frames)
                 - np.asarray(plan.starts)[last]]


def frame_difference_profile(video: np.ndarray) -> np.ndarray:
    """Mean absolute change between consecutive frames, length L - 1.

    The differences are taken ``_BLOCK_ELEMENTS // row`` transitions at
    a time (at least one) in one reused buffer, not as the whole
    ``np.diff``; each row's mean is the same bits either way.
    """
    if video.ndim < 2 or video.shape[0] < 2:
        raise ValueError("need at least 2 frames")
    frames = video.reshape(video.shape[0], -1)
    n, row = frames.shape
    step = max(1, _BLOCK_ELEMENTS // max(row, 1))
    buf = np.empty((min(step, n - 1), row), frames.dtype)
    means = []
    for lo in range(0, n - 1, step):
        hi = min(lo + step, n - 1)
        diffs = np.subtract(frames[lo + 1:hi + 1], frames[lo:hi],
                            out=buf[:hi - lo])
        np.abs(diffs, out=diffs)
        means.append(diffs.mean(axis=1))
    return np.concatenate(means)


def _boundary_transitions(plan: SegmentPlan) -> tuple[int, ...]:
    """Frame-transition indices where segment seams can show.

    For each adjacent pair these are the transition into the overlap
    (start_{i+1} - 1) and the one leaving it (end_i - 1), clipped to the
    valid transition range.
    """
    starts = np.asarray(plan.starts)
    ends = starts + plan.frames_per_segment
    marks = np.clip([starts[1:] - 1, ends[:-1] - 1], 0, plan.total_frames - 2)
    # sorted(set()), not np.unique, which imports numpy.ma (see _median)
    return tuple(sorted(set(marks.ravel().tolist())))


def _median(x: np.ndarray) -> np.float64:
    """np.median of a 1-D float array, bit for bit, NaN included, minus
    its first-use import of numpy.ma: mid-run, that import pinned a run's
    freed buffers, so later runs' peak memory hung on where it landed."""
    v = np.sort(x)  # NaNs sort last
    if np.isnan(v[-1]):
        return v[-1]
    m = len(v) // 2  # the mean of the middle one or two, as np.median takes
    return np.mean(v[m - 1 + len(v) % 2:m + 1])


def boundary_jump_metric(profile: np.ndarray, plan: SegmentPlan) -> float:
    """Worst seam-transition difference minus the typical interior one."""
    if len(profile) != plan.total_frames - 1:
        raise ValueError("profile length must be total_frames - 1")
    marks = list(_boundary_transitions(plan))
    if not marks:
        return 0.0
    interior = np.delete(profile, marks)
    baseline = _median(interior if interior.size else profile)
    return float(np.max(profile[marks]) - baseline)
