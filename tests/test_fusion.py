import ast
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posefuse import cli, diffusion, fusion
from posefuse.diffusion import (Condition, make_phase_instance,
                                pull_denoiser)
from posefuse.fusion import (FUSION_MODES, SegmentPlan, _boundary_transitions,
                             boundary_jump_metric, format_plan,
                             frame_difference_profile, fuse_segments,
                             overlap_weights, plan_segments, run_long_denoise)
from posefuse.seeding import stream_rng

from conftest import person_keypoints, pose_doc


def seg_noise(plan, shape=(2, 3, 3), seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(plan.frames_per_segment,) + shape)
            for _ in range(len(plan))]


# ---- planning ---------------------------------------------------------

def test_plan_standard():
    plan = plan_segments(36, 16, 6)
    assert plan.starts == (0, 10, 20)
    assert plan.segments == ((0, 16), (10, 26), (20, 36))
    assert plan.frames_per_segment == 16


def test_plan_single_segment_exact_fit():
    plan = plan_segments(16, 16, 6)
    assert plan.segments == ((0, 16),)


def test_plan_tail_shifted():
    plan = plan_segments(30, 16, 6)
    assert plan.segments == ((0, 16), (10, 26), (14, 30))


def test_plan_truncated_short_clip():
    plan = plan_segments(10, 16, 6)
    assert plan.segments == ((0, 10),)
    assert plan.frames_per_segment == 10


def test_plan_validation():
    with pytest.raises(ValueError, match="smaller than segment length"):
        plan_segments(36, 16, 16)
    with pytest.raises(ValueError):
        plan_segments(36, 16, 0)
    with pytest.raises(ValueError):
        plan_segments(0, 16, 6)


def test_plan_union_covers_everything():
    for L, N, C in ((36, 16, 6), (30, 16, 6), (37, 16, 6), (100, 16, 15),
                    (17, 16, 1), (64, 8, 2)):
        plan = plan_segments(L, N, C)
        covered = set()
        for s, e in plan.segments:
            assert 0 <= s and e <= L
            covered.update(range(s, e))
        assert covered == set(range(L))
        for (s0, e0), (s1, e1) in zip(plan.segments, plan.segments[1:]):
            assert s1 > s0
            assert e0 - s1 >= C  # overlap never shrinks below C


# Loop references for the closed-form plan geometry: the planner as a
# stride loop, assembly as one slice per segment and the seam marks as a
# set, each written the direct way.

def loop_plan_starts(L, N, C):
    if L < N:
        return (0,)
    starts = [0]
    while starts[-1] + N < L:
        nxt = starts[-1] + (N - C)
        if nxt + N > L:
            nxt = L - N
        starts.append(nxt)
    return tuple(starts)


def loop_assemble(latents, plan):
    """Segment i contributes frames [start_i, start_{i+1}); the last one
    its whole range."""
    video = np.empty((plan.total_frames,) + latents[0].shape[1:])
    for i, s in enumerate(plan.starts):
        cut = plan.starts[i + 1] if i + 1 < len(plan) else plan.total_frames
        video[s:cut] = latents[i][:cut - s]
    return video


def loop_boundary_transitions(plan):
    last = plan.total_frames - 2
    marks = set()
    for i in range(len(plan) - 1):
        end = plan.starts[i] + plan.frames_per_segment
        for f in (plan.starts[i + 1] - 1, end - 1):
            marks.add(min(max(f, 0), last))
    return tuple(sorted(marks))


# (L, N, C) with N in 2..40, any 0 < C < N and L in 1..400: short clips,
# exact strides, pinned tails and frames held by three or more segments
plan_geometry = st.integers(2, 40).flatmap(
    lambda N: st.tuples(st.integers(1, 400), st.just(N),
                        st.integers(1, N - 1)))


@settings(max_examples=400, deadline=None)
@given(plan_geometry)
@example((37, 16, 6)).via("three holders")
@example((10, 16, 6)).via("shorter than one segment")
@example((400, 40, 39)).via("stride 1")
def test_plan_geometry_matches_loop_reference(geometry):
    plan = plan_segments(*geometry)
    assert plan.starts == loop_plan_starts(*geometry)
    assert _boundary_transitions(plan) == loop_boundary_transitions(plan)


def gather(plan, values, mode="none"):
    """run_long_denoise for one step whose denoiser writes ``values`` into
    the segment stack; returns the video and the stack after fusion."""
    def write(z, cond, t):
        z[...] = values

    seen = []
    video = run_long_denoise(write, None, plan, 1, mode,
                             latent_shape=values.shape[2:],
                             on_step=lambda t, z: seen.append(z.copy()))
    return video, seen[0]


@settings(max_examples=150, deadline=None)
@given(plan_geometry)
@example((37, 16, 6)).via("three holders")
def test_assemble_matches_loop_reference(geometry):
    plan = plan_segments(*geometry)
    rng = np.random.default_rng(geometry[0])
    stack = rng.normal(size=(len(plan), plan.frames_per_segment, 1, 1, 2))
    video, _ = gather(plan, stack)
    assert video.dtype == np.float64
    assert video.tobytes() == loop_assemble(stack, plan).tobytes()


def test_plan_text_roundtrip():
    plan = plan_segments(36, 16, 6)
    text = format_plan(plan)
    assert text == "36 16 6: 0,10,20"


# ---- weights ----------------------------------------------------------

def test_fusion_weights_exact_algebra():
    for C in range(1, 64):
        w_next = overlap_weights(C, C)
        w_prev = 1.0 - w_next
        for k in range(1, C + 1):
            assert w_next[k - 1] == k / (C + 1)
            assert w_next[k - 1] + w_prev[k - 1] == 1.0
        assert np.all(np.diff(w_next) > 0)
        assert w_next[0] > 0 and w_next[-1] < 1
        # ramp endpoints: w_next(C) / w_next(1) = C
        assert w_next[-1] / w_next[0] == pytest.approx(C, rel=1e-12)


def test_overlap_weights_enlarged_tail():
    w = overlap_weights(6, 12)
    np.testing.assert_array_equal(w[:6], np.arange(1, 7) / 7)
    assert (w[6:] == 1.0).all()
    # step sizes never exceed lambda = 1 / (C + 1)
    assert np.diff(w).max() <= 1 / 7 + 1e-15


# ---- fusion -----------------------------------------------------------

def test_progressive_overlap_position_3_weights():
    plan = plan_segments(26, 16, 6)  # segments [0,16), [10,26)
    latents = [np.zeros((16, 1, 1, 1)), np.ones((16, 1, 1, 1))]
    fused = fuse_segments(latents, plan, "progressive")
    # overlap frames 10..15; position k=3 is frame 12: 3/7*1 + 4/7*0
    for k in range(1, 7):
        frame = 9 + k
        expect = k / 7.0
        assert fused[0][frame, 0, 0, 0] == pytest.approx(expect, rel=1e-15)
        assert fused[1][frame - 10, 0, 0, 0] == fused[0][frame, 0, 0, 0]


def test_progressive_identity_on_agreement():
    # w*v + (1-w)*v regroups to v only up to rounding, so allclose
    plan = plan_segments(36, 16, 6)
    base = np.random.default_rng(0).normal(size=(36, 2, 3, 3))
    latents = [base[s:e].copy() for s, e in plan.segments]
    fused = fuse_segments(latents, plan, "progressive")
    for before, after in zip(latents, fused):
        np.testing.assert_allclose(after, before, rtol=1e-15, atol=1e-15)


def test_progressive_copies_equal_and_from_prefusion_values():
    plan = plan_segments(36, 16, 6)
    latents = seg_noise(plan)
    originals = [z.copy() for z in latents]
    fused = fuse_segments(latents, plan, "progressive")
    for i in range(len(plan) - 1):
        s_prev, _ = plan.segments[i]
        s_next, _ = plan.segments[i + 1]
        for k in range(1, 7):
            f = s_next + k - 1
            a = fused[i][f - s_prev]
            b = fused[i + 1][f - s_next]
            np.testing.assert_array_equal(a, b)
            expect = (k / 7.0) * originals[i + 1][f - s_next] + \
                     (1.0 - k / 7.0) * originals[i][f - s_prev]
            np.testing.assert_array_equal(a, expect)
    # inputs untouched
    for z, o in zip(latents, originals):
        np.testing.assert_array_equal(z, o)


def test_uniform_two_copy_mean():
    plan = plan_segments(26, 16, 6)
    latents = [np.zeros((16, 1, 1, 1)), np.full((16, 1, 1, 1), 2.0)]
    fused = fuse_segments(latents, plan, "uniform")
    for f in range(10, 16):
        assert fused[0][f, 0, 0, 0] == 1.0
        assert fused[1][f - 10, 0, 0, 0] == 1.0
    assert fused[0][0, 0, 0, 0] == 0.0  # non-overlap untouched


def test_uniform_identity_on_agreement():
    plan = plan_segments(36, 16, 6)
    base = np.random.default_rng(1).normal(size=(36, 2, 3, 3))
    latents = [base[s:e].copy() for s, e in plan.segments]
    fused = fuse_segments(latents, plan, "uniform")
    for before, after in zip(latents, fused):
        np.testing.assert_array_equal(before, after)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_c1_progressive_equals_uniform(seed):
    plan = plan_segments(10, 4, 1)
    latents = seg_noise(plan, shape=(1, 2, 2), seed=seed)
    prog = fuse_segments(latents, plan, "progressive")
    unif = fuse_segments(latents, plan, "uniform")
    for a, b in zip(prog, unif):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)


def test_fuse_segments_dispatch_and_validation():
    plan = plan_segments(26, 16, 6)
    latents = seg_noise(plan)
    assert len(fuse_segments(latents, plan, "none")) == 2
    np.testing.assert_array_equal(fuse_segments(latents, plan, "none")[0],
                                  latents[0])
    with pytest.raises(ValueError):
        fuse_segments(latents, plan, "blend")
    with pytest.raises(ValueError):
        fuse_segments(latents[:1], plan, "progressive")
    bad = [latents[0], latents[1][:, :, :2, :]]
    with pytest.raises(ValueError):
        fuse_segments(bad, plan, "progressive")
    assert set(FUSION_MODES) == {"progressive", "uniform", "none"}


def test_triple_overlap_consistency():
    # L=37 N=16 C=6 plans [0,16),[10,26),[20,36),[21,37): frames 21..25
    # sit in three segments at once and must still agree everywhere
    plan = plan_segments(37, 16, 6)
    assert plan.starts == (0, 10, 20, 21)
    latents = seg_noise(plan)
    fused = fuse_segments(latents, plan, "progressive")
    for f in range(plan.total_frames):
        copies = [fused[i][f - s] for i, (s, e) in enumerate(plan.segments)
                  if s <= f < e]
        for c in copies[1:]:
            np.testing.assert_array_equal(copies[0], c)
    # the later pair (2, 3) decides progressive; uniform sums left to right
    unif = fuse_segments(latents, plan, "uniform")
    w = overlap_weights(6, 36 - 21)
    for f in range(21, 26):
        a, b, c = latents[1][f - 10], latents[2][f - 20], latents[3][f - 21]
        blend = w[f - 21] * c + (1.0 - w[f - 21]) * b
        mean = ((a + b) + c) / 3
        for i, s in ((1, 10), (2, 20), (3, 21)):
            assert fused[i][f - s].tobytes() == blend.tobytes()
            assert unif[i][f - s].tobytes() == mean.tobytes()
    for i, f in ((0, 0), (0, 9), (3, 36)):  # held by one segment only
        s = plan.starts[i]
        for out in (fused, unif):
            assert out[i][f - s].tobytes() == latents[i][f - s].tobytes()


def loop_fuse(latents, plan, mode):
    """Frame-by-frame reference: for progressive the later adjacent pair
    decides a frame; for uniform every copy takes np.mean of the copies."""
    holders = lambda f: [i for i, (s, e) in enumerate(plan.segments)
                         if s <= f < e]
    fused = {}
    for f in range(plan.total_frames):
        held = holders(f)
        if len(held) < 2 or mode == "none":
            continue
        if mode == "uniform":
            fused[f] = np.mean([latents[i][f - plan.starts[i]] for i in held],
                               axis=0)
            continue
        for i in range(len(plan) - 1):
            s_next = plan.starts[i + 1]
            e_prev = plan.segments[i][1]
            if s_next <= f < e_prev:
                w = overlap_weights(plan.context_overlap, e_prev - s_next)
                w_next = float(w[f - s_next])
                fused[f] = (w_next * latents[i + 1][f - s_next]
                            + (1.0 - w_next) * latents[i][f - plan.starts[i]])
    out = [z.copy() for z in latents]
    for f, value in fused.items():
        for i in holders(f):
            out[i][f - plan.starts[i]] = value
    return out


def assert_fuse_matches_loop(latents, plan):
    """Every mode matches loop_fuse bit for bit, with the overlap table
    walked in one block and in blocks of 1, 2 and 3 shared frames."""
    row = math.prod(latents[0].shape[1:])
    for frames_per_block in (None, 1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            if frames_per_block is not None:
                mp.setattr(fusion, "_BLOCK_ELEMENTS", frames_per_block * row)
            for mode in FUSION_MODES:
                expect = loop_fuse(latents, plan, mode)
                for got, ref in zip(fuse_segments(latents, plan, mode),
                                    expect):
                    assert got.tobytes() == ref.tobytes()


# (L, N, C) with N in 2..12, any 0 < C < N and L in 1..5N
small_geometry = st.integers(2, 12).flatmap(
    lambda N: st.tuples(st.integers(1, 5 * N), st.just(N),
                        st.integers(1, N - 1)))


@settings(max_examples=60, deadline=None)
@given(small_geometry, st.integers(0, 2 ** 32 - 1))
@example((60, 16, 12), 5).via("C > N/2: holder counts alternate")
def test_fuse_matches_loop_reference_bitwise(geometry, seed):
    plan = plan_segments(*geometry)
    latents = seg_noise(plan, shape=(1, 2, 2), seed=seed)
    assert_fuse_matches_loop(latents, plan)


def block_frames(plan, rows):
    """Clip frames of a block's (K, m) rows, read off its first holder."""
    n = plan.frames_per_segment
    return np.asarray(plan.starts)[rows[0] // n] + rows[0] % n


def test_fuse_blocks_split_three_holder_tail_frames():
    plan = plan_segments(37, 16, 6)  # pinned tail: frames 21..25 held thrice
    assert plan.starts == (0, 10, 20, 21)
    for frames_per_block in (1, 2, 3, 64):
        row = fusion._BLOCK_ELEMENTS // frames_per_block
        for mode in ("progressive", "uniform"):
            blocks = fusion._fusion_blocks(plan, mode, row)
            # the three-holder frames fill blocks of their own, last
            triple = blocks[-math.ceil(5 / frames_per_block):]
            assert np.concatenate([block_frames(plan, b[1]) for b in triple]
                                  ).tolist() == [21, 22, 23, 24, 25]
            assert all(len(rows) == 3 for _, rows, _, _ in triple)
    assert_fuse_matches_loop(seg_noise(plan, shape=(1, 2, 2), seed=3), plan)


@settings(max_examples=200, deadline=None)
@given(plan_geometry, st.sampled_from([1, 2, 3, None]))
@example((37, 16, 6), None).via("three holders")
@example((400, 40, 39), 2).via("stride 1")
@example((60, 16, 12), 3).via("holder counts alternate")
def test_fusion_blocks_weights_sum_to_divisor(geometry, frames_per_block):
    plan = plan_segments(*geometry)
    C, n, starts = plan.context_overlap, plan.frames_per_segment, plan.starts
    first, last = fusion._holders(plan)
    held = last - first + 1
    shared = np.flatnonzero(held > 1)
    shared = shared[np.argsort(held[shared], kind="stable")]
    block = frames_per_block or 1024
    row = fusion._BLOCK_ELEMENTS // block
    assert fusion._fusion_blocks(plan, "none", row) == ()
    for mode in ("progressive", "uniform"):
        blocks = fusion._fusion_blocks(plan, mode, row)
        # every shared frame sits in exactly one block, in holder-count
        # order, and no block straddles the halves or exceeds its size
        j0s = [j0 for j0, *_ in blocks]
        sizes = [rows.shape[1] for _, rows, _, _ in blocks]
        assert j0s == [sum(sizes[:i]) for i in range(len(blocks))]
        assert np.concatenate([block_frames(plan, b[1]) for b in blocks]
                              + [[]]).tolist() == shared.tolist()
        half = len(shared) // 2
        for j0, m in zip(j0s, sizes):
            assert 1 <= m <= block and not j0 < half < j0 + m
        for j0, rows, w, divisor in blocks:
            frames = block_frames(plan, rows)
            K, m = rows.shape
            # all frames in a block share one holder count
            assert (held[frames] == K).all()
            for k in range(K):
                holder = first[frames] + k
                assert (rows[k] == holder * n + frames
                        - np.asarray(starts)[holder]).all()
            if mode == "uniform":
                assert w is None and divisor.shape == (m, 1)
                assert (divisor == K).all()
                continue
            assert divisor is None and w.shape == (K, m, 1)
            for i, f in enumerate(frames.tolist()):
                ws = [float(w[k, i, 0]) for k in range(K)]
                total = ws[0]
                for x in ws[1:]:
                    total += x
                assert total == 1.0  # the weights sum to the divisor
                # C01: the later adjacent pair ramps and sums to 1.0
                ramp = min((f - starts[last[f]] + 1) / (C + 1), 1.0)
                assert ws[-1] == ramp and ws[-2] == 1.0 - ramp
                assert ws[-2] + ws[-1] == 1.0
                assert ws[:-2] == [0.0] * (K - 2)


# ---- assembly ----------------------------------------------------------

def test_assemble_contribution_ranges():
    plan = plan_segments(36, 16, 6)
    latents = np.arange(3.0).reshape(3, 1, 1, 1, 1) + np.zeros((16, 1, 1, 1))
    video, _ = gather(plan, latents)
    assert video.shape == (36, 1, 1, 1)
    v = video[:, 0, 0, 0]
    assert (v[0:10] == 0.0).all()    # seg1 frames 0..9
    assert (v[10:20] == 1.0).all()   # seg2 frames 10..19
    assert (v[20:36] == 2.0).all()   # seg3 all 16 frames


def test_assemble_single_segment_identity():
    plan = plan_segments(16, 16, 6)
    z = np.random.default_rng(2).normal(size=(1, 16, 2, 2, 2))
    np.testing.assert_array_equal(gather(plan, z)[0], z[0])


def test_assemble_after_fusion_choice_irrelevant():
    plan = plan_segments(36, 16, 6)
    video, fused = gather(plan, np.array(seg_noise(plan)), "progressive")
    # overlapped frames equal their copy in either segment
    for i, (s, e) in enumerate(plan.segments):
        np.testing.assert_array_equal(video[s:e], fused[i])


# ---- long denoise loop -------------------------------------------------

def test_run_long_denoise_t1_none_identity_denoiser():
    plan = plan_segments(36, 16, 6)
    shape = (2, 3, 3)
    identity = lambda z, cond, t: None
    video = run_long_denoise(identity, None, plan, 1, "none", seed=9,
                             latent_shape=shape)
    expect = loop_assemble([stream_rng(9, i, 0).standard_normal((16,) + shape)
                            for i in range(3)], plan)
    np.testing.assert_array_equal(video, expect)


def test_run_long_denoise_overlap_consistency_every_step():
    plan = plan_segments(36, 16, 6)
    shape = (4, 8, 8)
    den = make_phase_instance(plan, shape, seed=0)
    seen = []

    def check(t, latents):
        seen.append(t)
        for i in range(len(plan) - 1):
            s_prev, e_prev = plan.segments[i]
            s_next, _ = plan.segments[i + 1]
            for f in range(s_next, e_prev):
                a = latents[i][f - s_prev]
                b = latents[i + 1][f - s_next]
                assert np.abs(a - b).max() <= 1e-9 * max(np.abs(a).max(), 1.0)

    run_long_denoise(den, None, plan, 25, "progressive", seed=0,
                     latent_shape=shape, on_step=check)
    assert seen == list(range(25, 0, -1))


def test_run_long_denoise_deterministic():
    plan = plan_segments(36, 16, 6)
    shape = (4, 8, 8)
    den = make_phase_instance(plan, shape, seed=4)
    a = run_long_denoise(den, None, plan, 25, "progressive", seed=4,
                         latent_shape=shape)
    b = run_long_denoise(den, None, plan, 25, "progressive", seed=4,
                         latent_shape=shape)
    assert a.tobytes() == b.tobytes()


def test_run_long_denoise_slices_pose_features():
    # one call per step on the whole stack, with every frame's own pose
    # features in its segment slot
    plan = plan_segments(36, 16, 6)
    pose = np.arange(36 * 4, dtype=float).reshape(36, 1, 2, 2)
    calls = []

    def spy(z, cond, t):
        calls.append((t, z.shape, cond.pose_features.copy()))

    run_long_denoise(spy, Condition(pose_features=pose), plan, 3, "none",
                     seed=0, latent_shape=(1, 2, 2))
    assert [t for t, _shape, _feats in calls] == [3, 2, 1]
    for _t, shape, feats in calls:
        assert shape == (3, 16, 1, 2, 2)
        assert feats.shape == (3, 16, 1, 2, 2)
        for i, (s, e) in enumerate(plan.segments):
            np.testing.assert_array_equal(feats[i], pose[s:e])


def test_run_long_denoise_rejects_pose_features_of_other_length():
    plan = plan_segments(36, 16, 6)
    for frames in (16, 35, 37):
        cond = Condition(pose_features=np.zeros((frames, 1, 2, 2)))
        with pytest.raises(ValueError, match="pose_features"):
            run_long_denoise(lambda z, c, t: None, cond, plan, 1, "none",
                             seed=0, latent_shape=(1, 2, 2))


def test_run_long_denoise_rejects_denoiser_returning_a_value():
    plan = plan_segments(16, 16, 6)
    for result in (lambda z: z, lambda z: z.copy(), lambda z: 0.0):
        bad = lambda z, cond, t, result=result: result(z)
        with pytest.raises(ValueError, match="in place"):
            run_long_denoise(bad, None, plan, 1, "none", seed=0,
                             latent_shape=(1, 2, 2))


def test_run_long_denoise_step_allocates_less_than_one_segment():
    # denoisers update their slot in place and fusion works through
    # block-sized scratch, so a step's transient arrays stay small
    plan = plan_segments(72, 16, 6)
    shape = (4, 64, 64)
    segment_bytes = plan.frames_per_segment * math.prod(shape) * 8
    for mode in ("progressive", "uniform"):
        den = make_phase_instance(plan, shape, seed=0)
        transient = []

        def measure(t, latents):
            current, peak = tracemalloc.get_traced_memory()
            transient.append(peak - current)
            tracemalloc.reset_peak()

        tracemalloc.start()
        try:
            run_long_denoise(den, None, plan, 4, mode, seed=0,
                             latent_shape=shape, on_step=measure)
        finally:
            tracemalloc.stop()
        assert len(transient) == 4
        assert max(transient) < segment_bytes, (mode, transient)


def test_run_long_denoise_validation():
    plan = plan_segments(16, 16, 6)
    with pytest.raises(ValueError):
        run_long_denoise(lambda z, c, t: None, None, plan, 0, "none", seed=0,
                         latent_shape=(1, 1, 1))
    with pytest.raises(ValueError):
        run_long_denoise(lambda z, c, t: None, None, plan, 1, "wild", seed=0,
                         latent_shape=(1, 1, 1))
    for shape in ((0, 4, 4), (4, 0, 4), (4, 4, -1), (4, 4)):
        with pytest.raises(ValueError, match="latent_shape"):
            run_long_denoise(lambda z, c, t: None, None, plan, 1, "none",
                             seed=0, latent_shape=shape)
    # one segment of 16 x 1 x 2048 x 2048 latents is exactly the cap;
    # one more pixel is refused before anything is allocated
    huge = (1, 2 ** 11, 2 ** 11 + 1)
    with pytest.raises(ValueError, match="segment latents exceed"):
        run_long_denoise(lambda z, c, t: None, None, plan, 1, "none",
                         seed=0, latent_shape=huge)
    with pytest.raises(ValueError, match="segment latents exceed"):
        make_phase_instance(plan, huge, 0)


# ---- two halves on the helper thread -------------------------------------

def inline_halves(fn, n):
    fn(0, n)


def run_phase(mode, seed=3, on_step=None):
    """40 frames of 2x32x32 latents: 4 segments, 22 shared frames."""
    plan = plan_segments(40, 16, 6)
    shape = (2, 32, 32)
    den = make_phase_instance(plan, shape, seed, phase_jitter=0.4)
    return run_long_denoise(den, None, plan, 5, mode, seed,
                            latent_shape=shape, on_step=on_step)


def test_halves_match_the_stages_run_inline():
    # blocks of 3 shared frames and chunks of 2**12 elements, so each
    # half walks several blocks and pulls several chunks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fusion, "_BLOCK_ELEMENTS", 3 * 2 * 32 * 32)
        mp.setattr(diffusion, "_CHUNK", 1 << 12)
        split = {mode: run_phase(mode).tobytes() for mode in FUSION_MODES}
        assert any(t.name == "posefuse-halves" for t in threading.enumerate())
        mp.setattr(diffusion, "_halves", inline_halves)
        mp.setattr(fusion, "_halves", inline_halves)
        for mode in FUSION_MODES:
            assert run_phase(mode).tobytes() == split[mode], mode


def test_halves_run_the_first_half_on_the_helper():
    calls = []
    diffusion._halves(lambda lo, hi: calls.append(
        (lo, hi, threading.current_thread() is threading.main_thread())), 5)
    assert sorted(calls) == [(0, 2, False), (2, 5, True)]
    calls.clear()
    diffusion._halves(lambda lo, hi: calls.append((lo, hi)), 1)
    diffusion._halves(lambda lo, hi: calls.append((lo, hi)), 0)
    assert calls == [(0, 1), (0, 0)]


def test_halves_raise_the_helpers_error_and_keep_working():
    ran = []

    def fail_first(lo, hi):
        if lo == 0:
            raise KeyError("helper half")
        ran.append((lo, hi))

    with pytest.raises(KeyError, match="helper half"):
        diffusion._halves(fail_first, 4)
    assert ran == [(2, 4)]
    expect = run_phase("uniform")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diffusion, "_halves", inline_halves)
        mp.setattr(fusion, "_halves", inline_halves)
        assert run_phase("uniform").tobytes() == expect.tobytes()


def thread_constructions(node, scope=()):
    """The definitions, as dotted names, holding each Thread(...) call
    under node."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            found += thread_constructions(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Call) and (
                getattr(child.func, "attr", None) == "Thread"
                or getattr(child.func, "id", None) == "Thread"):
            found.append(".".join(scope))
        found += thread_constructions(child, scope)
    return found


def test_the_package_constructs_threads_only_in_the_helper():
    # one helper thread serves every caller; see diffusion._both
    found = []
    for path in sorted(Path(diffusion.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.stem}.{name}" for name in thread_constructions(tree)]
    assert found == ["diffusion._Helper.__init__"]


def test_both_sides_failing_raise_the_helpers_error():
    # the helper's side holds the earlier work, so its error ranks first
    def fail(side):
        raise KeyError(side)

    with pytest.raises(KeyError, match="helper half"):
        diffusion._halves(lambda lo, hi: fail(
            "caller half" if lo else "helper half"), 4)
    with pytest.raises(KeyError, match="first"):
        diffusion._both(lambda: fail("first"), lambda: fail("second"))


def test_run_long_denoise_keeps_no_reference_to_its_stack():
    # the helper drops its last task before it signals done
    stacks = []
    run_phase("progressive", on_step=lambda t, z: stacks.append(
        weakref.ref(z)))
    assert len(stacks) == 5 and stacks[-1]() is None


def test_run_long_denoise_frees_the_denoiser_before_assembly(monkeypatch):
    # a phase instance holds the whole plan's target, as large as the stack
    plan = plan_segments(40, 16, 6)
    shape = (2, 32, 32)
    refs, alive = [], []
    holders = fusion._holders

    def build():
        den = make_phase_instance(plan, shape, 3)
        refs.append(weakref.ref(den))
        return den

    def spy(plan):
        alive.append(refs[0]() is not None)
        return holders(plan)

    # the fusion blocks read the holders first, the video's gather last
    monkeypatch.setattr(fusion, "_holders", spy)
    video = run_long_denoise(build(), None, plan, 3, "progressive", 3,
                             latent_shape=shape)
    assert alive == [True, False]
    assert video.shape == (40,) + shape


def helper_threads():
    return {t.ident for t in threading.enumerate()
            if t.name == "posefuse-halves"}


def write_poses(tmp_path):
    """A four-frame pose file."""
    frames = []
    for f in range(4):
        kp = person_keypoints()
        kp[:, 0] += 0.01 * f
        frames.append(kp)
    poses = tmp_path / "poses.json"
    poses.write_bytes(pose_doc(frames, width=64, height=64))
    return poses


def render_pose(poses, out):
    """The bytes of each frame posefuse render-pose writes at 48x48."""
    assert cli.main(["render-pose", "--poses", str(poses), "--out", str(out),
                     "--width", "48", "--height", "48"]) == 0
    return [path.read_bytes() for path in sorted(out.iterdir())]


def test_run_long_denoise_from_several_threads_matches_serial(tmp_path):
    # render-pose writes its frames on the same helper
    poses = write_poses(tmp_path)
    modes = FUSION_MODES + ("progressive", "render-pose", "render-pose")

    def run(name, mode):
        if mode == "render-pose":
            return render_pose(poses, tmp_path / name)
        return run_phase(mode).tobytes()

    expect = {mode: run("serial", mode) for mode in set(modes)}
    helpers = helper_threads()
    got, errors = {}, []

    def worker(i, mode):
        try:
            got[i] = run(f"frames_{i}", mode)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i, mode))
               for i, mode in enumerate(modes)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert [got[i] == expect[mode] for i, mode in enumerate(modes)] == [
        True] * len(modes)
    assert helper_threads() == helpers  # the callers took turns on one


class Interrupted(Exception):
    pass


def interrupt(signum, frame):
    raise Interrupted


@pytest.mark.skipif(not hasattr(signal, "setitimer"),
                    reason="needs signal.setitimer")
def test_halves_replace_a_helper_left_running_by_an_interrupted_wait():
    diffusion._halves(lambda lo, hi: None, 2)  # a helper is running
    release = threading.Event()
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(Interrupted):  # raised while waiting on done
            diffusion._halves(lambda lo, hi: lo or release.wait(30), 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    try:
        calls = []
        start = time.monotonic()
        diffusion._halves(lambda lo, hi: calls.append(lo), 2)
        # the old helper is still blocked, so a fresh one ran half 0
        assert time.monotonic() - start < 10 and sorted(calls) == [0, 1]
    finally:
        release.set()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_run_long_denoise_in_a_forked_child(tmp_path):
    poses = write_poses(tmp_path)
    frames = render_pose(poses, tmp_path / "parent")
    expect = run_phase("progressive").tobytes()  # the helper is running
    pid = os.fork()
    if pid == 0:  # the child reports through its exit status only
        code = 1
        try:
            same = [run_phase("progressive").tobytes() == expect,
                    render_pose(poses, tmp_path / "child") == frames]
            code = 0 if all(same) else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung in run_long_denoise")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(done[1]) == 0


# ---- metrics -----------------------------------------------------------

def test_profile_constant_zero():
    video = np.ones((5, 1, 2, 2))
    np.testing.assert_array_equal(frame_difference_profile(video),
                                  np.zeros(4))


def test_profile_alternating():
    video = np.zeros((6, 1, 1, 1))
    video[1::2] = 1.0
    np.testing.assert_array_equal(frame_difference_profile(video),
                                  np.ones(5))


def test_profile_linear_ramp():
    video = (np.arange(10) * 0.1).reshape(-1, 1, 1, 1)
    np.testing.assert_allclose(frame_difference_profile(video),
                               np.full(9, 0.1), rtol=1e-12)


def test_profile_matches_the_whole_diff_bit_for_bit():
    # blocks of transitions in one buffer give each row's mean unchanged
    rng = np.random.default_rng(4)
    for shape in ((72, 4, 64, 64), (1200, 4, 8, 8), (5, 3, 7, 11),
                  (2, 1, 1, 1), (3, 40000)):
        for dtype in (np.float64, np.float32):
            video = rng.normal(size=shape).astype(dtype)
            diffs = np.diff(video, axis=0)
            np.abs(diffs, out=diffs)
            expect = diffs.reshape(diffs.shape[0], -1).mean(axis=1)
            got = frame_difference_profile(video)
            assert got.dtype == expect.dtype
            assert got.tobytes() == expect.tobytes()


def test_profile_allocates_no_whole_diff():
    video = np.random.default_rng(5).normal(size=(72, 4, 64, 64))
    tracemalloc.start()
    try:
        frame_difference_profile(video)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < video.nbytes // 20


def test_profile_needs_two_frames():
    with pytest.raises(ValueError):
        frame_difference_profile(np.zeros((1, 1, 2, 2)))


def test_boundary_transitions_marks():
    plan = plan_segments(36, 16, 6)
    # pair (0,1): start 10 -> 9, end 16 -> 15; pair (1,2): 19 and 25
    assert _boundary_transitions(plan) == (9, 15, 19, 25)


def test_boundary_metric_single_segment_zero():
    plan = plan_segments(16, 16, 6)
    profile = np.random.default_rng(0).uniform(size=15)
    assert boundary_jump_metric(profile, plan) == 0.0


def test_boundary_metric_spike():
    plan = plan_segments(36, 16, 6)
    profile = np.full(35, 0.01)
    profile[9] = 0.5
    assert boundary_jump_metric(profile, plan) == pytest.approx(0.49)


def test_boundary_metric_flat_profile_nonpositive():
    plan = plan_segments(36, 16, 6)
    assert boundary_jump_metric(np.full(35, 0.2), plan) <= 0.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats() | st.sampled_from([0.0, -0.0, np.nan, np.inf]),
                min_size=1, max_size=9))
@example([0.0, -0.0])
@example([-0.0])
@example([np.inf, -np.inf])
@example([1.0, np.nan, 2.0])
def test_median_matches_numpy_bit_for_bit(values):
    x = np.array(values)
    with np.errstate(all="ignore"):
        expect = np.median(x)
        got = fusion._median(x)
    assert type(got) is np.float64
    if np.isnan(expect):
        assert np.isnan(got)
    else:
        assert got.tobytes() == expect.tobytes()


def test_boundary_metric_length_check():
    plan = plan_segments(36, 16, 6)
    with pytest.raises(ValueError):
        boundary_jump_metric(np.zeros(10), plan)


# ---- synthetic instance -------------------------------------------------

def test_phase_instance_orders_modes():
    plan = plan_segments(36, 16, 6)
    shape = (4, 8, 8)
    for seed in range(3):
        den = make_phase_instance(plan, shape, seed)
        jumps = {}
        for mode in FUSION_MODES:
            video = run_long_denoise(den, None, plan, 25, mode, seed,
                                     latent_shape=shape)
            jumps[mode] = boundary_jump_metric(
                frame_difference_profile(video), plan)
        assert jumps["progressive"] < jumps["none"]
        assert jumps["progressive"] <= jumps["uniform"]


def test_phase_instance_zero_jitter_modes_converge_together():
    # without per-segment perturbation all segments share one target, so
    # after enough steps the fusion mode stops mattering
    plan = plan_segments(36, 16, 6)
    shape = (2, 4, 4)
    videos = {}
    for mode in ("none", "progressive"):
        den = make_phase_instance(plan, shape, seed=0, phase_jitter=0.0)
        videos[mode] = run_long_denoise(den, None, plan, 60, mode, seed=0,
                                        latent_shape=shape)
    np.testing.assert_allclose(videos["none"], videos["progressive"],
                               atol=1e-8)


def test_phase_instance_validation():
    plan = plan_segments(36, 16, 6)
    with pytest.raises(ValueError):
        make_phase_instance(plan, (1, 2, 2), 0, eta=0.0)
    with pytest.raises(ValueError):
        make_phase_instance(plan, (1, 2, 2), 0, period_range=(10.0, 5.0))
    # offsets are drawn from a range 2 * phase_jitter wide
    for jitter in (-0.1, math.nan, math.inf, 9e307):
        with pytest.raises(ValueError, match="phase_jitter"):
            make_phase_instance(plan, (1, 2, 2), 0, phase_jitter=jitter)
    make_phase_instance(plan, (1, 2, 2), 0, phase_jitter=8e307)
    den = make_phase_instance(plan, (1, 2, 2), 0)
    with pytest.raises(ValueError):
        den(np.zeros((16, 1, 3, 3)), Condition(), 1)


def test_phase_instance_checks_eta_before_building(monkeypatch):
    # a bad eta is refused before the draws and the whole-plan target
    def no_build(fn, n):
        raise AssertionError("target built before eta was checked")

    monkeypatch.setattr(diffusion, "_halves", no_build)
    plan = plan_segments(72, 16, 6)
    for eta in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"eta must lie in \(0, 1\]"):
            make_phase_instance(plan, (4, 64, 64), 0, eta=eta)


def test_phase_instance_closed_form_per_segment():
    plan = plan_segments(36, 16, 6)
    shape = (2, 3, 3)
    seed, eta, jitter = 6, 0.35, 0.3
    den = make_phase_instance(plan, shape, seed, eta=eta, phase_jitter=jitter)
    period = stream_rng(seed, 100).uniform(24.0, 48.0, size=shape)
    pixel_phase = stream_rng(seed, 101).uniform(0.0, 2.0 * math.pi, size=shape)
    seg_phase = stream_rng(seed, 102).uniform(-jitter, jitter, size=len(plan))
    rng = np.random.default_rng(0)
    for t in (25, 7, 1, 25):
        z = rng.normal(size=(len(plan), 16) + shape)
        expect = np.empty_like(z)
        for i, (s, _e) in enumerate(plan.segments):
            frames = s + np.arange(16)
            angle = (2.0 * math.pi * frames[:, None, None, None] / period
                     + pixel_phase + seg_phase[i])
            expect[i] = z[i] + eta * (np.sin(angle) - z[i])
        assert den(z, Condition(), t) is None
        assert z.tobytes() == expect.tobytes()

    def pulled(t):
        z = np.zeros((len(plan), 16) + shape)
        den(z, Condition(), t)
        return z.tobytes()

    # the target does not depend on the step
    assert pulled(25) == pulled(9) == pulled(1)


def test_smoother_toy_denoiser_in_loop():
    # shared smooth target via the generic smoother: every mode converges
    plan = plan_segments(36, 16, 6)
    shape = (1, 2, 2)
    frames = np.arange(36).reshape(-1, 1, 1, 1)
    target = np.broadcast_to(np.sin(2 * np.pi * frames / 30.0),
                             (36,) + shape).copy()
    den = pull_denoiser(target[plan.frame_index], eta=0.5)
    video = run_long_denoise(den, None, plan, 50, "progressive", seed=0,
                             latent_shape=shape)
    np.testing.assert_allclose(video, target, atol=1e-9)
