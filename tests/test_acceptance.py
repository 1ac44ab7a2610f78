"""Release gate: the ten behavioral guarantees this package ships under.

Each test prints one verdict line (visible with ``pytest -s`` and in the
captured output on failure) and enforces the stated tolerance or budget.
The checks are intentionally independent of implementation details: they
re-derive expected values from first principles or compare against the
oracles in conftest.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from posefuse.diffusion import (AffineParams, SigmaDist, affine_batch_loss,
                                forward_diffuse, karras_sigma_sample,
                                linear_beta_schedule, loss_grad_linear,
                                make_phase_instance, pull_denoiser,
                                train_toy_denoiser)
from posefuse.fusion import (boundary_jump_metric, frame_difference_profile,
                             fuse_segments, overlap_weights, plan_segments,
                             run_long_denoise)
from posefuse.pose import PoseFrame
from posefuse.posenet import (LAYER_SPECS, init_posenet_weights,
                              posenet_forward, posenet_output_shape,
                              posenet_param_count)
from posefuse.regions import build_weight_map
from posefuse.render import RenderStyle, render_frame
from posefuse.seeding import stream_rng
from posefuse.skeleton import WHOLEBODY_133

from conftest import (affine_wls_optimum, finite_difference_grad,
                      person_keypoints, norm_frame)


@contextmanager
def verdict(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} [{label}]: FAIL")
        raise
    print(f"criterion {num:02d} [{label}]: PASS")


def max_rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    diff = np.abs(a - b)
    denom = np.maximum(np.abs(a), np.abs(b))
    mask = denom > 0
    if not mask.any():
        return 0.0
    worst = float((diff[mask] / denom[mask]).max())
    assert float(diff[~mask].max(initial=0.0)) == 0.0
    return worst


def test_c01_fusion_weight_algebra():
    with verdict(1, "fusion weight algebra, exhaustive N<=64"):
        t0 = time.perf_counter()
        for N in range(2, 65):
            for C in range(1, N):
                w_next = overlap_weights(C, C)
                w_prev = 1.0 - w_next
                expect = np.arange(1, C + 1) / float(C + 1)
                assert np.array_equal(w_next, expect)
                assert np.all(w_next + w_prev == 1.0)
                assert len(w_next) == C
        assert time.perf_counter() - t0 < 1.0


def test_c02_overlap_consistency_every_step():
    with verdict(2, "overlap copies agree to rel 1e-9 at every step"):
        t0 = time.perf_counter()
        plan = plan_segments(36, 16, 6)
        shape = (4, 8, 8)
        rng = np.random.default_rng(7)
        phases = rng.uniform(0, 2 * math.pi, size=shape)
        frames = np.arange(36).reshape(-1, 1, 1, 1)
        target = np.sin(2 * math.pi * frames / 24.0 + phases)
        den = pull_denoiser(target[plan.frame_index], eta=0.4)
        worst = 0.0
        steps_seen = []

        def watch(t, latents):
            nonlocal worst
            steps_seen.append(t)
            for i in range(len(plan) - 1):
                s_prev, e_prev = plan.segments[i]
                s_next, _ = plan.segments[i + 1]
                for f in range(s_next, e_prev):
                    worst = max(worst, max_rel_diff(latents[i][f - s_prev],
                                                    latents[i + 1][f - s_next]))

        run_long_denoise(den, None, plan, 25, "progressive", seed=0,
                         latent_shape=shape, on_step=watch)
        assert steps_seen == list(range(25, 0, -1))
        assert worst <= 1e-9
        assert time.perf_counter() - t0 < 5.0


def test_c03_boundary_smoothness_ordering():
    with verdict(3, "seam metric: progressive beats no fusion on 10 seeds"):
        t0 = time.perf_counter()
        plan = plan_segments(36, 16, 6)
        shape = (4, 8, 8)
        prog_vs_none = 0
        prog_le_uniform = 0
        for seed in range(10):
            den = make_phase_instance(plan, shape, seed, phase_jitter=0.3)
            jumps = {}
            for mode in ("progressive", "uniform", "none"):
                video = run_long_denoise(den, None, plan, 25, mode, seed,
                                         latent_shape=shape)
                jumps[mode] = boundary_jump_metric(
                    frame_difference_profile(video), plan)
            if jumps["progressive"] < jumps["none"]:
                prog_vs_none += 1
            if jumps["progressive"] <= jumps["uniform"]:
                prog_le_uniform += 1
        assert prog_vs_none == 10
        assert prog_le_uniform >= 9
        assert time.perf_counter() - t0 < 30.0


def test_c04_single_overlap_coincidence():
    # the identity holds on plans whose overlaps are all exactly one
    # frame (a pinned tail enlarges its overlap, where the ramp and the
    # plain mean legitimately differ), so sample exact-stride clips
    with verdict(4, "C=1 progressive equals uniform to rel 1e-12"):
        rng = np.random.default_rng(20260814)
        for _ in range(100):
            N = int(rng.integers(3, 9))
            L = N + (N - 1) * int(rng.integers(1, 7))
            plan = plan_segments(L, N, 1)
            assert all(e0 - s1 == 1 for (_s0, e0), (s1, _e1)
                       in zip(plan.segments, plan.segments[1:]))
            shape = (plan.frames_per_segment, int(rng.integers(1, 3)),
                     int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            latents = [rng.normal(size=shape) for _ in range(len(plan))]
            prog = fuse_segments(latents, plan, "progressive")
            unif = fuse_segments(latents, plan, "uniform")
            for a, b in zip(prog, unif):
                assert max_rel_diff(a, b) <= 1e-12


def _single_kp_frame(index: int, conf: float) -> PoseFrame:
    kp = np.zeros((133, 3))
    kp[:, :2] = -10.0
    kp[index, :2] = (0.53, 0.41)
    kp[index, 2] = conf
    return norm_frame(kp)


def test_c05_render_linearity_and_extremes():
    with verdict(5, "render linearity exact; binary conf modes bitwise"):
        style = RenderStyle(confidence_mode="scaled")
        for index in (0, 9, 95, 130):
            base = render_frame(_single_kp_frame(index, 1.0), style, 64, 64).data
            assert base.max() > 0
            for c in (0.0, 0.25, 0.5, 1.0):
                img = render_frame(_single_kp_frame(index, c), style, 64, 64).data
                assert np.array_equal(img, c * base)

        rng = np.random.default_rng(55)
        for trial in range(5):
            kp = person_keypoints()
            kp[:, 2] = rng.integers(0, 2, size=133).astype(float)
            frame = norm_frame(kp)
            for tau in (0.25, 0.5, 0.75, 1.0):
                scaled = render_frame(
                    frame, RenderStyle(confidence_mode="scaled"), 96, 96)
                hard = render_frame(
                    frame, RenderStyle(confidence_mode="threshold",
                                       threshold=tau), 96, 96)
                assert scaled.data.tobytes() == hard.data.tobytes()


def test_c06_hand_weight_values_and_shrinkage():
    with verdict(6, "hand weights take values {1,10}; regions shrink with tau"):
        full = build_weight_map(norm_frame(person_keypoints(conf=0.9)),
                                0.6, 0.25, 10.0, 96, 160)
        assert set(np.unique(full.data)) == {1.0, 10.0}

        rng = np.random.default_rng(606)
        for _ in range(200):
            kp = np.column_stack([rng.uniform(0, 1, 133),
                                  rng.uniform(0, 1, 133),
                                  rng.uniform(0, 1, 133)])
            frame = norm_frame(kp)
            taus = np.sort(rng.uniform(0.0, 1.0, size=4))
            prev = None
            for tau in [0.0, *taus, 1.0]:
                wm = build_weight_map(frame, float(tau), 0.25, 10.0, 64, 48)
                assert set(np.unique(wm.data)) <= {1.0, 10.0}
                if prev is not None:
                    assert np.all(wm.data <= prev.data)
                prev = wm


def test_c07_diffusion_statistics():
    with verdict(7, "forward process and noise-level stats match theory"):
        t0 = time.perf_counter()
        sched = linear_beta_schedule(1000)
        n = 100_000
        t = 400
        ab = sched.alpha_bar_at(t)
        x0 = np.full(n, 0.7)
        noise = stream_rng(2026, 1).standard_normal(n)
        x_t = forward_diffuse(x0, t, sched, noise)
        mean_err = abs(float(np.mean(x_t)) - math.sqrt(ab) * 0.7)
        assert mean_err <= 3.0 * math.sqrt(1.0 - ab) / math.sqrt(n)
        var = float(np.var(x_t))
        assert abs(var - (1.0 - ab)) <= 0.02 * (1.0 - ab)

        sigma = karras_sigma_sample(SigmaDist(), stream_rng(2026, 2),
                                    size=1_000_000)
        logs = np.log(sigma)
        assert abs(float(np.mean(logs)) - 0.5) <= 0.01
        assert abs(float(np.std(logs)) - 1.4) <= 0.01
        assert time.perf_counter() - t0 < 10.0


def test_c08_gradients_and_weighted_training():
    with verdict(8, "closed-form gradients match FD; hand-weighted training wins"):
        rng = np.random.default_rng(808)
        for _ in range(50):
            channels = int(rng.integers(1, 4))
            h, w_ = int(rng.integers(3, 7)), int(rng.integers(3, 7))
            frames = int(rng.integers(1, 3))
            samples = []
            for t in range(int(rng.integers(1, 4))):
                x_t = rng.normal(size=(frames, channels, h, w_))
                eps = rng.normal(size=(frames, channels, h, w_))
                samples.append((x_t, eps, t + 1))
            params = AffineParams(rng.normal(size=channels),
                                  rng.normal(size=channels))
            weights = rng.uniform(0.5, 3.0, size=(h, w_))
            ga, gb = loss_grad_linear(params, samples, weights)
            fa, fb = finite_difference_grad(params, samples, weights)
            np.testing.assert_allclose(ga, fa, rtol=1e-5, atol=1e-8)
            np.testing.assert_allclose(gb, fb, rtol=1e-5, atol=1e-8)

        # capacity-limited model: one affine map must trade off the hand
        # box (slope 2) against the rest of the frame (slope 0.5)
        rng = np.random.default_rng(88)
        mask = np.zeros((8, 8), dtype=bool)
        mask[2:6, 3:7] = True
        samples = []
        for t in range(1, 4):
            x_t = rng.normal(size=(2, 1, 8, 8))
            eps = np.where(mask, 2.0 * x_t, 0.5 * x_t)
            samples.append((x_t, eps, t))
        w_hand = np.where(mask, 10.0, 1.0)
        w_flat = np.ones((8, 8))
        p_hand, _ = train_toy_denoiser(samples, w_hand, 4000, 0.05)
        p_flat, _ = train_toy_denoiser(samples, w_flat, 4000, 0.05)
        for p, w in ((p_hand, w_hand), (p_flat, w_flat)):
            opt = affine_wls_optimum(samples, w)
            gap = (affine_batch_loss(p, samples, w)
                   - affine_batch_loss(opt, samples, w))
            assert -1e-12 <= gap <= 1e-6

        def hand_mse(p):
            sq = [(p.predict(x_t) - eps)[:, :, mask] ** 2
                  for x_t, eps, _t in samples]
            return float(np.mean(sq))

        assert hand_mse(p_hand) < hand_mse(p_flat) - 1e-4


def test_c09_posenet_shape_contract():
    with verdict(9, "feature extractor shapes and parameter count"):
        t0 = time.perf_counter()
        recount = sum(cout * cin * k * k + cout
                      for _name, cin, cout, k, _s, _p in LAYER_SPECS)
        assert posenet_param_count() == recount == 205_556

        assert posenet_output_shape(576, 1024) == (320, 72, 128)
        assert posenet_output_shape(64, 64) == (320, 8, 8)

        weights = init_posenet_weights(seed=0)
        x = stream_rng(9, 0).standard_normal((1, 3, 64, 64))
        y = posenet_forward(x, weights)
        assert y.shape == (1, 320, 8, 8)
        assert np.isfinite(y).all()
        assert time.perf_counter() - t0 < 10.0


def _run_cli(args: list[str]) -> None:
    proc = subprocess.run([sys.executable, "-m", "posefuse.cli", *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_c10_cli_determinism(tmp_path):
    with verdict(10, "CLI output byte-stable"):
        doc = {"total_frames": 36, "segment_length": 16, "context_overlap": 6,
               "steps": 25, "latent_channels": 4, "latent_height": 8,
               "latent_width": 8, "seed": 123,
               "out_dir": str(tmp_path / "serial")}
        cfg = tmp_path / "serial.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        blob = tmp_path / "serial" / "progressive" / "latents.mmtl"

        _run_cli(["longvideo", "--config", str(cfg)])
        first = blob.read_bytes()
        _run_cli(["longvideo", "--config", str(cfg)])
        assert blob.read_bytes() == first
