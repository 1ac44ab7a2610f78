import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posefuse.posenet import (LAYER_SPECS, PoseNetWeights,
                              init_posenet_weights, posenet_forward,
                              posenet_output_shape, posenet_param_count,
                              silu)
from posefuse.render import CONFIDENCE_MODES, RenderStyle, render_frame

from conftest import naive_conv2d, norm_frame, person_keypoints


def dense_conv2d(x, kernel, bias, stride, padding):
    """Dense im2col cross-correlation, channels last: every window.

    x: (N, H, W, C), kernel: (O, C, k, k), bias: (O,) -> (N, OH, OW, O).
    """
    n, h, w, c = x.shape
    o, ck, kh, kw = kernel.shape
    if ck != c:
        raise ValueError(f"kernel expects {ck} input channels, got {c}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if padding:
        xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), x.dtype)
        xp[:, padding:padding + h, padding:padding + w] = x
        x = xp
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]  # (N, OH, OW, C, kh, kw)
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(n * oh * ow, kh * kw * c)
    out = cols @ kernel.transpose(0, 2, 3, 1).reshape(o, kh * kw * c).T
    out += bias
    return out.reshape(n, oh, ow, o)


def dense_forward(x, weights):
    """The forward as a chain of dense layers, the reference for its bits."""
    last = len(LAYER_SPECS) - 1
    x = x.transpose(0, 2, 3, 1)
    for i, (_name, _cin, _cout, _k, s, p) in enumerate(LAYER_SPECS):
        x = dense_conv2d(x, weights.kernels[i], weights.biases[i], s, p)
        if i != last:
            silu(x, out=x)
    return x.transpose(0, 3, 1, 2)


def test_layer_table():
    assert len(LAYER_SPECS) == 9
    chain = [(spec[1], spec[2]) for spec in LAYER_SPECS]
    assert chain == [(3, 3), (3, 16), (16, 16), (16, 32), (32, 32), (32, 64),
                     (64, 64), (64, 128), (128, 320)]
    strides = [spec[4] for spec in LAYER_SPECS]
    assert strides == [1, 2, 1, 2, 1, 2, 1, 1, 1]


def test_param_count_recomputed():
    total = 0
    for _name, cin, cout, k, _s, _p in LAYER_SPECS:
        total += cout * cin * k * k + cout
    assert posenet_param_count() == total == 205_556


def test_silu_matches_reference():
    x = np.linspace(-10, 10, 201)
    np.testing.assert_allclose(silu(x), x / (1.0 + np.exp(-x)), rtol=1e-12)


def test_silu_extreme_values_stable():
    x = np.array([-1e4, -100.0, 0.0, 100.0, 1e4])
    out = silu(x)
    assert np.isfinite(out).all()
    assert out[0] == 0.0  # exp(-1e4) underflows to exactly 0
    assert out[-1] == 1e4


def split_silu(x):
    """The sign-split form silu had before it became x / (1 + exp(-x))."""
    pos = x >= 0
    z = np.where(pos, -x, x)
    ez = np.exp(z)
    sig = np.where(pos, 1.0 / (1.0 + ez), ez / (1.0 + ez))
    return x * sig


def test_silu_special_values_match_split_form():
    special = np.array([np.inf, -np.inf, np.nan, 1e4, -1e4, -0.0, 0.0])
    with np.errstate(invalid="ignore"):  # -inf * 0 and -inf / inf
        want = split_silu(special)
        got = silu(special)
    np.testing.assert_array_equal(got, want)  # nan == nan here
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    edges = np.array([700.0, -700.0, 36.0, -36.0, 1e-300, -1e-300])
    np.testing.assert_allclose(silu(edges), split_silu(edges), rtol=1e-12,
                               atol=0)


def test_silu_writes_through_out_and_aliases_safely():
    x = np.random.default_rng(4).normal(scale=20.0, size=(3, 5, 7, 2))
    keep = x.copy()
    want = silu(x)
    np.testing.assert_array_equal(x, keep)  # input untouched without out=
    out = np.empty_like(x)
    assert silu(x, out=out) is out
    np.testing.assert_array_equal(out, want)
    assert silu(x, out=x) is x
    np.testing.assert_array_equal(x, want)
    np.testing.assert_allclose(want, split_silu(keep), rtol=1e-12, atol=0)


def nchw_conv2d(x, kernel, bias, stride, padding):
    """dense_conv2d on (N, C, H, W) input and output, to compare with the
    oracle."""
    y = dense_conv2d(x.transpose(0, 2, 3, 1), kernel, bias, stride, padding)
    return y.transpose(0, 3, 1, 2)


def test_conv2d_matches_naive_oracle():
    rng = np.random.default_rng(0)
    for stride, padding, k in ((1, 1, 3), (2, 1, 4), (1, 0, 1), (2, 0, 3)):
        x = rng.normal(size=(2, 3, 9, 11))
        kern = rng.normal(size=(5, 3, k, k))
        bias = rng.normal(size=5)
        fast = nchw_conv2d(x, kern, bias, stride, padding)
        slow = naive_conv2d(x, kern, bias, stride, padding)
        np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-12)


def test_conv2d_known_values():
    # 1x1 input, 3x3 kernel of ones, padding 1: output = center value + bias
    x = np.full((1, 1, 1, 1), 2.0)
    kern = np.ones((1, 1, 3, 3))
    out = nchw_conv2d(x, kern, np.array([0.5]), 1, 1)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 2.5


def test_conv2d_channel_mismatch():
    with pytest.raises(ValueError):
        nchw_conv2d(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3, 3)),
                    np.zeros(1), 1, 1)


def test_output_shape_oracle():
    assert posenet_output_shape(64, 64) == (320, 8, 8)
    assert posenet_output_shape(576, 1024) == (320, 72, 128)
    assert posenet_output_shape(128, 64) == (320, 16, 8)


def test_forward_64():
    weights = init_posenet_weights(seed=0)
    x = np.random.default_rng(1).normal(size=(1, 3, 64, 64))
    out = posenet_forward(x, weights)
    assert out.shape == (1, 320, 8, 8)
    assert np.isfinite(out).all()


def test_forward_doubling_height_doubles_output():
    weights = init_posenet_weights(seed=0)
    rng = np.random.default_rng(2)
    a = posenet_forward(rng.normal(size=(1, 3, 32, 32)), weights)
    b = posenet_forward(rng.normal(size=(1, 3, 64, 32)), weights)
    assert b.shape[2] == 2 * a.shape[2]
    assert b.shape[3] == a.shape[3]


def test_forward_batch_dimension():
    weights = init_posenet_weights(seed=0)
    x = np.random.default_rng(3).normal(size=(2, 3, 16, 16))
    out = posenet_forward(x, weights)
    assert out.shape == (2, 320, 2, 2)
    # batch elements are independent
    single = posenet_forward(x[:1], weights)
    np.testing.assert_allclose(out[:1], single, rtol=1e-12, atol=1e-14)


def oracle_forward(x, weights):
    """posenet_forward as a chain of loop convolutions and the textbook SiLU."""
    last = len(LAYER_SPECS) - 1
    for i, (_name, _cin, _cout, _k, s, p) in enumerate(LAYER_SPECS):
        x = naive_conv2d(x, weights.kernels[i], weights.biases[i], s, p)
        if i != last:
            x = x / (1.0 + np.exp(-x))
    return x


def seeded_weights(seed):
    """He-initialised kernels with non-zero biases, so the bias path counts."""
    w = init_posenet_weights(seed)
    rng = np.random.default_rng(seed)
    return PoseNetWeights(w.kernels, tuple(rng.normal(scale=0.1, size=b.shape)
                                           for b in w.biases))


@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 4), hw=st.sampled_from([(8, 16), (16, 8), (24, 8),
                                                (8, 24), (16, 24), (24, 16)]),
       seed=st.integers(0, 2 ** 16))
def test_forward_matches_naive_layer_chain(n, hw, seed):
    weights = seeded_weights(seed)
    x = np.random.default_rng(seed + 1).random((n, 3) + hw)
    out = posenet_forward(x, weights)
    assert out.shape == (n, 320, hw[0] // 8, hw[1] // 8)
    np.testing.assert_allclose(out, oracle_forward(x, weights), rtol=1e-10,
                               atol=1e-12)


def test_batch_rows_match_frames_run_alone():
    weights = seeded_weights(9)
    x = np.random.default_rng(10).random((4, 3, 32, 48))
    batch = posenet_forward(x, weights)
    for k in range(4):
        np.testing.assert_allclose(batch[k], posenet_forward(x[k:k + 1],
                                                             weights)[0],
                                   rtol=1e-10, atol=1e-12)


def rendered_guidance(seed, frames, mode):
    """(frames, 3, 192, 128) renders of a seeded, jittered figure."""
    rng = np.random.default_rng(seed)
    style = RenderStyle(confidence_mode=mode)
    images = []
    for _ in range(frames):
        kp = person_keypoints()
        kp[:, :2] += (rng.normal(scale=0.005, size=(133, 2))
                      + rng.uniform(-0.15, 0.15, size=2))
        kp[:, 2] = rng.uniform(0.2, 1.0, size=133)
        images.append(render_frame(norm_frame(kp), style, 128, 192).data)
    return np.stack(images).transpose(0, 3, 1, 2)


@pytest.mark.parametrize("mode", CONFIDENCE_MODES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_bits_match_dense_chain_on_rendered_guidance(seed, mode):
    x = rendered_guidance(seed, 4, mode)
    drawn = (x != 0).any(axis=1).mean()
    assert 0 < drawn < 0.2  # thin strokes: most windows are skipped
    for weights in (init_posenet_weights(seed), seeded_weights(seed)):
        for batch in (x, x[seed + 1:seed + 2]):
            got = posenet_forward(batch, weights)
            want = dense_forward(batch, weights)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))


def test_forward_bits_match_dense_chain_on_small_blobs():
    # canvases of 96-208 px with a few rectangles: sparse layers here
    # make GEMMs too small for OpenBLAS's large-call bits unless padded
    rng = np.random.default_rng(5)
    for case in range(10):
        h, w = 8 * rng.integers(12, 27, size=2)
        x = np.zeros((int(rng.integers(1, 3)), 3, h, w))
        for _ in range(rng.integers(1, 4)):
            y0, x0 = rng.integers(0, h - 4), rng.integers(0, w - 4)
            x[:, :, y0:y0 + rng.integers(1, 5),
              x0:x0 + rng.integers(1, 5)] = rng.random()
        weights = seeded_weights(case) if case % 2 else init_posenet_weights(case)
        np.testing.assert_array_equal(
            posenet_forward(x, weights).view(np.uint64),
            dense_forward(x, weights).view(np.uint64), err_msg=f"case {case}")


def test_forward_peak_memory_does_not_follow_the_strokes():
    # sparse layers allocate blocks of a row count fixed per layer; arrays
    # sized to each input's active count fragmented the heap differently
    # from one input to the next, and the process's peak RSS with it
    for weights in (init_posenet_weights(0), seeded_weights(0)):
        peaks = []
        for seed in range(4):
            x = rendered_guidance(seed, 4, CONFIDENCE_MODES[0])
            tracemalloc.start()
            try:
                posenet_forward(x, weights)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) - min(peaks) < 64 * 1024, peaks


def edge_input(name):
    """(2, 3, 24, 16) inputs at the edges of the active-site test."""
    rng = np.random.default_rng(21)
    x = np.zeros((2, 3, 24, 16))
    if name == "one-lit-pixel":
        x[1, 2, 7, 9] = 0.8
    elif name == "negative-zero":
        x[0, :, 5, 5] = -0.0
        x[1, 1, 23, 0] = -0.0
    elif name == "nan":
        x[0, 1, 3:5, 10] = 0.5
        x[1, 0, 12, 8] = np.nan
    elif name == "tiny-blobs":
        x[0, :, 2:5, 1:3] = 0.7
        x[0, 1, 20, 14:16] = 0.3
        x[1, 2, 9:11, 6:9] = 1.0
    elif name == "dense":
        x = rng.random(x.shape)
    return x


@pytest.mark.parametrize("biased", [False, True])
@pytest.mark.parametrize("name", ["blank", "one-lit-pixel", "negative-zero",
                                  "nan", "tiny-blobs", "dense"])
def test_forward_matches_oracle_on_edge_inputs(name, biased):
    weights = seeded_weights(3) if biased else init_posenet_weights(3)
    x = edge_input(name)
    out = posenet_forward(x, weights)
    with np.errstate(invalid="ignore"):
        want = oracle_forward(x, weights)
    np.testing.assert_allclose(out, want, rtol=1e-10, atol=1e-12)
    assert np.isnan(out).any() == (name == "nan")


def test_forward_empty_batch():
    out = posenet_forward(np.zeros((0, 3, 16, 16)), seeded_weights(0))
    assert out.shape == (0, 320, 2, 2)


def test_forward_rejects_bad_input():
    weights = init_posenet_weights(seed=0)
    with pytest.raises(ValueError):
        posenet_forward(np.zeros((1, 4, 64, 64)), weights)
    with pytest.raises(ValueError):
        posenet_forward(np.zeros((1, 3, 60, 64)), weights)


def test_init_deterministic_per_seed():
    a = init_posenet_weights(seed=5)
    b = init_posenet_weights(seed=5)
    c = init_posenet_weights(seed=6)
    for ka, kb in zip(a.kernels, b.kernels):
        np.testing.assert_array_equal(ka, kb)
    assert any((ka != kc).any() for ka, kc in zip(a.kernels, c.kernels))


def test_init_he_scaling():
    weights = init_posenet_weights(seed=0)
    for (name, cin, _cout, k, _s, _p), kern in zip(LAYER_SPECS,
                                                   weights.kernels):
        std = kern.std()
        expect = np.sqrt(2.0 / (cin * k * k))
        if kern.size >= 400:
            assert abs(std - expect) / expect < 0.25, name


def test_weights_shape_validation():
    good = init_posenet_weights(seed=0)
    kernels = list(good.kernels)
    kernels[3] = np.zeros((32, 16, 3, 3))  # wrong kernel size for down2
    with pytest.raises(ValueError):
        PoseNetWeights(tuple(kernels), good.biases)
    with pytest.raises(ValueError):
        PoseNetWeights(good.kernels[:-1], good.biases[:-1])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_weights_reject_non_finite_values(value):
    good = init_posenet_weights(seed=0)
    kernels = list(good.kernels)
    kernels[2] = kernels[2].copy()
    kernels[2][0, 0, 1, 1] = value
    with pytest.raises(ValueError, match="mid1"):
        PoseNetWeights(tuple(kernels), good.biases)
    biases = list(good.biases)
    biases[8] = np.full(320, value)
    with pytest.raises(ValueError, match="conv_out"):
        PoseNetWeights(good.kernels, tuple(biases))
