import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posefuse.posenet import (LAYER_SPECS, PoseNetWeights, conv2d,
                              init_posenet_weights, posenet_forward,
                              posenet_output_shape, posenet_param_count,
                              silu)

from conftest import naive_conv2d


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
    """conv2d on (N, C, H, W) input and output, to compare with the oracle."""
    y = conv2d(x.transpose(0, 2, 3, 1), kernel, bias, stride, padding)
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
