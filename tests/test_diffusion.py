import math

import numpy as np
import pytest

from posefuse.diffusion import (AffineParams, Condition, NoiseSchedule,
                                SigmaDist, TrainingDiverged,
                                affine_batch_loss, forward_diffuse,
                                karras_sigma_sample, linear_beta_schedule,
                                gaussian_denoiser, loss_grad_linear,
                                pull_denoiser, train_toy_denoiser,
                                weighted_eps_loss)
from posefuse.fusion import plan_segments
from posefuse.regions import LossWeightMap

from conftest import affine_wls_optimum, finite_difference_grad


def make_samples(rng, n=4, shape=(2, 3, 4, 4), a=None, b=None, noise=0.0):
    """Batch of (x_t, eps, t) with eps = a*x + b per channel plus noise."""
    channels = shape[1]
    if a is None:
        a = rng.normal(size=channels)
    if b is None:
        b = rng.normal(size=channels)
    samples = []
    for t in range(1, n + 1):
        x = rng.normal(size=shape)
        eps = (a.reshape(1, -1, 1, 1) * x + b.reshape(1, -1, 1, 1)
               + noise * rng.normal(size=shape))
        samples.append((x, eps, t))
    return samples


# ---- schedules -------------------------------------------------------

def test_schedule_single_step():
    sched = linear_beta_schedule(1, 0.1, 0.1)
    assert sched.T == 1
    assert sched.alpha_bar_at(1) == pytest.approx(0.9)
    assert sched.alpha_bar_at(0) == 1.0


def test_schedule_two_steps_product():
    sched = NoiseSchedule.from_betas([0.1, 0.2])
    assert sched.alpha_bar_at(2) == pytest.approx(0.72)


def test_schedule_recurrence_exact():
    sched = linear_beta_schedule(500)
    for t in range(1, 501):
        assert sched.alpha_bar_at(t) == sched.alpha_bar_at(t - 1) * sched.alpha[t - 1]


def test_schedule_strictly_decreasing():
    sched = linear_beta_schedule(1000)
    assert np.all(np.diff(sched.alpha_bar) < 0)
    assert np.all((sched.alpha > 0) & (sched.alpha < 1))


def test_schedule_validation():
    with pytest.raises(ValueError):
        linear_beta_schedule(0)
    with pytest.raises(ValueError):
        linear_beta_schedule(10, 0.2, 0.1)  # decreasing betas
    with pytest.raises(ValueError):
        NoiseSchedule.from_betas([0.5, 1.0])
    with pytest.raises(ValueError):
        NoiseSchedule.from_betas([])
    # every comparison with nan is False, so nan must fail the checks
    for betas in ([math.nan], [0.1, math.nan], [math.inf], [-math.inf]):
        with pytest.raises(ValueError, match="beta_t"):
            NoiseSchedule.from_betas(betas)


def test_schedule_arrays_read_only():
    sched = linear_beta_schedule(10)
    with pytest.raises(ValueError):
        sched.beta[0] = 0.5


# ---- forward process -------------------------------------------------

def test_forward_diffuse_t0_identity():
    sched = linear_beta_schedule(10)
    x0 = np.random.default_rng(0).normal(size=(1, 2, 3, 3))
    out = forward_diffuse(x0, 0, sched, np.zeros_like(x0))
    np.testing.assert_array_equal(out, x0)


def test_forward_diffuse_known_value():
    # alpha_bar = 0.5 exactly with a single beta of 0.5
    sched = NoiseSchedule.from_betas([0.5])
    x0 = np.ones((1, 1, 2, 2))
    out = forward_diffuse(x0, 1, sched, np.zeros_like(x0))
    np.testing.assert_allclose(out, np.sqrt(0.5), rtol=1e-15)


def test_forward_diffuse_validation():
    sched = linear_beta_schedule(10)
    x0 = np.zeros((1, 1, 2, 2))
    with pytest.raises(ValueError):
        forward_diffuse(x0, 11, sched, np.zeros_like(x0))
    with pytest.raises(ValueError):
        forward_diffuse(x0, 1, sched, np.zeros((1, 1, 2, 3)))


def test_forward_diffuse_affine_in_inputs():
    sched = linear_beta_schedule(100)
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=(2, 2, 4, 4))
    noise = rng.normal(size=x0.shape)
    # power-of-two scaling commutes with rounding, so it must be exact;
    # a general scale only agrees up to an ulp or two
    lhs = forward_diffuse(4.0 * x0, 50, sched, 4.0 * noise)
    np.testing.assert_array_equal(lhs, 4.0 * forward_diffuse(x0, 50, sched, noise))
    lhs = forward_diffuse(3.5 * x0, 50, sched, 3.5 * noise)
    np.testing.assert_allclose(lhs, 3.5 * forward_diffuse(x0, 50, sched, noise),
                               rtol=1e-14)


def test_forward_diffuse_monte_carlo_statistics():
    sched = linear_beta_schedule(1000)
    t = 400
    ab = sched.alpha_bar_at(t)
    x0 = np.full(100_000, 1.7)
    rng = np.random.default_rng(7)
    draws = forward_diffuse(x0.reshape(1, 1, 1, -1), t, sched,
                            rng.standard_normal((1, 1, 1, 100_000))).ravel()
    n = draws.size
    sigma = np.sqrt(1.0 - ab)
    assert abs(draws.mean() - np.sqrt(ab) * 1.7) < 3.0 * sigma / np.sqrt(n)
    assert abs(draws.var() - (1.0 - ab)) < 0.02 * (1.0 - ab)


# ---- sigma sampling --------------------------------------------------

class _ZeroRng:
    """Stand-in generator forcing the underlying normal draw to zero."""

    def standard_normal(self, size=None):
        return 0.0 if size is None else np.zeros(size)


def test_sigma_forced_median():
    sigma = karras_sigma_sample(SigmaDist(), _ZeroRng())
    assert sigma == pytest.approx(np.exp(0.5))


def test_sigma_positive_and_shapes():
    rng = np.random.default_rng(0)
    s = karras_sigma_sample(SigmaDist(), rng)
    assert isinstance(s, float) and s > 0
    arr = karras_sigma_sample(SigmaDist(), rng, size=1000)
    assert arr.shape == (1000,) and (arr > 0).all()


def test_sigma_distribution_parameters():
    rng = np.random.default_rng(123)
    draws = karras_sigma_sample(SigmaDist(), rng, size=1_000_000)
    logs = np.log(draws)
    assert abs(logs.mean() - 0.5) < 0.01
    assert abs(logs.std() - 1.4) < 0.01


def test_sigma_sample_refuses_overflow():
    # exp(800 + 1.4 g) leaves float range for every draw; at p_mean 0.5 a
    # finite draw keeps the bits of the plain expression
    for size in (None, 3):
        with pytest.raises(ValueError, match="overflowed"):
            karras_sigma_sample(SigmaDist(p_mean=800.0),
                                np.random.default_rng(0), size)
    g = np.random.default_rng(4).standard_normal(50)
    draws = karras_sigma_sample(SigmaDist(), np.random.default_rng(4), 50)
    assert draws.tobytes() == np.exp(0.5 + 1.4 * g).tobytes()


def test_sigma_sample_refuses_underflow_to_zero():
    # exp(-800 + 1.4 g) is 0.0 in float64 for every draw; a subnormal
    # draw is still > 0 and kept
    for size in (None, 3):
        with pytest.raises(ValueError, match="underflowed"):
            karras_sigma_sample(SigmaDist(p_mean=-800.0),
                                np.random.default_rng(0), size)
    tiny = karras_sigma_sample(SigmaDist(p_mean=-740.0), _ZeroRng(), 2)
    assert (tiny > 0).all()
    assert tiny.tobytes() == np.exp([-740.0] * 2).tobytes()


def test_sigma_dist_validation():
    with pytest.raises(ValueError):
        SigmaDist(p_std=0.0)
    for p_std in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="p_std"):
            SigmaDist(p_std=p_std)
    for p_mean in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="p_mean"):
            SigmaDist(p_mean=p_mean)


# ---- weighted loss ---------------------------------------------------

def test_loss_zero_at_equality():
    x = np.random.default_rng(0).normal(size=(1, 2, 4, 4))
    assert weighted_eps_loss(x, x, np.ones((4, 4))) == 0.0


def test_loss_uniform_weights_is_mse():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 3, 4, 4))
    b = rng.normal(size=(2, 3, 4, 4))
    loss = weighted_eps_loss(a, b, np.ones((4, 4)))
    assert loss == pytest.approx(np.mean((a - b) ** 2), rel=1e-12)


def test_loss_two_pixel_example():
    # squared errors (1, 4) with weights (1, 10) -> 41/11
    eps_hat = np.array([[[[1.0, 2.0]]]])
    eps = np.array([[[[0.0, 0.0]]]])
    w = np.array([[1.0, 10.0]])
    assert weighted_eps_loss(eps_hat, eps, w) == pytest.approx(41.0 / 11.0)


def test_loss_weight_scale_invariance():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(2, 2, 3, 3))
    b = rng.normal(size=(2, 2, 3, 3))
    w = rng.uniform(1.0, 5.0, size=(3, 3))
    assert weighted_eps_loss(a, b, w) == pytest.approx(
        weighted_eps_loss(a, b, 7.0 * w), rel=1e-12)


def test_loss_accepts_loss_weight_map():
    wm = LossWeightMap(3, 3, np.ones((3, 3)))
    a = np.zeros((1, 1, 3, 3))
    b = np.ones((1, 1, 3, 3))
    assert weighted_eps_loss(a, b, wm) == pytest.approx(1.0)


def test_loss_validation():
    a = np.zeros((1, 1, 2, 2))
    with pytest.raises(ValueError):
        weighted_eps_loss(a, np.zeros((1, 1, 2, 3)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        weighted_eps_loss(a, a, np.ones((3, 3)))
    with pytest.raises(ValueError):
        weighted_eps_loss(a, a, np.zeros((2, 2)))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="total"):
            weighted_eps_loss(a, a, np.array([[1.0, bad], [1.0, 1.0]]))


# ---- gradients and training ------------------------------------------

def test_grad_hand_example():
    # single pixel, w=1, a=b=0, x=1, eps=1: d/da (a x + b - 1)^2 = -2
    params = AffineParams.zeros(1)
    samples = [(np.ones((1, 1, 1, 1)), np.ones((1, 1, 1, 1)), 1)]
    ga, gb = loss_grad_linear(params, samples, np.ones((1, 1)))
    assert ga[0] == pytest.approx(-2.0)
    assert gb[0] == pytest.approx(-2.0)


def test_grad_zero_at_optimum():
    rng = np.random.default_rng(2)
    samples = make_samples(rng, n=5, noise=0.3)
    w = rng.uniform(1.0, 10.0, size=(4, 4))
    opt = affine_wls_optimum(samples, w)
    ga, gb = loss_grad_linear(opt, samples, w)
    assert np.abs(ga).max() < 1e-8
    assert np.abs(gb).max() < 1e-8


def test_grad_matches_finite_differences_50_instances():
    rng = np.random.default_rng(11)
    for _ in range(50):
        channels = int(rng.integers(1, 4))
        shape = (int(rng.integers(1, 3)), channels, 3, 3)
        samples = make_samples(rng, n=int(rng.integers(1, 4)), shape=shape,
                               noise=0.5)
        w = rng.uniform(1.0, 10.0, size=shape[-2:])
        params = AffineParams(rng.normal(size=channels),
                              rng.normal(size=channels))
        ga, gb = loss_grad_linear(params, samples, w)
        fa, fb = finite_difference_grad(params, samples, w)
        scale = max(np.abs(np.concatenate([fa, fb])).max(), 1.0)
        assert np.abs(ga - fa).max() / scale < 1e-5
        assert np.abs(gb - fb).max() / scale < 1e-5


def test_training_reaches_least_squares_optimum():
    rng = np.random.default_rng(21)
    samples = make_samples(rng, n=6, shape=(2, 2, 4, 4), noise=0.2)
    w = rng.uniform(1.0, 10.0, size=(4, 4))
    opt = affine_wls_optimum(samples, w)
    params, trace = train_toy_denoiser(samples, w, steps=4000, lr=0.05)
    final = affine_batch_loss(params, samples, w)
    best = affine_batch_loss(opt, samples, w)
    assert final - best < 1e-6
    assert trace[0] > trace[-1]


def test_training_trace_non_increasing_for_small_lr():
    rng = np.random.default_rng(22)
    samples = make_samples(rng, n=3, noise=0.4)
    _params, trace = train_toy_denoiser(samples, np.ones((4, 4)), steps=200,
                                        lr=0.01)
    diffs = np.diff(trace)
    assert (diffs <= 1e-12).all()


def test_training_zero_steps_is_identity():
    rng = np.random.default_rng(23)
    samples = make_samples(rng, n=2)
    start = AffineParams(np.array([0.3, -0.2, 0.1]), np.array([1.0, 0.0, -1.0]))
    params, trace = train_toy_denoiser(samples, np.ones((4, 4)), steps=0,
                                       lr=0.1, params=start)
    np.testing.assert_array_equal(params.a, start.a)
    np.testing.assert_array_equal(params.b, start.b)
    assert len(trace) == 1


def test_training_divergence_detected():
    rng = np.random.default_rng(24)
    samples = make_samples(rng, n=2, shape=(1, 1, 4, 4))
    with pytest.raises(TrainingDiverged) as info:
        train_toy_denoiser(samples, np.ones((4, 4)), steps=500, lr=50.0)
    assert info.value.trace[-1] > 1e6


def test_training_validation():
    rng = np.random.default_rng(25)
    samples = make_samples(rng, n=1)
    with pytest.raises(ValueError):
        train_toy_denoiser(samples, np.ones((4, 4)), steps=10, lr=0.0)


@pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf])
def test_training_rejects_non_finite_lr(lr):
    # NaN passed the old `lr <= 0` check and trained to NaN parameters
    rng = np.random.default_rng(25)
    samples = make_samples(rng, n=1)
    with pytest.raises(ValueError, match="finite"):
        train_toy_denoiser(samples, np.ones((4, 4)), steps=10, lr=lr)


def hand_region_weights(side_len=8, hand=4):
    w = np.ones((side_len, side_len))
    w[:hand, :hand] = 10.0
    mask = w > 1.0
    return w, mask


def hand_mse(params, samples, mask):
    errs = []
    for x_t, eps, _t in samples:
        d = (params.predict(x_t) - eps) ** 2
        errs.append(d[..., mask].mean())
    return float(np.mean(errs))


def test_weighted_training_prioritizes_hand_region():
    """A one-channel affine model cannot satisfy two regions whose data
    follow different linear laws; upweighting the hand region must pull
    its MSE at or below the unweighted solution's."""
    rng = np.random.default_rng(31)
    w, mask = hand_region_weights()
    samples = []
    for t in range(1, 7):
        x = rng.normal(size=(2, 1, 8, 8))
        eps = np.where(mask, 2.0 * x, 0.5 * x)  # conflicting slopes
        samples.append((x, eps, t))

    uniform = np.ones((8, 8))
    p_w, _ = train_toy_denoiser(samples, w, steps=3000, lr=0.05)
    p_u, _ = train_toy_denoiser(samples, uniform, steps=3000, lr=0.05)

    # both runs must actually be at their analytic optima
    for params, weights in ((p_w, w), (p_u, uniform)):
        best = affine_wls_optimum(samples, weights)
        assert (affine_batch_loss(params, samples, weights)
                - affine_batch_loss(best, samples, weights)) < 1e-6

    assert hand_mse(p_w, samples, mask) <= hand_mse(p_u, samples, mask)
    # and strictly better here, since the regions genuinely conflict
    assert hand_mse(p_w, samples, mask) < hand_mse(p_u, samples, mask) - 1e-4


# ---- toy denoisers ---------------------------------------------------

def test_smoother_eta_one_returns_target():
    target = np.random.default_rng(0).normal(size=(6, 2, 3, 3))
    den = pull_denoiser(target, eta=1.0)
    z = np.zeros((6, 2, 3, 3))
    assert den(z, Condition(), 5) is None
    np.testing.assert_array_equal(z, target)


def test_smoother_in_place_matches_expression_bitwise():
    # 3 * 5 * 71 * 67 elements: more than one chunk, and a partial last one
    rng = np.random.default_rng(4)
    target = rng.normal(size=(3, 5, 71, 67))
    den = pull_denoiser(target, eta=0.35)
    z = rng.normal(size=(3, 5, 71, 67))
    expect = z + 0.35 * (target - z)
    den(z, Condition(), 1)
    assert z.tobytes() == expect.tobytes()


def test_smoother_midpoint():
    target = np.full((2, 1, 2, 2), 2.0)
    den = pull_denoiser(target, eta=0.5)
    z = np.zeros((2, 1, 2, 2))
    den(z, Condition(), 1)
    np.testing.assert_array_equal(z, np.ones((2, 1, 2, 2)))


def test_smoother_uses_frame_offset():
    # a trajectory gathered by plan.frame_index fills each segment's slots
    # with its own frames, from the segment's start offset on
    plan = plan_segments(8, 4, 2)
    target = np.arange(8, dtype=float).reshape(8, 1, 1, 1)
    den = pull_denoiser(target[plan.frame_index], eta=1.0)
    z = np.zeros((3, 4, 1, 1, 1))
    den(z, Condition(), 1)
    np.testing.assert_array_equal(z.reshape(3, 4), [[0.0, 1.0, 2.0, 3.0],
                                                    [2.0, 3.0, 4.0, 5.0],
                                                    [4.0, 5.0, 6.0, 7.0]])


def test_smoother_shape_mismatch():
    den = pull_denoiser(np.zeros((4, 1, 2, 2)), eta=0.5)
    with pytest.raises(ValueError):
        den(np.zeros((3, 1, 2, 3)), Condition(), 1)


def test_smoother_validation():
    with pytest.raises(ValueError):
        pull_denoiser(np.zeros((2, 1, 2, 2)), eta=0.0)


def test_analytic_gaussian_converges_to_mean():
    # near-zero noise level: posterior mean must recover mu
    sched = NoiseSchedule.from_betas([1e-14])
    mu = 1.25
    den = gaussian_denoiser(sched, mu=mu, sigma0=2.0)
    rng = np.random.default_rng(6)
    x0 = mu + 2.0 * rng.standard_normal((4, 1, 8, 8))
    x_t = forward_diffuse(x0, 1, sched, rng.standard_normal(x0.shape))
    assert den(x_t, Condition(), 1) is None
    assert np.abs(x_t - x0).max() < 1e-6


def test_analytic_gaussian_high_noise_returns_prior_mean():
    # alpha_bar ~ 0: the observation is useless, estimate collapses to mu
    sched = NoiseSchedule.from_betas([1.0 - 1e-12])
    den = gaussian_denoiser(sched, mu=-0.75, sigma0=1.0)
    z = np.random.default_rng(8).normal(size=(2, 1, 4, 4))
    den(z, Condition(), 1)
    np.testing.assert_allclose(z, -0.75, atol=1e-5)


def test_analytic_gaussian_in_place_matches_expression_bitwise():
    sched = linear_beta_schedule(50)
    mu, sigma0 = 0.3, 1.7
    den = gaussian_denoiser(sched, mu=mu, sigma0=sigma0)
    var0 = sigma0 * sigma0
    z = np.random.default_rng(5).normal(size=(4, 2, 5, 5))
    for t in (50, 17, 1):
        ab = sched.alpha_bar_at(t)
        expect = ((var0 * np.sqrt(ab) * z + (1.0 - ab) * mu)
                  / (ab * var0 + (1.0 - ab)))
        den(z, Condition(), t)
        assert z.tobytes() == expect.tobytes()


def test_smoother_rejects_non_contiguous_latents():
    den = pull_denoiser(np.zeros((4, 1, 2, 2)), eta=0.5)
    z = np.zeros((4, 1, 2, 4))[..., ::2]
    with pytest.raises(ValueError):
        den(z, Condition(), 1)


@pytest.mark.parametrize("mu,sigma0,message", [
    (math.nan, 1.0, "mu must be finite"),
    (math.inf, 1.0, "mu must be finite"),
    (-math.inf, 1.0, "mu must be finite"),
    (0.0, 0.0, "sigma0 must be finite and > 0"),
    (0.0, -1.0, "sigma0 must be finite and > 0"),
    (0.0, math.nan, "sigma0 must be finite and > 0"),
    (0.0, math.inf, "sigma0 must be finite and > 0"),
])
def test_gaussian_denoiser_rejects_non_finite_prior(mu, sigma0, message):
    # nan or inf here would turn every latent non-finite
    with pytest.raises(ValueError, match=message):
        gaussian_denoiser(linear_beta_schedule(10), mu=mu, sigma0=sigma0)
