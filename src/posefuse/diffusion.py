"""Forward diffusion, noise distributions, weighted eps-loss, toy denoisers.

The weighted loss is the plain mean-squared noise-prediction error with
per-pixel weights from a LossWeightMap, normalized by the total weight
so amplified regions change the gradient balance but not the loss scale.
Toy denoisers satisfy the same call contract as the real video model,
(latents, condition, step) -> None with the latents updated in place,
and stand in for it everywhere; the long-video loop hands them its
whole (S, N, C, H, W) segment stack in one call per step. Each has its
own constructor: ``pull_denoiser`` pulls the latents toward a target it
is given, ``gaussian_denoiser`` is the posterior mean for Gaussian data,
and ``make_phase_instance`` builds the phase-drifting target of the
long-video workload and pulls toward it.

The pull denoiser's chunks and the phase instance's target build run
in two halves on two cores through ``_halves``; ``_both`` describes the
helper thread behind it. Each element is still computed once, by the
same operations, so the bits do not depend on the split.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .regions import LossWeightMap
from .seeding import stream_rng

if TYPE_CHECKING:
    from .fusion import SegmentPlan

class TrainingDiverged(RuntimeError):
    def __init__(self, trace: list[float]):
        super().__init__(f"toy training diverged, last loss {trace[-1]:.4g}")
        self.trace = trace


@dataclass(frozen=True)
class NoiseSchedule:
    """DDPM-style schedule; alpha_bar(0) is defined as 1."""

    beta: np.ndarray
    alpha: np.ndarray = field(repr=False)
    alpha_bar: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.beta.ndim != 1 or len(self.beta) < 1:
            raise ValueError("beta must be a nonempty 1-D array")
        if not np.all((self.beta > 0) & (self.beta < 1)):
            raise ValueError("every beta_t must lie in (0, 1)")
        if not np.all(np.diff(self.alpha_bar) < 0):
            raise ValueError("alpha_bar must be strictly decreasing")
        for a in (self.beta, self.alpha, self.alpha_bar):
            a.setflags(write=False)

    @classmethod
    def from_betas(cls, betas: Sequence[float] | np.ndarray) -> "NoiseSchedule":
        beta = np.asarray(betas, dtype=np.float64).copy()
        alpha = 1.0 - beta
        return cls(beta, alpha, np.cumprod(alpha))

    @property
    def T(self) -> int:
        return len(self.beta)

    def alpha_bar_at(self, t: int) -> float:
        if not 0 <= t <= self.T:
            raise ValueError(f"step {t} out of range [0, {self.T}]")
        return 1.0 if t == 0 else float(self.alpha_bar[t - 1])


def linear_beta_schedule(T: int = 1000, beta_1: float = 1e-4,
                         beta_T: float = 0.02) -> NoiseSchedule:
    if T < 1:
        raise ValueError("T must be >= 1")
    if not 0 < beta_1 <= beta_T < 1:
        raise ValueError("need 0 < beta_1 <= beta_T < 1")
    return NoiseSchedule.from_betas(np.linspace(beta_1, beta_T, T))


def forward_diffuse(x0: np.ndarray, t: int, sched: NoiseSchedule,
                    noise: np.ndarray) -> np.ndarray:
    """sqrt(alpha_bar_t) * x0 + sqrt(1 - alpha_bar_t) * noise."""
    if x0.shape != noise.shape:
        raise ValueError(f"noise shape {noise.shape} != x0 shape {x0.shape}")
    ab = sched.alpha_bar_at(t)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * noise


@dataclass(frozen=True)
class SigmaDist:
    """log sigma ~ Normal(p_mean, p_std^2)."""

    p_mean: float = 0.5
    p_std: float = 1.4

    def __post_init__(self):
        if not math.isfinite(self.p_mean):
            raise ValueError("p_mean must be finite")
        if not 0 < self.p_std < math.inf:
            raise ValueError("p_std must be finite and > 0")


def karras_sigma_sample(dist: SigmaDist, rng: np.random.Generator,
                        size: int | tuple[int, ...] | None = None):
    """Draw noise levels sigma = exp(p_mean + p_std * g), g standard normal;
    a draw past float range raises ValueError rather than returning inf,
    and so does a draw that underflows to 0."""
    g = rng.standard_normal(size)
    with np.errstate(over="ignore"):
        sigma = np.exp(dist.p_mean + dist.p_std * g)
    if not np.isfinite(sigma).all():
        raise ValueError("a sigma draw overflowed float range")
    if not sigma.all():
        raise ValueError("a sigma draw underflowed to 0")
    return float(sigma) if size is None else sigma


def _broadcast_weights(w, shape: tuple[int, ...]) -> np.ndarray:
    data = w.data if isinstance(w, LossWeightMap) else np.asarray(w, dtype=np.float64)
    if data.shape == shape:
        return data
    if data.shape == shape[-2:]:
        return np.broadcast_to(data, shape)
    raise ValueError(f"weight shape {data.shape} incompatible with {shape}")


def weighted_eps_loss(eps_hat: np.ndarray, eps: np.ndarray,
                      w: LossWeightMap | np.ndarray) -> float:
    """Weighted mean of squared errors: sum(w * d^2) / sum(w); a loss past
    float range is inf, without a warning, which training reads as
    divergence."""
    if eps_hat.shape != eps.shape:
        raise ValueError(f"shape mismatch {eps_hat.shape} vs {eps.shape}")
    wb = _broadcast_weights(w, eps.shape)
    total = float(np.sum(wb))
    if not 0 < total < math.inf:
        raise ValueError("weights must have a positive finite total")
    d = eps_hat - eps
    with np.errstate(over="ignore"):
        return float(np.sum(wb * d * d) / total)


@dataclass(frozen=True)
class AffineParams:
    """Per-channel affine noise predictor: eps_hat = a[c] * x_t + b[c]."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise ValueError("a and b must be 1-D arrays of equal length")

    @classmethod
    def zeros(cls, channels: int) -> "AffineParams":
        return cls(np.zeros(channels), np.zeros(channels))

    def predict(self, x_t: np.ndarray) -> np.ndarray:
        c = len(self.a)
        if x_t.shape[1] != c:
            raise ValueError(f"expected {c} channels, got {x_t.shape[1]}")
        return self.a.reshape(1, c, 1, 1) * x_t + self.b.reshape(1, c, 1, 1)


Sample = tuple[np.ndarray, np.ndarray, int]  # (x_t, eps, t)


def affine_batch_loss(params: AffineParams, samples: Sequence[Sample],
                      w: LossWeightMap | np.ndarray) -> float:
    losses = [weighted_eps_loss(params.predict(x_t), eps, w)
              for x_t, eps, _t in samples]
    return float(np.mean(losses))


def loss_grad_linear(params: AffineParams, samples: Sequence[Sample],
                     w: LossWeightMap | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form gradient of affine_batch_loss wrt (a, b)."""
    c = len(params.a)
    ga = np.zeros(c)
    gb = np.zeros(c)
    n = len(samples)
    for x_t, eps, _t in samples:
        wb = _broadcast_weights(w, x_t.shape)
        total = float(np.sum(wb))
        d = params.predict(x_t) - eps
        # d loss / d a_c = 2 sum(w d x over channel c) / sum(w), averaged over batch
        ga += 2.0 * np.sum(wb * d * x_t, axis=(0, 2, 3)) / total / n
        gb += 2.0 * np.sum(wb * d, axis=(0, 2, 3)) / total / n
    return ga, gb


def train_toy_denoiser(samples: Sequence[Sample], w: LossWeightMap | np.ndarray,
                       steps: int, lr: float,
                       params: AffineParams | None = None,
                       ) -> tuple[AffineParams, list[float]]:
    """Plain gradient descent on the weighted eps-loss; returns loss trace."""
    if not 0 < lr < math.inf:
        raise ValueError("lr must be finite and > 0")
    if params is None:
        params = AffineParams.zeros(samples[0][0].shape[1])
    trace = [affine_batch_loss(params, samples, w)]
    for _ in range(steps):
        ga, gb = loss_grad_linear(params, samples, w)
        params = AffineParams(params.a - lr * ga, params.b - lr * gb)
        trace.append(affine_batch_loss(params, samples, w))
        if trace[-1] > 1e6:
            raise TrainingDiverged(trace)
    return params, trace


@dataclass(frozen=True)
class Condition:
    """Conditioning bundle handed to a denoiser.

    pose_features carry per-frame guidance features; in the long-video
    loop they hold one entry per slot of the (S, N, ...) segment stack.
    """

    pose_features: np.ndarray | None = None


# A denoiser overwrites the latents it is handed and returns None.
Denoiser = Callable[[np.ndarray, Condition, int], None]


class _Helper:
    """The daemon thread that runs the ``first`` side of a ``_both`` call.

    ``go`` and ``done`` are locks used as one-shot signals: the caller
    releases ``go`` once ``task`` is set, and the helper releases
    ``done`` once it has run the task and dropped its references to it,
    so no array outlives the call through the helper.
    """

    def __init__(self):
        self.go, self.done = threading.Lock(), threading.Lock()
        self.go.acquire()
        self.done.acquire()
        self.task = None
        self.error: BaseException | None = None
        self.thread = threading.Thread(target=self._serve, daemon=True,
                                       name="posefuse-halves")
        self.thread.start()

    def _serve(self) -> None:
        while True:
            self.go.acquire()
            context, fn = self.task
            self.task = None
            try:
                context.run(fn)
            except BaseException as exc:  # raised again by _both
                self.error = exc
            del context, fn
            self.done.release()


_helper: _Helper | None = None
_helper_lock = threading.Lock()  # one _both call at a time


def _both(first: Callable[[], None], second: Callable[[], None]) -> None:
    """Run first() on the package's helper thread and second() here.

    This is the package's one extra thread: a daemon started on first
    use and kept for the life of the process. The two sides run at the
    same time and must not touch the same data; first() runs in a copy
    of the caller's context, so numpy's ``errstate`` holds in both.
    Returns once both sides are done. When both raise, first's error is
    the one raised, as the callers give first the earlier work. Calls
    from several threads take turns; neither side may call ``_both``
    or ``_halves``, as the lock is not reentrant. A helper lost to
    ``fork``, or left running by an interrupted wait, is replaced by a
    fresh one.
    """
    global _helper
    with _helper_lock:
        helper = _helper
        if helper is None or not helper.thread.is_alive():
            helper = _Helper()
        _helper = None  # until this call's wait completes
        helper.task = (contextvars.copy_context(), first)
        helper.go.release()
        try:
            second()
        finally:
            helper.done.acquire()
            _helper = helper
            error, helper.error = helper.error, None
            if error is not None:
                raise error


def _halves(fn: Callable[[int, int], None], n: int) -> None:
    """Run fn(0, n // 2) and fn(n // 2, n) as the two sides of ``_both``.

    The halves must write disjoint data; with n < 2, fn(0, n) runs here.
    """
    half = n // 2
    if half == 0:
        fn(0, n)
    else:
        _both(lambda: fn(0, half), lambda: fn(half, n))


# elements per chunk of the in-place pull; a private constant, not an option
_CHUNK = 1 << 15


def pull_denoiser(target: np.ndarray, eta: float) -> Denoiser:
    """Denoiser moving C-contiguous z a fraction eta toward target.

    The target has the latents' shape and does not depend on the step.
    The update runs ``b = target - z; b *= eta; z += b`` over chunks of
    _CHUNK elements, split into two halves by ``_halves``; each half has
    one chunk buffer kept for the denoiser's lifetime, so calls must not
    overlap. IEEE addition and multiplication commute, so z ends up with
    the bits of ``z + eta * (target - z)``.
    """
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    target = np.ascontiguousarray(target, dtype=np.float64)
    flat_target = target.reshape(-1)
    bufs = np.empty((2, _CHUNK))

    def pull(z: np.ndarray, cond: Condition, t: int) -> None:
        if z.shape != target.shape:
            raise ValueError(f"target {target.shape} != latents {z.shape}")
        if not z.flags.c_contiguous:
            raise ValueError("latents must be C-contiguous to update in place")
        flat_z = z.reshape(-1)

        def pull_chunks(lo: int, hi: int) -> None:
            buf = bufs[min(lo, 1)]  # the helper's half starts at chunk 0
            for a in range(lo * _CHUNK, hi * _CHUNK, _CHUNK):
                zc = flat_z[a:a + _CHUNK]
                b = buf[:zc.size]
                np.subtract(flat_target[a:a + _CHUNK], zc, out=b)
                b *= eta
                zc += b

        _halves(pull_chunks, -(-flat_z.size // _CHUNK))

    return pull


def gaussian_denoiser(sched: NoiseSchedule, mu: float = 0.0,
                      sigma0: float = 1.0) -> Denoiser:
    """Exact posterior-mean denoiser for i.i.d. Normal(mu, sigma0^2) data
    under the given schedule, updating the latents in place."""
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")
    if not 0 < sigma0 < math.inf:
        raise ValueError("sigma0 must be finite and > 0")
    var0 = sigma0 * sigma0

    def posterior_mean(z: np.ndarray, cond: Condition, t: int) -> None:
        ab = sched.alpha_bar_at(t)
        # (var0 * sqrt(ab) * z + (1 - ab) * mu) / (ab * var0 + (1 - ab))
        z *= var0 * np.sqrt(ab)
        z += (1.0 - ab) * mu
        z /= ab * var0 + (1.0 - ab)

    return posterior_mean


def make_phase_instance(plan: SegmentPlan, latent_shape: tuple[int, int, int],
                        seed: int, eta: float = 0.35,
                        phase_jitter: float = 0.3,
                        period_range: tuple[float, float] = (24.0, 48.0),
                        ) -> Denoiser:
    """Synthetic long-video workload where segments mildly disagree.

    Every latent pixel follows its own sinusoid over frame index (random
    period and phase), and each segment perturbs the phase by a small
    random offset. The denoiser pulls the plan's whole (S, N, C, H, W)
    segment stack a fraction eta toward each segment's version of the
    trajectory per step, so without fusion the seams keep a phase
    mismatch while fusion reconciles them. The target does not depend
    on the step, so it is built once, here, for every slot of the plan,
    each half of the segments by one side of ``_halves``.
    """
    from .fusion import _check_stack_size  # fusion imports this module

    lo, hi = period_range
    if not 0 < lo < hi:
        raise ValueError("period_range must be increasing and positive")
    # the segment offsets are drawn from a range 2 * phase_jitter wide
    if not (phase_jitter >= 0 and math.isfinite(2 * phase_jitter)):
        raise ValueError("phase_jitter must be >= 0 with 2 * phase_jitter "
                         "finite")
    if not 0 < eta <= 1:  # pull_denoiser's check, before any draw
        raise ValueError("eta must lie in (0, 1]")
    shape = tuple(latent_shape)
    _check_stack_size(plan.total_frames, plan.segment_length,
                      plan.context_overlap, shape)
    period = stream_rng(seed, 100).uniform(lo, hi, size=shape)
    pixel_phase = stream_rng(seed, 101).uniform(0.0, 2.0 * math.pi, size=shape)
    seg_phase = stream_rng(seed, 102).uniform(-phase_jitter, phase_jitter,
                                              size=len(plan))

    frame_index = plan.frame_index[..., None, None, None]
    target = np.empty(frame_index.shape[:2] + shape)

    def build(lo: int, hi: int) -> None:
        # 2 pi f / period + pixel_phase + seg_phase, then sin, in place
        part = target[lo:hi]
        np.divide(2.0 * math.pi * frame_index[lo:hi], period, out=part)
        part += pixel_phase
        part += seg_phase[lo:hi, None, None, None, None]
        np.sin(part, out=part)

    _halves(build, len(plan))
    return pull_denoiser(target, eta)
