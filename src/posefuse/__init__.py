"""Pose-guided video diffusion mechanisms at desk scale.

Confidence-weighted skeleton rendering, hand-region loss weighting,
forward diffusion and weighted-loss machinery with toy denoisers, and
progressive latent fusion for denoising long videos in overlapping
segments.
"""

from .config import ConfigError, RunConfig, config_from_dict, load_run_config
from .diffusion import (AffineParams, Condition, NoiseSchedule, SigmaDist,
                        TrainingDiverged, affine_batch_loss, forward_diffuse,
                        karras_sigma_sample, linear_beta_schedule,
                        loss_grad_linear, make_phase_instance,
                        make_toy_denoiser, train_toy_denoiser,
                        weighted_eps_loss)
from .fusion import (FUSION_MODES, SegmentPlan, assemble,
                     boundary_jump_metric, format_plan,
                     frame_difference_profile, plan_segments,
                     run_long_denoise)
from .pose import (PoseFrame, PoseParseError, PoseSequence,
                   parse_pose_sequence, retarget_limb_lengths)
from .regions import (LossWeightMap, build_weight_map, downsample_weight_map,
                      hand_bbox, hand_reliability)
from .render import GuidanceMap, RenderStyle, render_frame
from .seeding import stream_rng
from .skeleton import WHOLEBODY_133, LayoutError, SkeletonLayout, get_layout

__version__ = "0.1.0"
