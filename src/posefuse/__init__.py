"""Pose-guided video diffusion mechanisms at desk scale.

Confidence-weighted skeleton rendering, hand-region loss weighting,
forward diffusion and weighted-loss machinery with toy denoisers, and
progressive latent fusion for denoising long videos in overlapping
segments. Import the submodules (``posefuse.pose``, ``posefuse.cli``,
...) for the names they define; the package itself binds none.
"""

__version__ = "0.1.0"
