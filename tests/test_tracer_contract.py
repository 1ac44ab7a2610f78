"""The benchmark's tracer reads the package from outside: it wraps
functions on ``posefuse.cli`` and reads ``SegmentPlan`` fields. Run it on
a small ``longvideo`` workload and on ``render-pose``, whose writes on
the helper thread must call no wrapped function, so a change to either
side shows here.
"""

import json
import sys
from pathlib import Path

import pytest

from posefuse import cli, fusion

from conftest import person_keypoints, pose_doc

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402
from test_checks import SMALL_LONGVIDEO  # noqa: E402

MODES = ("progressive", "uniform", "none")


def run_longvideo(tmp_path, name):
    out = tmp_path / name
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(dict(SMALL_LONGVIDEO, out_dir=str(out))),
                      encoding="ascii")
    for mode in MODES:
        assert cli.main(["longvideo", "--config", str(config),
                         "--mode", mode]) == 0
    return {path.relative_to(out): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def test_tracer_reads_longvideo_runs(tmp_path):
    tracer = tracing.Tracer()
    tracer.install(cli)
    try:
        traced = run_longvideo(tmp_path, "traced")
    finally:
        tracer.remove()
    assert cli.run_long_denoise is fusion.run_long_denoise
    plan = fusion.plan_segments(SMALL_LONGVIDEO["total_frames"],
                                SMALL_LONGVIDEO["segment_length"],
                                SMALL_LONGVIDEO["context_overlap"])
    first, last = fusion._holders(plan)
    shared = int((first < last).sum())
    assert shared > 0
    values = tracer.values
    assert values["fusion.denoise_calls"] == 3 * SMALL_LONGVIDEO["steps"]
    assert values["fusion.segments"] == len(plan)
    assert values["fusion.shared_frames"] == shared
    per_frame = (SMALL_LONGVIDEO["latent_channels"]
                 * SMALL_LONGVIDEO["latent_height"]
                 * SMALL_LONGVIDEO["latent_width"])
    assert values["fusion.latent_mb"] == pytest.approx(
        len(plan) * plan.frames_per_segment * per_frame * 8 / 1e6)
    assert len(traced) == 4 * len(MODES)
    assert traced == run_longvideo(tmp_path, "plain")


def run_render_pose(tmp_path, name, poses):
    out = tmp_path / name
    assert cli.main(["render-pose", "--poses", str(poses), "--out", str(out),
                     "--width", "96", "--height", "128"]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_tracer_reads_render_pose_runs(tmp_path):
    frames = []
    for f in range(4):
        kp = person_keypoints()
        kp[:, 0] += 0.01 * f
        frames.append(kp)
    poses = tmp_path / "poses.json"
    poses.write_bytes(pose_doc(frames))
    tracer = tracing.Tracer()
    tracer.install(cli)
    try:
        traced = run_render_pose(tmp_path, "traced", poses)
    finally:
        tracer.remove()
    # the tracer keeps one span stack: the only wrapped call is the parse
    # on the main thread, none comes from the helper that writes frames
    assert [span[0] for span in tracer.spans] == ["parse_pose_sequence"]
    assert tracer.values["pose.frames"] == len(frames)
    assert tracer.values.get("io_formats.mb_out", 0.0) == 0.0
    assert len(traced) == len(frames)
    assert traced == run_render_pose(tmp_path, "plain", poses)
