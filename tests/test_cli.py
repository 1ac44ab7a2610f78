import contextlib
import dataclasses
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import posefuse
from posefuse import cli
from posefuse.cli import main
from posefuse.config import DENOISER_KINDS, RunConfig
from posefuse.fusion import FUSION_MODES
from posefuse.skeleton import WHOLEBODY_133

from conftest import person_keypoints, pose_doc, read_mmtl, read_raster


@pytest.fixture
def pose_file(tmp_path):
    frames = []
    for f in range(3):
        kp = person_keypoints()
        kp[:, 0] += 0.01 * f
        frames.append(kp)
    path = tmp_path / "poses.json"
    path.write_bytes(pose_doc(frames, width=64, height=64))
    return path


def write_config(tmp_path, **overrides):
    doc = {"total_frames": 20, "segment_length": 8, "context_overlap": 3,
           "steps": 6, "latent_channels": 2, "latent_height": 4,
           "latent_width": 4, "seed": 3, "out_dir": str(tmp_path / "out")}
    doc.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# ---- render-pose ---------------------------------------------------------

def test_render_pose_writes_frames(tmp_path, pose_file):
    out = tmp_path / "frames"
    rc = main(["render-pose", "--poses", str(pose_file), "--out", str(out),
               "--width", "48", "--height", "48"])
    assert rc == 0
    files = sorted(out.iterdir())
    assert [p.name for p in files] == [f"frame_{i:05d}.ppm" for i in range(3)]
    img = read_raster(files[0].read_bytes(), 48, 48)
    assert img.max() > 0


def test_render_pose_deterministic(tmp_path, pose_file):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["render-pose", "--poses", str(pose_file), "--out", str(out),
              "--width", "48", "--height", "48"])
        outs.append((out / "frame_00000.ppm").read_bytes())
    assert outs[0] == outs[1]


def test_render_pose_threshold_mode_dispatch(tmp_path):
    kp = person_keypoints(conf=0.5)
    path = tmp_path / "half.json"
    path.write_bytes(pose_doc([kp], width=64, height=64))
    images = {}
    for mode in ("scaled", "threshold"):
        out = tmp_path / mode
        rc = main(["render-pose", "--poses", str(path), "--out", str(out),
                   "--width", "48", "--height", "48", "--mode", mode,
                   "--tau", "0.3"])
        assert rc == 0
        images[mode] = read_raster((out / "frame_00000.ppm").read_bytes(),
                                   48, 48)
    # threshold keeps full color at conf 0.5 >= tau; scaled halves it
    assert images["threshold"].max() > images["scaled"].max()


# Recorded from the renderer that drew float canvases and quantized them
# in a separate pass; any change to an output byte fails here.
RENDER_POSE_SHA256 = {
    "scaled/96x128":
        "0a5d97d4266683d16bb02dfc4b111bd2b4e037c0442f4d05ddc35a4fe4808d89",
    "scaled/576x1024":
        "ae824ebddd5b9d1e92475e196c4a6e138f80431dbb54bb5d1588aa8c24f839d8",
    "threshold/96x128":
        "bf2a76f43af4713885e827b576589a58ab816234baeddfd8de7bf1229726c3c4",
    "threshold/576x1024":
        "6c6983f50c0c5591c2b2f4dc7f4e818f1c9106131f36fcfa1a7845616285b6af",
}


def test_render_pose_golden_hashes(tmp_path):
    frames = []
    for f in range(3):
        kp = person_keypoints()
        kp[:, 0] += 0.01 * f
        # 0.0, 1.0 and the 0.3 cutoff all occur among the confidences
        kp[:, 2] = (np.arange(133) * 37 + 11 * f) % 101 / 100
        frames.append(kp)
    poses = tmp_path / "poses.json"
    poses.write_bytes(pose_doc(frames))
    got = {}
    for mode in ("scaled", "threshold"):
        for width, height in ((96, 128), (576, 1024)):
            out = tmp_path / f"{mode}-{width}x{height}"
            assert main(["render-pose", "--poses", str(poses), "--out",
                         str(out), "--width", str(width), "--height",
                         str(height), "--mode", mode]) == 0
            digest = hashlib.sha256()
            for i in range(len(frames)):
                digest.update((out / f"frame_{i:05d}.ppm").read_bytes())
            got[f"{mode}/{width}x{height}"] = digest.hexdigest()
    assert got == RENDER_POSE_SHA256


def test_render_pose_missing_arg_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["render-pose", "--out", str(tmp_path / "x"),
              "--width", "48", "--height", "48"])
    assert exc.value.code == 2


def test_render_pose_missing_file_returns_2(tmp_path, capsys):
    rc = main(["render-pose", "--poses", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o"), "--width", "8", "--height", "8"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_render_pose_malformed_poses_returns_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}", encoding="utf-8")
    rc = main(["render-pose", "--poses", str(bad), "--out",
               str(tmp_path / "o"), "--width", "8", "--height", "8"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("fps", [1]), ("layout", ["x"]),
                                        ("fps", "nan"), ("width", True)])
def test_render_pose_mistyped_field_returns_2(tmp_path, capsys, key, value):
    doc = json.loads(pose_doc([person_keypoints()]).decode())
    doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["render-pose", "--poses", str(bad), "--out",
               str(tmp_path / "o"), "--width", "8", "--height", "8"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_render_pose_400_digit_keypoint_returns_2(tmp_path, capsys):
    doc = json.loads(pose_doc([person_keypoints()]).decode())
    doc["frames"][0]["keypoints"][3][0] = int("1" * 400)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["render-pose", "--poses", str(bad), "--out",
               str(tmp_path / "o"), "--width", "8", "--height", "8"])
    assert rc == 2
    assert "keypoints must be numbers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_render_pose_huge_canvas_returns_2(tmp_path, pose_file, capsys):
    out = tmp_path / "frames"
    rc = main(["render-pose", "--poses", str(pose_file), "--out", str(out),
               "--width", "100000000", "--height", "100000000"])
    assert rc == 2
    assert "exceeds" in capsys.readouterr().err
    assert not out.exists()


def test_memory_error_returns_2(tmp_path, pose_file, capsys, monkeypatch):
    def exhausted(*_args):
        raise MemoryError("Unable to allocate 213. PiB")
    monkeypatch.setattr(cli, "render_frame_u8", exhausted)
    rc = main(["render-pose", "--poses", str(pose_file), "--out",
               str(tmp_path / "frames"), "--width", "48", "--height", "48"])
    assert rc == 2
    assert "Unable to allocate" in capsys.readouterr().err


@pytest.fixture
def five_frames(tmp_path):
    """A five-frame pose file and a clean render of it at 48x48."""
    frames = []
    for f in range(5):
        kp = person_keypoints()
        kp[:, 0] += 0.01 * f
        frames.append(kp)
    poses = tmp_path / "five.json"
    poses.write_bytes(pose_doc(frames, width=64, height=64))
    clean = tmp_path / "clean"
    assert main(render_args(poses, clean)) == 0
    return poses, clean


def render_args(poses, out):
    return ["render-pose", "--poses", str(poses), "--out", str(out),
            "--width", "48", "--height", "48"]


def assert_frames(out, clean, count, blocker=None):
    """out holds the clean run's frames [0, count) and nothing else but
    the blocker, a directory standing where the next frame would go."""
    names = [f"frame_{i:05d}.ppm" for i in range(count)]
    for name in names:
        assert (out / name).read_bytes() == (clean / name).read_bytes()
    if blocker is not None:
        assert (out / blocker).is_dir()
        names.append(blocker)
    assert sorted(p.name for p in out.iterdir()) == names


def failing_on(index, original):
    """render_frame_u8 that runs out of memory on the frame at index."""
    calls = []

    def render(*args):
        calls.append(None)
        if len(calls) == index + 1:
            raise MemoryError("Unable to allocate 213. PiB")
        return original(*args)

    return render


def test_render_pose_write_failure_stops_in_frame_order(tmp_path, five_frames,
                                                        capsys):
    poses, clean = five_frames
    out = tmp_path / "frames"
    (out / "frame_00003.ppm").mkdir(parents=True)
    threads = threading.active_count()
    assert main(render_args(poses, out)) == 2
    assert threading.active_count() == threads
    assert "error:" in capsys.readouterr().err
    assert_frames(out, clean, 3, blocker="frame_00003.ppm")


def test_render_pose_render_failure_keeps_earlier_frames(
        tmp_path, five_frames, capsys, monkeypatch):
    poses, clean = five_frames
    monkeypatch.setattr(cli, "render_frame_u8",
                        failing_on(2, cli.render_frame_u8))
    out = tmp_path / "frames"
    threads = threading.active_count()
    assert main(render_args(poses, out)) == 2
    assert threading.active_count() == threads
    assert "error: Unable to allocate" in capsys.readouterr().err
    assert_frames(out, clean, 2)


def test_render_pose_reports_a_failed_write_before_a_later_render_error(
        tmp_path, five_frames, capsys, monkeypatch):
    # frame 2's write is in flight while frame 3 fails to draw
    poses, clean = five_frames
    monkeypatch.setattr(cli, "render_frame_u8",
                        failing_on(3, cli.render_frame_u8))
    out = tmp_path / "frames"
    (out / "frame_00002.ppm").mkdir(parents=True)
    threads = threading.active_count()
    assert main(render_args(poses, out)) == 2
    assert threading.active_count() == threads
    err = capsys.readouterr().err
    assert "frame_00002.ppm" in err and "Unable to allocate" not in err
    assert_frames(out, clean, 2, blocker="frame_00002.ppm")


def test_render_pose_keeps_one_frame_in_flight(tmp_path, five_frames,
                                               monkeypatch):
    poses, clean = five_frames
    rendered, done, writers = [], [], set()
    render, write = cli.render_frame_u8, cli.write_ppm

    def checked_render(*args):
        # frame k is drawn while frame k - 1 at most is being written
        assert len(done) >= len(rendered) - 1
        rendered.append(None)
        return render(*args)

    def recorded_write(path, image):
        writers.add(threading.current_thread())
        write(path, image)
        done.append(path.name)

    monkeypatch.setattr(cli, "render_frame_u8", checked_render)
    monkeypatch.setattr(cli, "write_ppm", recorded_write)
    out = tmp_path / "frames"
    assert main(render_args(poses, out)) == 0
    assert done == [f"frame_{i:05d}.ppm" for i in range(5)]
    assert threading.main_thread() not in writers
    assert all(not t.is_alive() for t in writers)
    assert_frames(out, clean, 5)


def test_cli_import_loads_no_executor_or_event_loop():
    # set-up time is measured end to end: the writer and the long-video
    # helper use bare threading
    src = str(Path(posefuse.__file__).resolve().parent.parent)
    code = (f"import sys\nsys.path.insert(0, {src!r})\n"
            "import posefuse.cli\n"
            "print(sorted(m for m in ('concurrent.futures', 'asyncio',"
            " 'queue', 'multiprocessing') if m in sys.modules))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"


def test_package_import_binds_only_its_version():
    # submodules are the import surface; the package loads none of them
    src = str(Path(posefuse.__file__).resolve().parent.parent)
    code = (f"import sys\nsys.path.insert(0, {src!r})\n"
            "import posefuse\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith('posefuse.')))\n"
            "print(posefuse.__version__)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.split("\n")[:2] == ["[]", posefuse.__version__]


# ---- weight-map ------------------------------------------------------------

def test_weight_map_outputs(tmp_path, pose_file):
    out = tmp_path / "wm.mmtl"
    rc = main(["weight-map", "--poses", str(pose_file), "--frame", "0",
               "--out", str(out)])
    assert rc == 0
    wm = read_mmtl(out.read_bytes())
    assert wm.shape == (64, 64)
    assert set(np.unique(wm)) == {1.0, 10.0}
    preview = read_raster(out.with_suffix(".pgm").read_bytes(), 64, 64, 1)
    assert set(np.unique(preview)) == {25, 255}
    np.testing.assert_array_equal(preview == 255, wm > 1.0)


def test_weight_map_unit_gain_all_ones(tmp_path, pose_file):
    out = tmp_path / "flat.mmtl"
    rc = main(["weight-map", "--poses", str(pose_file), "--frame", "0",
               "--w-hand", "1.0", "--out", str(out)])
    assert rc == 0
    assert (read_mmtl(out.read_bytes()) == 1.0).all()


def test_weight_map_huge_source_canvas_returns_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_bytes(pose_doc([person_keypoints()], width=10 ** 8,
                              height=10 ** 8))
    out = tmp_path / "wm.mmtl"
    rc = main(["weight-map", "--poses", str(path), "--frame", "0",
               "--out", str(out)])
    assert rc == 2
    assert "exceeds" in capsys.readouterr().err
    assert not out.exists()


def test_weight_map_out_that_preview_would_overwrite_returns_2(
        tmp_path, pose_file, capsys):
    out = tmp_path / "maps" / "wm.pgm"
    rc = main(["weight-map", "--poses", str(pose_file), "--frame", "0",
               "--out", str(out)])
    assert rc == 2
    assert "preview" in capsys.readouterr().err
    assert not out.parent.exists()


def test_weight_map_frame_out_of_range(tmp_path, pose_file, capsys):
    out = tmp_path / "wm.mmtl"
    rc = main(["weight-map", "--poses", str(pose_file), "--frame", "3",
               "--out", str(out)])
    assert rc == 2
    assert "out of range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--pad-frac", "inf"), ("--pad-frac", "1e308"), ("--pad-frac", "nan"),
    ("--pad-frac", "-1"),
    ("--w-hand", "nan"), ("--w-hand", "inf"), ("--tau-hand", "nan"),
    ("--tau-hand", "1.5"),
])
def test_weight_map_hostile_numbers_return_2(tmp_path, pose_file, capsys,
                                             flag, value):
    out = tmp_path / "wm.mmtl"
    rc = main(["weight-map", "--poses", str(pose_file), "--frame", "0",
               flag, value, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()
    assert not out.with_suffix(".pgm").exists()


@pytest.mark.parametrize("far_x, anchor_x", [
    (1.7976931348623157e308, None),  # x / 576 * 576 rounds to inf
    (-1.7e308, 0.0),  # finite corners, the padded box overflows
])
def test_weight_map_hand_at_float_extreme_returns_2(tmp_path, capsys,
                                                    recwarn, far_x,
                                                    anchor_x):
    px = person_keypoints()
    px[:, 0] *= 576
    px[:, 1] *= 1024
    hand = list(WHOLEBODY_133.hand_indices("left"))
    px[hand, 0] = far_x
    if anchor_x is not None:
        px[hand[0], 0] = anchor_x
    doc = {"layout": "coco_wholebody_133", "width": 576, "height": 1024,
           "frames": [{"keypoints": px.tolist()}]}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "wm.mmtl"
    rc = main(["weight-map", "--poses", str(path), "--frame", "0",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: hand box")
    assert len(recwarn) == 0
    assert not out.exists()
    assert not out.with_suffix(".pgm").exists()


def test_weight_map_w_hand_past_float32_returns_2(tmp_path, pose_file,
                                                  capsys):
    out = tmp_path / "wm.mmtl"
    rc = main(["weight-map", "--poses", str(pose_file), "--frame", "0",
               "--w-hand", "1e308", "--out", str(out)])
    assert rc == 2
    assert "overflow float32" in capsys.readouterr().err
    assert not out.exists()
    assert not out.with_suffix(".pgm").exists()


# ---- longvideo --------------------------------------------------------------

def read_metrics(path):
    out = {}
    for line in path.read_text(encoding="ascii").splitlines():
        key, value = line.split()
        out[key] = float(value)
    return out


def test_longvideo_outputs_and_determinism(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["longvideo", "--config", str(cfg)]) == 0
    mode_dir = tmp_path / "out" / "progressive"
    first = (mode_dir / "latents.mmtl").read_bytes()
    video = read_mmtl((mode_dir / "latents.mmtl").read_bytes())
    assert video.shape == (20, 2, 4, 4)
    assert (mode_dir / "plan.txt").read_text() == "20 8 3: 0,5,10,12\n"
    metrics = read_metrics(mode_dir / "metrics.txt")
    assert set(metrics) == {"boundary_jump", "mean_d"}
    profile = [float(s) for s in
               (mode_dir / "profile.txt").read_text().split()]
    assert len(profile) == 19

    assert main(["longvideo", "--config", str(cfg)]) == 0
    assert (mode_dir / "latents.mmtl").read_bytes() == first


def test_longvideo_mode_override_and_ordering(tmp_path):
    cfg = write_config(tmp_path, total_frames=36, segment_length=16,
                       context_overlap=6, steps=25, latent_channels=4,
                       latent_height=8, latent_width=8, seed=5)
    jumps = {}
    for mode in ("progressive", "uniform", "none"):
        assert main(["longvideo", "--config", str(cfg), "--mode", mode]) == 0
        metrics = read_metrics(tmp_path / "out" / mode / "metrics.txt")
        jumps[mode] = metrics["boundary_jump"]
    assert jumps["progressive"] < jumps["none"]
    assert jumps["progressive"] <= jumps["uniform"]


def test_longvideo_analytic_gaussian_runs(tmp_path):
    cfg = write_config(tmp_path, denoiser="analytic_gaussian", mu=0.5,
                       sigma0=2.0)
    assert main(["longvideo", "--config", str(cfg)]) == 0
    video = read_mmtl(
        (tmp_path / "out" / "progressive" / "latents.mmtl").read_bytes())
    assert np.isfinite(video).all()


def test_longvideo_latents_past_float32_returns_2(tmp_path, capsys):
    cfg = write_config(tmp_path, denoiser="analytic_gaussian", mu=1e300,
                       sigma0=2.0)
    rc = main(["longvideo", "--config", str(cfg)])
    assert rc == 2
    assert "overflow float32" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_longvideo_bad_overlap_config(tmp_path, capsys):
    cfg = write_config(tmp_path, context_overlap=8)
    rc = main(["longvideo", "--config", str(cfg)])
    assert rc == 2
    assert "overlap must be smaller than segment length" in \
        capsys.readouterr().err


def test_longvideo_invalid_json_config(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{oops", encoding="utf-8")
    rc = main(["longvideo", "--config", str(cfg)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    '{"eta": ' + "1" * 400 + "}",
    '{"period_max": 1e999}',
    '{"sigma0": 1e999}',
    '{"eta": [1]}',
    '{"latent_height": 1000000000000000}',
], ids=["deep-nesting", "400-digit-eta", "inf-period_max", "inf-sigma0",
        "list-eta", "huge-latent_height"])
def test_longvideo_hostile_config_returns_2(tmp_path, capsys, text):
    cfg = tmp_path / "hostile.json"
    cfg.write_text(text, encoding="utf-8")
    rc = main(["longvideo", "--config", str(cfg)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_longvideo_rejects_unknown_mode(tmp_path):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["longvideo", "--config", str(cfg), "--mode", "blend"])
    assert exc.value.code == 2


FLOAT_KEYS = sorted(f.name for f in dataclasses.fields(RunConfig)
                    if isinstance(getattr(RunConfig(), f.name), float))
_MAX = sys.float_info.max
# finite extremes, and the values at or next to each float key's edges
EXTREME_FLOATS = st.sampled_from([
    1e308, -1e308, _MAX, -_MAX, 5e-324, -5e-324, 0.0, -0.0,
    1.0, math.nextafter(1.0, 2.0),                        # eta <= 1
    24.0, 48.0, math.nextafter(24.0, 48.0), math.nextafter(48.0, 24.0),
    math.nextafter(48.0, 99.0),                           # the period pair
    8e307, 9e307, _MAX / 2, math.nextafter(_MAX / 2, _MAX),  # 2 * jitter
    1e154, 1.3e154, 1e200,                                # sigma0 squared
]) | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(denoiser=st.sampled_from(DENOISER_KINDS),
       mode=st.sampled_from(FUSION_MODES), key=st.sampled_from(FLOAT_KEYS),
       value=EXTREME_FLOATS, steps=st.sampled_from([3, 25]))
@example("phase_smoother", "none", "phase_jitter", 9e307, 3).via(
    "offset range overflows")
@example("phase_smoother", "none", "phase_jitter", 8e307, 3).via("runs")
@example("analytic_gaussian", "uniform", "sigma0", 1.3e154, 3).via(
    "NaN latents")
# seven steps in, the latents pass max / 2, and the copies of each
# shared frame add past max in uniform fusion, on the helper thread as
# well as on the caller's
@example("analytic_gaussian", "uniform", "mu", 1e308, 25).via(
    "fusion overflows")
def test_longvideo_extreme_float_runs_finite_or_exits_2(denoiser, mode, key,
                                                        value, steps):
    """Either a run with finite metrics, or one error line and no output."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg = Path(tmp) / "run.json"
        cfg.write_text(json.dumps({
            "total_frames": 6, "segment_length": 4, "context_overlap": 2,
            "steps": steps, "latent_channels": 1, "latent_height": 2,
            "latent_width": 2, "denoiser": denoiser, key: value,
            "out_dir": str(out)}), encoding="utf-8")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(["longvideo", "--config", str(cfg), "--mode", mode])
        assert [str(w.message) for w in caught] == []
        if rc == 0:
            assert err.getvalue() == ""
            metrics = read_metrics(out / mode / "metrics.txt")
            assert all(math.isfinite(v) for v in metrics.values())
        else:
            assert rc == 2
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert not out.exists()


# Recorded from the loop that called the denoiser once per segment; any
# change to an output byte of either denoiser in any mode fails here.
GOLDEN_SHA256 = {
    "phase_smoother/progressive/latents.mmtl":
        "38b8f9eb1066829487c85f816599a6911342fa7205a1f0481cc3a2a4a8b383bf",
    "phase_smoother/progressive/plan.txt":
        "5a555a14ad34c4be71cdffa65d6016e0213c870f76ee24a01b0cdb6fa26b265f",
    "phase_smoother/progressive/profile.txt":
        "2150d4d4ddd3a5b1ff3935b804da44b08f74c7cc66480072b6b97703b5cf0460",
    "phase_smoother/progressive/metrics.txt":
        "45ae724ec67c17848390ea32a89be2f12d2d9c46ec5e9ea439c519ad2d317e11",
    "phase_smoother/uniform/latents.mmtl":
        "ccb5a6c43eee4b5448e20b52db03e6321458d0e1ebe66e524e4ab8fa91eb3f3d",
    "phase_smoother/uniform/plan.txt":
        "5a555a14ad34c4be71cdffa65d6016e0213c870f76ee24a01b0cdb6fa26b265f",
    "phase_smoother/uniform/profile.txt":
        "14b85eb0079780f194573e4421b7f3e18f2c6a9d3b90f779fac8bb068f04b041",
    "phase_smoother/uniform/metrics.txt":
        "7b6b879d6772e164a79b03b618675506ed383095a0f46015c5312e9caa584185",
    "phase_smoother/none/latents.mmtl":
        "7c396ba2f7e959de01702886e5643aff54d9aa344e9b3d7ffcfcbe09f3ac03d3",
    "phase_smoother/none/plan.txt":
        "5a555a14ad34c4be71cdffa65d6016e0213c870f76ee24a01b0cdb6fa26b265f",
    "phase_smoother/none/profile.txt":
        "53c2b74856401595ddbb6e6f7c40fc7b5a9826f98503ebbbd66fa31f6aaa35a5",
    "phase_smoother/none/metrics.txt":
        "9b32e663aec37a7f88208ad070f50dc405411768832939b311d847360d194bda",
    "analytic_gaussian/progressive/latents.mmtl":
        "cff7c0e4180041ca7d1c53427febf4b42fe7bb8f4fd930a3d6848d2366d8c8d2",
    "analytic_gaussian/progressive/plan.txt":
        "5a555a14ad34c4be71cdffa65d6016e0213c870f76ee24a01b0cdb6fa26b265f",
    "analytic_gaussian/progressive/profile.txt":
        "3f398b19bb3628037889cfc43bcef390c034888c79a7f1739f3e65949d4c7ef5",
    "analytic_gaussian/progressive/metrics.txt":
        "03fbb5644513694502abd850c8ec2a65164331c27b037428e3dedf6965334437",
    "analytic_gaussian/uniform/latents.mmtl":
        "fac893ecea805655294b04fa2d55a3d2050ca850d6a800e34306e5a84668fc5e",
    "analytic_gaussian/uniform/plan.txt":
        "5a555a14ad34c4be71cdffa65d6016e0213c870f76ee24a01b0cdb6fa26b265f",
    "analytic_gaussian/uniform/profile.txt":
        "e9bd8200dd422a02c7b02a7012571d964425dc113582763483992a14ca359908",
    "analytic_gaussian/uniform/metrics.txt":
        "ac4b91bd3b311d9ee26a542df01c172bb8022a17a0e0ac75ddc43e1de096bb9d",
    "analytic_gaussian/none/latents.mmtl":
        "fc3f715995116c6a88796cc96734ce1ffd0f3f99483a52792b22d7c61f55d742",
    "analytic_gaussian/none/plan.txt":
        "5a555a14ad34c4be71cdffa65d6016e0213c870f76ee24a01b0cdb6fa26b265f",
    "analytic_gaussian/none/profile.txt":
        "b03648a002844a5091d3428da6a23614686826f71dbfe6cec65844a55f08e6d0",
    "analytic_gaussian/none/metrics.txt":
        "124f56bed19a62cfe38767d009e929991d00756df7342f17e4688fe65826627e",
}


def test_longvideo_golden_hashes(tmp_path):
    got = {}
    for denoiser in ("phase_smoother", "analytic_gaussian"):
        cfg = write_config(tmp_path, denoiser=denoiser,
                           out_dir=str(tmp_path / denoiser))
        for mode in ("progressive", "uniform", "none"):
            assert main(["longvideo", "--config", str(cfg),
                         "--mode", mode]) == 0
            for name in ("latents.mmtl", "plan.txt", "profile.txt",
                         "metrics.txt"):
                blob = (tmp_path / denoiser / mode / name).read_bytes()
                got[f"{denoiser}/{mode}/{name}"] = \
                    hashlib.sha256(blob).hexdigest()
    assert got == GOLDEN_SHA256
