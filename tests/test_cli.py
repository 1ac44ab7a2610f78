import json

import numpy as np
import pytest

from posefuse import cli
from posefuse.cli import main
from posefuse.io_formats import mmtl_decode

from conftest import person_keypoints, pose_doc, read_raster


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
    monkeypatch.setattr(cli, "render_frame", exhausted)
    rc = main(["render-pose", "--poses", str(pose_file), "--out",
               str(tmp_path / "frames"), "--width", "48", "--height", "48"])
    assert rc == 2
    assert "Unable to allocate" in capsys.readouterr().err


# ---- weight-map ------------------------------------------------------------

def test_weight_map_outputs(tmp_path, pose_file):
    out = tmp_path / "wm.mmtl"
    rc = main(["weight-map", "--poses", str(pose_file), "--frame", "0",
               "--out", str(out)])
    assert rc == 0
    wm = mmtl_decode(out.read_bytes())
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
    assert (mmtl_decode(out.read_bytes()) == 1.0).all()


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
    video = mmtl_decode((mode_dir / "latents.mmtl").read_bytes())
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
    video = mmtl_decode(
        (tmp_path / "out" / "progressive" / "latents.mmtl").read_bytes())
    assert np.isfinite(video).all()


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
