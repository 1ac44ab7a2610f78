"""Smoke tests: each script's main() runs on tiny arguments and prints its
summary line."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

from posefuse.pose import parse_pose_sequence

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_demo_poses(tmp_path, capsys):
    out = tmp_path / "demo.json"
    rc = load_script("make_demo_poses").main(
        ["--frames", "3", "--width", "48", "--height", "64",
         "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == f"wrote 3 frames (48x64) to {out}\n"
    seq = parse_pose_sequence(out.read_bytes())
    assert len(seq) == 3
    assert (seq.source_width, seq.source_height) == (48, 64)


def test_run_fusion_ablation(capsys):
    rc = load_script("run_fusion_ablation").main(
        ["--total-frames", "18", "--segment-length", "8",
         "--context-overlap", "3", "--steps", "5", "--seeds", "1",
         "--size", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "plan: 3 segments of 8 frames, starts [0, 5, 10]" in out
    assert re.search(r"^progressive < none on [01]/1 seeds; "
                     r"progressive <= uniform on [01]/1$", out, re.M)


def test_reach_ledger_figures_sum_to_the_total(capsys):
    assert load_script("reach_ledger").main([]) == 0
    out = capsys.readouterr().out
    total = int(re.search(r"^src/posefuse: \d+ top-level definitions, "
                          r"(\d+) non-blank lines$", out, re.M).group(1))
    figures = [int(n) for n in re.findall(
        r"^(?:reached from cli\.main|added by scripts/|added by perfbench/"
        r"|tests only or nothing) +(\d+)$", out, re.M)]
    assert len(figures) == 4 and sum(figures) == total
    assert figures[0] > 0
    public = int(re.search(r"^public names +(\d+)$", out, re.M).group(1))
    names = []
    for path in (SCRIPTS.parent / "src" / "posefuse").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
            elif isinstance(node, ast.Assign):
                names += [t.id for t in node.targets
                          if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names.append(node.target.id)
    assert public == sum(1 for name in names if not name.startswith("_"))


def test_train_hand_weighted(capsys):
    rc = load_script("train_hand_weighted").main(["--steps", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "uniform" in out and "hand x10" in out
    assert re.search(r"^hand-region MSE improvement from weighting: "
                     r"-?\d+\.\d{5}$", out, re.M)


@pytest.mark.parametrize("name,args,message", [
    ("run_fusion_ablation", ["--seeds", "-1"], "--seeds must be >= 1"),
    ("run_fusion_ablation", ["--seeds", "0"], "--seeds must be >= 1"),
    ("run_fusion_ablation", ["--size", "0"], "--size must be >= 1"),
    ("run_fusion_ablation", ["--steps", "0"], "--steps must be >= 1"),
    ("run_fusion_ablation", ["--channels", "0"], "--channels must be >= 1"),
    ("run_fusion_ablation", ["--total-frames", "0"],
     "--total-frames must be >= 2"),
    ("run_fusion_ablation", ["--phase-jitter", "nan"],
     "phase_jitter must be >= 0 with 2 * phase_jitter finite"),
    ("run_fusion_ablation", ["--context-overlap", "16"],
     "overlap must be smaller than segment length"),
    ("train_hand_weighted", ["--steps", "-5"], "--steps must be >= 1"),
    ("train_hand_weighted", ["--samples", "0"], "--samples must be >= 1"),
    ("train_hand_weighted", ["--lr", "nan"], "--lr must be finite and > 0"),
    ("train_hand_weighted", ["--lr", "0"], "--lr must be finite and > 0"),
    ("train_hand_weighted", ["--w-hand", "inf"],
     "--w-hand must be finite and >= 1"),
    ("train_hand_weighted", ["--seed", "-1"], "--seed must be >= 0"),
    # 2 * 9e307 overflows the range the segment offsets are drawn from
    ("run_fusion_ablation", ["--phase-jitter", "9e307"],
     "phase_jitter must be >= 0 with 2 * phase_jitter finite"),
    ("train_hand_weighted", ["--lr", "1e3", "--steps", "50"],
     "try a lower --lr"),
    # documents the CLI would refuse
    ("make_demo_poses", ["--width", "0", "--out", "unused.json"],
     "--width must be >= 1"),
    ("make_demo_poses", ["--height", "-1", "--out", "unused.json"],
     "--height must be >= 1"),
    ("make_demo_poses", ["--fps", "0", "--out", "unused.json"],
     "--fps must be finite and > 0"),
    ("make_demo_poses", ["--fps", "nan", "--out", "unused.json"],
     "--fps must be finite and > 0"),
    # sizes past float range, which would scale keypoints to infinity
    ("make_demo_poses", ["--width", "1" + "0" * 400, "--out", "unused.json"],
     "--width and --height must scale every keypoint to a finite float"),
    ("make_demo_poses", ["--height", str(2 * 10 ** 308), "--out",
                         "unused.json"],
     "--width and --height must scale every keypoint to a finite float"),
    # the seam metrics need two frames
    ("run_fusion_ablation", ["--total-frames", "1"],
     "--total-frames must be >= 2"),
    # a 24.4 TiB segment stack, refused before anything is allocated
    ("run_fusion_ablation", ["--total-frames", "2000000", "--size", "512"],
     "segment latents exceed 67108864 elements"),
    # the package's hand weights are >= 1; below 1 the hand is damped
    ("train_hand_weighted", ["--w-hand", "0.5"],
     "--w-hand must be finite and >= 1"),
])
def test_scripts_reject_out_of_range_arguments(name, args, message, capsys,
                                              tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a script that wrongly runs writes here
    with pytest.raises(SystemExit) as exit_info:
        load_script(name).main(args)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not (tmp_path / "unused.json").exists()


@pytest.mark.parametrize("args,message", [
    (["--context-overlap", "16"],
     "overlap must be smaller than segment length"),
    (["--total-frames", "2000000", "--size", "512"],
     "segment latents exceed 67108864 elements"),
    (["--total-frames", "30000000", "--size", "512"],
     "segment latents exceed 67108864 elements"),
], ids=["overlap", "2e6-frames", "3e7-frames"])
def test_run_fusion_ablation_checks_sizes_before_planning(args, message,
                                                          capsys):
    # a plan holds one start per segment, so building it first costs
    # memory in proportion to the frame count before the refusal
    script = load_script("run_fusion_ablation")

    def no_plan(*_args):
        raise AssertionError("the plan was built before the size checks")

    script.plan_segments = no_plan
    with pytest.raises(SystemExit) as exit_info:
        script.main(args)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
