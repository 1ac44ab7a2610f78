"""The benchmark's own tests: every output check accepts the program's real
output and rejects a corrupted one.

Run from the repository root (stdlib unittest, no extra packages):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SMALL_LONGVIDEO = dict(workloads.LONGVIDEO_BASE, total_frames=100,
                       latent_channels=2, latent_height=4, latent_width=4,
                       steps=12)


def work_dir(test: unittest.TestCase) -> Path:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=ROOT / ".perfbench"))
    test.addCleanup(shutil.rmtree, path, True)
    return path


def rewrite_mmtl(path: Path, edit) -> None:
    arr = checks.decode_mmtl(path.read_bytes()).copy()
    edit(arr)
    head = path.read_bytes()[:7 + 4 * arr.ndim]
    path.write_bytes(head + arr.astype("<f4").tobytes())


class LongVideoChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.api = workloads.make_api()

    def setUp(self):
        self.wl = workloads.LongVideo("small", SMALL_LONGVIDEO,
                                      ("progressive", "uniform", "none"))
        self.wl.prepare(work_dir(self), 4, self.api)
        self.assertEqual(self.wl.run_round(), [True, True, True])

    def test_accepts_real_outputs(self):
        self.assertEqual(self.wl.check(), [])

    def test_rejects_one_perturbed_latent_pixel(self):
        pixel = checks.sampled_pixels(self.wl.config)[0]
        c, rest = divmod(int(pixel), 16)
        rewrite_mmtl(self.wl.out / "uniform" / "latents.mmtl",
                     lambda a: a.__setitem__((50, c, rest // 4, rest % 4),
                                             a[50, c, rest // 4, rest % 4] + 1e-3))
        problems = self.wl.check()
        self.assertTrue(any("uniform: latent frame 50" in p for p in problems),
                        problems)

    def test_rejects_swapped_fusion_modes(self):
        out = self.wl.out
        (out / "progressive").rename(out / "swap")
        (out / "uniform").rename(out / "progressive")
        (out / "swap").rename(out / "uniform")
        problems = self.wl.check()
        self.assertTrue(any(p.startswith("progressive: latent") for p in problems))
        self.assertTrue(any(p.startswith("uniform: latent") for p in problems))

    def test_rejects_wrong_plan(self):
        plan = self.wl.out / "none" / "plan.txt"
        plan.write_text(plan.read_text().replace(",84\n", ",80\n"))
        self.assertTrue(any("plan.txt" in p for p in self.wl.check()))

    def test_rejects_metrics_not_matching_latents(self):
        metrics = self.wl.out / "progressive" / "metrics.txt"
        lines = metrics.read_text().splitlines()
        jump = float(lines[0].split()[1])
        metrics.write_text(f"boundary_jump {jump * 1.001!r}\n{lines[1]}\n")
        self.assertTrue(any("boundary_jump" in p for p in self.wl.check()))

    def test_rejects_profile_not_matching_latents(self):
        profile = self.wl.out / "none" / "profile.txt"
        values = profile.read_text().split()
        values[10] = repr(float(values[10]) + 1e-3)
        profile.write_text("".join(v + "\n" for v in values))
        self.assertTrue(any("profile.txt" in p for p in self.wl.check()))

    def test_seam_order(self):
        jumps = {m: float((self.wl.out / m / "metrics.txt").read_text().split()[1])
                 for m in ("progressive", "uniform", "none")}
        self.assertEqual(checks.check_seam_order(jumps), [])
        swapped = dict(jumps, uniform=jumps["none"], none=jumps["uniform"])
        self.assertEqual(len(checks.check_seam_order(swapped)), 1)


class GuidanceChecks(unittest.TestCase):
    def setUp(self):
        self.wl = workloads.GuidanceExport(frames=9)
        self.wl.prepare(work_dir(self), 3, workloads.make_api())
        self.assertTrue(all(self.wl.run_round()))

    def test_accepts_real_outputs(self):
        self.assertEqual(self.wl.check(), [])

    def test_rejects_one_changed_stroke_byte(self):
        kps, _w, _h = checks.read_pose_document(self.wl.poses)
        for f, path in enumerate(sorted((self.wl.out / "frames").glob("*.ppm"))):
            ys, xs = checks.stroke_pixels(kps[f], workloads.SOURCE_W,
                                          workloads.SOURCE_H)
            data = bytearray(path.read_bytes())
            header = len(data) - workloads.SOURCE_W * workloads.SOURCE_H * 3
            at = header + (ys[0] * workloads.SOURCE_W + xs[0]) * 3
            data[at] ^= 0x40
            path.write_bytes(bytes(data))
        problems = self.wl.check()
        self.assertEqual(len(problems), checks.RASTER_FRAMES_SAMPLED, problems)

    def test_rejects_weight_map_without_a_hand_box(self):
        f = self.wl.wm_frames[0]
        path = self.wl.out / f"wm_{f:05d}.mmtl"
        rewrite_mmtl(path, lambda a: a.__setitem__(a == workloads.W_HAND, 1.0))
        problems = self.wl.check()
        self.assertTrue(any(f"weight map {f}: amplified" in p for p in problems))

    def test_rejects_wrong_preview(self):
        f = self.wl.wm_frames[-1]
        path = self.wl.out / f"wm_{f:05d}.pgm"
        data = bytearray(path.read_bytes())
        data[-1] = 255 if data[-1] != 255 else 25
        path.write_bytes(bytes(data))
        self.assertTrue(any("preview" in p for p in self.wl.check()))


class PoseFeatureChecks(unittest.TestCase):
    def setUp(self):
        self.wl = workloads.PoseFeatures(frames=4, width=64, height=96, chunk=2)
        self.wl.prepare(work_dir(self), 5, workloads.make_api())
        self.assertTrue(all(self.wl.run_round()))

    def test_accepts_real_outputs(self):
        self.assertEqual(self.wl.check(), [])

    def test_rejects_perturbed_feature(self):
        k = self.wl.frames // 2 + 1
        self.wl.features[k, 7, 3, 2] *= 1 + 1e-6
        problems = self.wl.check()
        self.assertTrue(any("direct convolution" in p for p in problems), problems)
        self.assertTrue(any("features.mmtl" in p for p in problems), problems)

    def test_rejects_wrong_shape(self):
        path = self.wl.out / "features.mmtl"
        path.write_bytes(self.wl.api.mmtl_encode(self.wl.features[:, :319]))
        self.assertTrue(any("shape" in p for p in self.wl.check()))

    def test_rejects_bone_not_scaled(self):
        frames = list(self.wl.retargeted.frames)
        data = frames[1].data.copy()
        data[9, 0] += 1e-4  # left wrist moves: its bone changes direction
        frames[1] = self.wl.api.PoseFrame(data, frames[1].layout)
        self.wl.retargeted = type(self.wl.retargeted)(
            tuple(frames), self.wl.retargeted.source_width,
            self.wl.retargeted.source_height)
        self.assertTrue(any("retargeted frame 1" in p for p in self.wl.check()))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a = json.dumps(workloads.pose_document(11, 6))
        self.assertEqual(a, json.dumps(workloads.pose_document(11, 6)))
        self.assertNotEqual(a, json.dumps(workloads.pose_document(12, 6)))
        np.testing.assert_array_equal(workloads.reference_frame(11),
                                      workloads.reference_frame(11))


if __name__ == "__main__":
    unittest.main()
