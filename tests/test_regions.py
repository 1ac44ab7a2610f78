import numpy as np
import pytest

from posefuse.regions import (LossWeightMap, build_weight_map,
                              downsample_weight_map, hand_bbox,
                              hand_reliability)
from posefuse.render import MAX_ELEMENTS
from posefuse.skeleton import WHOLEBODY_133

from conftest import norm_frame, person_keypoints


LEFT = list(WHOLEBODY_133.hand_indices("left"))
RIGHT = list(WHOLEBODY_133.hand_indices("right"))


def frame_with_hand_pixels(xs, ys, width=576, height=1024, conf=0.9):
    """Left-hand keypoints at the given pixel coords (cycled to 21)."""
    kp = person_keypoints(conf=conf)
    for n, i in enumerate(LEFT):
        kp[i, 0] = xs[n % len(xs)] / width
        kp[i, 1] = ys[n % len(ys)] / height
    return norm_frame(kp)


def test_reliability_requires_all_strictly_above():
    kp = person_keypoints(conf=0.9)
    assert hand_reliability(norm_frame(kp), "left", 0.6)
    kp[LEFT[4], 2] = 0.6  # exactly tau: strict comparison fails
    assert not hand_reliability(norm_frame(kp), "left", 0.6)
    kp[LEFT[4], 2] = 0.601
    assert hand_reliability(norm_frame(kp), "left", 0.6)
    kp[LEFT[0], 2] = 0.1  # single bad keypoint spoils the hand
    assert not hand_reliability(norm_frame(kp), "left", 0.6)


def test_reliability_sides_independent():
    kp = person_keypoints(conf=0.9)
    for i in RIGHT:
        kp[i, 2] = 0.2
    frame = norm_frame(kp)
    assert hand_reliability(frame, "left", 0.6)
    assert not hand_reliability(frame, "right", 0.6)


def test_bbox_pad_arithmetic():
    # span x 100..150, y 200..260 -> max side 60, pad 15 -> (85,185,165,275)
    frame = frame_with_hand_pixels([100.0, 150.0], [200.0, 260.0])
    assert hand_bbox(frame, "left", 0.25, 576, 1024) == (85, 185, 165, 275)


def test_bbox_minimum_pad():
    # tiny hand: pad_frac * side < 4 px, so the 4 px floor applies
    frame = frame_with_hand_pixels([100.0, 104.0], [200.0, 204.0])
    assert hand_bbox(frame, "left", 0.25, 576, 1024) == (96, 196, 108, 208)


def test_bbox_clipped_to_canvas():
    frame = frame_with_hand_pixels([2.0, 30.0], [5.0, 40.0])
    x0, y0, x1, y1 = hand_bbox(frame, "left", 0.5, 576, 1024)
    assert (x0, y0) == (0, 0)
    assert x1 <= 576 and y1 <= 1024


def test_bbox_degenerate_point():
    frame = frame_with_hand_pixels([123.0], [234.0])
    assert hand_bbox(frame, "left", 0.25, 576, 1024) == (119, 230, 127, 238)
    # clipped when the coincident point sits at the canvas corner
    corner = frame_with_hand_pixels([1.0], [1.0])
    assert hand_bbox(corner, "left", 0.25, 576, 1024) == (0, 0, 5, 5)


def test_hand_reliability_gates_weight_map():
    kp = person_keypoints(conf=0.9)
    for i in RIGHT:
        kp[i, 2] = 0.3
    frame = norm_frame(kp)
    assert hand_reliability(frame, "left", 0.6)
    assert not hand_reliability(frame, "right", 0.6)
    # only the reliable left box is amplified
    x0, y0, x1, y1 = hand_bbox(frame, "left", 0.25, 576, 1024)
    assert x1 > x0 and y1 > y0
    expect = np.ones((1024, 576))
    expect[y0:y1, x0:x1] = 10.0
    wm = build_weight_map(frame, 0.6, 0.25, 10.0, 576, 1024)
    np.testing.assert_array_equal(wm.data, expect)


def test_weight_map_value_set(person_frame):
    wm = build_weight_map(person_frame, 0.6, 0.25, 10.0, 576, 1024)
    assert set(np.unique(wm.data)) == {1.0, 10.0}
    assert wm.data.shape == (1024, 576)


def test_weight_map_unreliable_hands_all_ones():
    frame = norm_frame(person_keypoints(conf=0.4))
    wm = build_weight_map(frame, 0.6, 0.25, 10.0, 576, 1024)
    assert set(np.unique(wm.data)) == {1.0}


def test_weight_map_w_hand_one_is_uniform(person_frame):
    wm = build_weight_map(person_frame, 0.6, 0.25, 1.0, 576, 1024)
    assert set(np.unique(wm.data)) == {1.0}


def test_weight_map_rejects_attenuating_weight(person_frame):
    with pytest.raises(ValueError):
        build_weight_map(person_frame, 0.6, 0.25, 0.5, 576, 1024)


@pytest.mark.parametrize("tau_hand, pad_frac, w_hand", [
    (0.6, 0.25, float("nan")), (0.6, 0.25, float("inf")),
    (float("nan"), 0.25, 10.0), (-0.1, 0.25, 10.0), (1.1, 0.25, 10.0),
    (0.6, float("inf"), 10.0), (0.6, float("nan"), 10.0), (0.6, -1.0, 10.0),
    (0.6, 1e308, 10.0),  # finite, but the padding overflows to inf
])
def test_weight_map_rejects_bad_settings(person_frame, tau_hand,
                                         pad_frac, w_hand):
    with pytest.raises(ValueError):
        build_weight_map(person_frame, tau_hand, pad_frac, w_hand, 576, 1024)


def test_weight_map_matches_boxes(person_frame):
    wm = build_weight_map(person_frame, 0.6, 0.25, 10.0, 576, 1024)
    expect = np.ones((1024, 576))
    for side in ("left", "right"):
        assert hand_reliability(person_frame, side, 0.6)
        x0, y0, x1, y1 = hand_bbox(person_frame, side, 0.25, 576, 1024)
        expect[y0:y1, x0:x1] = 10.0
    np.testing.assert_array_equal(wm.data, expect)


def test_overlapping_hands_union_not_product():
    # both hands on the same spot: weights stay w_hand, never w_hand^2
    kp = person_keypoints(conf=0.9)
    for li, ri in zip(LEFT, RIGHT):
        kp[ri, :2] = kp[li, :2]
    wm = build_weight_map(norm_frame(kp), 0.6, 0.25, 10.0, 576, 1024)
    assert wm.data.max() == 10.0


def test_amplified_area_shrinks_with_tau():
    rng = np.random.default_rng(42)
    for _case in range(200):
        kp = person_keypoints()
        kp[:, :2] += rng.normal(scale=0.02, size=(133, 2))
        kp[:, 2] = rng.uniform(0.0, 1.0, size=133)
        frame = norm_frame(kp)
        prev_area = None
        for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
            wm = build_weight_map(frame, tau, 0.25, 10.0, 144, 256)
            area = int((wm.data > 1.0).sum())
            if prev_area is not None:
                assert area <= prev_area
            prev_area = area
        assert prev_area == 0  # tau 1.0 can never pass a strict comparison


def test_loss_weight_map_invariant():
    with pytest.raises(ValueError):
        LossWeightMap(4, 4, np.full((4, 4), 0.5))
    for bad in (np.nan, -np.inf):
        data = np.ones((4, 4))
        data[1, 2] = bad
        with pytest.raises(ValueError):
            LossWeightMap(4, 4, data)
    with pytest.raises(ValueError):
        LossWeightMap(4, 4, np.ones((3, 4)))


def test_downsample_block_max():
    data = np.ones((16, 16))
    data[3, 5] = 10.0   # block (0, 0)
    data[8, 8] = 10.0   # block (1, 1)
    wm = LossWeightMap(16, 16, data)
    small = downsample_weight_map(wm, 8)
    assert small.data.shape == (2, 2)
    np.testing.assert_array_equal(small.data,
                                  [[10.0, 1.0], [1.0, 10.0]])


def test_downsample_partial_blocks_padded_neutral():
    data = np.ones((10, 12))
    data[9, 11] = 7.0  # in the bottom-right partial block
    wm = LossWeightMap(12, 10, data)
    small = downsample_weight_map(wm, 8)
    assert small.data.shape == (2, 2)  # ceil(10/8), ceil(12/8)
    assert small.data[1, 1] == 7.0
    assert small.data[0, 0] == 1.0


def test_downsample_identity_factor():
    wm = build_weight_map(norm_frame(person_keypoints()), 0.6, 0.25, 10.0,
                          64, 64)
    same = downsample_weight_map(wm, 1)
    np.testing.assert_array_equal(same.data, wm.data)


def test_downsample_full_pipeline_values(person_frame):
    wm = build_weight_map(person_frame, 0.6, 0.25, 10.0, 576, 1024)
    small = downsample_weight_map(wm)
    assert small.data.shape == (128, 72)
    assert set(np.unique(small.data)) <= {1.0, 10.0}
    assert (small.data == 10.0).any()


def test_weight_map_size_capped_before_allocation():
    frame = norm_frame(person_keypoints())
    with pytest.raises(ValueError, match=f"exceeds {MAX_ELEMENTS} elements"):
        build_weight_map(frame, 0.6, 0.25, 10.0, 10 ** 8, 10 ** 8)
