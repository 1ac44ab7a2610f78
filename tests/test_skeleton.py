import bisect

import pytest

from posefuse.skeleton import WHOLEBODY_133, LayoutError, get_layout

# body 0..16, feet 17..22, face 23..90, left hand 91..111, right 112..132
REGION_STARTS = (0, 17, 23, 91, 112)


def test_group_sizes():
    assert WHOLEBODY_133.keypoint_count == 133
    sizes = [b - a for a, b in zip(REGION_STARTS, REGION_STARTS[1:] + (133,))]
    assert sizes == [17, 6, 68, 21, 21]
    assert {side: len(idxs) for side, idxs in WHOLEBODY_133.hands.items()} \
        == {"left": 21, "right": 21}


def test_hand_indices():
    assert WHOLEBODY_133.hand_indices("left") == tuple(range(91, 112))
    assert WHOLEBODY_133.hand_indices("right") == tuple(range(112, 133))
    for side in ("middle", "left_hand"):
        with pytest.raises(LayoutError):
            WHOLEBODY_133.hand_indices(side)


def test_edges_in_range_and_counted():
    per_region = [0] * len(REGION_STARTS)
    for a, b in WHOLEBODY_133.edges:
        assert 0 <= a < 133 and 0 <= b < 133
        # a foot link starts at an ankle; every other limb stays in one
        # region
        per_region[bisect.bisect_right(REGION_STARTS, max(a, b)) - 1] += 1
    # 19 body limbs, 6 foot links, no face limb, 20 per hand
    assert per_region == [19, 6, 0, 20, 20]


def test_bone_tree_single_root_acyclic():
    tree = WHOLEBODY_133.bone_tree
    assert len(tree) == 133
    assert tree.count(-1) == 1
    assert tree[0] == -1
    for i in range(133):
        j, hops = i, 0
        while j != -1:
            j = tree[j]
            hops += 1
            assert hops <= 133


def test_bone_order_parents_first():
    # retargeting walks the tree in index order and relies on this
    for child, parent in enumerate(WHOLEBODY_133.bone_tree):
        assert parent < child
        assert (parent == -1) == (child == 0)


def test_color_tables_match_keypoints_and_edges():
    assert WHOLEBODY_133.keypoint_colors.shape == (133, 3)
    assert WHOLEBODY_133.edge_colors.shape == (len(WHOLEBODY_133.edges), 3)


def test_colors_normalized():
    for colors in (WHOLEBODY_133.keypoint_colors, WHOLEBODY_133.edge_colors):
        assert colors.min() >= 0.0 and colors.max() <= 1.0


def test_finger_colors_distinct_per_finger():
    # the four joints of one finger share a color; adjacent fingers differ
    colors = WHOLEBODY_133.keypoint_colors
    for root in (91, 112):
        finger_cols = []
        for finger in range(5):
            base = root + 1 + 4 * finger
            joints = colors[base:base + 4]
            assert (joints == joints[0]).all()
            finger_cols.append(tuple(joints[0]))
        assert len(set(finger_cols)) == 5


def test_registry_roundtrip():
    assert get_layout("coco_wholebody_133") is WHOLEBODY_133
    with pytest.raises(LayoutError):
        get_layout("nope")

