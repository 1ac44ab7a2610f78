import pytest

from posefuse.skeleton import (BODY, FACE, FEET, LEFT_HAND, RIGHT_HAND,
                               WHOLEBODY_133, LayoutError, get_layout)


def test_group_sizes():
    g = WHOLEBODY_133.groups
    assert len(g[BODY]) == 17
    assert len(g[FEET]) == 6
    assert len(g[FACE]) == 68
    assert len(g[LEFT_HAND]) == 21
    assert len(g[RIGHT_HAND]) == 21
    assert WHOLEBODY_133.keypoint_count == 133


def test_groups_partition_keypoints():
    seen = sorted(i for idxs in WHOLEBODY_133.groups.values() for i in idxs)
    assert seen == list(range(133))


def test_hand_indices():
    assert WHOLEBODY_133.hand_indices("left") == tuple(range(91, 112))
    assert WHOLEBODY_133.hand_indices("right") == tuple(range(112, 133))
    with pytest.raises(LayoutError):
        WHOLEBODY_133.hand_indices("middle")


def test_edges_in_range_and_counted():
    for a, b, group in WHOLEBODY_133.edges:
        assert 0 <= a < 133 and 0 <= b < 133
        assert group in WHOLEBODY_133.groups
    # 19 body limbs, 6 foot links, 20 per hand
    per_group = {}
    for _a, _b, group in WHOLEBODY_133.edges:
        per_group[group] = per_group.get(group, 0) + 1
    assert per_group == {BODY: 19, FEET: 6, LEFT_HAND: 20, RIGHT_HAND: 20}


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

