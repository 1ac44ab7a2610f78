import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posefuse.pose import (PoseFrame, PoseParseError, PoseSequence,
                           parse_pose_sequence, retarget_limb_lengths)
from posefuse.skeleton import WHOLEBODY_133, LayoutError, SkeletonLayout

from conftest import norm_frame, person_keypoints, pose_doc


def test_parse_basic_normalization():
    kp = person_keypoints()
    seq = parse_pose_sequence(pose_doc([kp, kp], width=576, height=1024))
    assert len(seq) == 2
    assert seq.source_width == 576 and seq.source_height == 1024
    # x was written as pixel value kp_x * 576 and divided back by 576
    np.testing.assert_allclose(seq.frames[0].x, kp[:, 0], rtol=1e-12)
    np.testing.assert_allclose(seq.frames[0].y, kp[:, 1], rtol=1e-12)


def test_parse_clamps_confidence_and_counts():
    kp = person_keypoints()
    kp[5, 2] = 1.3
    kp[7, 2] = -0.2
    seq = parse_pose_sequence(pose_doc([kp]))
    assert seq.conf_clamp_count == 2
    assert seq.frames[0].conf[5] == 1.0
    assert seq.frames[0].conf[7] == 0.0


def test_parse_keypoint_count_mismatch():
    doc = {"layout": "coco_wholebody_133", "width": 576, "height": 1024,
           "frames": [{"keypoints": [[1.0, 2.0, 0.5]] * 17}]}
    with pytest.raises(PoseParseError, match="keypoint count mismatch"):
        parse_pose_sequence(json.dumps(doc))


def test_parse_rejects_bad_dimensions():
    kp = person_keypoints()
    doc = json.loads(pose_doc([kp]).decode())
    doc["width"] = 0
    with pytest.raises(PoseParseError):
        parse_pose_sequence(json.dumps(doc))
    doc["width"] = -5
    with pytest.raises(PoseParseError):
        parse_pose_sequence(json.dumps(doc))


def with_field(key, value) -> str:
    doc = json.loads(pose_doc([person_keypoints()]).decode())
    doc[key] = value
    return json.dumps(doc)


def test_parse_rejects_malformed_document():
    with pytest.raises(PoseParseError):
        parse_pose_sequence(b"{not json")
    with pytest.raises(PoseParseError):
        parse_pose_sequence(b"[]")
    with pytest.raises(PoseParseError):
        parse_pose_sequence(b'{"layout": "coco_wholebody_133"}')
    with pytest.raises(PoseParseError):
        parse_pose_sequence(b"[" * 100_000)
    with pytest.raises(PoseParseError):
        parse_pose_sequence('{"width": ' + "1" * 5000 + "}")
    for key, value in (("layout", ["x"]), ("layout", 133),
                       ("width", True), ("height", True), ("width", 576.0),
                       ("width", "576"), ("height", 10 ** 400)):
        with pytest.raises(PoseParseError):
            parse_pose_sequence(with_field(key, value))
    # numpy would cast strings and booleans, and read null as NaN
    for row in (["1", "2", "0.5"], [True, 2.0, 0.5], [1.0, None, 0.5],
                [10 ** 400, 2.0, 0.5], [1.0, 2.0, [0.5]]):
        doc = json.loads(pose_doc([person_keypoints()]).decode())
        doc["frames"][0]["keypoints"][3] = row
        with pytest.raises(PoseParseError, match="keypoints must be numbers"):
            parse_pose_sequence(json.dumps(doc))


def test_parse_rejects_non_utf8_bytes():
    # a UTF-16 byte-order mark, and a lone Latin-1 byte inside a string
    for blob in (b"\xff\xfe", b'{"layout": "caf\xe9"}'):
        with pytest.raises(PoseParseError, match="malformed pose document"):
            parse_pose_sequence(blob)


def test_parse_rejects_nonfinite():
    kp = person_keypoints()
    kp[0, 0] = float("nan")
    with pytest.raises(PoseParseError, match="non-finite"):
        parse_pose_sequence(pose_doc([kp]))


def test_parse_rejects_bad_fps():
    kp = person_keypoints()
    with pytest.raises(PoseParseError, match="fps"):
        parse_pose_sequence(pose_doc([kp], fps=-24.0))
    for fps in ([1], "nan", "24", True, float("nan"), float("inf"),
                10 ** 400, {"value": 24}):
        with pytest.raises(PoseParseError, match="fps"):
            parse_pose_sequence(with_field("fps", fps))
    assert parse_pose_sequence(pose_doc([kp], fps=30)).fps == 30.0
    seq = parse_pose_sequence(pose_doc([kp], fps=24.0))
    assert seq.fps == 24.0


def test_off_canvas_keypoints_survive():
    kp = person_keypoints()
    kp[9, 0] = 1.25  # wrist past the right edge
    kp[9, 1] = -0.1
    seq = parse_pose_sequence(pose_doc([kp]))
    assert seq.frames[0].x[9] > 1.0
    assert seq.off_canvas_count() == 1


def test_frame_is_readonly():
    frame = norm_frame(person_keypoints())
    with pytest.raises(ValueError):
        frame.data[0, 0] = 0.0


def _chain3() -> SkeletonLayout:
    return SkeletonLayout(
        name="chain3",
        keypoint_count=3,
        edges=((0, 1, "all"), (1, 2, "all")),
        groups={"all": (0, 1, 2)},
        keypoint_colors=np.ones((3, 3)),
        edge_colors=np.ones((2, 3)),
        bone_tree=(-1, 0, 1),
    )


def _chain_seq(xs, layout, conf=1.0):
    data = np.array([[x, 0.5, conf] for x in xs])
    return PoseSequence((PoseFrame(data, layout),), 100, 100)


def test_retarget_chain_example():
    layout = _chain3()
    template = _chain_seq([0.5, 0.6, 0.7], layout)
    reference = PoseFrame(np.array([[0.1, 0.5, 1.0], [0.3, 0.5, 1.0],
                                    [0.4, 0.5, 1.0]]), layout)
    out = retarget_limb_lengths(template, reference)
    np.testing.assert_allclose(out.frames[0].x, [0.5, 0.7, 0.8], atol=1e-12)
    np.testing.assert_allclose(out.frames[0].y, [0.5, 0.5, 0.5], atol=1e-12)


def test_retarget_identity_when_lengths_match(person_seq):
    out = retarget_limb_lengths(person_seq, person_seq.frames[0])
    for a, b in zip(out.frames, person_seq.frames):
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)


def test_retarget_low_confidence_bones_keep_length():
    layout = _chain3()
    template = _chain_seq([0.5, 0.6, 0.7], layout)
    ref_data = np.array([[0.1, 0.5, 1.0], [0.3, 0.5, 1.0], [0.4, 0.5, 0.1]])
    reference = PoseFrame(ref_data, layout)
    out = retarget_limb_lengths(template, reference, conf_floor=0.3)
    # bone 0->1 rescaled 2x, bone 1->2 keeps template length 0.1
    np.testing.assert_allclose(out.frames[0].x, [0.5, 0.7, 0.8], atol=1e-12)


def test_retarget_root_and_confidence_preserved(person_seq):
    ref = person_seq.frames[0]
    scaled = ref.data.copy()
    root = 0
    scaled[:, :2] = (scaled[:, :2] - scaled[root, :2]) * 2.0 + scaled[root, :2]
    out = retarget_limb_lengths(person_seq, PoseFrame(scaled, person_seq.layout))
    for before, after in zip(person_seq.frames, out.frames):
        assert after.x[root] == before.x[root]
        assert after.y[root] == before.y[root]
        np.testing.assert_array_equal(after.conf, before.conf)


def test_retarget_uniform_scale_doubles_bone_lengths(person_seq):
    ref = person_seq.frames[0]
    root = 0
    scaled = ref.data.copy()
    scaled[:, :2] = (scaled[:, :2] - scaled[root, :2]) * 2.0 + scaled[root, :2]
    out = retarget_limb_lengths(person_seq, PoseFrame(scaled, person_seq.layout))
    tree = person_seq.layout.bone_tree
    base = person_seq.frames[0]
    new = out.frames[0]
    for child, parent in enumerate(tree):
        if parent < 0:
            continue
        old_len = math.hypot(base.x[child] - base.x[parent],
                             base.y[child] - base.y[parent])
        new_len = math.hypot(new.x[child] - new.x[parent],
                             new.y[child] - new.y[parent])
        assert new_len == pytest.approx(2.0 * old_len, rel=1e-9, abs=1e-12)


def test_retarget_preserves_bone_directions(person_seq):
    rng = np.random.default_rng(3)
    ref_data = person_seq.frames[0].data.copy()
    ref_data[:, :2] += rng.normal(scale=0.01, size=(133, 2))
    out = retarget_limb_lengths(person_seq,
                                PoseFrame(ref_data, person_seq.layout))
    tree = person_seq.layout.bone_tree
    for before, after in zip(person_seq.frames, out.frames):
        for child, parent in enumerate(tree):
            if parent < 0:
                continue
            u = before.data[child, :2] - before.data[parent, :2]
            v = after.data[child, :2] - after.data[parent, :2]
            lu, lv = np.linalg.norm(u), np.linalg.norm(v)
            if lu == 0 or lv == 0:
                continue
            assert np.dot(u / lu, v / lv) == pytest.approx(1.0, abs=1e-9)


def test_retarget_idempotent(person_seq):
    rng = np.random.default_rng(4)
    ref_data = person_seq.frames[0].data.copy()
    ref_data[:, :2] += rng.normal(scale=0.01, size=(133, 2))
    reference = PoseFrame(ref_data, person_seq.layout)
    once = retarget_limb_lengths(person_seq, reference)
    twice = retarget_limb_lengths(once, reference)
    for a, b in zip(once.frames, twice.frames):
        np.testing.assert_allclose(a.data, b.data, atol=1e-9)


def test_retarget_zero_length_template_bone_warns(caplog):
    layout = _chain3()
    template = _chain_seq([0.5, 0.5, 0.7], layout)  # bone 0->1 degenerate
    reference = PoseFrame(np.array([[0.1, 0.5, 1.0], [0.3, 0.5, 1.0],
                                    [0.4, 0.5, 1.0]]), layout)
    with caplog.at_level("WARNING"):
        out = retarget_limb_lengths(template, reference)
    assert any("zero length" in r.message for r in caplog.records)
    # degenerate bone unscaled; downstream bone still rescaled (0.2 -> 0.1)
    np.testing.assert_allclose(out.frames[0].x, [0.5, 0.5, 0.6], atol=1e-12)


def reference_retarget(template, reference, conf_floor=0.3):
    """The per-frame walk in breadth-first bone order, the reference for
    retarget_limb_lengths' bits."""
    parents = template.layout.bone_tree
    base = template.frames[0]
    ratios = np.ones(len(parents))
    for child, p in enumerate(parents):
        if p < 0 or min(reference.conf[child], reference.conf[p]) < conf_floor:
            continue
        ref_len = math.hypot(reference.x[child] - reference.x[p],
                             reference.y[child] - reference.y[p])
        tmpl_len = math.hypot(base.x[child] - base.x[p],
                              base.y[child] - base.y[p])
        if tmpl_len != 0.0:
            ratios[child] = ref_len / tmpl_len
    order, placed = [], {0}
    remaining = set(range(len(parents))) - placed
    while remaining:
        ready = sorted(i for i in remaining if parents[i] in placed)
        order.extend(ready)
        placed.update(ready)
        remaining.difference_update(ready)
    frames = []
    for frame in template.frames:
        old = frame.data[:, :2]
        new = old.copy()
        for child in order:
            p = parents[child]
            new[child] = new[p] + (old[child] - old[p]) * ratios[child]
        frames.append(np.column_stack([new, frame.conf]))
    return frames


def assert_retarget_bits(template, reference, conf_floor=0.3):
    got = retarget_limb_lengths(template, reference, conf_floor)
    want = reference_retarget(template, reference, conf_floor)
    assert len(got.frames) == len(want)
    for frame, data in zip(got.frames, want):
        np.testing.assert_array_equal(frame.data.view(np.uint64),
                                      data.view(np.uint64))


def test_retarget_bits_match_per_frame_walk_chain3():
    layout = _chain3()
    reference = PoseFrame(np.array([[0.1, 0.5, 1.0], [0.3, 0.5, 1.0],
                                    [0.4, 0.5, 0.1]]), layout)
    for xs in ([0.5, 0.6, 0.7], [0.5, 0.5, 0.7]):  # the second: zero length
        template = _chain_seq(xs, layout)
        for floor in (0.0, 0.3):  # the 1->2 bone above and below the floor
            assert_retarget_bits(template, reference, floor)


def test_retarget_bits_match_per_frame_walk(person_seq):
    rng = np.random.default_rng(5)
    ref = person_seq.frames[0].data.copy()
    ref[:, :2] += rng.normal(scale=0.01, size=(133, 2))
    assert_retarget_bits(person_seq, PoseFrame(ref, person_seq.layout))


@pytest.mark.parametrize("seed", range(10))
def test_retarget_bits_match_per_frame_walk_random(seed):
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(4):
        data = person_keypoints()
        data[:, :2] += rng.normal(scale=0.02, size=(133, 2))
        frames.append(PoseFrame(data, WHOLEBODY_133))
    # zero-length template bones: a wrist on its elbow, a fingertip on
    # the joint below it, in the first frame only
    first = frames[0].data.copy()
    first[9, :2] = first[7, :2]
    first[94, :2] = first[93, :2]
    frames[0] = PoseFrame(first, WHOLEBODY_133)
    template = PoseSequence(tuple(frames), 576, 1024)
    ref = np.column_stack([rng.uniform(0.0, 1.0, size=(133, 2)),
                           rng.uniform(0.0, 1.0, size=133)])
    assert (ref[:, 2] < 0.3).any()  # some bones fall below the floor
    assert_retarget_bits(template, PoseFrame(ref, WHOLEBODY_133))


def test_retarget_layout_mismatch():
    layout = _chain3()
    template = _chain_seq([0.5, 0.6, 0.7], layout)
    with pytest.raises(PoseParseError):
        retarget_limb_lengths(template, norm_frame(person_keypoints()))


POSE_FIELDS = ("layout", "width", "height", "fps", "frames")
HOSTILE_VALUES = (st.none() | st.booleans() | st.text(max_size=4)
                  | st.integers() | st.integers(-10 ** 400, 10 ** 400)
                  | st.floats() | st.lists(st.floats(), max_size=4)
                  | st.dictionaries(st.text(max_size=3), st.integers(),
                                    max_size=2))


@settings(max_examples=300, deadline=None)
@given(fields=st.dictionaries(st.sampled_from(POSE_FIELDS), HOSTILE_VALUES,
                              max_size=2),
       dropped=st.sets(st.sampled_from(POSE_FIELDS), max_size=1),
       slots=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 132),
                                st.integers(0, 4), HOSTILE_VALUES),
                      max_size=4))
def test_parse_hostile_values_raise_only_declared_errors(fields, dropped,
                                                         slots):
    doc = json.loads(pose_doc([person_keypoints(), person_keypoints()],
                              fps=24.0).decode())
    frames = doc["frames"]
    # entries first, then triples, then frames: each edit still finds its
    # slot, and a later, wider edit may overwrite an earlier one
    for f, k, slot, value in sorted(slots, key=lambda s: s[2]):
        if slot < 3:  # one entry of one [x, y, conf] triple
            frames[f]["keypoints"][k][slot] = value
        elif slot == 3:  # the whole triple
            frames[f]["keypoints"][k] = value
        else:  # the whole frame object
            frames[f] = value
    doc.update(fields)
    for key in dropped:
        del doc[key]
    try:
        parse_pose_sequence(json.dumps(doc))
    except (PoseParseError, LayoutError):
        return
    # parsed: every keypoint entry is a JSON number that fits a float
    for frame in doc["frames"]:
        for entry in (v for row in frame["keypoints"] for v in row):
            assert type(entry) in (int, float)
            assert math.isfinite(float(entry))
