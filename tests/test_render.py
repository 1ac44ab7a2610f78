import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from posefuse import render
from posefuse.pose import PoseFrame
from posefuse.render import (MAX_ELEMENTS, REFERENCE_HEIGHT, GuidanceMap,
                             RenderStyle, render_frame, render_frame_u8)
from posefuse.skeleton import WHOLEBODY_133

from conftest import norm_frame, person_keypoints, person_sequence


def single_point_frame(x=0.5, y=0.5, conf=1.0, index=0) -> PoseFrame:
    """Everything invisible except one keypoint (no limbs drawable)."""
    kp = np.zeros((133, 3))
    kp[:, :2] = -10.0  # far off canvas
    kp[index] = (x, y, conf)
    return norm_frame(kp)


def test_output_shape_and_range(person_frame):
    gm = render_frame(person_frame, RenderStyle(), 128, 96)
    assert isinstance(gm, GuidanceMap)
    assert gm.data.shape == (96, 128, 3)
    assert gm.data.min() >= 0.0 and gm.data.max() <= 1.0
    assert not gm.data.flags.writeable  # also on the path that skips the scan


def test_canvas_minimum_size(person_frame):
    for render_fn in (render_frame, render_frame_u8):
        with pytest.raises(ValueError, match="at least 8x8"):
            render_fn(person_frame, RenderStyle(), 4, 64)
        render_fn(person_frame, RenderStyle(), 8, 8)  # boundary accepted


def test_canvas_cap_checked_before_allocation(person_frame, monkeypatch):
    for render_fn in (render_frame, render_frame_u8):
        with pytest.raises(ValueError,
                           match=f"exceeds {MAX_ELEMENTS} elements"):
            render_fn(person_frame, RenderStyle(), 10 ** 8, 10 ** 8)
    monkeypatch.setattr(render, "MAX_ELEMENTS", 8 * 8 * 3)
    for render_fn in (render_frame, render_frame_u8):
        render_fn(person_frame, RenderStyle(), 8, 8)  # exactly the cap
        with pytest.raises(ValueError, match="exceeds 192 elements"):
            render_fn(person_frame, RenderStyle(), 9, 8)


def test_guidance_map_checks_outside_arrays():
    for bad in (1.0 + 1e-12, -1e-12, 2.0):
        data = np.full((2, 4, 3), 0.5)
        data[1, 3, 2] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            GuidanceMap(4, 2, data)
    with pytest.raises(ValueError, match="must be"):
        GuidanceMap(4, 2, np.zeros((4, 2, 3)))
    gm = GuidanceMap(4, 2, np.full((2, 4, 3), 1.0))
    assert not gm.data.flags.writeable


def test_style_validation():
    with pytest.raises(ValueError):
        RenderStyle(keypoint_radius=0.5)
    with pytest.raises(ValueError):
        RenderStyle(confidence_mode="fuzzy")
    with pytest.raises(ValueError):
        RenderStyle(threshold=1.5)


@pytest.mark.parametrize("size", [np.nan, np.inf])
@pytest.mark.parametrize("key", ["keypoint_radius", "limb_thickness"])
def test_style_validation_rejects_non_finite_size(key, size):
    # NaN would draw as 1 px; inf would cover the whole canvas per stroke
    with pytest.raises(ValueError, match="finite"):
        RenderStyle(**{key: size})


def test_zero_confidence_leaves_background():
    gm = render_frame(single_point_frame(conf=0.0), RenderStyle(), 64, 64)
    assert not gm.data.any()


def test_half_confidence_halves_color():
    frame = single_point_frame(conf=0.5, index=0)
    gm = render_frame(frame, RenderStyle(), 64, 64)
    color = WHOLEBODY_133.keypoint_colors[0]
    lit = gm.data[gm.data.any(axis=2)]
    assert len(lit) > 0
    np.testing.assert_array_equal(lit, np.tile(color * 0.5, (len(lit), 1)))


def test_linearity_exact():
    base = render_frame(single_point_frame(conf=1.0), RenderStyle(), 64, 64)
    for c in (0.0, 0.25, 0.5, 1.0):
        gm = render_frame(single_point_frame(conf=c), RenderStyle(), 64, 64)
        assert np.array_equal(gm.data, c * base.data)


def test_confidence_monotonicity():
    prev = render_frame(single_point_frame(conf=0.0), RenderStyle(), 64, 64)
    for c in (0.2, 0.4, 0.6, 0.8, 1.0):
        cur = render_frame(single_point_frame(conf=c), RenderStyle(), 64, 64)
        assert (cur.data >= prev.data).all()
        prev = cur


@settings(max_examples=40, deadline=None)
@given(c=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_linearity_property(c):
    base = render_frame(single_point_frame(conf=1.0), RenderStyle(), 48, 48)
    gm = render_frame(single_point_frame(conf=c), RenderStyle(), 48, 48)
    assert np.array_equal(gm.data, c * base.data)


def test_threshold_mode_omits_below_tau():
    style = RenderStyle(confidence_mode="threshold", threshold=0.3)
    low = render_frame(single_point_frame(conf=0.2), style, 64, 64)
    assert not low.data.any()
    high = render_frame(single_point_frame(conf=0.9), style, 64, 64)
    full = render_frame(single_point_frame(conf=1.0), style, 64, 64)
    assert np.array_equal(high.data, full.data)  # survivors at full color


def test_limb_uses_min_endpoint_confidence():
    # two visible wrist/elbow points connected by a body edge
    kp = np.zeros((133, 3))
    kp[:, :2] = -10.0
    kp[7] = (0.3, 0.5, 0.9)   # elbow
    kp[9] = (0.7, 0.5, 0.2)   # wrist, low confidence
    frame = norm_frame(kp)

    style = RenderStyle(confidence_mode="threshold", threshold=0.3)
    gm = render_frame(frame, style, 96, 64)
    # limb omitted (min conf 0.2 < tau), conf-0.9 disc drawn, 0.2 disc omitted
    ex, ey = int(0.3 * 96), int(0.5 * 64)
    wx = int(0.7 * 96)
    mid = int(0.5 * 96)
    assert gm.data[ey, ex].any()
    assert not gm.data[ey, wx].any()
    assert not gm.data[ey, mid].any()

    scaled = render_frame(frame, RenderStyle(), 96, 64)
    # scaled mode draws the limb at 0.2 x edge color
    assert scaled.data[ey, mid].any()
    edge_index = [i for i, (a, b) in enumerate(WHOLEBODY_133.edges)
                  if {a, b} == {7, 9}][0]
    np.testing.assert_allclose(scaled.data[ey, mid],
                               WHOLEBODY_133.edge_colors[edge_index] * 0.2)


def test_scaled_and_threshold_agree_at_binary_confidence():
    rng = np.random.default_rng(0)
    kp = person_keypoints()
    kp[:, 2] = rng.integers(0, 2, size=133).astype(float)
    frame = norm_frame(kp)
    a = render_frame(frame, RenderStyle(confidence_mode="scaled"), 96, 128)
    for tau in (0.25, 0.5, 0.75):
        b = render_frame(frame, RenderStyle(confidence_mode="threshold",
                                            threshold=tau), 96, 128)
        assert a.data.tobytes() == b.data.tobytes()


def test_max_compositing_on_overlap():
    # two coincident keypoints with different colors: result is channel max
    kp = np.zeros((133, 3))
    kp[:, :2] = -10.0
    kp[0] = (0.5, 0.5, 1.0)
    kp[5] = (0.5, 0.5, 1.0)
    gm = render_frame(norm_frame(kp), RenderStyle(), 64, 64)
    expect = np.maximum(WHOLEBODY_133.keypoint_colors[0],
                        WHOLEBODY_133.keypoint_colors[5])
    np.testing.assert_array_equal(gm.data[32, 32], expect)


def test_off_canvas_clipped_silently():
    gm = render_frame(single_point_frame(x=1.5, y=-0.4), RenderStyle(), 64, 64)
    assert not gm.data.any()
    # straddling the edge still paints the inside part
    gm = render_frame(single_point_frame(x=0.999, y=0.5), RenderStyle(), 64, 64)
    assert gm.data.any()


def test_radius_scales_with_height():
    small = render_frame(single_point_frame(), RenderStyle(), 64, 64)
    big = render_frame(single_point_frame(), RenderStyle(),
                       REFERENCE_HEIGHT, REFERENCE_HEIGHT)
    # 64 px canvas clamps the radius to 1 px; at reference height the
    # disc uses the nominal 4 px radius, so the area grows superlinearly
    a_small = small.data.any(axis=2).sum()
    a_big = big.data.any(axis=2).sum()
    assert a_big > 4 * a_small


def test_minimum_one_pixel_radius():
    # at tiny canvases the scaled radius clamps to 1 px, disc stays visible
    gm = render_frame(single_point_frame(), RenderStyle(), 16, 16)
    assert gm.data.any()


def test_reference_height_render_uses_nominal_radius():
    gm = render_frame(single_point_frame(x=0.5, y=0.5),
                      RenderStyle(keypoint_radius=4.0), REFERENCE_HEIGHT,
                      REFERENCE_HEIGHT)
    ys, xs = np.nonzero(gm.data.any(axis=2))
    width = xs.max() - xs.min() + 1
    assert width in (7, 8, 9)  # 4 px radius disc, center on pixel grid


# ---- row-span rasterizer against a per-stroke reference --------------------

def _ref_paint_disc(canvas, cx, cy, r, value):
    h, w = canvas.shape[:2]
    x0 = max(0, int(np.floor(cx - r)) - 1)
    x1 = min(w, int(np.ceil(cx + r)) + 1)
    y0 = max(0, int(np.floor(cy - r)) - 1)
    y1 = min(h, int(np.ceil(cy + r)) + 1)
    if x0 >= x1 or y0 >= y1:
        return
    ys, xs = np.mgrid[y0:y1, x0:x1]
    mask = (xs + 0.5 - cx) ** 2 + (ys + 0.5 - cy) ** 2 <= r * r
    region = canvas[y0:y1, x0:x1]
    region[mask] = np.maximum(region[mask], value)


def _ref_paint_capsule(canvas, ax, ay, bx, by, half, value):
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        _ref_paint_disc(canvas, ax, ay, half, value)
        return
    h, w = canvas.shape[:2]
    x0 = max(0, int(np.floor(min(ax, bx) - half)) - 1)
    x1 = min(w, int(np.ceil(max(ax, bx) + half)) + 1)
    y0 = max(0, int(np.floor(min(ay, by) - half)) - 1)
    y1 = min(h, int(np.ceil(max(ay, by) + half)) + 1)
    if x0 >= x1 or y0 >= y1:
        return
    ys, xs = np.mgrid[y0:y1, x0:x1]
    px = xs + 0.5 - ax
    py = ys + 0.5 - ay
    t = np.clip((px * dx + py * dy) / seg2, 0.0, 1.0)
    d2 = (px - t * dx) ** 2 + (py - t * dy) ** 2
    mask = d2 <= half * half
    region = canvas[y0:y1, x0:x1]
    region[mask] = np.maximum(region[mask], value)


def reference_render(frame, style, width, height):
    """One np.mgrid box and mask per stroke, limbs first, then keypoints."""
    scale = height / REFERENCE_HEIGHT
    radius = max(1.0, style.keypoint_radius * scale)
    half = max(1.0, style.limb_thickness * scale) / 2.0
    layout = frame.layout
    canvas = np.zeros((height, width, 3))
    px, py, conf = frame.x * width, frame.y * height, frame.conf
    thresholded = style.confidence_mode == "threshold"
    strokes = [(min(conf[a], conf[b]), layout.edge_colors[e], (a, b))
               for e, (a, b) in enumerate(layout.edges)]
    strokes += [(conf[i], layout.keypoint_colors[i], (i,))
                for i in range(layout.keypoint_count)]
    with np.errstate(over="ignore", invalid="ignore"):
        for c, color, ends in strokes:
            if thresholded:
                if c < style.threshold:
                    continue
                value = color
            else:
                if c == 0.0:
                    continue
                value = color * c
            if len(ends) == 2:
                a, b = ends
                _ref_paint_capsule(canvas, px[a], py[a], px[b], py[b], half,
                                   value)
            else:
                _ref_paint_disc(canvas, px[ends[0]], py[ends[0]], radius,
                                value)
    return canvas


_EDGE_COUNT = len(WHOLEBODY_133.edges)
_HUGE = (1e200, -1e200, 3e150, -7e100)
_TINY = (5e-324, -5e-324, 1e-300, 1e-168, -1e-168)


@st.composite
def hostile_frames(draw):
    """Whole-body frames mixing on-canvas, edge, far-off and huge points,
    zero and fractional confidences, and limbs of zero or nearly zero
    length: an endpoint equal to its partner, or off it by a tiny step on
    one axis (which may round away on a large coordinate)."""
    coord = st.one_of(st.floats(-0.3, 1.3), st.sampled_from((0.0, 0.5, 1.0)),
                      st.floats(-40.0, 40.0), st.sampled_from(_HUGE))
    xy = draw(hnp.arrays(np.float64, (133, 2), elements=coord))
    conf = draw(hnp.arrays(np.float64, 133, elements=st.one_of(
        st.just(0.0), st.sampled_from((0.3, 1.0)), st.floats(0.0, 1.0))))
    for e in draw(st.lists(st.integers(0, _EDGE_COUNT - 1), max_size=12)):
        a, b = WHOLEBODY_133.edges[e]
        xy[b] = xy[a]  # coincident endpoints: a zero-length limb
        xy[b, draw(st.integers(0, 1))] += draw(st.sampled_from((0.0,) + _TINY))
    return norm_frame(np.column_stack([xy, conf]))


def _sliver_limb_frame() -> PoseFrame:
    """Only right-hand keypoints 121 and 122 drawn, joined by a limb that
    is 8 px long and 5.4e-168 px tall on an 8x8 canvas: its strip
    centre and half-width, both near 1e168 px, cancel to an empty row."""
    kp = np.zeros((133, 3))
    kp[:, :2] = -10.0
    kp[121] = (1.0, 0.0, 1.0)
    kp[122] = (0.0, 6.8e-169, 1.0)
    return norm_frame(kp)


_SLIVER = dict(frame=_sliver_limb_frame(), width=8, height=8, mode="scaled",
               threshold=0.3, keypoint_radius=1.0, limb_thickness=1.0)


@settings(max_examples=60, deadline=None)
@example(**_SLIVER)
@given(frame=hostile_frames(),
       width=st.integers(8, 320), height=st.integers(8, 320),
       mode=st.sampled_from(("scaled", "threshold")),
       threshold=st.sampled_from((0.0, 0.3, 0.5, 1.0)),
       keypoint_radius=st.floats(1.0, 12.0),
       limb_thickness=st.floats(1.0, 12.0))
def test_render_matches_per_stroke_reference(frame, width, height, mode,
                                             threshold, keypoint_radius,
                                             limb_thickness):
    style = RenderStyle(keypoint_radius=keypoint_radius,
                        limb_thickness=limb_thickness, confidence_mode=mode,
                        threshold=threshold)
    expect = reference_render(frame, style, width, height)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # far-off points render quietly
        gm = render_frame(frame, style, width, height)
    assert gm.data.tobytes() == expect.tobytes()


def quantize(img):
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


@settings(max_examples=60, deadline=None)
@example(**_SLIVER)
@given(frame=hostile_frames(),
       width=st.integers(8, 320), height=st.integers(8, 320),
       mode=st.sampled_from(("scaled", "threshold")),
       threshold=st.sampled_from((0.0, 0.3, 0.5, 1.0)),
       keypoint_radius=st.floats(1.0, 12.0),
       limb_thickness=st.floats(1.0, 12.0))
def test_render_u8_matches_quantized_reference(frame, width, height, mode,
                                               threshold, keypoint_radius,
                                               limb_thickness):
    style = RenderStyle(keypoint_radius=keypoint_radius,
                        limb_thickness=limb_thickness, confidence_mode=mode,
                        threshold=threshold)
    expect = quantize(reference_render(frame, style, width, height))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # far-off points render quietly
        image = render_frame_u8(frame, style, width, height)
    assert image.dtype == np.uint8 and image.shape == (height, width, 3)
    assert not image.flags.writeable
    assert image.tobytes() == expect.tobytes()


def test_render_u8_rounding_ties():
    # keypoint 0 is drawn in (1, 0, 0), so its first channel is its
    # confidence: exact (k + 0.5) / 255 ties and their neighbours, with
    # overlapping discs of other confidences on top
    ties = (np.arange(255) + 0.5) / 255
    confs = np.concatenate([ties, np.nextafter(ties, 0.0),
                            np.nextafter(ties, 1.0)])
    assert WHOLEBODY_133.keypoint_colors[0, 0] == 1.0
    for c in confs:
        kp = np.zeros((133, 3))
        kp[:, :2] = -10.0
        kp[0] = (0.5, 0.5, c)
        kp[3] = (0.55, 0.5, 1.0 - c)  # (1, 1, 0): overlaps the first disc
        frame = norm_frame(kp)
        image = render_frame_u8(frame, RenderStyle(keypoint_radius=40.0),
                                32, 32)
        expect = quantize(render_frame(frame, RenderStyle(keypoint_radius=40.0),
                                       32, 32).data)
        assert image.tobytes() == expect.tobytes()
        # a pixel inside the first disc only
        assert image[16, 14, 0] == np.clip(np.rint(c * 255.0), 0, 255)


def test_render_matches_reference_on_person_sizes():
    seq = person_sequence(3)
    for frame in seq.frames:
        for width, height in ((8, 8), (96, 128), (576, 1024), (1024, 576)):
            for style in (RenderStyle(),
                          RenderStyle(confidence_mode="threshold")):
                gm = render_frame(frame, style, width, height)
                expect = reference_render(frame, style, width, height)
                assert gm.data.tobytes() == expect.tobytes()
                assert render_frame_u8(frame, style, width, height).tobytes() \
                    == quantize(expect).tobytes()
    # rendering again gives the same bytes; drifted frames differ
    first, second = (render_frame(f, RenderStyle(), 96, 128).data.tobytes()
                     for f in seq.frames[:2])
    assert render_frame(seq.frames[0], RenderStyle(), 96,
                        128).data.tobytes() == first
    assert first != second


def _matching_edges():
    """Edges of the layout that share no keypoint, first come first."""
    used, edges = set(), []
    for a, b in WHOLEBODY_133.edges:
        if not {a, b} & used:
            used |= {a, b}
            edges.append((a, b))
    return edges


def _angled_limbs_frame(rng, width, height, angles):
    """One limb per edge of a matching, each from a random on-canvas
    start at the given angle (in canvas pixels), 2 to 600 px long, with
    random confidences; every other keypoint is far off the canvas."""
    kp = np.zeros((133, 3))
    kp[:, :2] = -10.0
    for (a, b), angle in zip(_matching_edges(), angles):
        ax, ay = rng.uniform(0, width), rng.uniform(0, height)
        length = rng.uniform(2.0, 600.0)
        bx = ax + length * np.cos(angle)
        by = ay + length * np.sin(angle)
        kp[a] = (ax / width, ay / height, rng.choice((1.0, rng.random())))
        kp[b] = (bx / width, by / height, rng.choice((1.0, rng.random())))
    return norm_frame(kp)


@pytest.mark.parametrize("width,height", [(576, 1024), (1024, 576)])
def test_render_matches_reference_on_large_canvases(width, height):
    # Row trimming saves most on large canvases, which the Hypothesis
    # oracles above never reach: limbs at 0, 90 and 45 degrees, nearly
    # horizontal at 1e-9 rad, and at random angles
    rng = np.random.default_rng(15)
    count = len(_matching_edges())
    angle_sets = [np.full(count, a) for a in (0.0, np.pi / 2, np.pi / 4,
                                              1e-9, np.pi + 1e-9)]
    angle_sets += [rng.uniform(0, 2 * np.pi, count) for _ in range(3)]
    for angles in angle_sets:
        frame = _angled_limbs_frame(rng, width, height, angles)
        for style in (RenderStyle(limb_thickness=7.0),
                      RenderStyle(limb_thickness=30.0, keypoint_radius=9.0,
                                  confidence_mode="threshold", threshold=0.5)):
            expect = reference_render(frame, style, width, height)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no warning for dy == 0
                gm = render_frame(frame, style, width, height)
                image = render_frame_u8(frame, style, width, height)
            assert gm.data.tobytes() == expect.tobytes()
            assert image.tobytes() == quantize(expect).tobytes()


def test_render_matches_reference_for_far_endpoints():
    # limbs from 1e6 to 1e18 px off the canvas into it: far from the
    # origin a trimmed span bound would lose the pixels the float test
    # still covers, so such limbs keep whole box rows
    rng = np.random.default_rng(7)
    width, height = 64, 48
    style = RenderStyle(limb_thickness=20.0)
    for _ in range(20):
        kp = np.zeros((133, 3))
        kp[:, :2] = -10.0
        for a, b in _matching_edges():
            angle = rng.uniform(0, 2 * np.pi)
            bx, by = rng.uniform(0, width), rng.uniform(0, height)
            far = 10.0 ** rng.uniform(6, 18)
            kp[a] = ((bx + far * np.cos(angle)) / width,
                     (by + far * np.sin(angle)) / height, 1.0)
            kp[b] = (bx / width, by / height, 1.0)
        frame = norm_frame(kp)
        assert render_frame(frame, style, width, height).data.tobytes() == \
            reference_render(frame, style, width, height).tobytes()


def test_render_matches_reference_on_rows_longer_than_a_pass():
    # On a canvas wider than the pass budget one box row alone can hold
    # more candidates than a pass: a horizontal limb across the canvas,
    # a limb with an endpoint past the trim limit, and a huge disc
    # clipped at the top edge, each first in the row list, then all
    # three together behind an ordinary limb
    width, height = render._PASS_PIXELS + 16, 8
    (a, b), (c, d) = _matching_edges()[:2]

    def frame_of(points):
        kp = np.zeros((133, 3))
        kp[:, :2] = -10.0
        for i, xyc in points.items():
            kp[i] = xyc
        return norm_frame(kp)

    across = {a: (0.0005, 0.5, 1.0), b: (0.9995, 0.5, 0.6)}
    far = {c: (1e3, 0.9, 1.0), d: (0.5, 0.1, 1.0)}
    disc = {0: (0.5, 0.0, 0.8)}
    short = {a: (0.01, 0.1, 1.0), b: (0.012, 0.9, 1.0)}
    frames = [frame_of(across), frame_of(far), frame_of(disc),
              frame_of({**short, **far, **disc})]
    for frame in frames:
        for style in (RenderStyle(keypoint_radius=1e6),
                      RenderStyle(keypoint_radius=1e6, limb_thickness=300.0,
                                  confidence_mode="threshold", threshold=0.7)):
            expect = reference_render(frame, style, width, height)
            assert render_frame(frame, style, width, height).data.tobytes() \
                == expect.tobytes()
            assert render_frame_u8(frame, style, width, height).tobytes() \
                == quantize(expect).tobytes()


def test_pass_memory_is_bounded():
    # 133 px keypoint discs on a 512x512 canvas: about 7 M candidate
    # pixels in all, tested in passes of a fixed size, so the peak
    # stays far below what testing whole boxes of many strokes at once
    # takes (about 140 MB)
    frame = norm_frame(person_keypoints())
    style = RenderStyle(keypoint_radius=200.0)
    tracemalloc.start()
    try:
        image = render_frame_u8(frame, style, 512, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20
    assert image.tobytes() == \
        quantize(reference_render(frame, style, 512, 512)).tobytes()


def test_candidates_stay_near_covered_pixels(monkeypatch):
    # The coverage test runs only on row spans around each stroke: on a
    # jittered person at 576x1024 the candidates are under twice the
    # covered pixels (whole bounding boxes give about 3.2 times)
    seen = {"candidates": 0, "covered": 0}
    composite = render._composite

    def counting(canvas, width, xs, ys, stroke, mask, values):
        seen["candidates"] += mask.size
        seen["covered"] += int(mask.sum())
        composite(canvas, width, xs, ys, stroke, mask, values)

    monkeypatch.setattr(render, "_composite", counting)
    rng = np.random.default_rng(0)
    for _ in range(4):
        kp = person_keypoints()
        kp[:, :2] += rng.uniform(-0.02, 0.02, (133, 2))
        render_frame_u8(norm_frame(kp), RenderStyle(), 576, 1024)
    assert seen["covered"] > 0
    assert seen["candidates"] <= 2 * seen["covered"]


def test_zero_length_limb_is_a_disc_of_half_thickness():
    # elbow and wrist coincide: the limb is a disc of radius half (6 px at
    # the reference height) in the edge color, wider than the 1 px
    # keypoint discs on top of it
    kp = np.zeros((133, 3))
    kp[:, :2] = -10.0
    kp[7] = (0.5, 0.5, 1.0)
    kp[9] = (0.5, 0.5, 0.5)
    frame = norm_frame(kp)
    style = RenderStyle(keypoint_radius=1.0, limb_thickness=12.0)
    size = REFERENCE_HEIGHT
    gm = render_frame(frame, style, size, size)
    edge = [i for i, (a, b) in enumerate(WHOLEBODY_133.edges)
            if (a, b) == (7, 9)][0]
    np.testing.assert_array_equal(gm.data[size // 2, size // 2 + 4],
                                  WHOLEBODY_133.edge_colors[edge] * 0.5)
    assert not gm.data[size // 2, size // 2 + 7].any()
    assert gm.data.tobytes() == \
        reference_render(frame, style, size, size).tobytes()


def test_far_off_limb_renders_quietly():
    # one elbow so far away that the limb to the wrist overflows its
    # squared length; the wrist disc is still drawn and nothing warns
    kp = np.zeros((133, 3))
    kp[:, :2] = -10.0
    kp[7] = (1e200, 0.5, 1.0)
    kp[9] = (0.5, 0.5, 1.0)
    frame = norm_frame(kp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gm = render_frame(frame, RenderStyle(), 64, 64)
    assert gm.data[32, 32].any()
    assert gm.data.tobytes() == \
        reference_render(frame, RenderStyle(), 64, 64).tobytes()


def test_infinite_pixel_coordinate_draws_nothing_for_it():
    # a finite normalized x can still overflow to inf once scaled to the
    # canvas; that keypoint and its limbs draw nothing, the rest as usual
    kp = person_keypoints()
    kp[9, 0] = 1.5e308
    gm = render_frame(norm_frame(kp), RenderStyle(), 96, 128)
    kp[9, 2] = 0.0
    assert gm.data.tobytes() == \
        render_frame(norm_frame(kp), RenderStyle(), 96, 128).data.tobytes()
