import dataclasses
import json
import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from posefuse.cli import main
from posefuse.config import (DENOISER_KINDS, ConfigError, RunConfig,
                             config_from_dict, load_run_config)
from posefuse.fusion import plan_segments
from posefuse.render import MAX_ELEMENTS


def test_defaults_are_valid():
    cfg = config_from_dict({})
    assert cfg == RunConfig()
    assert cfg.total_frames == 36


def test_partial_override():
    cfg = config_from_dict({"total_frames": 48,
                            "denoiser": "analytic_gaussian", "eta": 0.5})
    assert cfg.total_frames == 48
    assert cfg.denoiser == "analytic_gaussian"
    assert cfg.eta == 0.5
    assert cfg.segment_length == 16  # untouched default


def test_load_from_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 11, "steps": 5}), encoding="utf-8")
    cfg = load_run_config(path)
    assert cfg.seed == 11 and cfg.steps == 5


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "run.json"
    for data in (b"{nope",
                 b"[" * 100_000 + b"]" * 100_000,       # nested too deep
                 b'{"seed": ' + b"9" * 5000 + b"}",     # over the digit limit
                 b'{"out_dir": "\xff"}'):              # not UTF-8
        path.write_bytes(data)
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_run_config(path)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys: fames"):
        config_from_dict({"fames": 36})
    with pytest.raises(ConfigError, match="unknown config keys: parallel"):
        config_from_dict({"parallel": False})
    # render and hand settings belong to render-pose and weight-map
    for key in ("width", "height", "keypoint_radius", "limb_thickness",
                "confidence_mode", "threshold", "tau_hand", "pad_frac",
                "w_hand"):
        with pytest.raises(ConfigError, match=f"unknown config keys: {key}"):
            config_from_dict({key: 1})
    with pytest.raises(ConfigError, match="a, b"):
        config_from_dict({"b": 1, "a": 2})


def test_non_object_rejected():
    with pytest.raises(ConfigError, match="JSON object"):
        config_from_dict([1, 2])


def test_type_strictness():
    with pytest.raises(ConfigError, match="steps: expected int"):
        config_from_dict({"steps": "25"})
    with pytest.raises(ConfigError, match="expected int, got bool"):
        config_from_dict({"steps": True})
    for value in ("0.5", [1], None):
        with pytest.raises(ConfigError, match="eta: expected float"):
            config_from_dict({"eta": value})
    with pytest.raises(ConfigError, match="denoiser: expected str"):
        config_from_dict({"denoiser": 3})


def test_int_promoted_for_float_fields():
    cfg = config_from_dict({"period_min": 5})
    assert isinstance(cfg.period_min, float)
    assert cfg.period_min == 5.0


@pytest.mark.parametrize("doc, msg", [
    ({"context_overlap": 16}, "overlap must be smaller than segment length"),
    ({"context_overlap": 0}, "overlap must be smaller than segment length"),
    ({"total_frames": 0}, "total_frames"),
    ({"steps": 0}, "steps"),
    # the fusion mode is longvideo's --mode flag, not a config key
    ({"mode": "progressive"}, "unknown config keys: mode"),
    ({"seed": -1}, "seed"),
    ({"latent_channels": 0}, "latent dims"),
    ({"denoiser": "unet"}, "denoiser must be one of"),
    ({"eta": 0.0}, "eta"),
    ({"eta": 1.5}, "eta"),
    ({"phase_jitter": -0.1}, "phase_jitter"),
    ({"period_min": 50.0}, "period_min"),
    ({"sigma0": 0.0}, "sigma0"),
    # bounds the cases above leave open
    ({"total_frames": 1}, "total_frames must be >= 2"),
    ({"seed": 2 ** 64}, "seed"),
    ({"latent_height": 0}, "latent dims"),
    ({"latent_width": 0}, "latent dims"),
    ({"period_min": 0.0}, "period_min"),
    ({"period_min": 48.0}, "period_min"),  # equal to period_max
    ({"sigma0": -1.0}, "sigma0"),
    # size caps: integer arithmetic only, nothing is planned or allocated
    ({"latent_height": 10 ** 15}, "segment latents exceed"),
    ({"total_frames": 10 ** 15}, "segment latents exceed"),
    ({"segment_length": 10 ** 12, "context_overlap": 1,
      "total_frames": 10 ** 12}, "segment latents exceed"),
    ({"latent_channels": 2 ** 20, "latent_height": 2 ** 20},
     "segment latents exceed"),
])
def test_constraint_messages(doc, msg):
    with pytest.raises(ConfigError, match=msg):
        config_from_dict(doc)


def test_denoiser_kinds_accepted():
    for kind in DENOISER_KINDS:
        assert config_from_dict({"denoiser": kind}).denoiser == kind


def test_json_roundtrip(tmp_path):
    cfg = config_from_dict({"total_frames": 30, "eta": 0.5,
                            "out_dir": "artifacts"})
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)), encoding="utf-8")
    assert load_run_config(path) == cfg


def test_json_dump_is_flat_and_sorted():
    doc = json.loads(json.dumps(dataclasses.asdict(RunConfig()),
                                sort_keys=True))
    assert set(doc) == {f.name for f in dataclasses.fields(RunConfig)}
    keys = list(doc)
    assert keys == sorted(keys)
    assert all(not isinstance(v, (dict, list)) for v in doc.values())
    assert config_from_dict(doc) == RunConfig()


@pytest.mark.parametrize("key", ["eta", "period_max", "phase_jitter",
                                 "period_min", "mu", "sigma0"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan,
                                   int("1" * 400)],
                         ids=["inf", "-inf", "nan", "400-digit-int"])
def test_float_keys_must_be_finite(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be a finite float"):
        config_from_dict({key: value})


def test_non_finite_json_literals_rejected_at_load(tmp_path):
    # 1e999 parses as inf; without the check period_max passes validation
    # and fails later inside the phase stand-in
    path = tmp_path / "run.json"
    for text in ('{"period_max": 1e999}', '{"phase_jitter": 1e999}',
                 '{"mu": NaN}', '{"sigma0": -Infinity}'):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="must be a finite float"):
            load_run_config(path)


@settings(max_examples=200, deadline=None)
@given(total=st.integers(1, 400), n=st.integers(2, 40), data=st.data())
def test_latent_cap_is_the_planned_stack_size(total, n, data):
    overlap = data.draw(st.integers(1, n - 1))
    chans = data.draw(st.integers(1, 8))
    height = data.draw(st.integers(1, 2 ** 12))
    width = data.draw(st.integers(1, 2 ** 12))
    plan = plan_segments(total, n, overlap)
    stack = len(plan) * plan.frames_per_segment * chans * height * width
    doc = {"total_frames": total, "segment_length": n,
           "context_overlap": overlap, "latent_channels": chans,
           "latent_height": height, "latent_width": width}
    if total == 1:  # no frame-to-frame difference for the seam metrics
        with pytest.raises(ConfigError, match="total_frames"):
            config_from_dict(doc)
    elif stack <= MAX_ELEMENTS:
        config_from_dict(doc)
    else:
        with pytest.raises(ConfigError, match="segment latents exceed"):
            config_from_dict(doc)


def test_size_cap_boundaries():
    # one 16-frame segment of 1 x 2048 x 2048 latents is exactly the cap
    doc = {"total_frames": 16, "segment_length": 16, "context_overlap": 6,
           "latent_channels": 1, "latent_height": 2 ** 11,
           "latent_width": 2 ** 11}
    assert 16 * 2 ** 22 == MAX_ELEMENTS
    config_from_dict(doc)
    with pytest.raises(ConfigError, match="segment latents exceed"):
        config_from_dict(dict(doc, latent_width=2 ** 11 + 1))


FIELD_NAMES = sorted(f.name for f in dataclasses.fields(RunConfig))
# every kind of JSON value, with integers past float range and past 2**64
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.integers(-10 ** 400, 10 ** 400) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=5)
CONFIG_DOCS = st.dictionaries(st.sampled_from(FIELD_NAMES), JSON_VALUES,
                              max_size=5)


@settings(max_examples=400, deadline=None)
@given(doc=CONFIG_DOCS)
def test_any_json_value_raises_only_config_error(doc):
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=CONFIG_DOCS)
def test_longvideo_rejected_config_returns_2(tmp_path, doc):
    try:
        config_from_dict(doc)
    except ConfigError:
        pass
    else:
        assume(False)  # an accepted config would run the whole clip
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["longvideo", "--config", str(path)]) == 2
