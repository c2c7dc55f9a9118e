import pytest

from cpwloss import CpwStack, MaterialConstants, build_stack, load_stack, save_stack
from cpwloss.errors import ConfigError
from cpwloss.geometry import (
    DEPOSITION_LABELS, TREATMENTS, parse_length, reference_presets,
)


def test_parse_length_units():
    assert parse_length("10 um") == pytest.approx(10e-6)
    assert parse_length("10um") == pytest.approx(10e-6)
    assert parse_length("3.7 nm") == pytest.approx(3.7e-9)
    assert parse_length("0.775 mm") == pytest.approx(775e-6)
    assert parse_length("1 m") == 1.0
    assert parse_length(2.5e-9) == 2.5e-9
    assert parse_length(3) == 3.0


def test_parse_length_rejects_garbage():
    # an unknown or miscased unit is an error, never a length in meters
    for value in ("ten microns", None, "um", "10 cm", "10 UM", "10 furlongs",
                  "10 m m", "10 um um", "nan", "inf m"):
        with pytest.raises(ConfigError):
            parse_length(value)


def test_parse_length_rejects_bool():
    # bool is an int in Python; a YAML `yes` must not read as 1 m
    for value in (True, False):
        with pytest.raises(ConfigError):
            parse_length(value)
        with pytest.raises(ConfigError, match="trace_width"):
            build_stack({"trace_width": value})


def test_default_stack_matches_400c_reference():
    default = build_stack({})
    preset = reference_presets("400C", "reference")
    assert default == preset
    assert default.trace_width == pytest.approx(10e-6)
    assert default.gap == pytest.approx(4.5e-6)
    assert default.metal_thickness == pytest.approx(100e-9)
    assert default.layer_MA_top == pytest.approx(3.7e-9)
    assert default.layer_MA_side == pytest.approx(6e-9)
    assert default.layer_SA == pytest.approx(2.5e-9)


def test_450c_reference_overrides():
    stack = reference_presets("450C", "reference")
    assert stack.layer_MA_top == pytest.approx(3.5e-9)
    assert stack.layer_MA_side == pytest.approx(6e-9)


def test_500c_reference_thicknesses():
    stack = reference_presets("500C", "reference")
    assert stack.layer_MA_top == pytest.approx(3.5e-9)
    assert stack.layer_MA_side == pytest.approx(6.5e-9)
    assert stack.layer_SA == pytest.approx(2.5e-9)


def test_hf_preset_drops_gap_oxide_and_scales_metal_oxide():
    stack = reference_presets("400C", "hf_treated")
    assert stack.layer_SA == 0.0
    assert stack.ma_scale == pytest.approx(1.53 / 1.87)
    assert stack.ma_scale == pytest.approx(0.818, abs=5e-4)


def test_all_six_presets_validate():
    for label in DEPOSITION_LABELS:
        for treatment in TREATMENTS:
            stack = reference_presets(label, treatment)
            stack.validate()  # must not raise


def test_unknown_preset_labels():
    with pytest.raises(ConfigError):
        reference_presets("350C", "reference")
    with pytest.raises(ConfigError):
        reference_presets("400C", "annealed")


def test_negative_gap_rejected():
    with pytest.raises(ConfigError):
        build_stack({"gap": "-1 um"})


def test_zero_lengths_rejected():
    with pytest.raises(ConfigError):
        build_stack({"trace_width": 0.0})
    with pytest.raises(ConfigError):
        build_stack({"metal_thickness": 0.0})
    # NaN and +-inf are rejected with the name of the field
    for key in ("trace_width", "domain_halfwidth", "trench_depth", "layer_SA"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match=key):
                build_stack({key: value})


def test_permittivity_below_one_rejected():
    with pytest.raises(ConfigError):
        MaterialConstants("bad", 0.5, 0.0)
    with pytest.raises(ConfigError):
        MaterialConstants("bad", 2.0, -1e-3)
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match="relative_permittivity"):
            MaterialConstants("bad", value, 0.0)
        with pytest.raises(ConfigError, match="loss_tangent"):
            MaterialConstants("bad", 2.0, value)
        with pytest.raises(ConfigError, match="loss_tangent"):
            build_stack({"materials": {"SA_oxide": {"relative_permittivity": 3.9,
                                                    "loss_tangent": value}}})


@pytest.mark.parametrize("config,field", [
    ({"materials": {"SA_oxide": {"loss_tangent": 1e-3}}},
     "'SA_oxide' needs a relative_permittivity"),
    ({"ma_scale": "abc"}, "ma_scale must be a number"),
    ({"materials": {"substrate": {"relative_permittivity": "abc"}}},
     "'substrate' relative_permittivity must be a number"),
    ({"materials": 3}, "materials must map"),
    ({"materials": {"MA_oxid": {"relative_permittivity": 25}}},
     r"unknown material roles \['MA_oxid'\]"),
    ({"materials": {"SA_oxid": MaterialConstants("SiO2", 3.9, 1.7e-3)}},
     r"unknown material roles \['SA_oxid'\]"),
    ({"materials": {"MA_oxide": {"relative_permittivity": 25,
                                 "loss_tangnet": 5e-3}}},
     r"'MA_oxide' has unknown keys \['loss_tangnet'\]"),
], ids=["missing-permittivity", "non-numeric-ma-scale",
        "non-numeric-permittivity", "materials-not-mapping", "unknown-role",
        "unknown-role-constants", "unknown-material-key"])
def test_malformed_config_is_config_error(config, field):
    # never a KeyError, ValueError or AttributeError with a traceback
    with pytest.raises(ConfigError, match=field):
        build_stack(config)


def test_air_must_stay_vacuum_like():
    with pytest.raises(ConfigError):
        build_stack({"materials": {"air": {"relative_permittivity": 1.5}}})


def test_thin_layer_regime_enforced():
    # a 200 nm "thin" layer on a 10 um trace violates t/w < 1e-2
    with pytest.raises(ConfigError):
        build_stack({"layer_SA": "200 nm"})


def test_domain_width_floor():
    with pytest.raises(ConfigError):
        build_stack({"domain_halfwidth": "50 um"})


def test_auto_domain_sizes():
    stack = build_stack({})
    auto = 20.0 * (10e-6 + 2 * 4.5e-6)
    assert stack.domain_halfwidth == pytest.approx(auto)
    assert stack.domain_height_air == pytest.approx(auto)
    assert stack.domain_depth_substrate == pytest.approx(min(auto, 775e-6))


def test_config_round_trip(tmp_path):
    stack = build_stack({
        "trace_width": "12 um", "gap": "5 um", "trench_depth": "200 nm",
        "layer_MA_top": "3.1 nm",
        "materials": {"substrate": {"name": "Si", "relative_permittivity": 11.45,
                                    "loss_tangent": 1.0e-7}},
    })
    path = tmp_path / "stack.yaml"
    save_stack(stack, path)
    again = load_stack(path)
    assert again == stack


def test_unknown_config_key_rejected():
    for key, value in (("trace_widht", "10 um"), ("sidewall_angle", 90.0),
                       ("layer_MS", "1 nm")):
        with pytest.raises(ConfigError):
            build_stack({key: value})


def test_overrides_win_over_config():
    stack = build_stack({"gap": "4.5 um"}, gap="6 um")
    assert stack.gap == pytest.approx(6e-6)


def test_stack_is_immutable():
    stack = build_stack({})
    with pytest.raises(Exception):
        stack.gap = 1e-6


def test_ma_scale_bounds():
    for scale in (0.0, -0.5, 1.2, 1.5, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            CpwStack(ma_scale=scale)
