"""config_from_json accepts exactly what the experiment-config JSON Schema accepts."""

import json
import math
from pathlib import Path

import pytest

from naqae.experiments import config_from_json

jsonschema = pytest.importorskip("jsonschema")

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "schemas" / "experiment-config.schema.json").read_text()
)

BASE = {"device": {"theta": 0.5}, "max_depth": 4, "n_shot_base": 10, "replications": 2, "seed": 1}
GAUSS = {"kind": "gaussian", "k_mu": 0.01, "k_sigma": 0.05}


def with_device(**device):
    return {**BASE, "device": device}


GOOD = {
    "minimal": BASE,
    "all_fields": {
        **BASE, "device": {"preset": "A1", "noise": GAUSS},
        "k_sigma_assumed": 0.0, "settings": ["noisy_a", "noiseless"],
    },
    "preset_only": with_device(preset="A5"),
    "depolarizing": with_device(theta=1.0, noise={"kind": "depolarizing", "p_coh": 0.9}),
    "none_noise": with_device(theta=0.0, noise={"kind": "none"}),
    "theta_upper_bound": with_device(theta=math.pi / 2),
    "integral_float": {**BASE, "max_depth": 2.0, "n_shot_base": 5.0},
    "negative_seed": {**BASE, "seed": -7},
    "lowest_seed": {**BASE, "seed": -(2**63)},
    "highest_seed": {**BASE, "seed": 2**64 - 1},
    "integer_k_mu": with_device(theta=0.5, noise={"kind": "gaussian", "k_mu": 0, "k_sigma": 1}),
    # (M + 1)(M + 2) = 1,047,552 zeros for the theta search, within 2**20
    "deepest_searchable_depth": {**BASE, "max_depth": 1022},
}

BAD = {
    "not_object": [BASE],
    "missing_seed": {k: v for k, v in BASE.items() if k != "seed"},
    "unknown_top_level": {**BASE, "workers": 2},
    "unknown_device_key": with_device(theta=0.5, seed=3),
    "unknown_noise_key": with_device(theta=0.5, noise={**GAUSS, "p_coh": 0.9}),
    "unknown_none_key": with_device(theta=0.5, noise={"kind": "none", "k_sigma": 0.1}),
    "fractional_depth": {**BASE, "max_depth": 2.7},
    "string_shots": {**BASE, "n_shot_base": "5"},
    "boolean_seed": {**BASE, "seed": True},
    "seed_past_uint64": {**BASE, "seed": 2**64},
    "seed_below_int64": {**BASE, "seed": -(2**63) - 1},
    "shots_past_int64": {**BASE, "n_shot_base": 2**63},
    "depth_past_int64": {**BASE, "max_depth": 2**63},
    "depth_past_search_limit": {**BASE, "max_depth": 1023},
    "replications_past_int64": {**BASE, "replications": 2**63},
    # every RMSE is taken against the device's own amplitude
    "truth_a": {**BASE, "truth_a": 0.25},
    "duplicate_settings": {**BASE, "settings": ["noisy_a", "noisy_a"]},
    "unknown_setting": {**BASE, "settings": ["noisy_c"]},
    "empty_settings": {**BASE, "settings": []},
    "settings_not_array": {**BASE, "settings": "noisy_a"},
    "preset_and_theta": with_device(preset="A1", theta=0.5),
    "neither_preset_nor_theta": with_device(noise=GAUSS),
    "unknown_preset": with_device(preset="A6"),
    "string_theta": with_device(theta="0.5"),
    "theta_too_large": with_device(theta=1.6),
    "negative_k_sigma_assumed": {**BASE, "k_sigma_assumed": -0.1},
    "negative_k_sigma": with_device(theta=0.5, noise={**GAUSS, "k_sigma": -0.1}),
    "string_k_mu": with_device(theta=0.5, noise={**GAUSS, "k_mu": "0.01"}),
    "p_coh_too_large": with_device(theta=0.5, noise={"kind": "depolarizing", "p_coh": 1.5}),
    "missing_p_coh": with_device(theta=0.5, noise={"kind": "depolarizing"}),
    "unknown_kind": with_device(theta=0.5, noise={"kind": "thermal"}),
    "missing_kind": with_device(theta=0.5, noise={"k_mu": 0.0, "k_sigma": 0.1}),
    "noise_not_object": with_device(theta=0.5, noise="none"),
    "device_not_object": {**BASE, "device": "A1"},
    "zero_shots": {**BASE, "n_shot_base": 0},
    "negative_depth": {**BASE, "max_depth": -1},
    "zero_replications": {**BASE, "replications": 0},
}


def parser_accepts(doc) -> bool:
    try:
        config_from_json(doc)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(GOOD))
def test_good_documents(name):
    assert jsonschema.Draft202012Validator(SCHEMA).is_valid(GOOD[name])
    assert parser_accepts(GOOD[name])


@pytest.mark.parametrize("name", sorted(BAD))
def test_bad_documents(name):
    assert not jsonschema.Draft202012Validator(SCHEMA).is_valid(BAD[name])
    assert not parser_accepts(BAD[name])


def test_integral_float_is_converted():
    config = config_from_json(GOOD["integral_float"])
    assert (config.max_depth, config.n_shot_base) == (2, 5)
    assert type(config.max_depth) is int


# NaN is not standard JSON, but Python's json module reads it, and a NaN
# passes the schema's minimum/maximum checks; the parser must reject it, and
# any other number that has no finite float value.
@pytest.mark.parametrize(
    "text",
    [
        '{"device": {"theta": NaN}, "max_depth": 4, "n_shot_base": 10, "replications": 2, "seed": 1}',
        '{"device": {"theta": 0.5}, "k_sigma_assumed": NaN, "max_depth": 4, "n_shot_base": 10, "replications": 2, "seed": 1}',
        '{"device": {"theta": 0.5}, "k_sigma_assumed": Infinity, "max_depth": 4, "n_shot_base": 10, "replications": 2, "seed": 1}',
        '{"device": {"theta": 0.5, "noise": {"kind": "gaussian", "k_mu": NaN, "k_sigma": 0.1}}, "max_depth": 4, "n_shot_base": 10, "replications": 2, "seed": 1}',
        '{"device": {"theta": 0.5}, "max_depth": NaN, "n_shot_base": 10, "replications": 2, "seed": 1}',
        # schema-valid: an integer beyond the float range
        '{"device": {"theta": 0.5, "noise": {"kind": "gaussian", "k_mu": 1' + "0" * 400
        + ', "k_sigma": 0.1}}, "max_depth": 4, "n_shot_base": 10, "replications": 2, "seed": 1}',
    ],
)
def test_non_finite_numbers_rejected(text):
    assert not parser_accepts(json.loads(text))


def test_full_depolarization_needs_an_assumed_rate():
    # schema-valid, but the default rate -ln(0)/2 does not exist
    doc = with_device(theta=0.5, noise={"kind": "depolarizing", "p_coh": 0.0})
    assert jsonschema.Draft202012Validator(SCHEMA).is_valid(doc)
    assert not parser_accepts(doc)
    assert parser_accepts({**doc, "k_sigma_assumed": 1.0})
