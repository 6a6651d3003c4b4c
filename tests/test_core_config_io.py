"""NPUConfig JSON (de)serialization tests."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config_io import (
    config_from_dict,
    config_to_dict,
    dumps,
    load,
    loads,
    save,
)
from repro.core.designs import supernpu
from repro.device.cells import rsfq_library
from repro.errors import ConfigError, ReproError
from repro.estimator.arch_level import estimate_npu


def test_round_trip_preserves_config():
    config = supernpu()
    assert loads(dumps(config)) == config


def test_dict_round_trip():
    config = supernpu()
    assert config_from_dict(config_to_dict(config)) == config


def test_file_round_trip(tmp_path):
    config = supernpu()
    path = tmp_path / "supernpu.json"
    save(config, path)
    assert load(path) == config
    assert path.read_text().startswith("{")


def test_unknown_field_rejected():
    data = config_to_dict(supernpu())
    data["warp_factor"] = 9
    with pytest.raises(ValueError, match="warp_factor"):
        config_from_dict(data)


def test_missing_name_rejected():
    data = config_to_dict(supernpu())
    del data["name"]
    with pytest.raises(ValueError, match="name"):
        config_from_dict(data)


@pytest.mark.parametrize("name", [5, None, True, 1.5, [], {}])
def test_non_string_name_rejected(name):
    data = config_to_dict(supernpu())
    data["name"] = name
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict(data)
    assert excinfo.value.code == "config.invalid_value"
    with pytest.raises(ConfigError):
        loads(json.dumps(data))


def test_non_utf8_file_is_a_config_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError) as excinfo:
        load(path)
    assert excinfo.value.code == "config.unreadable"


def test_invalid_values_still_validated():
    data = config_to_dict(supernpu())
    data["pe_array_width"] = 0
    with pytest.raises(ValueError):
        config_from_dict(data)


def test_non_object_json_rejected():
    with pytest.raises(ValueError):
        loads("[1, 2, 3]")


def test_dumps_is_stable():
    a = dumps(supernpu())
    b = dumps(supernpu())
    assert a == b


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70)
    | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(
    st.sampled_from(sorted(config_to_dict(supernpu())) + ["bogus"]),
    _JSON, max_size=5))
def test_any_config_document_estimates_or_raises_a_repro_error(changes):
    text = json.dumps({**config_to_dict(supernpu()), **changes})
    try:
        estimate = estimate_npu(loads(text), rsfq_library())
    except ReproError:
        return
    assert 0 < estimate.frequency_ghz < math.inf


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=64))
def test_any_config_file_bytes_load_or_raise_a_config_error(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_bytes(raw)
    try:
        load(path)
    except ConfigError:
        pass
