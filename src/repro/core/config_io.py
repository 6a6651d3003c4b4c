"""NPUConfig (de)serialization: experiment configs as JSON files.

Lets design points travel as plain JSON — regression suites, sweep
manifests, issue reports — and lets the CLI consume ad-hoc configurations
without code changes.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.errors import ConfigError
from repro.uarch.config import NPUConfig

#: Fields accepted from JSON (exactly the dataclass's fields).
_FIELDS = {field.name for field in dataclasses.fields(NPUConfig)}


def config_to_dict(config: NPUConfig) -> Dict[str, Any]:
    """A plain-JSON-compatible dict of the configuration."""
    return dataclasses.asdict(config)


def config_from_dict(data: Dict[str, Any]) -> NPUConfig:
    """Build (and validate) a configuration from a dict.

    Unknown keys are rejected loudly — silent typos in sweep manifests are
    how wrong experiments get published.
    """
    unknown = set(data) - _FIELDS
    if unknown:
        raise ConfigError(
            f"unknown NPUConfig fields {sorted(unknown)}; known: {sorted(_FIELDS)}",
            code="config.unknown_fields", hint="check for typos in the config JSON",
            unknown=sorted(unknown),
        )
    if "name" not in data:
        raise ConfigError("a config needs a 'name'", code="config.missing_name")
    if not isinstance(data["name"], str):
        raise ConfigError(
            f"a config's 'name' must be a string, not {type(data['name']).__name__}",
            code="config.invalid_value", field="name")
    try:
        return NPUConfig(**data)
    except TypeError as error:
        raise ConfigError(f"malformed config: {error}",
                          code="config.malformed") from error


def dumps(config: NPUConfig, indent: int = 2) -> str:
    return json.dumps(config_to_dict(config), indent=indent, sort_keys=True)


def loads(text: str) -> NPUConfig:
    try:
        data = json.loads(text)
    except ValueError as error:
        raise ConfigError(f"config is not valid JSON: {error}",
                          code="config.invalid_json") from error
    if not isinstance(data, dict):
        raise ConfigError("config JSON must be an object",
                          code="config.not_object")
    return config_from_dict(data)


def save(config: NPUConfig, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps(config) + "\n", encoding="utf-8")


def load(path: Union[str, Path]) -> NPUConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        raise ConfigError(f"cannot read config file {path}: {error}",
                          code="config.unreadable", path=str(path)) from error
    return loads(text)
