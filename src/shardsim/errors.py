"""Exception types shared across the package."""

import math
from dataclasses import fields


class ConfigError(ValueError):
    """An architecture, policy, or run configuration is invalid."""


class TopologyError(ValueError):
    """A process-group request is incompatible with the cluster layout."""


_KINDS = {"int": "an integer", "float": "a finite number", "bool": "a boolean"}


def check_field_types(obj) -> None:
    """Refuse a dataclass field whose value does not have its annotated type:
    an `int` field takes an int that is not a bool, a `float` field a finite
    int or float, a `bool` field a bool.  Other fields are not checked."""
    for f in fields(obj):
        kind = getattr(f.type, "__name__", f.type)
        if kind not in _KINDS:
            continue
        value = getattr(obj, f.name)
        if isinstance(value, bool):
            ok = kind == "bool"
        elif isinstance(value, int):
            ok = kind != "bool"
        else:
            ok = kind == "float" and isinstance(value, float) \
                and math.isfinite(value)
        if not ok:
            raise ConfigError(f"{f.name} must be {_KINDS[kind]}, got {value!r}")
