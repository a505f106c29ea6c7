"""Strict construction of spec dataclasses from plain (JSON/YAML) data.

A key the dataclass does not declare, or a required one that is absent,
is rejected with a one-line message naming where it sits (e.g.
``tenants[0].foo: unknown field; known: name, ...``) instead of a raw
``TypeError`` from the generated ``__init__``.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from typing import Any


def from_plain(cls: Any, data: dict, path: str = "", **convert: Any) -> Any:
    """Build dataclass ``cls`` from ``data`` after checking its keys.

    ``path`` locates ``data`` in the enclosing spec (empty at the top
    level) and prefixes every error.  ``convert`` maps a field name to a
    ``(value, path) -> object`` builder for its nested value; ``None``
    values pass through unconverted.
    """
    prefix = f"{path}." if path else ""
    declared = fields(cls)
    known = [f.name for f in declared]
    for key in data:
        if key not in known:
            raise ValueError(f"{prefix}{key}: unknown field; known: {', '.join(known)}")
    for f in declared:
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{prefix}{f.name}: missing required field")
    data = dict(data)
    for key, build in convert.items():
        if data.get(key) is not None:
            data[key] = build(data[key], prefix + key)
    return cls(**data)


def each(cls: Any) -> Any:
    """A ``convert`` builder for a list of ``cls``, each via ``cls.from_dict``."""
    return lambda items, path: [
        cls.from_dict(item, f"{path}[{index}]") for index, item in enumerate(items)
    ]
