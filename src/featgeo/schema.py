"""One reader for every text file the program takes from outside, and one for every JSON value it reads back:
the config, the response cache and the record files.

A value of the wrong JSON type is refused, never coerced into the declared one. Each error names where
the value came from: ``config key X``, ``response cache P line N`` or ``record file F``.
"""

from __future__ import annotations

import dataclasses
import sys
from functools import cache
from pathlib import Path
from typing import Any, Callable, get_args, get_type_hints

from .errors import ValidationError
from .features import FeatureVector

_JSON_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "true or false", list: "a list",
               dict: "an object"}


def read_text(path: Path, what: str) -> str:
    """The UTF-8 text of ``path``; an OSError or a byte that is not UTF-8 is ``cannot read <what> <path>``."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc


def expect(value: Any, kind: type, where: str, among: tuple = ()) -> Any:
    """``value`` if its JSON type is ``kind`` (an int passes as a float, a bool as nothing else) and,
    given ``among``, it is one of those values; ``where`` names the value in the error."""
    if type(value) is not kind and (kind is not float or type(value) is not int):
        raise ValidationError(f"{where} must be {_JSON_KINDS[kind]}, got {value!r}")
    # json.loads reads NaN, Infinity and integers too large for a float; an int compares exactly.
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{where} must be a finite number, got {value!r}")
    if among and value not in among:
        raise ValidationError(f"{where} must be one of {', '.join(map(repr, among))}, got {value!r}")
    return value


@cache
def field_spec(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    """(name, type, required) of each field of dataclass ``cls``; the annotations resolve once per class."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default is dataclasses.MISSING) for f in dataclasses.fields(cls))


def _items(value: Any, kind: type, where: str) -> list[Any]:
    return [expect(item, kind, f"{where}[{i}]") for i, item in enumerate(expect(value, list, where))]


def _vector(value: Any, where: str) -> FeatureVector:
    values = tuple(_items(value, float, where))
    try:
        return FeatureVector(values)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


# Config field types whose JSON form differs from the field value, with their readers.
_CONVERTERS: dict[Any, Callable[[Any, str, Path], Any]] = {
    tuple[Path, ...]: lambda value, where, base: tuple(base / entry for entry in _items(value, str, where)),
    Path: lambda value, where, base: Path(expect(value, str, where)),
    Path | None: lambda value, where, base: None if value in (None, "") else Path(expect(value, str, where)),
    tuple[float, ...]: lambda value, where, base: tuple(float(x) for x in _items(value, float, where)),
    tuple[FeatureVector, ...]: lambda value, where, base: tuple(
        _vector(row, f"{where}[{i}]") for i, row in enumerate(expect(value, list, where))
    ),
}


def read_section(cls: type, raw: Any, prefix: str, base: Path) -> Any:
    """Build config dataclass ``cls`` from a JSON object, field by field.

    Keys name fields; a missing key takes the field's default. ``prefix`` is
    the section's key path, so every error names the full key.
    """
    if not isinstance(raw, dict):
        raise ValidationError(f"config {prefix.rstrip('.') or 'file'} must be a JSON object")
    spec = field_spec(cls)
    unknown = sorted(set(raw) - {name for name, _, _ in spec})
    if unknown:
        raise ValidationError(f"unknown config key {prefix}{unknown[0]}")
    values = {}
    for name, kind, required in spec:
        key = prefix + name
        if name in raw:
            values[name] = _read_value(kind, raw[name], key, base)
        elif required:
            raise ValidationError(f"missing config key {key}")
    return cls(**values)


def _read_value(kind: Any, value: Any, key: str, base: Path) -> Any:
    if kind in _CONVERTERS:
        return _CONVERTERS[kind](value, f"config key {key}", base)
    # A nested section, also an optional one (``SimConfig | None``).
    section = next((t for t in get_args(kind) or (kind,) if dataclasses.is_dataclass(t)), None)
    if section is not None:
        return read_section(section, value, key + ".", base)
    return expect(value, kind, f"config key {key}")
