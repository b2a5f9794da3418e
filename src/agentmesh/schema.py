"""The typed reader of every JSON input file.

Four file formats come from outside the program: the run config, the
agent-card file, the SFT dataset (one JSON object per line) and the
checkpoint. Each JSON object in them is read by one loader, ``_build``, into
the dataclass or function it describes: its keys are the target's
parameters, absent keys keep the target's defaults and unknown keys are
ignored. Values are checked against the declared types (numbers must be
finite), and every error is a :class:`BadConfig` naming the dotted key, e.g.
``trainer.learning_rate: must be finite``; a reader of a file format other
than the config re-raises it as that format's error.

This module imports nothing else of the package but its errors, so that
every module that declares a file format can use it.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import typing
from collections.abc import Mapping, Sequence
from functools import cache
from pathlib import Path
from types import UnionType
from typing import Any, Callable, Optional

from .errors import BadConfig

# A key is a top-level name ("" for the root) or a (parent key, name or list
# index) pair. It is rendered as a dotted path only for an error message,
# since a config may hold thousands of entries.


def _dotted(key) -> str:
    if type(key) is not tuple:
        return key
    parent, last = _dotted(key[0]), key[1]
    if type(last) is int:
        return f"{parent}[{last}]"
    return f"{parent}.{last}" if parent else last


def _object(value, key) -> dict:
    if type(value) is not dict:
        raise BadConfig(f"{_dotted(key)}: must be an object" if key else "must be an object")
    return value


def _list(value, key) -> list:
    if type(value) is not list:
        raise BadConfig(f"{_dotted(key)}: must be a list")
    return value


def _str(value, key) -> str:
    if type(value) is not str:
        raise BadConfig(f"{_dotted(key)}: must be a string")
    return value


def _float(value, key) -> float:
    if type(value) is float and math.isfinite(value):
        return value
    if type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    # a JSON true/false is a bool, not a number
    problem = "must be finite" if type(value) in (int, float) else "must be a number"
    raise BadConfig(f"{_dotted(key)}: {problem}")


def _int(value, key) -> int:
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    _float(value, key)  # raises for a non-number or a non-finite one
    raise BadConfig(f"{_dotted(key)}: must be an integer")


def _converter(tp) -> Optional[Callable[[Any, Any], Any]]:
    """A function ``(json_value, key) -> value`` that checks a JSON value
    against the declared type ``tp`` and converts it; None for a type that
    only a caller supplies."""
    if tp in _SCALARS:
        return _SCALARS[tp]
    if tp is Path:
        return lambda v, key: Path(_str(v, key))
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, UnionType) and type(None) in args:
        (inner,) = [a for a in args if a is not type(None)]
        item = _converter(inner)
        return item and (lambda v, key: None if v is None else item(v, key))
    if origin is dict:
        item = _converter(args[1])
        return lambda v, key: {k: item(x, (key, k)) for k, x in _object(v, key).items()}
    if origin in (tuple, frozenset, Sequence):
        item = _converter(args[0])
        make = frozenset if origin is frozenset else tuple
        return lambda v, key: make([item(x, (key, i)) for i, x in enumerate(_list(v, key))])
    return None


_SCALARS = {int: _int, float: _float, str: _str}


@cache
def _params(target) -> tuple[tuple[tuple[str, Callable], ...], frozenset[str]]:
    """(name, converter) of each parameter of ``target``, and the names of
    the required ones; reflected once per target."""
    hints = typing.get_type_hints(target)
    params = inspect.signature(target).parameters.values()
    converters = tuple((p.name, _converter(hints.get(p.name))) for p in params)
    required = frozenset(p.name for p in params if p.default is inspect.Parameter.empty)
    return converters, required


_AS_NAMED: Mapping[str, str] = {}


def _build(target: Callable, section, key, spelling: Mapping[str, str] = _AS_NAMED, **given):
    """``target(**kwargs)`` from the JSON object ``section`` found at ``key``.

    ``given`` arguments are passed as they are and cannot be set from the
    file. Any other parameter is read from the entry of its name, or of the
    name ``spelling`` maps it to, converted to its declared type; an absent
    one keeps the target's default.
    """
    converters, required = _params(target)
    section = _object(section, key)
    kwargs = given
    for name, convert in converters:
        entry = spelling.get(name, name)
        if entry in section and name not in given:
            kwargs[name] = convert(section[entry], (key, entry))
    try:
        return target(**kwargs)
    except (BadConfig, ValueError, TypeError, KeyError) as exc:
        missing = required - kwargs.keys()
        if missing:
            name = min(missing)
            raise BadConfig(f"{_dotted((key, spelling.get(name, name)))}: required") from None
        raise BadConfig(f"{_dotted(key)}: {exc}" if key else str(exc)) from None


def _read_json(path, key: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadConfig(f"{key}: cannot read {path}: {exc}") from None
    except ValueError as exc:  # malformed JSON or text encoding
        raise BadConfig(f"{key}: {path} is not valid JSON: {exc}") from None
