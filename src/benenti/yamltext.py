"""Block-style YAML text of plain data, as PyYAML's SafeDumper writes it.

``dump(mapping)`` is ``yaml.dump(mapping, Dumper=yaml.SafeDumper,
sort_keys=False, default_flow_style=False)`` byte for byte, for a mapping
built of ``dict`` (``str`` keys), ``list``, ``str``, ``int``, ``float``,
``bool`` and ``None``:

- a nested mapping is indented by two spaces; a sequence under a mapping key
  is not indented, and a collection inside a sequence starts on the line of
  its ``- ``;
- empty collections are written ``{}`` and ``[]``;
- numbers, booleans and ``None`` are written as SafeRepresenter writes them
  (a float is its ``repr``, lowercased, with ``.0`` before a bare exponent);
- keys, and strings as values, are written by PyYAML itself: its quoting
  rules and its wrapping at 80 columns depend on the string, its indent and
  the column it starts at, so each distinct (indent, key, string) is dumped
  once, nested to that indent, and the text of its lines is cached.
"""

from __future__ import annotations

import functools
import math

import yaml

_PROBE_KEY = "a"  # a plain key of one line, to nest a probe to its indent


def dump(mapping: dict) -> str:
    """The text of ``yaml.dump(mapping, Dumper=yaml.SafeDumper,
    sort_keys=False, default_flow_style=False)``."""
    if type(mapping) is not dict:
        raise TypeError(f"expected a dict, got {type(mapping).__name__}")
    if not mapping:
        return "{}\n"
    out = []
    _mapping(out, mapping, 0)
    return "".join(out)


def _mapping(out: list, mapping: dict, indent: int) -> None:
    """Append the lines of a non-empty mapping whose keys are at ``indent``."""
    for key, value in mapping.items():
        kind = type(value)
        if kind is str:
            out.append(_entry(indent, key, value))
        elif (kind is dict or kind is list) and value:
            head = _key(indent, key)
            if "\n" in head:  # "? key" and ":" on lines of their own
                _nested(out, value, indent, head + " ")
            else:
                out.append(head + "\n")
                if kind is dict:
                    _mapping(out, value, indent + 2)
                else:
                    _sequence(out, value, indent)
        else:
            out.append(f"{_key(indent, key)} {_scalar(value)}\n")


def _sequence(out: list, items: list, indent: int) -> None:
    """Append the lines of a non-empty sequence whose dashes are at ``indent``."""
    dash = " " * indent + "- "
    for item in items:
        kind = type(item)
        if kind is str:
            out.append(_item(indent, item))
        elif (kind is dict or kind is list) and item:
            _nested(out, item, indent, dash)
        else:
            out.append(f"{dash}{_scalar(item)}\n")


def _nested(out: list, value, indent: int, lead: str) -> None:
    """Append a non-empty collection that starts on the line of ``lead``, a
    dash at ``indent`` or the ``:`` of a key written with ``?``: it is
    written two spaces in, and ``lead`` takes the indent of its first line."""
    first = len(out)
    if type(value) is dict:
        _mapping(out, value, indent + 2)
    else:
        _sequence(out, value, indent + 2)
    out[first] = lead + out[first][indent + 2:]


def _scalar(value) -> str:
    """SafeRepresenter's plain text of a non-string scalar or an empty
    collection."""
    kind = type(value)
    if kind is float:
        if math.isnan(value):
            return ".nan"
        if math.isinf(value):
            return ".inf" if value > 0 else "-.inf"
        text = repr(value).lower()
        if "." not in text and "e" in text:
            text = text.replace("e", ".0e", 1)
        return text
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    if value is None:
        return "null"
    if kind is dict and not value:
        return "{}"
    if kind is list and not value:
        return "[]"
    raise TypeError(f"cannot write a {kind.__name__} as YAML")


def _pyyaml(doc, indent: int, skip: int) -> str:
    """PyYAML's text of ``doc`` nested under keys to ``indent``, without the
    lines of those keys and ``skip`` lines more."""
    for _ in range(indent // 2):
        doc = {_PROBE_KEY: doc}
    text = yaml.dump(doc, Dumper=yaml.SafeDumper, sort_keys=False,
                     default_flow_style=False)
    return text.split("\n", indent // 2 + skip)[-1]


@functools.lru_cache(maxsize=4096)
def _entry(indent: int, key: str, value: str | None) -> str:
    """The lines of the entry ``key: value`` of a mapping at ``indent``."""
    if type(key) is not str:
        raise TypeError(f"mapping keys must be str, got {type(key).__name__}")
    return _pyyaml({key: value}, indent, 0)


@functools.lru_cache(maxsize=1024)
def _key(indent: int, key: str) -> str:
    """The text of a key at ``indent`` up to its ``:``."""
    return _entry(indent, key, None).removesuffix(" null\n")


@functools.lru_cache(maxsize=4096)
def _item(indent: int, value: str) -> str:
    """The lines of the item ``- value`` of a sequence at ``indent``."""
    return _pyyaml({_PROBE_KEY: [value]}, indent, 1)
