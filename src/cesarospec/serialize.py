"""Deterministic text forms for report output.

Identical inputs must produce byte-identical output across runs and machines,
so floats are printed with repr-faithful 17 significant digits, rationals as
p/q, complex values as a+bi, and dict keys are emitted sorted.

The report text has one byte contract: ``dumps_json(v)`` is exactly
``json.dumps(jsonable(v), indent=2, sort_keys=True) + "\\n"``.  With
``indent`` set the standard library encodes in pure Python, so the text is
written here in one walk instead, with no intermediate tree.  ``_scalar``
and ``_members`` hold the one set of type rules; ``jsonable`` (the CSV
path) and the writer both go through them.  The contract covers the one
shortcut too: ``_number_pairs`` writes a tuple of pairs of plain ``int`` and
finite ``float`` values (every verdict's evidence) in one loop.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

_CONTAINER = object()
_SEQUENCES = (list, tuple, np.ndarray)
# exact types that most report nodes have, answered before the general rules
_AS_IS = frozenset({type(None), bool, str, int})
_PLAIN_CONTAINERS = frozenset({dict, list, tuple})
_NUMBERS = frozenset({int, float})


def format_float(x: float) -> str:
    if x != x:
        return "nan"
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    return f"{float(x):.17g}"


def format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{format_float(z.real)}{sign}{format_float(abs(z.imag))}i"


def _scalar(v) -> Any:
    """The JSON value of a scalar, or _CONTAINER when v is not one.

    Exact numbers become their string forms (p/q) so nothing silently
    loses precision; finite floats stay floats (printed repr-faithfully),
    and nan and the infinities become strings.
    """
    t = type(v)
    if t in _AS_IS:
        return v
    if t in _PLAIN_CONTAINERS:
        return _CONTAINER
    if isinstance(v, (bool, str, int)):
        return v
    if isinstance(v, (np.floating, float)):
        f = float(v)
        if f != f or f in (float("inf"), float("-inf")):
            return format_float(f)
        return f
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, (np.complexfloating, complex)):
        return format_complex(complex(v))
    return _CONTAINER


def _members(v) -> list | None:
    """(key, value) pairs of a dict or dataclass, sorted by key text; None
    for a list, tuple or array, whose elements are read in order."""
    if isinstance(v, dict):
        return [(str(k), v[k]) for k in sorted(v, key=str)]
    if isinstance(v, _SEQUENCES):
        return None
    if hasattr(v, "__dataclass_fields__"):
        return [(name, getattr(v, name))
                for name in sorted(v.__dataclass_fields__)]
    raise TypeError(f"cannot serialize {type(v).__name__}")


def jsonable(v) -> Any:
    """Convert nested values to JSON-compatible structures, deterministically."""
    s = _scalar(v)
    if s is not _CONTAINER:
        return s
    pairs = _members(v)
    if pairs is None:
        return [jsonable(x) for x in v]
    return {k: jsonable(x) for k, x in pairs}


def _number_pairs(v: tuple, inner: str) -> list | None:
    """Texts of the pairs in v at indent ``inner``, when every element is a
    pair of plain ints and finite floats; None for any other tuple."""
    sep = "\n" + inner + "  "
    items = []
    for pair in v:
        if type(pair) is not tuple or len(pair) != 2:
            return None
        a, b = pair
        # x - x is NaN, not 0, exactly when x is nan or infinite
        if type(a) not in _NUMBERS or type(b) not in _NUMBERS \
                or a - a != 0 or b - b != 0:
            return None
        items.append(f"[{sep}{a!r},{sep}{b!r}\n{inner}]")
    return items


def _write(v, pad: str) -> str:
    """JSON text of v at indent ``pad``, as json.dumps(indent=2) lays it out."""
    s = _scalar(v)
    if s is not _CONTAINER:
        if s is None:
            return "null"
        if s is True:
            return "true"
        if s is False:
            return "false"
        if isinstance(s, str):
            return encode_basestring_ascii(s)
        if isinstance(s, int):
            return int.__repr__(s)
        return float.__repr__(s)
    inner = pad + "  "
    pairs = _members(v)
    if pairs is None:
        items = _number_pairs(v, inner) if type(v) is tuple else None
        if items is None:
            items = [_write(x, inner) for x in v]
        brackets = "[]"
    else:
        # equal key texts keep the last value, as a dict built from them would
        texts = {k: _write(x, inner) for k, x in pairs}
        items = [f"{encode_basestring_ascii(k)}: {t}" for k, t in texts.items()]
        brackets = "{}"
    if not items:
        return brackets
    body = (",\n" + inner).join(items)
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}"


def dumps_json(payload) -> str:
    """Canonical JSON text: sorted keys, two-space indent, one final newline."""
    return _write(payload, "") + "\n"
