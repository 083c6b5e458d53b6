"""Canonical JSON output.

All machine-readable output goes through dumps_canonical so identical inputs
produce byte-identical artifacts: sorted keys, no whitespace, exact values as
strings (never floats).
"""

from __future__ import annotations

import json
from fractions import Fraction


def frac_str(q) -> str:
    """Exact decimal-free rendering: "3", "-1/2"."""
    return str(Fraction(q))


_AS_IS = frozenset((str, int, bool, type(None)))


def jsonable(obj):
    """Recursively convert Fractions to strings; leave JSON natives alone.

    The exact builtin types are dispatched first, since isinstance against
    Fraction goes through ABCMeta; anything else, subclasses included, takes
    the isinstance chain."""
    cls = type(obj)
    if cls in _AS_IS:
        return obj
    if cls is dict:
        return {k: jsonable(v) for k, v in obj.items()}
    if cls is list or cls is tuple:
        return [jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def dumps_canonical(payload) -> str:
    return json.dumps(jsonable(payload), sort_keys=True, separators=(",", ":"))
