"""Canonical JSON output.

All machine-readable output goes through dumps_canonical so identical inputs
produce byte-identical artifacts: sorted keys, no whitespace, exact values as
strings (never floats).
"""

from __future__ import annotations

import json
from fractions import Fraction


def _exact(obj) -> str:
    """Exact decimal-free rendering of a Fraction: "3", "-1/2"."""
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps_canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_exact)
