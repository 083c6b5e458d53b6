"""serialize.jsonable against the isinstance chain it runs by default."""

import json
import sys
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest

import unitred.cli  # noqa: F401  (the sweep workload runs through the CLI)
import unitred.serialize as serialize
from unitred.serialize import dumps_canonical, frac_str, jsonable

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _isinstance_jsonable(obj):
    """jsonable as it ran before the exact-type dispatch."""
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, dict):
        return {k: _isinstance_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_isinstance_jsonable(v) for v in obj]
    return obj


def _dumps_oracle(payload):
    return json.dumps(_isinstance_jsonable(payload), sort_keys=True, separators=(",", ":"))


class _Int(int):
    pass


class _Dict(dict):
    pass


class _Fraction(Fraction):
    pass


class _Colour(IntEnum):
    RED = 1


EDGE_CASES = [
    True,
    False,
    None,
    0,
    -7,
    "",
    "1/2",
    Fraction(-3, 4),
    Fraction(5),
    (1, (2, (Fraction(1, 3), ())), []),
    [True, None, {"a": (False, Fraction(2, 6))}],
    {"n": _Int(3), "m": [_Int(-1)], "c": _Colour.RED},
    _Dict(b=Fraction(1, 2), a=_Dict(x=(1, 2))),
    OrderedDict([("z", 1), ("y", [Fraction(7, 2)])]),
    _Fraction(3, 9),
    {"deep": [[[[(Fraction(1, 5),)]]]]},
]


@pytest.mark.parametrize("obj", EDGE_CASES, ids=repr)
def test_jsonable_matches_isinstance_oracle_on_edge_cases(obj):
    got, want = jsonable(obj), _isinstance_jsonable(obj)
    assert got == want and type(got) is type(want)
    assert dumps_canonical(obj) == _dumps_oracle(obj)


@pytest.mark.parametrize("name", ["witness", "forms", "sweep", "identities"])
def test_dumps_canonical_is_byte_identical_on_every_workload_payload(name, monkeypatch):
    # every payload a benchmark pass hands to dumps_canonical, recorded at
    # the top call of jsonable
    payloads, depth = [], [0]
    inner = serialize.jsonable

    def recording(obj):
        if not depth[0]:
            payloads.append(obj)
        depth[0] += 1
        try:
            return inner(obj)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(serialize, "jsonable", recording)
    for item in workloads.build(name, "full", 1):
        item.run()
    monkeypatch.undo()
    assert payloads
    for payload in payloads:
        assert dumps_canonical(payload) == _dumps_oracle(payload)
