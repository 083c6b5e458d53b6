"""serialize.dumps_canonical against the Fraction-to-string tree walk it
replaced: json.dumps of the payload with every Fraction (subclasses
included) turned into its string first, found by isinstance."""

import json
import sys
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import unitred.cli  # noqa: F401  (the sweep workload runs through the CLI)
import unitred.serialize as serialize
from unitred.field import make_field
from unitred.realfield import make_real_field
from unitred.serialize import dumps_canonical

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _isinstance_jsonable(obj):
    """The payload with every Fraction replaced by its exact string."""
    if isinstance(obj, Fraction):
        return str(Fraction(obj))
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
    assert dumps_canonical(obj) == _dumps_oracle(obj)


@pytest.mark.parametrize(
    "obj",
    [{1, 2}, make_field(5).one(), [make_real_field(16).theta()], {"x": object()}],
    ids=["set", "element", "real element in a list", "object in a dict"],
)
def test_dumps_canonical_rejects_what_json_cannot_encode(obj):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        dumps_canonical(obj)


@pytest.mark.parametrize("name", ["witness", "forms", "sweep", "identities"])
def test_dumps_canonical_is_byte_identical_on_every_workload_payload(name, monkeypatch):
    # every payload a benchmark pass hands to dumps_canonical, recorded at
    # its one json.dumps call
    payloads = []

    def recording(obj, **kwargs):
        payloads.append(obj)
        return json.dumps(obj, **kwargs)

    monkeypatch.setattr(serialize, "json", SimpleNamespace(dumps=recording))
    for item in workloads.build(name, "full", 1):
        item.run()
    monkeypatch.undo()
    assert payloads
    for payload in payloads:
        assert dumps_canonical(payload) == _dumps_oracle(payload)
