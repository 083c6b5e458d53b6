"""Checks on the library source itself."""

import ast
from pathlib import Path

import unitred


def test_library_has_no_assert_statements():
    # python -O strips assert, and a certificate check must never vanish;
    # integrity checks raise VerificationError or ValueError instead
    modules = sorted(Path(unitred.__file__).parent.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
