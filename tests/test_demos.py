"""Every demo runs to the end and prints what it printed when recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unitred

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# sha256 of each demo's stdout; the output does not depend on PYTHONHASHSEED
DEMO_DIGESTS = {
    "01_field_arithmetic.py": "d7d73288fee453f68b685b19a2abad38f1c396f54c674152a2b5b4c1e523082f",
    "02_trace_forms_and_minima.py": "5fa442e1832aeee73351a02f25204ec9536cad641801a549478405f97456d0d4",
    "03_classification.py": "abefaa85870c0fd9af75c8babe16e34fac201e3778fb784020139625f101f7f6",
    "04_witnesses_and_bounds.py": "e43809276dab155b96aabc16819e87ee7b2739e56e2d5f093224e4a4cf17cfe9",
    "05_real_subfields.py": "765896df9dd312e46dab521dd62d4b373e56a5cad4ca288ccaffcb5053d71a90",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_prints_recorded_output(name):
    # the child runs the package under test with this interpreter's -O level
    src = str(Path(unitred.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, str(DEMOS / name)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]
