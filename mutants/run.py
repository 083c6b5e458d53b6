"""Run the catalogue of kernel mutants: each one must make its tests fail.

    python3 mutants/run.py

For each mutant in MUTANTS the script copies src/ into a fresh temporary
directory, applies one exact text patch there, and runs the mutant's tests
from this checkout's tests/ with
`python -m pytest -x -q`, the copy first on PYTHONPATH.  The patch's old
text must occur exactly once in its file, or the run fails: a catalogue that
no longer applies proves nothing.  A failing test kills the mutant; a clean
pass means it survived, which is a finding to record, never a reason to
weaken the mutant; a run over TIMEOUT_S counts as killed and is shown as
timeout.  One line per mutant gives the verdict and the time, then
the total; the exit status is non-zero when a mutant survives, a patch does
not apply, or pytest cannot run the tests.  The checkout itself is never
modified.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600

SVP = "unitred/svp.py"
CLOSURE = "tests/test_svp.py::test_slice_and_zeta_closure_match_the_full_walk"
RECORD = "tests/test_svp.py::test_the_orbit_is_recorded_on_the_prepared_form"
SLICES = ["tests/test_svp.py::test_enumeration_matches_brute_force",
          "tests/test_svp.py::test_identity_form_walks_one_slice_per_level"]
LEAF_RUN = "tests/test_svp.py::test_budget_stops_inside_a_leaf_run_match_the_oracle"
LLL = ["tests/test_svp.py::test_integral_lll_matches_fraction_oracle",
       "tests/test_svp.py::test_lll_transform_is_unimodular_and_consistent"]

# (name, file under src/, old text, new text, the test ids that must fail)
MUTANTS = [
    ("orbit: m = N at even N", SVP,
     "big_n if big_n % 2 else big_n // 2", "big_n",
     [RECORD, f"{CLOSURE}[4]", f"{CLOSURE}[32]"]),
    ("orbit: _congruent without the transpose", SVP,
     "zgt = list(zip(*(_combine(zi, g) for zi in z)))", "zgt = [_combine(zi, g) for zi in z]",
     ["tests/test_svp.py::test_lll_transform_is_unimodular_and_consistent", f"{CLOSURE}[5]"]),
    ("orbit: the norm check reads N(1), not N(apply(1))", SVP,
     "at_roots(orbit[0]([1] + [0] * (d - 1)))", "at_roots([1] + [0] * (d - 1))",
     ["tests/test_svp.py::test_a_split_table_with_a_wrong_modulus_is_refused"]),
    ("slices: slice 0 skipped", SVP,
     "for l in [n - 1] if form.orbit else range(n):",
     "for l in [n - 1] if form.orbit else range(1, n):",
     SLICES),
    ("slices: a slice started at t = 0", SVP,
     "recurse(l, top, 0, 1, hi)", "recurse(l, top, 0, 0, hi)",
     SLICES),
    ("orbit: the closure's sign canonicalisation dropped", SVP,
     "y = tuple(map(operator.neg, y) if next(filter(None, y)) < 0 else y)", "y = tuple(y)",
     [f"{CLOSURE}[5]", f"{CLOSURE}[8]"]),
    ("budget: a tie of the two caps goes to the result cap", SVP,
     "if free <= room:", "if free < room:",
     ["tests/test_svp.py::test_integer_kernel_matches_fraction_oracle_on_random_forms"]),
    ("budget: a node cap below 0 not clamped", SVP,
     "max(node_cap - nodes, 0)", "node_cap - nodes",
     ["tests/test_svp.py::test_a_node_cap_below_zero_stops_at_the_first_node"]),
    ("budget: a run that exactly fills a cap trips it", SVP,
     "if count > min(free, room):", "if count >= min(free, room):",
     [LEAF_RUN]),
    ("budget: the result stop one node short", SVP,
     "nodes += room + 1", "nodes += room",
     [LEAF_RUN]),
    ("lll: size reduction by floor", SVP,
     "q = (2 * lam[k][j] + dj) // (2 * dj)", "q = lam[k][j] // dj",
     LLL),
    ("lll: the Lovasz test never swaps", SVP,
     "if den * x >= num * d[k] * d[k]:", "if True:",
     LLL),
]


def patched_copy(dest: Path, path: str, old: str, new: str) -> None:
    """src/ copied to dest with old replaced by new in path; ValueError
    unless old occurs exactly once."""
    shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))
    target = dest / path
    text = target.read_text()
    if text.count(old) != 1:
        raise ValueError(f"{path}: the old text occurs {text.count(old)} times, not once: {old!r}")
    target.write_text(text.replace(old, new))


def run_mutant(path: str, old: str, new: str, tests: list[str]) -> str:
    """'killed by' the first failing test, 'survived' or 'timeout';
    ValueError when the patch does not apply, RuntimeError when pytest
    cannot run the tests."""
    with tempfile.TemporaryDirectory(prefix="unitred-mutant-") as tmp:
        src = Path(tmp) / "src"
        patched_copy(src, path, old, new)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
    if proc.returncode == 0:
        return "survived"
    if proc.returncode == 1:  # some test failed; -q names it on a FAILED line
        failed = [line for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
        return f"killed by {failed[0][len('FAILED '):].split(' - ')[0] if failed else '?'}"
    raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")


def main() -> int:
    bad, start = 0, time.perf_counter()
    for name, path, old, new, tests in MUTANTS:
        t0 = time.perf_counter()
        try:
            verdict = run_mutant(path, old, new, tests)
        except (ValueError, RuntimeError) as exc:
            verdict = f"error: {exc}"
        bad += not verdict.startswith(("killed", "timeout"))
        print(f"{time.perf_counter() - t0:6.1f} s  {name}: {verdict}", flush=True)
    print(f"total {time.perf_counter() - start:.1f} s, {bad} not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
