"""Fast self-test of the benchmark at toy sizes (about half a minute).

    python3 perfbench/selftest.py

Runs every workload through run.py with --size toy, untraced and traced,
and asserts that every metric BENCHMARK.json names is printed with its unit,
that every output check of the workload ran and passed, that the traced
counters repeat between children, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(1, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "5", "--trace", str(trace), "--size", "toy",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class ToyRuns(unittest.TestCase):
    def check_run(self, workload: str, trace: int) -> dict:
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in spec},
        )
        for m in spec:
            self.assertTrue(
                any(line.split()[:1] == [m["name"]] and line.endswith(" " + m["unit"]) for line in lines),
                f"{m['name']} is not printed with its unit",
            )
        self.assertTrue(any(line.split()[:1] == ["fail_ratio"] for line in lines))
        path = next(line.split()[-1] for line in lines if line.strip().startswith("result file"))
        record = json.loads((ROOT / path).read_text())
        self.assertLessEqual(workloads.CHECKS[workload], set(record["checks_run"]))
        for p in record["passes"]:
            self.assertTrue(p["checks"])
            self.assertTrue(all(ok for _, _, ok, _ in p["checks"]))
        env = record["environment"]
        for key in ("python", "platform", "git_sha", "nproc", "loadavg_at_start", "seed"):
            self.assertIn(key, env)
        return record

    def test_untraced(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0)

    def test_traced(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                record = self.check_run(workload, 1)
                traced = [p for p in record["passes"] if p["mode"] == "traced"]
                self.assertGreaterEqual(len(traced), 2, "counters need two traced children")
                self.assertEqual(record["summary"]["counter_mismatches"], [])
                self.assertGreater(traced[0]["layers"]["trace.spans"], 0)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_results") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("witness", 0, cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    (ROOT / ".bench_results").mkdir(exist_ok=True)
    unittest.main()
