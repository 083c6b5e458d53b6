"""Alternating benchmark pairs of two checkouts, written as bench/BENCH_<label>.json.

    python3 bench/pairs.py PARENT CHANGE --label NAME --seed 2201 \
        [--workload witness ...] [--claim witness:wall_s]

PARENT and CHANGE are two checkouts of this repository, each a git clone
with its own perfbench/ and src/ and no uncommitted change to a tracked
file.  Both are byte-compiled with compileall first, and every run sets
PYTHONDONTWRITEBYTECODE=1, so each child reads that bytecode and none
compiles the package (a child that compiles it reads a different peak RSS).
Each workload gets ten pairs: pair i runs seed SEED + i on both sides with
`perfbench/run.py --trace 0` for BENCHMARK.json's run_seconds; odd pairs run
the parent first, even pairs the change first.  Pair i of every workload
runs, both sides, before pair i + 1 starts (see run_order), so a few minutes
of load from other jobs land on one pair of each workload rather than on
consecutive pairs of one.

Per workload and side the file holds the median and quartiles (inclusive
method) of each end-to-end metric over the runs, the runs in pair order, and
the number of pairs the change read lower.  run.py's peak_rss_mb is the
median over every pass child of a run, and each child's figure includes the
resident size of the run.py that spawned it, which grows with the passes it
has recorded; so the file also keeps each run's number of pass children and
the median peak over its first five.  With --claim WORKLOAD:METRIC it
records whether the change won at least nine of the ten pairs on that
metric, its median beat the parent's by more than the parent's
interquartile range, and every run of that workload on both sides was
correct.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("setup_s", "wall_s", "peak_rss_mb")
SIDES = ("parent", "change")
PAIRS = 10


def git_sha(checkout: Path) -> str:
    dirty = subprocess.run(
        ["git", "-C", str(checkout), "status", "--porcelain", "--untracked-files=no"],
        capture_output=True, text=True, check=True,
    ).stdout
    if dirty.strip():
        sys.exit(f"{checkout} has uncommitted changes to tracked files:\n{dirty}")
    return subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()


def compile_checkout(checkout: Path) -> None:
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=checkout, check=True
    )


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its medians, correctness and pass-level peaks."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{checkout}: {' '.join(cmd)} printed nothing:\n{proc.stderr}")
    summary = json.loads(lines[-1])
    record_line = next(line for line in lines if line.strip().startswith("result file "))
    record = json.loads((checkout / record_line.split("result file ", 1)[1].strip()).read_text())
    peaks = [p["peak_rss_mb"] for p in record["passes"] if p["mode"] == "run"]
    return {
        "correct": summary["correct"] and proc.returncode == 0,
        "metrics": {m: summary["metrics"][m]["value"] for m in METRICS},
        "pass_children": len(peaks),
        "first_five_peak_rss_mb": statistics.median(peaks[:5]),
    }


def run_order(names: list[str]) -> list[tuple[int, str, str]]:
    """(pair, workload, side) in the order they run: pair i of every workload,
    both sides, before pair i + 1; odd pairs run the parent first."""
    return [(i, name, side) for i in range(1, PAIRS + 1) for name in names
            for side in (SIDES if i % 2 else SIDES[::-1])]


def quartiles(runs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": runs}


def compare(parent: list[float], change: list[float]) -> dict:
    return {
        "parent": quartiles(parent),
        "change": quartiles(change),
        "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--label", required=True)
    ap.add_argument("--seed", type=int, required=True, help="pair i uses seed + i")
    ap.add_argument("--workload", action="append", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to lower")
    args = ap.parse_args()

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    shas = {side: git_sha(path) for side, path in checkouts.items()}
    for path in checkouts.values():
        compile_checkout(path)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    names = args.workload or [w["name"] for w in benchmark["workloads"]]

    seeds = [args.seed + i for i in range(1, PAIRS + 1)]
    runs = {name: {side: [] for side in SIDES} for name in names}
    for i, name, side in run_order(names):
        r = run_once(checkouts[side], name, args.seed + i, seconds)
        runs[name][side].append(r)
        print(f"{name} pair {i} {side}: " + " ".join(
            f"{m} {r['metrics'][m]:.4g}" for m in METRICS) + f" correct {r['correct']}", flush=True)

    workloads = {}
    for name, by_side in runs.items():
        series = {side: {m: [r["metrics"][m] for r in by_side[side]] for m in METRICS} for side in SIDES}
        first_five = {side: [r["first_five_peak_rss_mb"] for r in by_side[side]] for side in SIDES}
        workloads[name] = {
            "pairs": len(seeds),
            "seeds": seeds,
            "all_correct": all(r["correct"] for side in SIDES for r in by_side[side]),
            "metrics": {m: compare(series["parent"][m], series["change"][m]) for m in METRICS},
            "pass_children": {side: [r["pass_children"] for r in by_side[side]] for side in SIDES},
            "first_five_passes_peak_rss_mb": compare(first_five["parent"], first_five["change"]),
        }

    claim = None
    if args.claim:
        wname, metric = args.claim.split(":")
        w = workloads[wname]
        m = w["metrics"][metric]
        gap = m["parent"]["median"] - m["change"]["median"]
        iqr = m["parent"]["q3"] - m["parent"]["q1"]
        wins = m["change_lower_in_pairs"]
        claim = {
            "workload": wname, "metric": metric, "wins": wins, "pairs": PAIRS,
            "median_gap": gap, "parent_iqr": iqr, "all_correct": w["all_correct"],
            "met": wins >= 9 and gap > iqr and w["all_correct"],
        }
    out = {
        "label": args.label,
        "claim": claim,
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "command": f"python3 perfbench/run.py --workload <w> --seed <seed> --seconds {seconds:g} --trace 0",
        "order": "pair i of every workload, both sides, before pair i + 1; odd pairs run the "
                 "parent first, even pairs the change first",
        "bytecode": "both checkouts compiled with `python -m compileall src perfbench` before the "
                    "first run; PYTHONDONTWRITEBYTECODE=1 was set for every run",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": workloads,
    }
    path = ROOT / "bench" / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    if claim:
        print(json.dumps(claim))
    return 0 if all(w["all_correct"] for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
