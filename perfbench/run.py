"""Benchmark for unitred: end-to-end metrics per workload, layers on demand.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is built from `src/` next to this directory.
Uses the standard library only.

Closed loop, one client: every item waits for the previous one and only one
child interpreter runs at a time.  Each child is a fresh `python3` (so no
lru_cache'd field outlives it, as for a CLI call), reports when its set-up
is done and then makes one pass over the workload's items.  Peak RSS comes
from os.wait4 on that child.  A run first starts one child that only warms
the bytecode cache, then SETUP_CHILDREN children that only set up, then
pass children until --seconds have passed (the last pass may run over);
the metrics are medians.

Workloads (see BENCHMARK.json for the one-line reasons):
  witness     verify_witness(25), verify_witness(32) and
              verify_real_witness(49, force=True) as certificate JSON; no seed
  forms       shortest(gram(x * conj(x))) for x with coefficients in
              {-1, 0, 1}: four fixed forms over K_33 and K_44 and eight
              seeded ones over K_15 and K_16
  sweep       `unitred sweep 3..600` through cli.run; no seed
  identities  seeded eq4_check trials, real-subfield round trips at 49 and
              64, and l75_scan(7, 2)

--trace 0 prints the end-to-end metrics:
  setup_s      child start until its inputs are ready (interpreter,
               `import unitred`, input generation)
  wall_s       one pass over the items after set-up, including to_json_dict
               and dumps_canonical; the output checks run outside it
  peak_rss_mb  the pass child's maximum resident set size
fail_ratio (items that raised or failed a check, over items attempted) is
printed too and is what `failed` / `attempted` carry; any failure makes
`correct` false and the exit code 1.

--trace 1 alternates untraced and traced pass children and prints the
per-layer metrics of the traced ones: the self time of each layer's public
calls (tracer.py lists them), the hardware-independent counters, and
trace.overhead_s, the traced minus the untraced wall_s.  Spans are written
to .bench_results/ next to the result file.

Counters must repeat exactly between the children of a run (same code, same
seed); a difference makes the run incorrect.  Every run writes a result
file to .bench_results/ with the Python version, platform, git SHA, source
digest, nproc, load average at start and the seed.

--size toy runs the same workloads at toy sizes; selftest.py uses it.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("witness", "forms", "sweep", "identities")
SETUP_CHILDREN = 7
RUN_LIMIT_S = 170  # a run must end well inside 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "svp.enum_s": "s",
    "svp.enum_nodes": "count",
    "svp.enum_vectors": "count",
    "svp.enum_yield": "vectors/node",
    "svp.lll_s": "s",
    "field.norm_s": "s",
    "field.norm_calls": "count",
    "realfield.norm_s": "s",
    "realfield.norm_calls": "count",
    "traceform.gram_s": "s",
    "traceform.ldl_s": "s",
    "field.make_field_s": "s",
    "field.fields_built": "count",
    "units.eta_s": "s",
    "certify.criterion_s": "s",
    "certify.classify_s": "s",
    "certify.conductors": "count",
    "field.arith_s": "s",
    "field.arith_ops": "count",
    "realfield.arith_s": "s",
    "realfield.arith_ops": "count",
    "witness.eq4_s": "s",
    "witness.eq4_checks": "count",
    "witness.l75_s": "s",
    "witness.l75_points": "count",
    "witness.verify_s": "s",
    "serialize.dumps_s": "s",
    "serialize.bytes": "B",
    "cli.import_s": "s",
    "bench.item_self_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class ChildError(RuntimeError):
    pass


def run_child(args, mode: str, deadline: float, spans: Path | None = None) -> dict:
    """Start one child, wait for it, return its JSON plus timing and RSS."""
    cmd = [
        sys.executable, str(CHILD),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--mode", mode,
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    killer = threading.Timer(max(deadline - started, 1.0), proc.kill)
    killer.start()
    try:
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise ChildError(f"{mode} child exited with {proc.returncode}: {' '.join(cmd)}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise ChildError(f"{mode} child printed nothing")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - started
    out["elapsed_s"] = time.monotonic() - started
    out["peak_rss_mb"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    return out


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "python": sys.version,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def measure(args, stamp: str) -> tuple[list[dict], list[dict]]:
    """Set-up-only children, then pass children until the time is used."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    run_child(args, "setup", deadline)  # fills the bytecode cache, not measured
    setups = [run_child(args, "setup", deadline) for _ in range(SETUP_CHILDREN)]
    modes = ["run", "traced"] if args.trace else ["run"]
    passes: list[dict] = []
    while len(passes) < len(modes) or time.monotonic() - start < args.seconds:
        mode = modes[len(passes) % len(modes)]
        spans = None
        if mode == "traced":
            spans = RESULTS / f"{stamp}-spans{len(passes) // 2}.json.gz"
        passes.append(run_child(args, mode, deadline, spans))
    return setups, passes


def counter_mismatches(children: list[dict], key: str) -> list[str]:
    """Names of the counters that differ between children of one run."""
    counts = [
        {k: v for k, v in c[key].items() if not k.endswith("_s") and k != "svp.enum_yield"}
        for c in children
    ]
    return sorted({k for c in counts[1:] for k in c if c[k] != counts[0].get(k)})


def summarize(setups, passes) -> dict:
    plain = [p for p in passes if p["mode"] == "run"]
    traced = [p for p in passes if p["mode"] == "traced"]
    attempted = sum(len(p["items"]) for p in passes)
    failed = sum(1 for p in passes for row in p["items"] if not row[2])
    mismatches = counter_mismatches(passes, "counters")
    if traced:
        mismatches += counter_mismatches(traced, "layers")
    med = statistics.median
    metrics = {
        "setup_s": med(c["setup_s"] for c in setups + plain),
        "wall_s": med(p["wall_s"] for p in plain),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
    }
    layers = {}
    if traced:
        for name in PER_LAYER:
            vals = [t["layers"][name] for t in traced if name in t["layers"]]
            if vals:
                layers[name] = med(vals)
        layers["cli.import_s"] = med(c["import_s"] for c in setups + passes)
        layers["trace.wall_s"] = med(t["wall_s"] for t in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - metrics["wall_s"]
    return {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "counter_mismatches": mismatches,
        "metrics": metrics,
        "layers": layers,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    args = ap.parse_args()

    if not (ROOT / "src" / "unitred" / "__init__.py").is_file():
        print(f"no unitred sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2

    env = environment(args)
    RESULTS.mkdir(exist_ok=True)
    stamp = f"{args.workload}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    try:
        setups, passes = measure(args, stamp)
    except ChildError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3
    summary = summarize(setups, passes)
    correct = summary["failed"] == 0 and not summary["counter_mismatches"]

    for p in passes:
        for item, secs, ok, err in p["items"]:
            if not ok:
                print(f"FAILED {p['mode']} {item}: {err or 'output check failed'}", file=sys.stderr)
        for item, name, ok, detail in p["checks"]:
            if not ok:
                print(f"CHECK {name} failed on {item}: {detail}", file=sys.stderr)
    for name in summary["counter_mismatches"]:
        print(f"COUNTER {name} differs between children of this run", file=sys.stderr)

    units = END_TO_END if not args.trace else PER_LAYER
    shown = summary["metrics"] if not args.trace else summary["layers"]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  set-ups {len(setups)}")
    for name, value in summary["metrics"].items():
        print(f"  {name:<22} {value:.6g} {END_TO_END[name]}")
    print(f"  {'fail_ratio':<22} {summary['fail_ratio']:.6g} ratio")
    for name, value in summary["layers"].items():
        print(f"  {name:<22} {value:.6g} {PER_LAYER[name]}")

    record = {
        "environment": env,
        "correct": correct,
        "summary": summary,
        "checks_run": sorted({row[1] for p in passes for row in p["checks"]}),
        "setups": setups,
        "passes": passes,
    }
    path = RESULTS / f"{stamp}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"  result file {path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": shown[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
