"""One fresh interpreter: set up, run one pass over a workload, check it.

    python3 perfbench/child.py --workload W --seed N --size full --mode run

Modes: `setup` stops once the inputs are ready; `run` makes one untraced
pass; `traced` makes the same pass with spans around every layer call and
writes the spans to --spans.  The last line of stdout is one JSON object;
`ready` is CLOCK_MONOTONIC when set-up finished, so the parent can time
set-up from the moment it started this process.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT / "src"))

_t0 = time.perf_counter()
import unitred  # noqa: E402
import unitred.cli  # noqa: E402,F401  (the sweep goes through the CLI)

IMPORT_S = time.perf_counter() - _t0

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    ap.add_argument("--mode", default="run", choices=("setup", "run", "traced"))
    ap.add_argument("--spans", default=None, help="gzip JSON file for the spans")
    args = ap.parse_args()

    items = workloads.build(args.workload, args.size, args.seed)
    out = {"mode": args.mode, "import_s": IMPORT_S, "ready": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    make_field = unitred.field.make_field  # the cache, before any wrapping
    tracer = tracing.Tracer()
    if args.mode == "traced":
        tracing.install(tracer)
        tracer.active = True

    results = []
    misses = make_field.cache_info().misses
    start = time.perf_counter()
    for i, item in enumerate(items):
        t = time.perf_counter()
        try:
            obj, text = tracer.run_item(i, item.run) if tracer.active else item.run()
            err = None
        except Exception as exc:  # a failed item is counted, the pass goes on
            obj = text = None
            err = f"{type(exc).__name__}: {exc}"
        results.append((item, obj, text, time.perf_counter() - t, err))
    wall = time.perf_counter() - start
    tracer.active = False
    fields_built = make_field.cache_info().misses - misses

    rows, checks = [], []
    output_bytes = nodes = 0
    for item, obj, text, secs, err in results:
        ok = err is None
        if ok:
            chk = workloads.Checker()
            try:
                item.verify(obj, text, chk)
            except Exception as exc:
                chk("check_raised", False, f"{type(exc).__name__}: {exc}")
            checks += [[item.name, name, passed, detail] for name, passed, detail in chk.results]
            ok = chk.ok
            output_bytes += len(text.encode())
            nodes += getattr(obj, "nodes", 0)
        rows.append([item.name, secs, ok, err])

    out.update(
        wall_s=wall,
        items=rows,
        checks=checks,
        counters={
            "items": len(rows),
            "output_bytes": output_bytes,
            "nodes_visited": nodes,
            "fields_built": fields_built,
        },
    )
    if args.mode == "traced":
        out["layers"] = tracer.layer_metrics()
        out["layers"]["field.fields_built"] = fields_built
        if args.spans:
            tracer.write(args.spans, [item.name for item in items])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
