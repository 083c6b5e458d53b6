"""Record the output digests the benchmark compares against.

    python3 perfbench/record_expected.py

Runs every item whose output does not depend on the seed, at full and toy
size, and writes their digests (nodes_visited stripped) to expected.json.
Re-record only in a change that alters certificate output on purpose and
says so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import unitred.cli  # noqa: E402,F401

import workloads  # noqa: E402


def main() -> None:
    digests = {}
    for size in workloads.SIZES:
        for workload in workloads.WORKLOADS:
            for item in workloads.build(workload, size, seed=0):
                if item.recorded and item.name not in digests:
                    _, text = item.run()
                    digests[item.name] = workloads.output_digest(text)
                    print(item.name, digests[item.name], flush=True)
    workloads.EXPECTED_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
