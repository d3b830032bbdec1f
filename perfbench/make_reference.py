"""Record the reference values the workload checks compare against.

    python3 perfbench/make_reference.py

Runs every workload at both sizes for seeds 0 to 9 and writes
perfbench/reference.json.  Run it only on a commit whose
numbers are trusted: later commits must reproduce these values within a
relative tolerance of 1e-9.
"""

import json
import sys
import time

from run import HERE, WORKDIR, WORKLOADS, worker


def main() -> int:
    WORKDIR.mkdir(exist_ok=True)
    table: dict = {}
    for size in ("full", "smoke"):
        for workload in WORKLOADS:
            for seed in range(10):
                result = worker("rep", workload, size, seed, time.monotonic() + 600)
                broken = [name for name, ok, _ in result["checks"]
                          if not ok and not name.startswith("reference ")]
                if broken:
                    print(f"{size} {workload} seed {seed}: invariant checks failed: {broken}",
                          file=sys.stderr)
                    return 1
                table.setdefault(size, {}).setdefault(workload, {})[str(seed)] = result["values"]
                print(f"{size} {workload} seed {seed}: recorded", flush=True)
    (HERE / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
