"""Record the output reference that every benchmark call is checked against.

    python3 perfbench/record.py

Makes one untraced call per workload and input seed and writes what
``workloads.check`` compares to ``reference.json``. The committed reference
was recorded from the commit that added the benchmark; re-record only when a
change is meant to alter outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, WORK, run_call
from workloads import INPUT_POOL, REFERENCE, WORKLOADS, collect_outputs, expected_from, prepare


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    reference: dict = {}
    for w in WORKLOADS.values():
        reference[w.name] = {}
        for seed in range(INPUT_POOL) if w.seeded else (0,):
            r = run_call(prepare(w, seed), "call", 0)
            if r["error"] is not None:
                print(f"{w.name} seed {seed}: {r['error']}", file=sys.stderr)
                return 1
            reference[w.name][str(seed)] = expected_from(collect_outputs(w, r["exit_code"]))
            print(f"{w.name} seed {seed}: exit {r['exit_code']}, {r['wall_s']:.2f} s")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
